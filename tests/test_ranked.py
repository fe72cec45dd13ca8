"""Ranked spaces: F/G inverses, B-axioms, morphism transport, up-set slicing."""

import random

import pytest

from bilatdual import ranked, verify
from bilatdual.algebra import build_mk
from bilatdual.corpus import corpus_algebras, structure_corpus
from bilatdual.multisorted import (build_alter_ego, check_axioms,
                                   enumerate_multimorphisms, is_multimorphism,
                                   natural_dual)
from bilatdual.posets import Poset, are_isomorphic, chain, dual, enumerate_downsets, grid
from bilatdual.ranked import (RankedPriestleySpace, StructureAxiomError, check_axioms_B,
                              flat_map_of_multimorphism, functor_F, functor_G,
                              is_ranked_morphism)
from bilatdual.verify import run_suite


def structure_pool(n, seed=51):
    pool = [build_alter_ego(n)]
    for item in corpus_algebras(n, seed, subalgebras=3):
        pool.append(natural_dual(item.algebra, n).structure)
    pool += [X for X in structure_corpus(n, 25, seed) if check_axioms(X).ok]
    return pool


def test_F_of_ego_matches_the_expected_picture():
    for n in (1, 2, 3):
        Y = functor_F(build_alter_ego(n))
        assert Y.poset.n == 4 + 6 * n
        assert check_axioms_B(Y).ok
        names = Y.poset.elements
        assert [names[i] for i in range(Y.poset.n) if Y.rank[i] == 0] == \
            ["bot0", "f0", "t0", "top0"]
        fz = [i for i, nm in enumerate(names) if nm[0] in "f0" and Y.rank[i] > 0]
        # the false/default block is a 2 x n grid, the tops/bots are chains onto g
        fpart = [i for i, nm in enumerate(names)
                 if Y.rank[i] > 0 and (nm.startswith("f") or nm.startswith("0"))]
        assert are_isomorphic(Y.poset.restrict(fpart), grid(2, n)) is not None
        tops = [i for i, nm in enumerate(names) if nm.startswith("top") and Y.rank[i] > 0]
        assert are_isomorphic(Y.poset.restrict(tops), chain(n)) is not None
        itop0 = names.index("top0")
        assert all(Y.g[i] == itop0 for i in tops)
        ibot0 = names.index("bot0")
        bots = [i for i, nm in enumerate(names) if nm.startswith("bot") and Y.rank[i] > 0]
        assert all(Y.g[i] == ibot0 for i in bots)


def test_rank_zero_is_sort_zero():
    for n in (1, 2):
        X = build_alter_ego(n)
        Y = functor_F(X)
        assert sum(1 for r in Y.rank if r == 0) == len(X.sorts[0])


def test_functors_mutually_inverse_on_pool():
    for n in (1, 2):
        for X in structure_pool(n):
            Y = functor_F(X)
            assert check_axioms_B(Y).ok
            assert functor_G(Y) == X
            assert functor_F(functor_G(Y)) == Y


def test_F_rejects_axiom_failures():
    ego = build_alter_ego(1)
    m1 = build_mk(1, 1)
    bad_rel = {(0, 0): ego.rel[(0, 0)],
               (1, 1): ego.rel[(1, 1)] | {(m1.index("f1"), m1.index("t1"))}}
    from bilatdual.multisorted import MultiSortedStructure
    X = MultiSortedStructure(1, ego.sorts, ego.g, bad_rel)
    with pytest.raises(StructureAxiomError):
        functor_F(X)


def test_b3_violation_detected():
    Y = functor_F(build_alter_ego(1))
    leq = Y.poset.leq.copy()
    i, j = Y.poset.elements.index("t1"), Y.poset.elements.index("top1")
    leq[i, j] = True
    bad = RankedPriestleySpace(Poset(Y.poset.elements, leq), Y.g, Y.rank, Y.n)
    rep = check_axioms_B(bad)
    assert not rep.verdicts["B3"].holds
    assert rep.verdicts["B3"].witness == (i, j)


def test_b2_and_b6_violations_detected():
    Y = functor_F(build_alter_ego(1))
    g = list(Y.g)
    i_f1 = Y.poset.elements.index("f1")
    g[Y.poset.elements.index("f0")] = i_f1   # g no longer idempotent
    rep = check_axioms_B(RankedPriestleySpace(Y.poset, tuple(g), Y.rank, Y.n))
    assert not rep.verdicts["B2"].holds
    rank = list(Y.rank)
    rank[Y.poset.elements.index("f0")] = 1   # a retract point with positive rank
    rep = check_axioms_B(RankedPriestleySpace(Y.poset, Y.g, tuple(rank), Y.n))
    assert not rep.verdicts["B6"].holds


def test_b4_violation_detected():
    # join the retract block to a rank-1 point and close transitively
    Y = functor_F(build_alter_ego(1))
    leq = Y.poset.leq.copy()
    i, j = Y.poset.elements.index("top0"), Y.poset.elements.index("top1")
    leq[i, j] = True
    for _ in range(Y.poset.n):
        leq = leq | (leq @ leq)
    bad = RankedPriestleySpace(Poset(Y.poset.elements, leq), Y.g, Y.rank, Y.n)
    rep = check_axioms_B(bad)
    assert not rep.verdicts["B4"].holds
    # the witness is the M0 block joined to top1, in ascending order
    assert rep.verdicts["B4"].witness == (0, 1, 2, 3, 9)
    assert rep.verdicts["B4"].instances == Y.poset.n


def test_morphism_transport_both_directions():
    n = 2
    ego = build_alter_ego(n)
    FE = functor_F(ego)
    pool = structure_pool(n)[:6]
    rng = random.Random(4)
    for X in pool:
        FX = functor_F(X)
        morphs = enumerate_multimorphisms(X, ego)
        for maps in morphs[:8]:
            assert is_ranked_morphism(flat_map_of_multimorphism(maps, ego), FX, FE)
        # random sort-respecting maps: the two predicates must agree either way
        for _ in range(10):
            maps = tuple(tuple(rng.randrange(len(ego.sorts[k]))
                               for _ in range(len(X.sorts[k])))
                         for k in range(n + 1))
            flat = flat_map_of_multimorphism(maps, ego)
            assert is_multimorphism(maps, X, ego) == is_ranked_morphism(flat, FX, FE)


def test_upset_slices_are_mutually_increasing():
    for n in (1, 2):
        X = build_alter_ego(n)
        Y = functor_F(X)
        offsets = [0]
        for k in range(n + 1):
            offsets.append(offsets[-1] + len(X.sorts[k]))
        upset_masks = enumerate_downsets(dual(Y.poset))
        assert len(upset_masks) == len(enumerate_downsets(Y.poset))
        for mask in upset_masks:
            slices = [{i - offsets[k] for i in range(offsets[k], offsets[k + 1])
                       if mask >> i & 1} for k in range(n + 1)]
            for (j, k), rel in X.rel.items():
                for a, b in rel:
                    if a in slices[j]:
                        assert b in slices[k]


def test_mutually_increasing_families_extend_to_upsets():
    # the completion with all higher sorts is an up-set of the amalgam
    n = 2
    X = build_alter_ego(n)
    Y = functor_F(X)
    offsets = [0]
    for k in range(n + 1):
        offsets.append(offsets[-1] + len(X.sorts[k]))
    rng = random.Random(8)
    for _ in range(20):
        j = 1
        k = n
        # grow the least mutually increasing family over a random seed point
        x = rng.randrange(len(X.sorts[j]))
        slices = [set() for _ in range(n + 1)]
        slices[j].add(x)
        changed = True
        while changed:
            changed = False
            for (jj, kk), rel in X.rel.items():
                for a, b in rel:
                    if a in slices[jj] and b not in slices[kk]:
                        slices[kk].add(b)
                        changed = True
        mask = 0
        for kk in range(j, k + 1):
            for i in slices[kk]:
                mask |= 1 << (offsets[kk] + i)
        for kk in range(k + 1, n + 1):
            for i in range(len(X.sorts[kk])):
                mask |= 1 << (offsets[kk] + i)
        # up-set check against the amalgamated order
        for a in range(Y.poset.n):
            for b in range(Y.poset.n):
                if Y.poset.leq[a, b] and mask >> a & 1:
                    assert mask >> b & 1


def test_interchange_and_dot():
    Y = functor_F(build_alter_ego(2))
    dot = Y.to_dot()
    assert "rank=same" in dot and "style=dashed" in dot


def test_functors_roundtrip_checks_the_b_axioms_once(monkeypatch):
    calls = []

    def counted(Y):
        calls.append(Y)
        return check_axioms_B(Y)

    for module in (ranked, verify):   # wherever the check is bound
        monkeypatch.setattr(module, "check_axioms_B", counted, raising=False)
    roundtrips = [c for c in run_suite("functors", 1).checks if c.id.startswith("roundtrip:")]
    assert roundtrips and all(c.status == "pass" for c in roundtrips)
    assert len(calls) == len(roundtrips)


def test_functors_roundtrip_reports_a_b_axiom_failure(monkeypatch):
    def broken_F(X):
        Y = ranked.functor_F(X)
        rank = list(Y.rank)
        rank[0] = 1   # a retract point with positive rank breaks B6
        return RankedPriestleySpace(Y.poset, Y.g, tuple(rank), Y.n)

    monkeypatch.setattr(verify, "functor_F", broken_F)
    roundtrips = [c for c in run_suite("functors", 1).checks if c.id.startswith("roundtrip:")]
    assert roundtrips
    assert all((c.status, c.witness) == ("fail", "F(X) fails the B axioms") for c in roundtrips)
