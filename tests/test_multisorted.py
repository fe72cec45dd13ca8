"""Alter ego, hom-functors, axiom checker, separation-based membership."""

import functools
import itertools
import json
import random

import numpy as np
import pytest

from bilatdual import algebra, corpus, multisorted
from bilatdual.algebra import (GuardExceeded, build_jn, build_mk,
                               enumerate_homs, generated_subalgebra, product)
from bilatdual.bridge import construct_P
from bilatdual.corpus import (SAMPLE_PAIR_CAP, corpus_algebras, member_substructure,
                              random_structure, sample_morphisms, structure_corpus)
from bilatdual.multisorted import (AxiomVerdict, MultiSortedStructure, a7_by_families,
                                   build_alter_ego, check_axioms, dual_of_hom,
                                   enumerate_multimorphisms, hom_algebra_E,
                                   is_multimorphism, membership_by_separation, morphism_rows,
                                   natural_dual, relation_slots, structures_isomorphic,
                                   verify_counit_iso, verify_unit_iso)
from bilatdual.posets import check_relation
from bilatdual.ranked import flat_map_of_multimorphism
from bilatdual.verify import run_suite


def _alter_ego_by_names(n):
    """The alter ego written out per index from element names: an oracle."""
    mks = [build_mk(n, k) for k in range(n + 1)]
    m0 = mks[0]
    image = {"f": "f0", "0": "f0", "t": "t0", "1": "t0", "top": "top0", "bot": "bot0"}
    g = [tuple(m0.index(image[name[:-len(str(k))]]) for name in mks[k].elements)
         for k in range(1, n + 1)]
    rel = {(0, 0): frozenset((int(a), int(b)) for a, b in np.argwhere(m0.order_matrix("k")))}
    stretched = [("top", "top"), ("bot", "bot"), ("f", "f"), ("f", "0"), ("0", "0"),
                 ("t", "t"), ("t", "1"), ("1", "1")]
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            rel[(j, k)] = frozenset((mks[j].index(f"{a}{j}"), mks[k].index(f"{b}{k}"))
                                    for a, b in stretched)
    return MultiSortedStructure(n, tuple(m.elements for m in mks), tuple(g), rel)


def test_alter_ego_relation_sizes():
    for n in range(1, 9):
        ego = build_alter_ego(n)
        assert ego.to_dict() == _alter_ego_by_names(n).to_dict(), n
        assert len(ego.rel[(0, 0)]) == 9
        for k in range(1, n + 1):
            assert len(ego.rel[(k, k)]) == 8
            assert ego.rel[(k, k)] == multisorted.STRETCHED_ORDER
            assert ego.g[k - 1] == multisorted.COLLAPSE
        for rel in (rel for (j, k), rel in ego.rel.items() if j < k):
            assert len(rel) == 8
            assert rel == multisorted.STRETCHED_ORDER
    R = np.zeros((6, 6), dtype=bool)
    for a, b in multisorted.STRETCHED_ORDER:
        R[a, b] = True
    assert check_relation(R).ok


def test_alter_ego_is_cached_and_reads_no_algebra(monkeypatch):
    def refuse(n):
        raise AssertionError("the alter ego reads no generating algebra")

    build_alter_ego.cache_clear()
    monkeypatch.setattr(multisorted, "mk_algebras", refuse)
    monkeypatch.setattr(algebra, "mk_algebras", refuse)
    monkeypatch.setattr(algebra, "build_mk", refuse)
    ego = build_alter_ego(3)
    assert build_alter_ego(3) is ego
    assert ego.sorts[2] == ("bot2", "f2", "02", "t2", "12", "top2")


def test_alter_ego_cross_relation_membership():
    ego = build_alter_ego(2)
    m1, m2 = build_mk(2, 1), build_mk(2, 2)
    rel = ego.rel[(1, 2)]
    assert (m1.index("bot1"), m2.index("bot2")) in rel
    assert (m1.index("f1"), m2.index("02")) in rel
    assert (m1.index("f1"), m2.index("12")) not in rel
    assert (m1.index("01"), m2.index("f2")) not in rel


def test_alter_ego_requires_positive_n():
    with pytest.raises(ValueError):
        build_alter_ego(0)


def test_alter_ego_passes_axioms():
    for n in (1, 2, 3):
        rep = check_axioms(build_alter_ego(n))
        assert rep.ok, rep.failing()


def test_cross_axioms_vacuous_at_n1():
    rep = check_axioms(build_alter_ego(1))
    for ax in ("A3", "A4", "A5", "A7"):
        assert rep.verdicts[ax].holds
        assert rep.verdicts[ax].instances == 0


def test_a2_violation_witnessed():
    ego = build_alter_ego(1)
    m1 = build_mk(1, 1)
    extra = (m1.index("f1"), m1.index("t1"))   # relates two different g-fibres
    rels = {(0, 0): ego.rel[(0, 0)], (1, 1): ego.rel[(1, 1)] | {extra}}
    X = MultiSortedStructure(1, ego.sorts, ego.g, rels)
    rep = check_axioms(X)
    assert not rep.verdicts["A2"].holds
    assert rep.verdicts["A2"].witness == (1,) + extra


def test_natural_dual_sort_sizes():
    assert [len(s) for s in natural_dual(build_mk(2, 0), 2).structure.sorts] == [1, 0, 0]
    d1 = natural_dual(build_mk(2, 1), 2)
    assert [len(s) for s in d1.structure.sorts] == [1, 1, 0]
    # the X_0 point is the collapse and the X_1 point is the identity
    m1 = build_mk(2, 1)
    assert d1.homs[1][0] == tuple(range(6))
    assert d1.homs[0][0] == enumerate_homs(m1, build_mk(2, 0))[0]
    assert [len(s) for s in natural_dual(build_jn(2), 2).structure.sorts] == [1, 1, 1]


def test_dual_relations_antisymmetric_within_sorts():
    for item in corpus_algebras(2, seed=4, subalgebras=3):
        d = natural_dual(item.algebra, 2)
        rep = check_axioms(d.structure)
        assert rep.ok, (item.label, rep.failing())


def test_dual_of_free_algebra_is_the_ego(free1, free2):
    for n, free in ((1, free1), (2, free2)):
        d = natural_dual(free.algebra, n)
        assert [len(s) for s in d.structure.sorts] == [4] + [6] * n
        assert structures_isomorphic(d.structure, build_alter_ego(n))


def test_isomorphism_checks_reflexive_pairs():
    # neither bijection of {p, q} carries both (p, p) and (p, q) into Y's relation
    X = MultiSortedStructure(1, (("p", "q"), ()), ((),), {(0, 0): {(0, 0), (0, 1)}, (1, 1): ()})
    Y = MultiSortedStructure(1, (("p", "q"), ()), ((),), {(0, 0): {(1, 1), (0, 1)}, (1, 1): ()})
    assert not structures_isomorphic(X, Y)
    assert structures_isomorphic(X, X)


def _relations(X, maps):
    """Images of X's relations under per-sort maps, slot by slot."""
    return {(j, k): frozenset((maps[j][a], maps[k][b]) for a, b in rel)
            for (j, k), rel in X.rel.items()}


def _relabel(X, perms):
    """X with point i of sort k renamed to perms[k][i]."""
    sorts = []
    for k, perm in enumerate(perms):
        names = [None] * len(perm)
        for i, new in enumerate(perm):
            names[new] = X.sorts[k][i]
        sorts.append(tuple(names))
    g = []
    for k in range(1, X.n + 1):
        layer = [None] * len(perms[k])
        for i, new in enumerate(perms[k]):
            layer[new] = perms[0][X.g[k - 1][i]]
        g.append(tuple(layer))
    return MultiSortedStructure(X.n, tuple(sorts), tuple(g), _relations(X, perms))


def _isomorphic_by_permutations(X, Y):
    if [len(s) for s in X.sorts] != [len(s) for s in Y.sorts]:
        return False
    for maps in itertools.product(*(itertools.permutations(range(len(s))) for s in X.sorts)):
        if is_multimorphism(maps, X, Y) and \
                _relations(X, maps) == Y.rel:
            return True
    return False


def _morphisms_by_bruteforce(X, Y):
    """Every sort-respecting map X -> Y that is a morphism, in lexicographic order."""
    everything = itertools.product(*(
        itertools.product(range(len(Y.sorts[k])), repeat=len(X.sorts[k]))
        for k in range(X.n + 1)))
    return sorted(m for m in everything if is_multimorphism(m, X, Y))


def test_morphism_kernel_matches_bruteforce_oracle():
    rng = random.Random(20260818)
    for n in (1, 2):
        for _ in range(60):
            X = random_structure(n, rng)
            Y = random_structure(n, rng)
            expected = _morphisms_by_bruteforce(X, Y)
            assert enumerate_multimorphisms(X, Y) == expected


def test_a_maps_tuple_needs_one_map_a_sort():
    ego = build_alter_ego(2)
    identity = tuple(tuple(range(len(s))) for s in ego.sorts)
    assert is_multimorphism(identity, ego, ego)
    assert not is_multimorphism(identity + (identity[-1],), ego, ego)
    assert not is_multimorphism(identity[:-1], ego, ego)
    assert not is_multimorphism((), ego, ego)


def _random_pins(X, Y, rng):
    """One to three pins (k, i, v) on points of X, with shapes the kernel must handle."""
    points = [(k, i) for k, i in X.points() if Y.sorts[k]]
    pins = [(k, i, rng.randrange(len(Y.sorts[k])))
            for k, i in rng.sample(points, min(len(points), rng.randint(1, 2)))]
    k, i, v = pins[0]
    shape = rng.randrange(3)
    if shape == 0:
        # a second pin on the same point, equal to the first about half the time
        pins.append((k, i, v if rng.random() < 0.5 else rng.randrange(len(Y.sorts[k]))))
    elif shape == 1 and k > 0:
        # a pin on the sort-0 root, often not the g-image of the first pin's value
        pins.append((0, X.g[k - 1][i], rng.randrange(len(Y.sorts[0]))))
    return pins


def test_pinned_kernel_matches_bruteforce_oracle():
    rng = random.Random(20260821)
    seen = set()
    for n in (1, 2):
        for _ in range(150):
            X = random_structure(n, rng)
            Y = random_structure(n, rng)
            every = _morphisms_by_bruteforce(X, Y)
            pins = _random_pins(X, Y, rng)
            expected = [m for m in every if all(m[k][i] == v for k, i, v in pins)]
            search = multisorted._kernel(X, Y)
            assert search(pins=pins) == expected
            assert search(pins=pins, limit=1) == expected[:1]
            for k in (1, 2):
                assert search(limit=k) == every[:k]
            values = {}
            for k, i, v in pins:
                values.setdefault((k, i), set()).add(v)
                if k:
                    values.setdefault((0, X.g[k - 1][i]), set()).add(Y.g[k - 1][v])
            conflict = any(len(vs) > 1 for vs in values.values())
            assert not (conflict and expected)
            if len({(k, i) for k, i, _ in pins}) < len(pins):
                seen.add("two pins on one point")
            sort0 = {(i, v) for k, i, v in pins if k == 0}
            if any(k and (X.g[k - 1][i], Y.g[k - 1][v]) not in sort0 and
                   any(i0 == X.g[k - 1][i] for i0, _ in sort0) for k, i, v in pins):
                seen.add("root conflict")
            if not conflict and every and not expected:
                seen.add("pins with no morphism")
    assert seen == {"two pins on one point", "root conflict", "pins with no morphism"}


def test_separation_sets_up_one_kernel_per_structure(monkeypatch):
    built, asked = [], []

    def counted(X, Y):
        built.append(X)
        search = kernel(X, Y)

        def counted_search(*args, **kwargs):
            asked.append(X)
            return search(*args, **kwargs)
        return counted_search

    kernel = multisorted._kernel
    monkeypatch.setattr(multisorted, "_kernel", counted)
    most = 0
    for n in (1, 2):
        for X in structure_corpus(n, 20, seed=400 + n):
            built.clear()
            asked.clear()
            membership_by_separation(X)
            assert built == [X]
            most = max(most, len(asked))
    assert most > 1   # some structure asks several pins through its one kernel


def test_isomorphism_kernel_matches_permutation_oracle():
    rng = random.Random(20260819)
    positives = negatives = 0
    for n in (1, 2):
        for _ in range(40):
            X = random_structure(n, rng)
            perms = [rng.sample(range(len(s)), len(s)) for s in X.sorts]
            Y = _relabel(X, perms)
            assert structures_isomorphic(X, Y)
            assert _isomorphic_by_permutations(X, Y)
            # move one pair of one sort relation: same sizes, often not isomorphic
            k = rng.randrange(n + 1)
            rel = set(Y.rel[(k, k)])
            absent = [(a, b) for a in range(len(Y.sorts[k])) for b in range(len(Y.sorts[k]))
                      if (a, b) not in rel]
            if not rel or not absent:
                continue
            rel.remove(rng.choice(sorted(rel)))
            rel.add(rng.choice(absent))
            Z = MultiSortedStructure(n, Y.sorts, Y.g, {**Y.rel, (k, k): frozenset(rel)})
            expected = _isomorphic_by_permutations(X, Z)
            assert structures_isomorphic(X, Z) == expected
            positives += expected
            negatives += not expected
    assert positives > 0 and negatives > 0


def test_hom_functor_contravariant():
    # u: J_2 -> M_1 (the quotient); D(u): D(M_1) -> D(J_2) must be a morphism
    j2, m1 = build_jn(2), build_mk(2, 1)
    u = enumerate_homs(j2, m1)[0]
    dj, dm = natural_dual(j2, 2), natural_dual(m1, 2)
    assert is_multimorphism(dual_of_hom(u, dm, dj), dm.structure, dj.structure)


def test_E_of_alter_ego_is_the_free_size():
    E = hom_algebra_E(build_alter_ego(1))
    assert E.algebra.size == 266


def test_E_of_one_point_structure_is_m0():
    one = MultiSortedStructure(1, (("p",), ()), ((),), {(0, 0): {(0, 0)}, (1, 1): ()})
    E = hom_algebra_E(one)
    assert E.algebra.size == 4
    bijections = [h for h in enumerate_homs(E.algebra, build_mk(1, 0))
                  if sorted(h) == list(range(4))]
    assert bijections == [(0, 1, 2, 3)]


def test_E_checks_the_rows_it_is_handed(monkeypatch):
    """E takes the kernel's rows as they come: out of order or not closed, it raises."""
    one = MultiSortedStructure(1, (("p",), ()), ((),), {(0, 0): {(0, 0)}, (1, 1): ()})
    homs = enumerate_multimorphisms(one, build_alter_ego(1))
    assert len(homs) == 4
    monkeypatch.setattr(multisorted, "enumerate_multimorphisms", lambda X, Y: homs[::-1])
    with pytest.raises(AssertionError, match="strictly increasing"):
        hom_algebra_E(one)
    monkeypatch.setattr(multisorted, "enumerate_multimorphisms", lambda X, Y: homs[1:])
    with pytest.raises(AssertionError, match="escaped the closed set"):
        hom_algebra_E(one)


def test_unit_iso_on_generators():
    for n in (1, 2):
        for A in (*(build_mk(n, k) for k in range(n + 1)), build_jn(n)):
            assert verify_unit_iso(A.size, natural_dual(A))


def test_unit_iso_on_two_generated_subalgebra():
    sq = product([build_jn(1)] * 2)
    sub = generated_subalgebra(sq, [1, 8])
    assert verify_unit_iso(sub.algebra.size, natural_dual(sub.algebra))


def test_unit_iso_rejects_rows_that_miss_a_morphism(monkeypatch):
    # the evaluation rows of M_1 stay distinct, so only the set equality can fail
    full = enumerate_multimorphisms
    monkeypatch.setattr(multisorted, "enumerate_multimorphisms", lambda X, Y: full(X, Y)[:-1])
    m1 = build_mk(1, 1)
    assert not verify_unit_iso(m1.size, natural_dual(m1))


def test_duality_suite_builds_no_E_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("the unit check needs neither E tables nor a hom re-check")

    monkeypatch.setattr(multisorted, "_product_subalgebra", refuse)
    monkeypatch.setattr(multisorted, "is_homomorphism", refuse)
    result = run_suite("duality", 2)
    assert result.checks and all(c.status == "pass" for c in result.checks)


def test_unit_iso_size_consequence():
    for item in corpus_algebras(1, seed=9, subalgebras=3):
        d = natural_dual(item.algebra, 1)
        E = hom_algebra_E(d.structure)
        assert E.algebra.size == item.algebra.size


def test_membership_of_the_ego_and_duals():
    for n in (1, 2):
        assert membership_by_separation(build_alter_ego(n))
        d = natural_dual(build_jn(n), n)
        assert membership_by_separation(d.structure)


def test_constant_to_true_morphism_always_present():
    ego = build_alter_ego(2)
    mks = [build_mk(2, k) for k in range(3)]
    targets = [mks[0].index("t0"), mks[1].index("t1"), mks[2].index("t2")]
    for X in structure_corpus(2, 12, seed=31):
        morphs = enumerate_multimorphisms(X, ego)
        wanted = tuple(tuple(targets[k] for _ in X.sorts[k]) for k in range(3))
        assert wanted in morphs


def test_sampler_takes_the_first_morphisms_of_each_structure():
    ego = build_alter_ego(2)
    sample = sample_morphisms([ego], 2, 10**6, seed=11)
    first = enumerate_multimorphisms(ego, ego)[:SAMPLE_PAIR_CAP]
    assert SAMPLE_PAIR_CAP == 200
    assert sorted(maps for _, _, maps in sample) == first


def test_morphism_guard_is_read_at_call_time(monkeypatch):
    ego = build_alter_ego(1)
    monkeypatch.setattr(multisorted, "DEFAULT_MORPHISM_GUARD", 5)
    with pytest.raises(GuardExceeded):
        enumerate_multimorphisms(ego, ego)


def test_axioms_equal_separation_on_random_corpus():
    for n in (1, 2):
        for X in structure_corpus(n, 60, seed=100 + n):
            assert check_axioms(X).ok == membership_by_separation(X)


def test_member_substructures_pass_both():
    rng = random.Random(7)
    for _ in range(15):
        X = member_substructure(2, rng)
        assert check_axioms(X).ok
        assert membership_by_separation(X)


def test_a7_family_oracle_agrees():
    rng = random.Random(12)
    checked = 0
    for _ in range(40):
        X = random_structure(2, rng)
        rel_pairs = [(j, k) for (j, k) in X.rel if j < k]
        rep = check_axioms(X)
        for (j, k) in rel_pairs:
            for x in range(len(X.sorts[j])):
                for y in range(len(X.sorts[k])):
                    if (x, y) in X.rel[(j, k)]:
                        continue
                    reach_ok = rep.verdicts["A7"].witness != (j, k, x, y)
                    fam_ok = a7_by_families(X, j, k, x, y)
                    # the recorded witness is only the first failure; recompute
                    from bilatdual.algebra import reflexive_transitive_closure as _reachability
                    reach = _reachability(X.amalgam)
                    sep = not reach[X.starts[j] + x, X.starts[k] + y]
                    assert sep == fam_ok
                    checked += 1
    assert checked > 50


def _ordered_structure(n, rng):
    """Random partial orders on the sorts, so A6 holds; random g and random cross relations."""
    sizes = [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(n)]
    rel = {}
    for k, size in enumerate(sizes):
        rank = rng.sample(range(size), size)   # pairs go up a random linear order: antisymmetric
        below = np.array([[rank[a] < rank[b] and rng.random() < 0.4 for b in range(size)]
                          for a in range(size)], dtype=bool).reshape(size, size)
        rel[(k, k)] = zip(*algebra.reflexive_transitive_closure(below).nonzero())
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    for j, k in relation_slots(n)[n + 1:]:
        rel[(j, k)] = [(a, b) for a in range(sizes[j]) for b in range(sizes[k])
                       if rng.random() < density]
    sorts = tuple(tuple(f"s{k}e{i}" for i in range(size)) for k, size in enumerate(sizes))
    g = tuple(tuple(rng.randrange(sizes[0]) for _ in range(size)) for size in sizes[1:])
    return MultiSortedStructure(n, sorts, g, rel)


def test_under_A6_A7_holds_iff_A4_and_A5_hold():
    """The finite-case lemma: sort 0 joins no cross slot, so with transitive sort orders a path
    between sorts collapses to one cross step exactly when D∘C∘D ⊆ C and C∘C ⊆ C."""
    rng = random.Random(20261020)
    seen = set()
    for n in (1, 2, 3, 4):
        for _ in range(600):
            X = _ordered_structure(n, rng)
            verdicts = check_axioms(X).verdicts
            assert verdicts["A6"].holds
            a4, a5, a7 = (verdicts[a].holds for a in ("A4", "A5", "A7"))
            assert a7 == (a4 and a5), X.to_json()
            seen.add((n, a4, a5))
    # every depth with cross slots sees both verdicts, and A4 and A5 each fail on their own
    for n in (2, 3, 4):
        assert (n, True, True) in seen and {(n, False, True), (n, False, False)} & seen, n
    assert any(a4 and not a5 for _, a4, a5 in seen) and any(a5 and not a4 for _, a4, a5 in seen)


def test_counit_on_small_instances(monkeypatch):
    one = MultiSortedStructure(1, (("p",), ()), ((),), {(0, 0): {(0, 0)}, (1, 1): ()})
    assert verify_counit_iso(one)
    d = natural_dual(build_mk(1, 1), 1)
    assert verify_counit_iso(d.structure)
    monkeypatch.setattr(multisorted, "COUNIT_E_GUARD", 10)
    with pytest.raises(GuardExceeded):
        verify_counit_iso(build_alter_ego(1))


def test_structure_validation():
    with pytest.raises(ValueError):
        MultiSortedStructure(1, ((), ()), ((),), {(0, 0): (), (1, 1): ()})
    with pytest.raises(ValueError):
        MultiSortedStructure(1, (("a",), ("b",)), ((5,),), {(0, 0): (), (1, 1): ()})


def test_interchange_roundtrip():
    d = natural_dual(build_jn(2), 2)
    X = d.structure
    assert MultiSortedStructure.from_json(X.to_json()) == X
    ego = build_alter_ego(2)
    assert MultiSortedStructure.from_json(ego.to_json()) == ego


def test_three_sort_transitivity_axiom_fires(monkeypatch):
    # below n=3 the three-sort chain axiom is vacuous; make sure it really
    # both fires and fails on arbitrary structures at n=3
    monkeypatch.setattr(corpus, "MAX_SORT", 2)
    rng = random.Random(99)
    fired = failed = 0
    for _ in range(200):
        X = random_structure(3, rng)
        rep = check_axioms(X)
        if rep.verdicts["A5"].instances > 0:
            fired += 1
            if not rep.verdicts["A5"].holds:
                failed += 1
    assert fired > 5 and failed > 0


def _a5_by_triple_loop(X):
    """A5 by the first triple loop: scan all of R_kl for each pair of R_jk; an oracle."""
    w = None
    count = 0
    for j in range(1, X.n + 1):
        for k in range(j + 1, X.n + 1):
            for l in range(k + 1, X.n + 1):
                jk, kl, jl = X.rel[(j, k)], X.rel[(k, l)], X.rel[(j, l)]
                for x, y in sorted(jk):
                    for yy, z in sorted(kl):
                        if y != yy:
                            continue
                        count += 1
                        if (x, z) not in jl and w is None:
                            w = (j, k, l, x, y, z)
    return AxiomVerdict(w is None, w, count)


def test_a5_matches_the_triple_loop_oracle():
    rng = random.Random(20261019)
    structures = [random_structure(3, rng) for _ in range(150)]
    # the alter ego with one pair of R_13 dropped: x R_12 x R_23 z still chains to it
    ego = build_alter_ego(3)
    structures += [MultiSortedStructure(3, ego.sorts, ego.g,
                                        {**ego.rel, (1, 3): ego.rel[(1, 3)] - {pair}})
                   for pair in ego.rel[(1, 3)]]
    seen = set()
    for X in structures:
        verdict = check_axioms(X).verdicts["A5"]
        assert verdict == _a5_by_triple_loop(X)
        seen.add((verdict.holds, verdict.instances > 0))
    assert seen == {(True, False), (True, True), (False, True)}


def test_relation_slots_are_stored_in_canonical_order():
    X = structure_corpus(3, 5, seed=6)[-1]
    shuffled = MultiSortedStructure(3, X.sorts, X.g, dict(reversed(X.rel.items())))
    assert list(X.rel) == list(shuffled.rel) == relation_slots(3) == \
        [(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)]
    assert shuffled.to_json() == X.to_json()
    assert membership_by_separation(shuffled) == membership_by_separation(X)
    # as strings "1,10" sorts before "1,2", and a document lists its keys in that order
    for Y in structure_corpus(10, 4, seed=7):
        doc = json.loads(Y.to_json())
        assert list(doc["rel_jk"])[:2] == ["1,10", "1,2"]
        Z = MultiSortedStructure.from_dict(doc)
        assert list(Z.rel) == relation_slots(10)
        assert Z.to_json() == Y.to_json()
        assert membership_by_separation(Z) == membership_by_separation(Y) == check_axioms(Z).ok


def _layout_structures():
    """The alter ego at n=1..4, the corpus duals at n=1, 2 and seeded draws at n=1..3."""
    yield from (build_alter_ego(n) for n in range(1, 5))
    for n in (1, 2):
        yield from (item.dual.structure for item in corpus_algebras(n, seed=3, subalgebras=3))
    for n in (1, 2, 3):
        yield from structure_corpus(n, 20, seed=40 + n)


def test_the_flat_layout_agrees_with_the_pairs():
    for X in _layout_structures():
        points = X.points()
        assert [X.starts[k] + i for k, i in points] == list(range(len(points)))
        assert X.starts[-1] == len(points)
        assert X.point_sorts == tuple(k for k, _ in points)
        assert X.flat_g == tuple(points.index((0, i if k == 0 else X.g[k - 1][i]))
                                 for k, i in points)
        # a point pair is related iff its slot holds the pair; no slot, no pair
        expected = [[(j, k) in X.rel and (a, b) in X.rel[(j, k)] for k, b in points]
                    for j, a in points]
        assert np.array_equal(X.amalgam, np.array(expected, dtype=bool))
        assert X.amalgam.dtype == bool and not X.amalgam.flags.writeable


def test_morphism_rows_and_flat_maps_agree_with_the_per_point_maps():
    checked = 0
    for X in _layout_structures():
        if X.n > 2:   # E of the deeper alter egos is large; their layouts are checked above
            continue
        ego = build_alter_ego(X.n)
        points, ego_points = X.points(), ego.points()
        morphisms = enumerate_multimorphisms(X, ego)
        assert morphism_rows(X) == [tuple(maps[k][i] for k, i in points)
                                    for maps in morphisms]
        for maps in morphisms[:SAMPLE_PAIR_CAP]:
            assert [ego_points[v] for v in flat_map_of_multimorphism(maps, ego)] == \
                [(k, maps[k][i]) for k, i in points]
        checked += len(morphisms)
    assert checked > 1000


def test_one_construct_P_builds_the_amalgam_once(monkeypatch):
    built = []
    amalgam = MultiSortedStructure.__dict__["amalgam"]

    def counted(X):
        built.append(X)
        return amalgam.func(X)

    counted_amalgam = functools.cached_property(counted)
    counted_amalgam.__set_name__(MultiSortedStructure, "amalgam")
    monkeypatch.setattr(MultiSortedStructure, "amalgam", counted_amalgam)
    X = MultiSortedStructure.from_json(build_alter_ego(2).to_json())   # nothing cached yet
    P = construct_P(X)
    assert len(built) == 1 and built[0] is X
    assert P.poset == construct_P(build_alter_ego(2)).poset


def test_axioms_equal_separation_at_n3(monkeypatch):
    monkeypatch.setattr(corpus, "MAX_SORT", 2)
    for X in structure_corpus(3, 40, seed=77):
        assert check_axioms(X).ok == membership_by_separation(X)


def test_axioms_equal_separation_at_depth():
    for n in (5, 6, 7):
        verdicts = set()
        for X in structure_corpus(n, 100, 20260809):
            verdict = check_axioms(X).ok
            assert membership_by_separation(X) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}


def _separation_by_scan(X):
    """The materialize-and-scan rule: list every morphism, then test each pair."""
    ego = build_alter_ego(X.n)
    maps = enumerate_multimorphisms(X, ego)
    if not maps:
        return False
    for (j, k), rel in X.rel.items():
        for a, b in itertools.product(range(len(X.sorts[j])), range(len(X.sorts[k]))):
            if j == k and a != b and all(m[k][a] == m[k][b] for m in maps):
                return False
            if (a, b) not in rel and \
                    all((m[j][a], m[k][b]) in ego.rel[(j, k)] for m in maps):
                return False
    return True


def test_streamed_separation_matches_the_scan_oracle():
    rng = random.Random(20260901)
    verdicts = set()
    for n in (1, 2, 3):
        structures = structure_corpus(n, 40, seed=300 + n)
        # arbitrary structures, many with an empty sort above 0
        structures += [random_structure(n, rng) for _ in range(20)]
        for X in structures:
            expected = _separation_by_scan(X)
            assert membership_by_separation(X) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_separation_guard_bounds_only_an_undecided_search(monkeypatch):
    ego = build_alter_ego(1)
    # four pinned searches of 11 nodes each meet every requirement; the other
    # pins conflict at a sort-0 root and cost no node
    monkeypatch.setattr(multisorted, "SEPARATION_NODE_GUARD", 44)
    assert membership_by_separation(ego)
    monkeypatch.setattr(multisorted, "SEPARATION_NODE_GUARD", 43)
    with pytest.raises(GuardExceeded, match="after 43 kernel nodes, 3 of 77 requirements open"):
        membership_by_separation(ego)
    # a <= b <= a: no morphism into the antisymmetric alter ego splits a from b,
    # and each of the 12 off-diagonal pins of (a, b) fails at b after 2 nodes
    cycle = frozenset({(0, 0), (1, 1), (0, 1), (1, 0), (2, 2), (3, 3)})
    X = MultiSortedStructure(1, (("a", "b", "c", "d"), ()), ((),), {(0, 0): cycle, (1, 1): ()})
    assert len(enumerate_multimorphisms(X, ego)) == 64
    monkeypatch.setattr(multisorted, "SEPARATION_NODE_GUARD", 23)
    with pytest.raises(GuardExceeded, match="after 23 kernel nodes, 22 of 22 requirements open"):
        membership_by_separation(X)
    monkeypatch.setattr(multisorted, "SEPARATION_NODE_GUARD", 24)
    assert membership_by_separation(X) is False
