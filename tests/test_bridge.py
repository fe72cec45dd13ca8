"""The doubled space, its block structure, counting, and the reduct translation."""

import tracemalloc

import numpy as np
import pytest

from bilatdual import algebra, bridge, multisorted, posets, verify
from bilatdual.algebra import build_jn, build_mk, free_algebra_rows
from bilatdual.bridge import (construct_P, free_size_formula, partitioned_downset_count,
                              table_avoiding_expected, table_meeting_expected,
                              verify_free_translation, verify_translation)
from bilatdual.corpus import corpus_algebras
from bilatdual.distlat import lattice_reduct, priestley_dual_of_lattice
from bilatdual.multisorted import (build_alter_ego, enumerate_multimorphisms, morphism_rows,
                                   natural_dual, pointwise_structure)
from bilatdual.posets import (are_isomorphic, chain, count_downsets, direct_product,
                              disjoint_union, grid, is_order_isomorphism, is_order_preserving)
from bilatdual.ranked import flat_map_of_multimorphism
from bilatdual.verify import run_suite


def test_doubled_space_size():
    for n in (1, 2, 3):
        sp = construct_P(build_alter_ego(n))
        assert sp.poset.n == 8 + 12 * n


def test_block_shapes():
    n = 3
    sp = construct_P(build_alter_ego(n))
    bottom, centre, top = sp.block_masks()
    P = sp.poset
    bot_poset = P.restrict([i for i in range(P.n) if bottom >> i & 1])
    expected = disjoint_union(disjoint_union(grid(2, n), chain(n)),
                              disjoint_union(chain(n), grid(2, n)))
    assert are_isomorphic(bot_poset, expected) is not None
    top_poset = P.restrict([i for i in range(P.n) if top >> i & 1])
    assert are_isomorphic(top_poset, expected) is not None
    centre_poset = P.restrict([i for i in range(P.n) if centre >> i & 1])
    assert count_downsets(centre_poset) == 36
    sq = direct_product(chain(2, "u"), chain(2, "v"))
    assert are_isomorphic(centre_poset, disjoint_union(sq, sq)) is not None


def test_min_top_block():
    n = 2
    sp = construct_P(build_alter_ego(n))
    _, _, top = sp.block_masks()
    P = sp.poset
    top_ix = [i for i in range(P.n) if top >> i & 1]
    sub = P.restrict(top_ix)
    mins = {sub.elements[i] for i in sub.minimal_elements()}
    assert mins == {f"^0{n}", f"^bot{n}", f"^top{n}", f"^1{n}"}


def test_hat_involution_is_an_anti_isomorphism():
    for n in (1, 2):
        sp = construct_P(build_alter_ego(n))
        P, m = sp.poset, sp.base.poset.n
        for a in range(m):
            for b in range(m):
                assert P.leq[a, b] == P.leq[m + b, m + a]


def test_no_relations_between_plain_and_hatted_centre():
    sp = construct_P(build_alter_ego(1))
    P, m = sp.poset, sp.base.poset.n
    rank = sp.base.rank
    for a in range(m):
        for b in range(m):
            if rank[a] == 0 and rank[b] == 0 and a != b:
                assert not P.leq[a, m + b]
                assert not P.leq[m + a, b]


def test_counts_match_formula_up_to_six():
    for n in range(1, 7):
        sp = construct_P(build_alter_ego(n))
        assert count_downsets(sp.poset) == free_size_formula(n).total


def test_formula_values():
    assert free_size_formula(1) == type(free_size_formula(1))(147, 119, 266)
    fs2 = free_size_formula(2)
    assert (fs2.avoiding_top, fs2.meeting_top, fs2.total) == (710, 724, 1434)
    for n in range(1, 51):
        fs = free_size_formula(n)
        assert fs.avoiding_top + fs.meeting_top == fs.total
    with pytest.raises(ValueError):
        free_size_formula(0)


def test_partitioned_tallies_match_tables():
    for n in range(1, 8):
        pc = partitioned_downset_count(n)
        fs = free_size_formula(n)
        assert pc.avoiding_top == fs.avoiding_top
        assert pc.meeting_top == fs.meeting_top
        exp1, exp2 = table_avoiding_expected(n), table_meeting_expected(n)
        assert sum(exp1.values()) == fs.avoiding_top
        assert sum(exp2.values()) == fs.meeting_top
        for key, val in exp1.items():
            assert pc.by_centre.get(key, 0) == val, (n, sorted(key))
        for key, val in exp2.items():
            assert pc.by_min_top.get(key, 0) == val, (n, sorted(key))
        assert set(pc.by_centre) <= set(exp1)
        assert set(pc.by_min_top) <= set(exp2)


def test_partitioned_count_streams_its_downsets():
    # 103,746 down-sets at n=6; held in a list, they peaked above 4 MB
    tracemalloc.start()
    try:
        pc = partitioned_downset_count(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    fs = free_size_formula(6)
    assert (pc.avoiding_top, pc.meeting_top) == (fs.avoiding_top, fs.meeting_top)
    assert pc.by_centre == table_avoiding_expected(6)
    assert pc.by_min_top == table_meeting_expected(6)


def test_the_partitioned_count_walks_no_downset(monkeypatch):
    def refuse(view):
        raise AssertionError("walked the down-sets")

    monkeypatch.setattr(posets.DownsetView, "__iter__", refuse)
    pc = partitioned_downset_count(7)
    fs = free_size_formula(7)
    assert (pc.avoiding_top, pc.meeting_top) == (fs.avoiding_top, fs.meeting_top)
    assert pc.by_centre == table_avoiding_expected(7)
    assert pc.by_min_top == table_meeting_expected(7)


def test_tables_suite_compares_every_tally_cell(monkeypatch):
    def tallies(result):
        return [c.status for c in result.checks if c.id == "grouped-downset-tallies"]

    assert tallies(run_suite("tables", 5)) == ["pass"]

    def one_cell_off(n):
        table = table_meeting_expected(n)
        key = min(table, key=sorted)
        return {**table, key: table[key] + 1}

    monkeypatch.setattr(verify, "table_meeting_expected", one_cell_off)
    assert tallies(run_suite("tables", 5)) == ["fail"]


def test_specific_table_cells_n2():
    n = 2
    pc = partitioned_downset_count(n)
    assert pc.by_centre[frozenset()] == (n + 1) ** 4 * (n + 2) ** 2 // 4 == 324
    singles = [k for k, v in pc.by_centre.items() if v == 1]
    assert len(singles) == 20
    assert pc.by_min_top[frozenset({f"^top{n}", f"^bot{n}"})] == n * n == 4


def test_translation_on_corpus():
    for n in (1, 2):
        for item in corpus_algebras(n, seed=77, subalgebras=4):
            assert verify_translation(item.algebra.size, item.dual), item.label


def test_translation_on_m0_two_antichain():
    H = priestley_dual_of_lattice(lattice_reduct(build_mk(1, 0)))
    d = natural_dual(build_mk(1, 0), 1)
    sp = construct_P(d.structure)
    assert sp.poset.n == 2
    assert H.n == 2
    assert are_isomorphic(H, sp.poset) is not None


def test_translation_free_algebra(free1):
    assert verify_translation(free1.algebra.size, natural_dual(free1.algebra))
    H = priestley_dual_of_lattice(lattice_reduct(free1.algebra))
    P = construct_P(build_alter_ego(1))
    assert H.n == 20 and P.poset.n == 20
    w = are_isomorphic(H, P.poset)
    assert w is not None and is_order_isomorphism(w, H, P.poset)


def test_the_rows_route_agrees_with_the_table_route(free1, free2):
    for n, F in ((1, free1), (2, free2)):
        assert np.array_equal(free_algebra_rows(n), np.array(F.rows))
        assert verify_free_translation(n)
        assert verify_translation(F.algebra.size, natural_dual(F.algebra))


def test_the_kernel_rows_are_the_closure_rows():
    for n in (1, 2, 3):
        ego = build_alter_ego(n)
        rows = morphism_rows(ego)
        assert np.array_equal(np.array(rows), free_algebra_rows(n)), n
        assert tuple(i for _, i in ego.points()) in rows, n


def test_the_pointwise_structure_on_the_endomorphism_columns_is_the_alter_ego():
    """Why the free translation check lifts nothing: D(F_V(n)(1)) on End(M~)'s columns is M~."""
    for n in (1, 2, 3):
        ego = build_alter_ego(n)
        columns = iter(zip(*morphism_rows(ego)))
        homs = tuple(tuple(next(columns) for _ in sort) for sort in ego.sorts)
        lifted = pointwise_structure(ego, ego.sorts, homs)
        assert lifted.g == ego.g, n
        assert lifted.rel == ego.rel, n


def test_the_translation_suite_checks_F_V3():
    result = run_suite("translation", 3)
    assert [c.status for c in result.checks if c.id == "translation:F_V3(1)"] == ["pass"]
    assert result.overall == "pass"


def test_the_free_translation_is_refused_by_its_size_estimate(monkeypatch):
    """End(M~) lists one row per element of F_V(n)(1), so n <= 6 runs and n = 7 is refused
    before the alter ego is built."""
    assert free_size_formula(6).total <= multisorted.DEFAULT_MORPHISM_GUARD
    assert free_size_formula(7).total > multisorted.DEFAULT_MORPHISM_GUARD

    def refuse(n):
        raise AssertionError("the alter ego was built")

    monkeypatch.setattr(bridge, "build_alter_ego", refuse)
    with pytest.raises(algebra.GuardExceeded,
                       match=r"^F_V7\(1\) has 215174 elements \(morphism guard 200000\)$"):
        verify_free_translation(7)


def test_the_translation_suite_builds_no_tables_and_no_homs_for_the_free_algebra(monkeypatch):
    F_SIZE = 1434
    search, tables = multisorted.enumerate_homs, algebra._product_subalgebra
    closure = algebra.product_closure_rows

    def search_off_F(A, B):
        if A.size == F_SIZE:
            raise RuntimeError("hom search on F_V2(1)")
        return search(A, B)

    def tables_off_F(factors, rows):
        if rows.shape[0] == F_SIZE:
            raise RuntimeError("tables for F_V2(1)")
        return tables(factors, rows)

    def closure_off_F(factors, *args):
        if len(factors) > 2:   # the corpus closes only in J_n x J_n
            raise RuntimeError("product closure of F_V2(1)")
        return closure(factors, *args)

    monkeypatch.setattr(multisorted, "enumerate_homs", search_off_F)
    monkeypatch.setattr(algebra, "_product_subalgebra", tables_off_F)
    monkeypatch.setattr(algebra, "product_closure_rows", closure_off_F)
    result = run_suite("translation", 2)
    assert [c.status for c in result.checks if c.id == "translation:F_V2(1)"] == ["pass"]
    assert result.overall == "pass"


def transport_morphism(maps, Y, PX, PY) -> tuple[int, ...]:
    """P(phi) for per-sort maps phi into Y: plain to plain, hatted to hatted; order-preserving."""
    flat = flat_map_of_multimorphism(maps, Y)
    full = flat + tuple(PY.base.poset.n + v for v in flat)
    if not is_order_preserving(full, PX.poset, PY.poset):
        raise AssertionError("transported map is not order-preserving")
    return full


def test_transport_identity_and_composition():
    ego = build_alter_ego(1)
    dj = natural_dual(build_jn(1), 1)
    PX, PE = construct_P(dj.structure), construct_P(ego)
    morphs = enumerate_multimorphisms(dj.structure, ego)
    ident = tuple(tuple(range(len(s))) for s in ego.sorts)
    assert transport_morphism(ident, ego, PE, PE) == tuple(range(PE.poset.n))
    endos = enumerate_multimorphisms(ego, ego)[:6]
    for phi in morphs:
        t_phi = transport_morphism(phi, ego, PX, PE)
        for psi in endos:
            comp = tuple(tuple(psi[k][v] for v in phi[k]) for k in range(2))
            t_psi = transport_morphism(psi, ego, PE, PE)
            assert transport_morphism(comp, ego, PX, PE) == tuple(t_psi[v] for v in t_phi)


def test_constant_to_true_morphism_transports():
    ego = build_alter_ego(1)
    dj = natural_dual(build_jn(1), 1)
    m0, m1 = build_mk(1, 0), build_mk(1, 1)
    const = ((m0.index("t0"),), (m1.index("t1"),))
    PX, PE = construct_P(dj.structure), construct_P(ego)
    transport_morphism(const, ego, PX, PE)   # raises on failure
