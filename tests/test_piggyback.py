"""Carriers, piggyback relations, the published table, and the carrier space."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from bilatdual import bridge, piggyback, verify
from bilatdual.algebra import build_jn, build_mk, enumerate_subuniverses, mk_algebras, product
from bilatdual.bridge import construct_P, verify_free_translation, verify_translation
from bilatdual.corpus import corpus_algebras
from bilatdual.distlat import lattice_reduct, priestley_dual_of_lattice
from bilatdual.multisorted import natural_dual
from bilatdual.piggyback import (Carrier, all_carriers, build_carrier_space, build_carriers,
                                 build_S_relations, carrier_map_is_iso, check_sep, distinct_columns,
                                 name_relation, piggyback_relations,
                                 preimage_sublattice, subuniverse_pairs, table3_report,
                                 tagged_points, verify_piggyback_iso)
from bilatdual.posets import Poset, are_isomorphic, count_downsets


def test_carrier_values():
    pairs = build_carriers(2)
    g0, d0 = pairs[0]
    m0 = build_mk(2, 0)
    assert g0(m0.index("top0")) == 1 and g0(m0.index("bot0")) == 0
    assert g0(m0.index("t0")) == 1 and g0(m0.index("f0")) == 0
    assert d0(m0.index("bot0")) == 1 and d0(m0.index("top0")) == 0
    g1, d1 = pairs[1]
    m1 = build_mk(2, 1)
    assert [g1(i) for i in range(6)] == [1 if m1.elements[i] == "11" else 0
                                         for i in range(6)]
    assert d1(m1.index("01")) == 0
    assert d1(m1.index("f1")) == 1 and d1(m1.index("bot1")) == 1


def test_separation_condition():
    for n in range(1, 7):
        ok, witness = check_sep(n)
        assert ok, witness


def test_dropping_a_carrier_breaks_separation():
    from bilatdual.multisorted import build_alter_ego
    n = 2
    pairs = build_carriers(n)
    m1 = build_mk(n, 1)
    f, z = m1.index("f1"), m1.index("01")
    gamma1, delta1 = pairs[1]
    # delta_1 is the only split for (f^1, 0^1): gamma_1 agrees on the pair and
    # both points collapse to the same sort-0 element, so no carrier below helps
    assert delta1(f) != delta1(z)
    assert gamma1(f) == gamma1(z)
    ego = build_alter_ego(n)
    assert ego.g[0][f] == ego.g[0][z]
    # gamma_0 is the only split for (top0, f0)
    m0 = build_mk(n, 0)
    g0, d0 = pairs[0]
    assert g0(m0.index("top0")) != g0(m0.index("f0"))
    assert d0(m0.index("top0")) == d0(m0.index("f0"))


def test_assert_carrier_rejects_a_non_hom():
    m0 = build_mk(1, 0)

    def carrier(ones):
        return Carrier(0, "gamma", tuple(int(e in ones) for e in m0.elements))

    # bot0 and top0 truth-meet to f0, which this map sends to 0
    with pytest.raises(AssertionError, match="truth meet"):
        piggyback._assert_carrier(carrier({"bot0", "t0", "top0"}), m0)
    with pytest.raises(AssertionError, match="bounds"):
        piggyback._assert_carrier(carrier(set(m0.elements)), m0)
    piggyback._assert_carrier(build_carriers(1)[0][0], m0)


def test_preimage_examples():
    n = 2
    pairs = build_carriers(n)
    m0 = build_mk(n, 0)
    pre = preimage_sublattice(pairs[0][1], pairs[0][0])   # (delta0, gamma0)
    assert (m0.index("bot0"), m0.index("bot0")) not in pre
    left = {m0.elements[a] for (a, b) in pre}
    assert (m0.index("f0"), m0.index("bot0")) in pre
    m1 = build_mk(n, 1)
    pre = preimage_sublattice(pairs[1][0], pairs[1][0])   # (gamma_k, gamma_k)
    for a in range(6):
        for b in range(6):
            expected = m1.elements[a] != "11" or m1.elements[b] == "11"
            assert ((a, b) in pre) == expected
    pre = preimage_sublattice(pairs[1][0], pairs[2][1])   # (gamma_j, delta_k), j<k
    m2 = build_mk(n, 2)
    for a in range(6):
        for b in range(6):
            expected = m1.elements[a] != "11" or m2.elements[b] != "02"
            assert ((a, b) in pre) == expected


def test_S_relations():
    n = 2
    s_le, s_ge = build_S_relations(1, 2, n)
    m1, m2 = build_mk(n, 1), build_mk(n, 2)
    for b in range(6):
        assert (m1.index("bot1"), b) in s_le
        assert (m1.index("top1"), b) in s_ge
    assert (m1.index("f1"), m2.index("t2")) not in s_le
    assert (m1.index("f1"), m2.index("02")) in s_le
    # sizes per the explicit unions
    assert len(s_le) == 19 and len(s_ge) == 19
    s_le0k, _ = build_S_relations(0, 1, n)
    assert len(s_le0k) == 13


def test_specific_piggyback_cells():
    n = 3
    pairs = build_carriers(n)
    assert piggyback_relations(pairs[0][0], pairs[0][0], n).names == ("le0",)
    assert piggyback_relations(pairs[0][1], pairs[0][1], n).names == ("ge0",)
    assert piggyback_relations(pairs[0][1], pairs[0][0], n).names == ()
    assert piggyback_relations(pairs[0][0], pairs[0][1], n).names == ()
    assert set(piggyback_relations(pairs[1][0], pairs[2][1], n).names) == \
        {"Sle1_2", "Sge1_2"}
    assert piggyback_relations(pairs[1][0], pairs[2][0], n).names == ("le1_2",)
    assert piggyback_relations(pairs[2][0], pairs[0][0], n).names == ("Sle2_0",)
    assert piggyback_relations(pairs[2][0], pairs[0][1], n).names == ("Sge2_0",)
    assert piggyback_relations(pairs[2][1], pairs[1][1], n).names == ("ge2_1",)
    assert set(piggyback_relations(pairs[2][0], pairs[2][1], n).names) == \
        {"Sle2_2", "Sge2_2"}


def test_table3_matches_schema_at_n3():
    rows = table3_report(3)
    assert len(rows) == 64
    for row in rows:
        assert row.matches_schema, (row.omega1, row.omega2, row.names)


def test_prime_converse_symmetry():
    # the relations for (w2, w1) are the converses of those for (w1', w2')
    n = 2
    carriers = all_carriers(n)
    prime = {("gamma",): "delta", ("delta",): "gamma"}
    by_key = {(w.sort, w.kind): w for w in carriers}
    for w1 in carriers:
        for w2 in carriers:
            left = piggyback_relations(w2, w1, n).relations
            w1p = by_key[(w1.sort, prime[(w1.kind,)])]
            w2p = by_key[(w2.sort, prime[(w2.kind,)])]
            right = piggyback_relations(w1p, w2p, n).relations
            conv = {frozenset((b, a) for a, b in rel) for rel in right}
            assert set(left) == conv, (w1.name, w2.name)


def test_diagonal_relations_are_orders():
    from bilatdual.posets import check_relation
    import numpy as np
    n = 2
    mks = mk_algebras(n)
    for w in all_carriers(n):
        rels = piggyback_relations(w, w, n)
        assert len(rels.relations) == 1
        rel = rels.relations[0]
        size = mks[w.sort].size
        mat = np.zeros((size, size), dtype=bool)
        for a, b in rel:
            mat[a, b] = True
        assert check_relation(mat).ok


def test_offdiagonal_pairs_have_an_empty_side():
    n = 2
    carriers = all_carriers(n)
    for w1 in carriers:
        for w2 in carriers:
            if w1 == w2:
                continue
            r12 = piggyback_relations(w1, w2, n).relations
            r21 = piggyback_relations(w2, w1, n).relations
            assert not r12 or not r21, (w1.name, w2.name)


def test_meet_irreducibles_match_expected_sets():
    n = 3
    mks = mk_algebras(n)
    cases = {(0, 0): (4, {"le0", "ge0"}),
             (0, 2): (4, {"Sle0_2", "Sge0_2"}),
             (2, 0): (4, {"Sle2_0", "Sge2_0"}),
             (2, 2): (7, {"le2", "ge2", "Sle2_2", "Sge2_2"}),
             (1, 2): (5, {"le1_2", "Sle1_2", "Sge1_2"}),
             (2, 1): (5, {"ge2_1", "Sle2_1", "Sge2_1"})}
    for (j, k), (size, expected) in cases.items():
        fam = enumerate_subuniverses(product([mks[j], mks[k]]))
        assert len(fam.members) == size, (j, k)
        got = set()
        for member, mi in zip(fam.members, fam.meet_irreducible):
            if mi:
                got.add(name_relation(frozenset(divmod(i, mks[k].size) for i in member),
                                      j, k, n))
        assert got == expected, (j, k, got)


def test_unnamed_relation_is_a_hard_error():
    with pytest.raises(AssertionError):
        name_relation(frozenset({(0, 1)}), 0, 0, 1)


def test_carrier_space_m0():
    cs = build_carrier_space(natural_dual(build_mk(1, 0)))
    assert cs.poset.n == 2
    assert not cs.poset.leq[0, 1] and not cs.poset.leq[1, 0]
    H = priestley_dual_of_lattice(lattice_reduct(build_mk(1, 0)))
    assert are_isomorphic(H, cs.poset) is not None


def test_carrier_space_sizes_and_iso_on_corpus():
    for n in (1, 2):
        for item in corpus_algebras(n, seed=19, subalgebras=3):
            space = build_carrier_space(item.dual)
            expected = sum(2 * len(item.dual.homs[k]) for k in range(n + 1))
            assert space.poset.n == expected
            assert verify_piggyback_iso(item.algebra.size, item.dual), item.label


def test_carrier_space_of_free_algebra(free1):
    cs = build_carrier_space(natural_dual(free1.algebra))
    assert cs.poset.n == 20
    assert count_downsets(cs.poset) == 266


def test_eta_naturality_on_a_sample():
    # eta commutes with the contravariant action on a homomorphism u: A -> B
    from bilatdual.algebra import enumerate_homs
    n = 1
    A, B = build_jn(1), build_mk(1, 1)
    u = enumerate_homs(A, B)[0]
    dual_A, dual_B = natural_dual(A), natural_dual(B)
    space_A, space_B = build_carrier_space(dual_A), build_carrier_space(dual_B)
    pos_A = {pt: i for i, pt in enumerate(space_A.points)}
    pos_B = {pt: i for i, pt in enumerate(space_B.points)}
    index_A = [{h: i for i, h in enumerate(dual_A.homs[k])} for k in range(n + 1)]
    # carrier-space action: (x, w) -> (x . u, w)
    for q, (k, i, kind) in enumerate(space_B.points):
        h = dual_B.homs[k][i]
        composed = tuple(h[v] for v in u)
        p = pos_A[(k, index_A[k][composed], kind)]
        # order must be preserved: compare all comparabilities through the map
        for q2, (k2, i2, kind2) in enumerate(space_B.points):
            h2 = dual_B.homs[k2][i2]
            composed2 = tuple(h2[v] for v in u)
            p2 = pos_A[(k2, index_A[k2][composed2], kind2)]
            if space_B.poset.leq[q, q2]:
                assert space_A.poset.leq[p, p2]


def test_piggyback_relations_are_cached_and_frozen():
    w1, w2 = build_carriers(2)[1]
    first = piggyback_relations(w1, w2, 2)
    assert piggyback_relations(w1, w2, 2) is first
    with pytest.raises(FrozenInstanceError):
        first.names = ()


def _carrier_matrix_by_pair_scan(space, homs, n):
    """Per pair of points: related when some piggyback relation holds at every element."""
    carriers = build_carriers(n)
    m = len(space.points)
    mat = np.zeros((m, m), dtype=bool)
    for p, (j, i1, kind1) in enumerate(space.points):
        x = homs[j][i1]
        w1 = carriers[j][kind1 == "delta"]
        for q, (k, i2, kind2) in enumerate(space.points):
            y = homs[k][i2]
            w2 = carriers[k][kind2 == "delta"]
            mat[p, q] = any(all((x[a], y[a]) in rel for a in range(len(x)))
                            for rel in piggyback_relations(w1, w2, n).relations)
    return mat


def test_carrier_space_matches_the_pair_scan():
    for n in (1, 2):
        for item in corpus_algebras(n, seed=23):
            space = build_carrier_space(item.dual)
            scan = _carrier_matrix_by_pair_scan(space, item.dual.homs, n)
            assert np.array_equal(space.poset.leq, scan), item.label


def test_distinct_columns_counts_as_np_unique_does():
    rng = np.random.default_rng(20261020)
    for rows, cols in [(1, 1), (1, 9), (7, 5), (8, 40), (9, 40), (17, 300), (64, 64)]:
        for share in (0.05, 0.5, 0.95):
            masks = rng.random((rows, cols)) < share
            assert distinct_columns(masks) == np.unique(masks, axis=1).shape[1]


def test_carrier_map_verifiers_agree_with_the_search_oracle():
    for n in (1, 2, 3, 4):
        for item in corpus_algebras(n, seed=3, subalgebras=5):
            A = item.algebra
            assert verify_translation(A.size, item.dual), item.label
            assert verify_piggyback_iso(A.size, item.dual), item.label
            H = priestley_dual_of_lattice(lattice_reduct(A))
            assert are_isomorphic(H, construct_P(item.dual.structure).poset) is not None


@pytest.mark.parametrize("sort", (0, 1))
def test_swapping_gamma_and_delta_at_one_sort_fails(free1, monkeypatch, sort):
    swapped = tuple((Carrier(k, "gamma", d.values), Carrier(k, "delta", g.values))
                    if k == sort else (g, d) for k, (g, d) in enumerate(build_carriers(1)))
    monkeypatch.setattr(piggyback, "build_carriers", lambda n: swapped)
    dual = natural_dual(free1.algebra)
    assert not verify_translation(free1.algebra.size, dual)
    assert not verify_free_translation(1)
    assert not verify_piggyback_iso(free1.algebra.size, dual)


def test_a_non_prime_filter_fails_the_carrier_map():
    A = build_mk(1, 1)
    d = natural_dual(A)
    P = construct_P(d.structure).poset
    points = tagged_points(d.structure)
    assert carrier_map_is_iso(A.size, d.homs, points, P)
    # a constant map sends every element to one value: the whole carrier or nothing
    top0 = build_mk(1, 0).index("top0")
    homs = ((tuple([top0] * A.size),) + tuple(d.homs[0][1:]),) + tuple(d.homs[1:])
    assert not carrier_map_is_iso(A.size, homs, points, P)


def test_each_certificate_condition_fails_alone():
    A = build_mk(1, 1)
    d = natural_dual(A)
    P = construct_P(d.structure).poset
    points = tagged_points(d.structure)
    assert carrier_map_is_iso(A.size, d.homs, points, P)
    assert not carrier_map_is_iso(A.size + 1, d.homs, points, P)
    # every hom sends f1 where it sends bot1: the masks keep their order and P
    # keeps its 6 down-sets, but the columns number only 5
    bot, f = A.index("bot1"), A.index("f1")
    glued = tuple(tuple(tuple(h[bot] if v == f else h[v] for v in range(A.size)) for h in hk)
                  for hk in d.homs)
    assert count_downsets(P) == A.size
    assert not carrier_map_is_iso(A.size, glued, points, P)
    # a sort-0 map that is no hom: its masks separate M_1 and are ordered as Q,
    # but Q has 8 down-sets, so the columns are not all of its up-sets
    m0 = build_mk(1, 0)
    homs = ((tuple(m0.index(e) for e in ("bot0", "f0", "bot0", "t0", "bot0", "top0")),),
            d.homs[1])
    carriers = {(w.sort, w.kind): np.asarray(w.values, dtype=bool) for w in all_carriers(1)}
    masks = np.array([carriers[(k, kind)][list(homs[k][i])] for k, i, kind in points])
    Q = Poset([str(p) for p in points], np.all(~masks[:, None, :] | masks[None, :, :], axis=2))
    assert count_downsets(Q) == 8
    assert not carrier_map_is_iso(A.size, homs, points, Q)


def test_verifiers_bind_no_isomorphism_search():
    for module in (bridge, piggyback):
        for name in ("are_isomorphic", "priestley_dual_of_lattice", "lattice_reduct"):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(verify, "free_algebra")


def test_subuniverse_families_match_a_direct_enumeration():
    for n in range(1, 6):
        mks = mk_algebras(n)
        for j in range(n + 1):
            for k in range(n + 1):
                fam = enumerate_subuniverses(product([mks[j], mks[k]]))
                direct = tuple((frozenset(divmod(i, mks[k].size) for i in member), mi)
                               for member, mi in zip(fam.members, fam.meet_irreducible))
                assert subuniverse_pairs(n, j, k) == direct, (n, j, k)


def test_subuniverse_families_are_shared_by_content(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A.size)
        return enumerate_subuniverses(A)

    monkeypatch.setattr(piggyback, "_SUB_FAMILIES", {})
    monkeypatch.setattr(piggyback, "enumerate_subuniverses", counted)
    for j in range(2):
        for k in range(2):
            subuniverse_pairs(1, j, k)
    assert len(calls) == 4
    monkeypatch.setattr(piggyback, "_SUB_FAMILIES", {})
    calls.clear()
    for n in range(2, 7):
        for j in range(n + 1):
            for k in range(n + 1):
                subuniverse_pairs(n, j, k)
    assert sorted(calls) == [16, 24, 24, 36, 36, 36]
