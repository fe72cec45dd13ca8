"""Algebra construction, homomorphism enumeration, products, subuniverses."""

import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from bilatdual import algebra
from bilatdual.algebra import (BINARY_OPS, DEFAULT_CLOSURE_GUARD, DEFAULT_TABLE_GUARD,
                               FiniteAlgebra, GuardExceeded,
                               SignatureN, _Closure, _PackedKeys, _product_subalgebra,
                               bilattice_law_violations, bool_compose, build_jn, build_mk,
                               closure_indices, enumerate_homs,
                               enumerate_homs_bruteforce, enumerate_subuniverses,
                               free_algebra, free_algebra_rows, generated_subalgebra,
                               generated_subalgebra_in_product, is_homomorphism,
                               mk_algebras, product, product_closure_rows,
                               reflexive_transitive_closure)
from bilatdual.distlat import lattice_reduct
from bilatdual.corpus import seeded_subalgebras


def test_signature_counts():
    sig = SignatureN(3)
    assert len(sig.constant_symbols) == 2 * 3 + 4


def test_jn_basic_shape():
    j0 = build_jn(0)
    assert j0.size == 4
    for n in (1, 2, 3):
        jn = build_jn(n)
        assert jn.size == 2 * n + 4
        assert bilattice_law_violations(jn) == []


def test_j2_sampled_values():
    j2 = build_jn(2)
    top, f1, t1 = j2.index("top"), j2.index("f1"), j2.index("t1")
    assert j2.apply("neg", top) == top
    assert j2.apply("neg", j2.index("bot")) == j2.index("bot")
    assert j2.apply("neg", f1) == t1
    # truth-order meet along the false chain
    assert j2.apply("meet_t", j2.index("f0"), f1) == j2.index("f0")
    # knowledge meet of opposite branches collapses to bottom
    assert j2.apply("meet_k", f1, t1) == j2.index("bot")
    assert j2.apply("join_k", f1, t1) == top


def test_jn_order_chains():
    jn = build_jn(3)
    k = jn.order_matrix("k")
    t = jn.order_matrix("t")
    # knowledge: f3 < f2 < f1 < f0, all between bot and top
    for i in range(3):
        assert k[jn.index(f"f{i+1}"), jn.index(f"f{i}")]
        assert not k[jn.index(f"f{i}"), jn.index(f"f{i+1}")]
    assert all(k[jn.index("bot"), e] for e in range(jn.size))
    # truth: f0 < f3 < top,bot < t3 < t0; top/bot incomparable
    assert t[jn.index("f0"), jn.index("f3")]
    assert t[jn.index("f3"), jn.index("top")]
    assert t[jn.index("bot"), jn.index("t3")]
    assert not t[jn.index("top"), jn.index("bot")]
    assert not t[jn.index("bot"), jn.index("top")]


def test_mk_constants():
    m = build_mk(3, 2)
    assert m.elements[m.consts["f_1"]] == "02"
    assert m.elements[m.consts["f_2"]] == "f2"
    assert m.elements[m.consts["t_0"]] == "12"
    assert m.elements[m.consts["t_3"]] == "t2"
    m0 = build_mk(3, 0)
    assert m0.elements[m0.consts["t_3"]] == "t0"
    assert m0.elements[m0.consts["f_0"]] == "f0"


def test_mk_truth_chain():
    m = build_mk(1, 1)
    t = m.order_matrix("t")
    chain = ["01", "f1", "t1", "11"]
    for lo, hi in zip(chain, chain[1:]):
        assert t[m.index(lo), m.index(hi)]
    assert not t[m.index("top1"), m.index("bot1")]
    assert not t[m.index("bot1"), m.index("top1")]


def test_mk_out_of_range():
    with pytest.raises(ValueError):
        build_mk(2, 3)
    with pytest.raises(ValueError):
        build_mk(2, -1)


def test_bilattice_laws_all_generators():
    for n in (0, 1, 2, 3):
        for k in range(n + 1):
            assert bilattice_law_violations(build_mk(n, k)) == []


def test_interchange_roundtrip():
    for alg in (build_jn(2), build_mk(2, 1)):
        doc = alg.to_json()
        assert FiniteAlgebra.from_json(doc) == alg
        assert FiniteAlgebra.from_json(doc).to_json() == doc


def test_bool_compose_matches_an_integer_product():
    rng = np.random.default_rng(20261018)
    for rows in range(1, 131):
        inner, cols = rng.integers(1, 131, size=2)
        a = rng.random((rows, inner)) < rng.random()
        b = rng.random((inner, cols)) < rng.random()
        assert np.array_equal(bool_compose(a, b), a.astype(np.int64) @ b.astype(np.int64) > 0)
        sq = rng.random((rows, rows)) < rng.random()
        assert np.array_equal(bool_compose(sq, sq), sq.astype(np.int64) @ sq.astype(np.int64) > 0)


def _warshall(rel):
    leq = rel | np.eye(rel.shape[0], dtype=bool)
    for k in range(rel.shape[0]):
        leq = leq | (leq[:, k, None] & leq[None, k, :])
    return leq


def test_reflexive_transitive_closure_matches_warshall():
    rng = np.random.default_rng(7)
    for size in [*range(1, 41), 64, 65, 130]:
        rel = rng.random((size, size)) < rng.random() * 3 / size
        assert np.array_equal(reflexive_transitive_closure(rel), _warshall(rel))


# -- homomorphisms ------------------------------------------------------------


def test_hom_m0_endos():
    m0 = build_mk(1, 0)
    assert enumerate_homs(m0, m0) == [tuple(range(4))]


def test_hom_swap_rejected():
    m0 = build_mk(1, 0)
    swap = list(range(4))
    f, t = m0.index("f0"), m0.index("t0")
    swap[f], swap[t] = t, f
    assert not is_homomorphism(swap, m0, m0)


def test_hom_mj_to_mk_empty_upward():
    for n, j, k in ((2, 1, 2), (3, 1, 2), (3, 2, 3)):
        assert enumerate_homs(build_mk(n, j), build_mk(n, k)) == []


def test_hom_mk_to_m0_is_the_collapse():
    for n, k in ((2, 1), (2, 2)):
        mk, m0 = build_mk(n, k), build_mk(n, 0)
        homs = enumerate_homs(mk, m0)
        assert len(homs) == 1
        h = homs[0]
        assert m0.elements[h[mk.index(f"f{k}")]] == "f0"
        assert m0.elements[h[mk.index(f"0{k}")]] == "f0"
        assert m0.elements[h[mk.index(f"t{k}")]] == "t0"
        assert m0.elements[h[mk.index(f"1{k}")]] == "t0"
        assert m0.elements[h[mk.index(f"top{k}")]] == "top0"
        assert m0.elements[h[mk.index(f"bot{k}")]] == "bot0"


def test_hom_backtracker_matches_bruteforce_oracle():
    cases = [(build_mk(2, 0), build_mk(2, 0)), (build_mk(2, 1), build_mk(2, 0)),
             (build_mk(2, 1), build_mk(2, 1)), (build_mk(2, 1), build_mk(2, 2)),
             (build_jn(1), build_mk(1, 1)), (build_jn(1), build_jn(1)),
             (build_mk(2, 0), build_mk(2, 2))]
    for A, B in cases:
        assert enumerate_homs(A, B) == enumerate_homs_bruteforce(A, B)


def test_every_enumerated_hom_passes_the_checker():
    j1 = build_jn(1)
    for k in (0, 1):
        for h in enumerate_homs(j1, build_mk(1, k)):
            assert is_homomorphism(h, j1, build_mk(1, k))


def test_hom_signature_mismatch():
    with pytest.raises(Exception):
        enumerate_homs(build_jn(1), build_jn(2))


# -- products and subalgebras -------------------------------------------------


def test_product_sizes_and_guard():
    m0, m1 = build_mk(1, 0), build_mk(1, 1)
    assert product([m0]).size == 4
    assert product([m0, m1]).size == 24
    with pytest.raises(GuardExceeded):
        product([m1] * 10)


def test_table_guard_covers_product_and_generated_subalgebras(monkeypatch):
    # every carrier the closure admits can be tabled with int16 positions
    assert DEFAULT_CLOSURE_GUARD ** 2 <= DEFAULT_TABLE_GUARD
    assert DEFAULT_CLOSURE_GUARD < 2**15
    m1 = build_mk(1, 1)
    monkeypatch.setattr(algebra, "DEFAULT_TABLE_GUARD", 6 * 6)
    assert product([m1]).size == 6
    with pytest.raises(GuardExceeded):
        product([m1, m1])
    assert generated_subalgebra_in_product([m1, m1], []).algebra.size == 6   # the diagonal
    with pytest.raises(GuardExceeded):
        generated_subalgebra_in_product([m1, m1], [(0, 5)])


def _oracle_keys(factors, rows: np.ndarray) -> np.ndarray:
    radices = [f.size for f in factors]
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for c, r in enumerate(radices):
        keys = keys * r + rows[:, c]
    return keys


def _oracle_op_keys(factors, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Packed keys of each operation on every left x right pair, one coordinate at a time."""
    acc = np.zeros((len(BINARY_OPS), left.shape[0], right.shape[0]), dtype=np.int64)
    for c, f in enumerate(factors):
        acc *= f.size
        acc += f.tables[:, left[:, c][:, None], right[:, c][None, :]]
    return acc


def _oracle_closure_rows(factors, generator_rows, max_elements):
    """Semi-naive closure by per-coordinate packing, rows sorted by key."""
    seed = {tuple(int(v) for v in row) for row in generator_rows}
    seed |= {tuple(f.consts[sym] for f in factors)
             for sym in factors[0].signature.constant_symbols}
    rows = np.array(sorted(seed), dtype=np.int16)
    known = set(_oracle_keys(factors, rows).tolist())
    frontier = rows
    while frontier.size:
        cand = set(_oracle_keys(factors, np.stack(
            [f.neg[frontier[:, c]] for c, f in enumerate(factors)], axis=-1)).tolist())
        cand |= set(_oracle_op_keys(factors, rows, frontier).ravel().tolist())
        fresh = sorted(cand - known)
        if not fresh:
            break
        known |= set(fresh)
        new_rows = np.array([_oracle_row(factors, k) for k in fresh], dtype=np.int16)
        rows = np.concatenate([rows, new_rows])
        if rows.shape[0] > max_elements:
            raise GuardExceeded("oracle closure too large")
        frontier = new_rows
    return np.array([_oracle_row(factors, k) for k in sorted(known)], dtype=np.int16)


def _oracle_row(factors, key: int) -> list[int]:
    row = []
    for f in reversed(factors):
        key, v = divmod(key, f.size)
        row.append(v)
    return row[::-1]


def _random_factors(rng):
    """Up to 24 factors drawn from M_0..M_n and J_n, n = 1..3, whose keys fit in int64."""
    n = rng.randint(1, 3)
    pool = (*mk_algebras(n), build_jn(n))
    factors = [rng.choice(pool) for _ in range(rng.randint(1, 24))]
    while math.prod(f.size for f in factors) >= 2**62:
        factors.pop()
    return factors


def _random_rows(rng, factors, count):
    return [tuple(rng.randrange(f.size) for f in factors) for _ in range(count)]


@pytest.mark.parametrize("block", [1, 7, 64, algebra.HOM_CHECK_BLOCK])
def test_packed_key_kernel_matches_per_coordinate_packing(block):
    """Every key block equals the per-coordinate packing, at row and column edges of block."""
    rng = random.Random(20261018 + block)
    for _ in range(25):
        factors = _random_factors(rng)
        kernel = _PackedKeys(factors)
        bounds = [a for a, _, _ in kernel.groups] + [len(factors)]
        assert [b for _, b, _ in kernel.groups] == bounds[1:] and bounds[0] == 0
        for a, b, cells in kernel.groups:
            assert cells == math.prod(f.size for f in factors[a:b])
            assert b - a == 1 or cells <= _PackedKeys.GROUP_CELLS
        # N = 1, N not a multiple of the step, and a right side wider than a block
        for n_left, n_right in ((1, 1), (1, 9), (13, 5), (5, 13), (30, 70)):
            left = np.array(_random_rows(rng, factors, n_left), dtype=np.int16)
            right = np.array(_random_rows(rng, factors, n_right), dtype=np.int16)
            keys, want = kernel.op_keys(left, right), _oracle_op_keys(factors, left, right)
            assert np.array_equal(keys(slice(None), slice(None)), want)
            step = max(1, block // n_right)
            for start in range(0, n_left, step):
                rows, cols = slice(start, start + step), slice(start + step)
                assert np.array_equal(keys(rows, cols), want[:, rows, cols])
            assert np.array_equal(kernel.pack(left), _oracle_keys(factors, left))
            assert np.array_equal(kernel.unpack(kernel.pack(left)), left)


def _matches_oracle(factors, gens, limit: int = 400) -> bool:
    """Closure rows, four tables, neg and constants equal the oracle's; False if both trip."""
    try:
        want = _oracle_closure_rows(factors, gens, limit)
    except GuardExceeded:
        with pytest.raises(GuardExceeded):
            product_closure_rows(factors, gens, limit)
        return False
    rows = product_closure_rows(factors, gens, limit)
    assert np.array_equal(rows, want)
    alg = _product_subalgebra(factors, rows)
    keys = _oracle_keys(factors, rows)
    assert np.array_equal(alg.tables, np.searchsorted(keys, _oracle_op_keys(factors, rows, rows)))
    negs = np.stack([f.neg[rows[:, c]] for c, f in enumerate(factors)], axis=-1)
    assert np.array_equal(alg.neg, np.searchsorted(keys, _oracle_keys(factors, negs)))
    for sym, i in alg.consts.items():
        assert tuple(rows[i]) == tuple(f.consts[sym] for f in factors)
    return True


@pytest.mark.parametrize("block", [7, algebra.HOM_CHECK_BLOCK])
def test_product_closure_and_tables_match_per_coordinate_oracle(monkeypatch, block):
    """Random products of M_k and J_n, then the seeded subalgebras of J_n^2 at n = 1..3."""
    monkeypatch.setattr(algebra, "HOM_CHECK_BLOCK", block)
    rng = random.Random(4242 + block)
    compared = trips = 0
    while compared < 12:
        factors = _random_factors(rng)
        if _matches_oracle(factors, _random_rows(rng, factors, rng.randint(1, 2))):
            compared += 1
        else:
            trips += 1
    assert trips < 40
    m0 = mk_algebras(1)[0]
    assert _matches_oracle([m0, m0], [(1, 2)])   # its last round's new rows all negate to themselves
    closure, drawn = algebra.product_closure_rows, []
    monkeypatch.setattr(algebra, "product_closure_rows", lambda factors, gens, limit: (
        drawn.append((factors, gens)) or closure(factors, gens, limit)))
    for n in (1, 2, 3):
        for item in seeded_subalgebras(n, 25, 20260809):
            assert item.algebra.size   # closed through the recorder
    assert len(drawn) == 75 and all(_matches_oracle(f, g) for f, g in drawn)


def test_the_closure_refuses_factors_without_the_negation_symmetry_and_stray_generators():
    """Pairing half the rows needs ¬ to be an involution swapping meet_t and join_t."""
    m1 = build_mk(1, 1)
    identity = FiniteAlgebra(m1.signature, m1.elements, m1.tables, range(m1.size), m1.consts)
    cycle = FiniteAlgebra(m1.signature, m1.elements, m1.tables,
                          [*range(1, m1.size), 0], m1.consts)
    for bad, law in ((identity, r"meet_t\(neg x, neg y\) != neg join_t\(x, y\)"),
                     (cycle, "neg is not an involution")):
        with pytest.raises(ValueError, match=f"factor 1: {law}"):
            product_closure_rows([m1, bad], [(0, 0)])
    for gen in ((0, 6), (-1, 0)):   # unpacked, its key would alias another row
        with pytest.raises(ValueError, match="generator row is outside the factors"):
            product_closure_rows([m1, m1], [gen])


def test_the_closure_guard_trips_inside_a_round(monkeypatch):
    """At n=2 the round from 408 rows (176 lead rows) would reach 1338: past 900 early.

    Each round pairs the lead rows of its frontier, one per negation pair, with every row.
    """
    monkeypatch.setattr(algebra, "HOM_CHECK_BLOCK", 1)   # one lead row per block
    op_keys, rounds = _PackedKeys.op_keys, []

    def counting(self, left, right):
        keys, evaluated = op_keys(self, left, right), [left.shape[0], right.shape[0], 0]
        rounds.append(evaluated)

        def counted(i, j):
            evaluated[2] += 1
            return keys(i, j)
        return counted

    monkeypatch.setattr(_PackedKeys, "op_keys", counting)
    assert free_algebra_rows(2).shape[0] == 1434
    assert rounds == [[6, 10, 6], [25, 58, 25], [176, 408, 176], [465, 1338, 465],
                      [48, 1434, 48]]
    rounds.clear()
    with pytest.raises(GuardExceeded, match="closure exceeded 900 elements"):
        free_algebra_rows(2, max_elements=900)
    lead, width, blocks = rounds[-1]
    assert (lead, width) == (176, 408) and blocks < lead


@pytest.mark.parametrize("block", [64, algebra.HOM_CHECK_BLOCK])
def test_key_blocks_and_kept_tables_stay_within_the_memory_rules(monkeypatch, block):
    """A key block holds at most HOM_CHECK_BLOCK entries over the four operations, or one row
    when a row alone is wider; an int16 stack of tables is kept without a copy."""
    monkeypatch.setattr(algebra, "HOM_CHECK_BLOCK", block)
    op_keys, shapes = _PackedKeys.op_keys, []

    def recording(self, left, right):
        keys = op_keys(self, left, right)

        def wrapped(i, j):
            out = keys(i, j)
            shapes.append(out.shape)
            return out
        return wrapped
    monkeypatch.setattr(_PackedKeys, "op_keys", recording)
    for build in (lambda: free_algebra(1).algebra,
                  lambda: seeded_subalgebras(2, 1, 20260809)[0].algebra):
        shapes.clear()
        build()   # the closure's blocks, then the tables'
        assert shapes
        for ops, rows, cols in shapes:
            assert ops == len(BINARY_OPS) and (ops * rows * cols <= block or rows == 1)
    m1 = build_mk(1, 1)
    tables = np.array(m1.tables)
    kept = FiniteAlgebra(m1.signature, m1.elements, tables, m1.neg, m1.consts)
    assert np.shares_memory(kept.tables, tables) and not kept.tables.flags.writeable


def test_a_non_commutative_table_is_refused_at_construction():
    """The closures and the hom search combine each pair in one order, so algebras commute."""
    m1 = build_mk(1, 1)
    left_projection = np.repeat(np.arange(m1.size)[:, None], m1.size, axis=1)
    for tab in (left_projection, left_projection.T):
        tables = m1.tables.copy()
        tables[BINARY_OPS.index("join_k")] = tab
        with pytest.raises(ValueError, match="join_k table is not commutative"):
            FiniteAlgebra(m1.signature, m1.elements, tables, m1.neg, m1.consts)


def test_free_algebra_2_matches_its_pinned_digest(free2):
    """Rows, tables, neg, constants and generator of F_V2(1) match a recorded sha256."""
    h = hashlib.sha256()
    h.update(np.asarray(free2.rows, dtype="<i2").tobytes())
    h.update(free2.algebra.tables.astype("<i2").tobytes())   # the four tables in BINARY_OPS order
    h.update(free2.algebra.neg.astype("<i2").tobytes())
    h.update(json.dumps(free2.algebra.consts, sort_keys=True).encode())
    h.update(repr(free2.generator_indices).encode())
    assert h.hexdigest() == "0430ed7268da7d113c5b6c311b8ab5c962cfa145e9ea5683ca02d94f42c5048e"


def test_free_algebra_tables_are_guarded(monkeypatch):
    monkeypatch.setattr(algebra, "DEFAULT_TABLE_GUARD", 1000)
    with pytest.raises(GuardExceeded, match="tables on 266 elements"):
        free_algebra(1)
    assert algebra.free_algebra_rows(1).shape[0] == 266   # counting builds no tables


def test_product_constants_are_diagonal():
    m1 = build_mk(1, 1)
    sq = product([m1, m1])
    const_elems = {sq.elements[i] for i in sq.consts.values()}
    assert const_elems == {f"({e},{e})" for e in m1.elements}


def test_constant_closure_is_everything_on_m0():
    m0 = build_mk(2, 0)
    sub = generated_subalgebra(m0, [])
    assert sub.algebra.size == 4
    assert sub.embedding == (0, 1, 2, 3)


def test_generated_subalgebra_idempotent_monotone():
    rng = random.Random(3)
    j1 = build_jn(1)
    sq = product([j1, j1])
    for _ in range(10):
        gens = rng.sample(range(sq.size), rng.randint(1, 3))
        sub = generated_subalgebra(sq, gens)
        again = generated_subalgebra(sq, sub.embedding)
        assert again.embedding == sub.embedding
        bigger = generated_subalgebra(sq, gens + [rng.randrange(sq.size)])
        assert set(sub.embedding) <= set(bigger.embedding)


def test_free_algebra_sizes(free1, free2):
    assert free1.algebra.size == 266
    assert free2.algebra.size == 1434


def test_free_algebra_hom_counts(free1):
    for k, expected in ((0, 4), (1, 6)):
        assert len(enumerate_homs(free1.algebra, build_mk(1, k))) == expected


def test_free_algebra_homs_are_the_coordinate_projections(free1, free2):
    # F_V(1) has one coordinate per pair (k, a) with a in M_k, and the generator
    # reads a there; the hom into M_k sending the generator to a is that projection
    for F in (free1, free2):
        rows = np.array(F.rows)
        for B in mk_algebras(F.algebra.signature.n):
            cols = [c for c, f in enumerate(F.factors) if f is B]
            assert len(cols) == B.size
            projections = sorted(tuple(rows[:, c].tolist()) for c in cols)
            assert enumerate_homs(F.algebra, B) == projections


def test_hintless_search_prunes_before_the_full_check(free1, free2, monkeypatch):
    checked = []

    def counting(mapping, A, B):
        checked.append(mapping)
        return is_homomorphism(mapping, A, B)

    monkeypatch.setattr(algebra, "is_homomorphism", counting)
    # the derived first generator is the free one, so only the homs reach the full check
    for F, expected in ((free1, [4, 6]), (free2, [4, 6, 6])):
        full_checks = []
        for B in mk_algebras(F.algebra.signature.n):
            checked.clear()
            enumerate_homs(F.algebra, B)
            full_checks.append(len(checked))
        assert full_checks == expected


def test_subuniverse_families():
    m0, m1, m2 = mk_algebras(2)
    fam = enumerate_subuniverses(product([m0, m0]))
    assert len(fam.members) == 4
    assert sorted(len(s) for s in fam.members) == [4, 9, 9, 16]
    assert sorted(len(s) for s in fam.meet_irreducibles) == [9, 9]
    fam = enumerate_subuniverses(product([m1, m1]))
    assert len(fam.members) == 7
    assert sorted(len(s) for s in fam.meet_irreducibles) == [8, 8, 19, 19]
    fam = enumerate_subuniverses(product([m1, m2]))
    assert len(fam.members) == 5
    assert min(len(s) for s in fam.members) == 8
    fam = enumerate_subuniverses(product([m0, m1]))
    assert len(fam.members) == 4


def test_subuniverses_closed_and_intersection_closed():
    """Closed members, closed under meet and join, holding Sg(∅) and each Sg(x): all of Sub(A)."""
    j1 = build_jn(1)
    cases = [product([a, b]) for n in (1, 2, 3) for a in mk_algebras(n) for b in mk_algebras(n)]
    cases.append(product([j1, j1]))
    for A in cases:
        fam = enumerate_subuniverses(A)
        members = set(fam.members)
        assert len(members) == len(fam.members)
        for s in members:
            assert frozenset(closure_indices(A, s)) == s
        for a in members:
            for b in members:
                assert a & b in members
                assert frozenset(closure_indices(A, a | b)) in members
        assert frozenset(closure_indices(A, ())) in members
        for x in range(A.size):
            assert frozenset(closure_indices(A, [x])) in members


def _subuniverses_by_subset_scan(A):
    """Every closed subset holding the constants, flagged when it has exactly one upper cover."""
    consts = sorted(set(A.consts.values()))
    rest = [i for i in range(A.size) if i not in consts]
    closed = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            sel = np.array(consts + list(extra))
            inside = np.zeros(A.size, dtype=bool)
            inside[sel] = True
            if inside[A.neg[sel]].all() and inside[A.tables[:, sel[:, None], sel]].all():
                closed.append(frozenset(sel.tolist()))

    def upper_covers(s):
        return [t for t in closed if s < t and not any(s < u < t for u in closed)]

    return {s: len(upper_covers(s)) == 1 for s in closed}


def test_subuniverses_match_subset_scan_oracle():
    m0, m1 = mk_algebras(1)
    j1 = build_jn(1)
    cases = [product([m0, m0]), m1, j1]
    rng = random.Random(7)
    sq = product([j1, j1])
    while len(cases) < 6:
        sub = generated_subalgebra(sq, rng.sample(range(sq.size), rng.randint(1, 2))).algebra
        if 6 < sub.size <= 16 and all(sub != seen for seen in cases):
            cases.append(sub)
    for A in cases:
        fam = enumerate_subuniverses(A)
        assert len(set(fam.members)) == len(fam.members)
        assert dict(zip(fam.members, fam.meet_irreducible)) == _subuniverses_by_subset_scan(A)


def test_closure_from_closed_members_matches_closure_indices(free1):
    rng = random.Random(11)
    for A in (product([build_jn(1)] * 2), product(mk_algebras(2)[1:]), free1.algebra):
        for _ in range(20):
            closed = closure_indices(A, rng.sample(range(A.size), rng.randint(0, 2)))
            x = rng.randrange(A.size)
            cl = _Closure(A)
            for i in closed + [x]:
                cl.add_seed(i)
            cl.saturate()
            assert sorted(cl.order) == cl.members() == closure_indices(A, closed + [x])


def _fixpoint_oracle(A, seeds):
    """The least set holding the seeds and closed under neg and the four tables, in pure Python."""
    tabs, neg, members = A.tables.tolist(), A.neg.tolist(), set(seeds)
    while True:
        grown = members | {neg[x] for x in members} | {
            tab[x][y] for tab in tabs for x in members for y in members}
        if grown == members:
            return members
        members = grown


@pytest.mark.parametrize("block", [1, algebra.HOM_CHECK_BLOCK])
def test_seeded_closures_derive_each_member_from_earlier_ones(monkeypatch, block):
    """A round's row blocks adopt new values in any order, but each by a valid witness."""
    monkeypatch.setattr(algebra, "HOM_CHECK_BLOCK", block)
    rng = random.Random(29)
    cases = [product([a, b]) for n in (1, 2) for a in mk_algebras(n) for b in mk_algebras(n)]
    cases += [build_jn(n) for n in (1, 2, 3)]
    cases += [item.algebra for item in seeded_subalgebras(1, 8, 20260809)]
    for A in cases:
        for _ in range(4):
            seeds = rng.sample(range(A.size), rng.randint(0, 2))
            cl = _Closure(A)
            for x in seeds:
                cl.add_seed(x)
            cl.saturate()
            assert len(set(cl.order)) == len(cl.order)
            assert set(cl.order) == set(cl.members()) == _fixpoint_oracle(A, seeds)
            place = {v: i for i, v in enumerate(cl.order)}
            for v in cl.order:
                kind, *args = cl.rules[v]
                if kind == "seed":
                    assert v in seeds
                    continue
                if kind == "neg":
                    assert place[args[0]] < place[v] and A.neg[args[0]] == v
                else:
                    op, a, b = args
                    assert place[a] < place[v] and place[b] < place[v] and A.tables[op, a, b] == v


def test_subuniverse_guard(monkeypatch):
    monkeypatch.setattr(algebra, "DEFAULT_SUBUNIVERSE_GUARD", 10)
    with pytest.raises(GuardExceeded):
        enumerate_subuniverses(product([build_jn(1)] * 2))


def _bilattice_isomorphism(A, B):
    """First bijection preserving neg and the four binary tables (constants ignored)."""
    if A.size != B.size:
        return None
    for perm in itertools.permutations(range(A.size)):
        h = np.asarray(perm)
        if np.array_equal(h[A.neg], B.neg[h]) and np.array_equal(
                h[A.tables], B.tables[:, h[:, None], h[None, :]]):
            return perm
    return None


def test_pairwise_noniso_generators_and_shared_reduct():
    for n in (1, 2):
        algs = mk_algebras(n)
        for i in range(n + 1):
            for j in range(n + 1):
                if i != j:
                    onto = list(range(algs[j].size))
                    assert not [h for h in enumerate_homs(algs[i], algs[j]) if sorted(h) == onto]
        j1 = build_jn(1)
        for k in range(1, n + 1):
            assert _bilattice_isomorphism(algs[k], j1) is not None
        assert _bilattice_isomorphism(algs[0], j1) is None


def test_lattice_reduct_bounds():
    L = lattice_reduct(build_jn(0))
    assert L.n == 4
    assert L.elements[L.bot] == "f0"
    assert L.elements[L.top] == "t0"
    L = lattice_reduct(build_mk(1, 1))
    assert L.n == 6
    for n in (1, 2, 3):
        L = lattice_reduct(build_jn(n))
        assert L.elements[L.bot] == "f0"


def test_homomorphism_objects():
    j1, m1, m0 = build_jn(1), build_mk(1, 1), build_mk(1, 0)
    quotients = enumerate_homs(j1, m1)
    assert len(quotients) == 1
    collapse = enumerate_homs(m1, m0)[0]
    composed = tuple(collapse[v] for v in quotients[0])
    assert is_homomorphism(composed, j1, m0)
    assert composed == enumerate_homs(j1, m0)[0]
    assert collapse[m1.index("01")] == m0.index("f0")
    assert not is_homomorphism((1, 0, 2, 3), m0, m0)
