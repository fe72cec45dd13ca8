"""Poset validation, down-set machinery, combinators, isomorphism."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from bilatdual import posets
from bilatdual.algebra import GuardExceeded, order_from_covers
from bilatdual.bridge import construct_P
from bilatdual.multisorted import build_alter_ego
from bilatdual.posets import (Poset, antichain, are_isomorphic, chain, check_relation,
                              count_downsets, count_downsets_bruteforce, direct_product,
                              disjoint_union, dual, enumerate_downsets, grid,
                              is_downset_mask, is_order_isomorphism, is_order_preserving,
                              linear_sum)


def random_poset(rng, max_n=10):
    n = rng.randint(1, max_n)
    mat = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                mat[i, j] = True
    for _ in range(n):
        mat = mat | (mat @ mat)
    return Poset([f"e{i}" for i in range(n)], mat)


def test_check_relation_witnesses():
    assert check_relation(np.eye(3, dtype=bool)).ok
    res = check_relation(np.ones((2, 2), dtype=bool))
    assert not res.ok and res.kind == "antisymmetry"
    mat = np.eye(3, dtype=bool)
    mat[0, 1] = mat[1, 2] = True
    res = check_relation(mat)
    assert not res.ok and res.kind == "transitivity" and res.witness == (0, 1, 2)
    mat = np.zeros((2, 2), dtype=bool)
    res = check_relation(mat)
    assert not res.ok and res.kind == "reflexivity"


def test_poset_constructor_rejects_non_orders():
    with pytest.raises(ValueError):
        Poset(["a", "b"], np.ones((2, 2), dtype=bool))


def test_counts_on_standard_shapes():
    assert count_downsets(chain(5)) == 6
    assert count_downsets(antichain(4)) == 16
    assert count_downsets(disjoint_union(chain(2), chain(2))) == 9
    for n in range(1, 13):
        assert count_downsets(grid(2, n)) == (n + 1) * (n + 2) // 2


def test_linear_sum_case_shape():
    # a grid below two disjoint 2-chains, as in the counting case analysis
    for n in (1, 2, 3):
        q = (n + 1) * (n + 2) // 2
        P = linear_sum(grid(2, n), disjoint_union(chain(2), chain(2)))
        assert count_downsets(P) == q + 8


def test_count_matches_bruteforce_on_random_posets():
    rng = random.Random(11)
    for _ in range(40):
        P = random_poset(rng, max_n=12)
        expected = count_downsets_bruteforce(P)
        assert count_downsets(P) == expected
        assert len(enumerate_downsets(P)) == expected
        assert count_downsets(dual(P)) == expected


def relabelled_posets():
    """Seeded random posets, each relabelled by a shuffle of its indices."""
    # random_poset only relates i < j; a seeded relabelling breaks that
    rng = random.Random(29)
    for _ in range(40):
        P = random_poset(rng, max_n=12)
        perm = list(range(P.n))
        rng.shuffle(perm)
        yield Poset(P.elements, P.leq[np.ix_(perm, perm)])


def test_downset_kernels_on_index_orders_that_are_not_linear_extensions():
    inverted = 0
    for relabelled in relabelled_posets():
        inverted += bool(np.tril(relabelled.leq, -1).any())
        for Q in (relabelled, dual(relabelled)):
            down = Q.down_masks()
            scan = {mask for mask in range(1 << Q.n) if is_downset_mask(mask, down)}
            masks = enumerate_downsets(Q)
            assert len(set(masks)) == len(masks)
            assert set(masks) == scan
            assert count_downsets(Q) == len(scan)
    assert inverted >= 20


def mask_digest(masks) -> str:
    return hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()


# sha256 of the comma-joined masks, recorded when enumeration still built a list
ORDER_DIGESTS = {
    "P(M~1)": "4c6d2d5ba4e94b5263a896ab33445a903f48606ead616f46437cfbd05b2f407e",
    "P(M~2)": "c2e4cbc241f5046955d90416c5979b4bd468c4ea7c2e27f248962f0d584cdb91",
    "P(M~3)": "4ae8235478ec4e4cd9461ee01c998b83cb97669b894de09ba0473cd98a9b0690",
    "grid(2, 5)": "6e410424fbbafc21b9f415ef86447f9c8fc72427afad71c7688e004b4767ad74",
    # each relabelled poset and then its dual, every sequence closed by -1
    "relabelled": "2a942239dd97cd65a9972d98a1f4031b1c0d4f96d4f42b8f2964330fa9af307c",
}


def test_the_downset_view_streams_the_pinned_order_on_every_pass():
    posets_by_label = {f"P(M~{n})": [construct_P(build_alter_ego(n)).poset] for n in (1, 2, 3)}
    posets_by_label["grid(2, 5)"] = [grid(2, 5)]
    posets_by_label["relabelled"] = [Q for R in relabelled_posets() for Q in (R, dual(R))]
    for label, family in posets_by_label.items():
        seq = []
        for Q in family:
            view = enumerate_downsets(Q)
            masks = list(view)
            assert list(view) == masks, label   # a second pass yields the same masks
            assert len(view) == len(masks), label
            seq.extend(masks + [-1] if label == "relabelled" else masks)
        assert mask_digest(seq) == ORDER_DIGESTS[label], label


def test_the_ranking_is_a_linear_extension_of_the_doubled_space():
    for n, inverted in ((1, 20), (2, 43), (3, 74)):
        P = construct_P(build_alter_ego(n)).poset
        assert int(np.tril(P.leq, -1).sum()) == inverted   # the index order is not one
        up, down, bit = posets._ranked(P)
        assert sorted(bit) == [1 << i for i in range(P.n)]
        order = [b.bit_length() - 1 for b in bit]
        ranked = P.leq[np.ix_(order, order)]
        assert not np.tril(ranked, -1).any()
        assert up == [sum(1 << s for s in np.flatnonzero(row)) for row in ranked]
        assert down == [sum(1 << s for s in np.flatnonzero(col)) for col in ranked.T]


def tally_cases():
    """(poset, key) pairs: P(M~n) with its centre and top blocks, and seeded random posets."""
    rng = random.Random(17)
    for n in range(1, 6):
        space = construct_P(build_alter_ego(n))
        _, centre, top = space.block_masks()
        yield space.poset, centre | top
    for _ in range(30):
        size = rng.randint(8, 20)
        mat = np.triu(np.array([[rng.random() < 0.25 for _ in range(size)]
                                for _ in range(size)]))
        perm = list(range(size))
        rng.shuffle(perm)
        mat = (mat | np.eye(size, dtype=bool))[np.ix_(perm, perm)]
        for _ in range(size):
            mat = mat | (mat @ mat)
        yield Poset([f"e{i}" for i in range(size)], mat), rng.getrandbits(size)


def test_the_tally_counts_what_a_walk_would_group():
    for P, key in tally_cases():
        view = enumerate_downsets(P)
        for k in (key, 0, (1 << P.n) - 1):
            tally = view.tally(k)
            assert tally == Counter(map(k.__and__, view)), (P, k)
            assert sum(tally.values()) == count_downsets(P)


def test_combinator_count_identities():
    rng = random.Random(5)
    for _ in range(15):
        P, Q = random_poset(rng, 7), random_poset(rng, 7)
        assert count_downsets(disjoint_union(P, Q)) == count_downsets(P) * count_downsets(Q)
        assert count_downsets(linear_sum(P, Q)) == count_downsets(P) + count_downsets(Q) - 1
        assert dual(dual(P)) == P


def test_downset_family_consistency():
    P = grid(2, 3)
    masks = enumerate_downsets(P)
    assert count_downsets(P) == 10
    assert len(set(masks)) == len(masks) == 10
    for mask in masks:
        for i in range(P.n):
            if mask >> i & 1:
                for j in range(P.n):
                    if P.leq[j, i]:
                        assert mask >> j & 1


def test_count_budget_guard(monkeypatch):
    # 30 points: an entry is costed at 30 // 7 + 100 = 104 bytes, so 1040 bytes hold 10 entries
    monkeypatch.setattr(posets, "COUNT_MEMO_BYTES", 1040)
    with pytest.raises(GuardExceeded, match=r"memo budget of 1040 bytes \(10 entries of 30 bits\)"):
        count_downsets(antichain(30))
    assert count_downsets(antichain(9)) == 512   # 10 entries: the empty mask and 9 suffixes
    # a tally counts through the same memo, under the same cap
    P = construct_P(build_alter_ego(2)).poset
    with pytest.raises(GuardExceeded, match="memo budget of 1040 bytes"):
        enumerate_downsets(P).tally(P.down_masks()[0])


def test_isomorphism_with_witness():
    P = grid(2, 3)
    Q = direct_product(chain(3, "x"), chain(2, "y"))
    w = are_isomorphic(P, Q)
    assert w is not None
    assert is_order_isomorphism(w, P, Q)
    assert are_isomorphic(chain(2), antichain(2)) is None
    wid = are_isomorphic(P, P)
    assert wid is not None and is_order_isomorphism(wid, P, P)


def test_order_preserving_matches_a_pair_loop():
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        P, Q = random_poset(rng, 7), random_poset(rng, 7)
        mapping = [rng.randrange(Q.n) for _ in range(P.n)]
        expected = all(Q.leq[mapping[i], mapping[j]]
                       for i in range(P.n) for j in range(P.n) if P.leq[i, j])
        assert is_order_preserving(mapping, P, Q) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_isomorphism_is_equivalence_on_corpus():
    rng = random.Random(23)
    posets = [random_poset(rng, 7) for _ in range(8)]
    for P in posets:
        assert are_isomorphic(P, P) is not None
    for P in posets:
        for Q in posets:
            assert (are_isomorphic(P, Q) is None) == (are_isomorphic(Q, P) is None)


def test_big_grid_fast_count():
    assert count_downsets(grid(2, 50)) == 51 * 52 // 2


def test_interchange_and_dot():
    P = Poset("abcd", order_from_covers("abcd", [("a", "b"), ("b", "c"), ("a", "d")]))
    dot = P.to_dot()
    assert "digraph" in dot and dot.count("->") == 3
    assert set(P.covers()) == {(0, 1), (1, 2), (0, 3)}


def test_counting_a_long_chain_needs_no_recursion():
    assert count_downsets(chain(3000)) == 3001
    assert count_downsets(dual(chain(3000))) == 3001
