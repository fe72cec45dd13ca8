"""Priestley duality at finite scale: H two ways, K in both orientations."""

import random
from collections import Counter

import numpy as np
import pytest

from bilatdual.algebra import NotALattice, build_jn, build_mk
from bilatdual.distlat import (Lattice, distributive_by_triples, is_distributive,
                               join_irreducibles, lattice_of_downsets, lattice_of_upsets,
                               lattice_reduct,
                               lattices_isomorphic, priestley_dual_by_homs,
                               priestley_dual_of_lattice)
from bilatdual.posets import (Poset, antichain, are_isomorphic, chain, count_downsets,
                              grid)

from test_posets import random_poset


def sample_lattices():
    two = lattice_of_downsets(chain(1))
    yield two
    yield lattice_of_downsets(antichain(2))       # 2^2
    yield lattice_of_downsets(chain(3))
    yield lattice_of_downsets(grid(2, 2))
    yield lattice_reduct(build_jn(1))
    yield lattice_reduct(build_mk(2, 0))
    yield lattice_reduct(build_mk(2, 2))
    rng = random.Random(17)
    for _ in range(6):
        yield lattice_of_downsets(random_poset(rng, 6))


def test_h_of_two_element_lattice_is_a_point():
    two = lattice_of_downsets(chain(1))
    assert two.n == 2
    assert priestley_dual_of_lattice(two).n == 1


def test_h_of_square_is_antichain():
    sq = lattice_of_downsets(antichain(2))
    H = priestley_dual_of_lattice(sq)
    assert H.n == 2 and not H.leq[0, 1] and not H.leq[1, 0]


def test_h_representations_agree():
    checked = 0
    for L in sample_lattices():
        if L.n > 16:
            continue
        Hj = priestley_dual_of_lattice(L)
        Hh = priestley_dual_by_homs(L)
        assert are_isomorphic(Hj, Hh) is not None
        checked += 1
    assert checked >= 5


def test_prime_filter_order_matches():
    for L in sample_lattices():
        H = priestley_dual_of_lattice(L)
        pf = [frozenset(np.flatnonzero(L.leq[j]).tolist()) for j in join_irreducibles(L)]
        assert len(pf) == H.n
        for a in range(H.n):
            for b in range(H.n):
                assert H.leq[a, b] == (pf[a] <= pf[b])


def test_upset_composite_is_identity():
    for L in sample_lattices():
        H = priestley_dual_of_lattice(L)
        assert lattices_isomorphic(lattice_of_upsets(H), L)


def test_downset_composite_is_the_dual():
    # an asymmetric witness: the 5-element lattice with one atom and two coatoms
    P = Poset(["a", "b", "t"], np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1]], dtype=bool))
    L = lattice_of_downsets(P)
    H = priestley_dual_of_lattice(L)
    assert lattices_isomorphic(lattice_of_upsets(H), L)
    assert not lattices_isomorphic(lattice_of_downsets(H), L)
    Ldual = lattice_of_upsets(P)
    assert lattices_isomorphic(lattice_of_downsets(H), Ldual)


def test_downset_lattice_shape():
    # the ten down-sets of the 2 x 3 grid form the expected coproduct shape
    L = lattice_of_downsets(grid(2, 3))
    assert L.n == 10
    assert is_distributive(L)
    assert len(join_irreducibles(L)) == 6


def test_distributivity_paths_agree():
    for L in sample_lattices():
        assert distributive_by_triples(L) == is_distributive(L)


def _bounded_poset(rng, max_inner):
    """A random poset with a new bottom and top; often, but not always, a lattice."""
    inner = random_poset(rng, max_inner)
    n = inner.n + 2
    leq = np.zeros((n, n), dtype=bool)
    leq[0, :] = leq[:, -1] = True
    leq[1:-1, 1:-1] = inner.leq
    return Lattice(["0", *inner.elements, "1"], leq)


def test_birkhoff_test_matches_the_triple_oracle():
    rng = random.Random(20261018)
    tally = Counter()
    for _ in range(3000):
        L = _bounded_poset(rng, 8)
        try:
            expected = distributive_by_triples(L)
        except NotALattice:
            expected = None
        assert is_distributive(L) == bool(expected)
        tally[expected] += 1
    assert min(tally[None], tally[True], tally[False]) >= 100, tally


def test_nondistributive_rejected():
    # the diamond M3: three incomparable atoms under a common top
    leq = np.eye(5, dtype=bool)
    for a in (1, 2, 3):
        leq[0, a] = leq[a, 4] = True
    leq[0, 4] = True
    M3 = Lattice(["0", "x", "y", "z", "1"], leq)
    assert not is_distributive(M3)
    assert not distributive_by_triples(M3)
    with pytest.raises(NotALattice):
        priestley_dual_of_lattice(M3)


def test_free_reduct_dual_has_twenty_points(free1):
    L = lattice_reduct(free1.algebra)
    assert L.n == 266
    assert is_distributive(L)
    H = priestley_dual_of_lattice(L)
    assert H.n == 20
    assert count_downsets(H) == 266
    assert lattices_isomorphic(lattice_of_upsets(H), L)


def test_unbounded_carrier_rejected():
    with pytest.raises(NotALattice):
        Lattice(["a", "b"], np.eye(2, dtype=bool))
