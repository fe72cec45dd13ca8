"""Dual-route checks: independent construction paths must land on the same answers."""

import itertools
import random

import numpy as np
import pytest

from bilatdual.algebra import (FiniteAlgebra, build_jn, build_mk, closure_indices,
                               enumerate_homs,
                               enumerate_homs_bruteforce, generated_subalgebra,
                               generated_subalgebra_in_product, mk_algebras, product)
from bilatdual.multisorted import morphism_rows, natural_dual, verify_unit_iso
from bilatdual.posets import (Poset, are_isomorphic, chain, count_downsets,
                              direct_product, is_order_isomorphism)

from test_posets import random_poset


def test_product_closure_agrees_with_materialized_closure():
    rng = random.Random(41)
    j1 = build_jn(1)
    m1 = build_mk(1, 1)
    factors = [j1, m1]
    sq = product(factors)
    for _ in range(12):
        gens = [(rng.randrange(j1.size), rng.randrange(m1.size))
                for _ in range(rng.randint(1, 2))]
        lazy = generated_subalgebra_in_product(factors, gens)
        flat = [g[0] * m1.size + g[1] for g in gens]
        eager = generated_subalgebra(sq, flat)
        assert lazy.algebra.size == eager.algebra.size
        lazy_flat = sorted(a * m1.size + b for a, b in lazy.rows)
        assert lazy_flat == list(eager.embedding)
        assert lazy.algebra == eager.algebra


def test_hom_enumeration_fuzz_against_oracle():
    rng = random.Random(5)
    j1 = build_jn(1)
    sq = product([j1, j1])
    targets = [build_mk(1, 0), build_mk(1, 1)]
    for _ in range(8):
        gens = rng.sample(range(sq.size), rng.randint(1, 3))
        A = generated_subalgebra(sq, gens).algebra
        for B in targets:
            if B.size ** A.size <= 10**7:
                assert enumerate_homs(A, B) == enumerate_homs_bruteforce(A, B)


def _homs_as_functional_graphs(A, B):
    """Homs A -> B read off the subuniverses of A x B generated by generator/image pairs.

    Such a subuniverse is the graph of a homomorphism exactly when each element
    of A occurs in it once; every homomorphism arises from its generator images.
    """
    gens = []
    while len(members := closure_indices(A, gens)) < A.size:
        gens.append(min(set(range(A.size)) - set(members)))
    AB = product([A, B])
    out = []
    for images in itertools.product(range(B.size), repeat=len(gens)):
        graph = [divmod(x, B.size)
                 for x in closure_indices(AB, [g * B.size + b for g, b in zip(gens, images)])]
        if len(graph) == A.size and len({a for a, _ in graph}) == A.size:
            out.append(tuple(b for _, b in sorted(graph)))
    return sorted(out)


def test_multi_generator_hom_search_against_graph_oracle():
    # these sources need two greedy generators, beyond the brute-force oracle's reach
    rng = random.Random(7)
    for n in (1, 2):
        mks = mk_algebras(n)
        for pair in ((0, 0), (0, n), (n, n)):
            sq = product([mks[pair[0]], mks[pair[1]]])
            sources = [sq] + [generated_subalgebra(sq, rng.sample(range(sq.size), 2)).algebra
                              for _ in range(3)]
            for A in sources:
                for B in mks:
                    assert enumerate_homs(A, B) == _homs_as_functional_graphs(A, B)


def test_isomorphism_fuzz_against_permutation_oracle():
    rng = random.Random(13)
    for _ in range(25):
        P = random_poset(rng, 9)
        perm = list(range(P.n))
        rng.shuffle(perm)
        inv = np.argsort(perm)
        Q = Poset([P.elements[perm[i]] for i in range(P.n)], P.leq[np.ix_(perm, perm)])
        w = are_isomorphic(P, Q)
        assert w is not None and is_order_isomorphism(w, P, Q)
        # removing one strict comparability (keeping a valid order) flips pair counts
        strict = [(i, j) for i, j in np.argwhere(P.leq) if i != j]
        if strict:
            assert are_isomorphic(P, Q) is not None


def test_grid_counts_are_binomials():
    # down-sets of chain(a) x chain(b) count lattice paths
    from math import comb
    for a in range(1, 5):
        for b in range(1, 7):
            P = direct_product(chain(a, "x"), chain(b, "y"))
            assert count_downsets(P) == comb(a + b, a), (a, b)


def test_unit_iso_holds_at_depth_three():
    for A in (*(build_mk(3, k) for k in range(4)), build_jn(3)):
        assert verify_unit_iso(natural_dual(A))


def damaged_m1():
    """M_1 with one negation entry damaged: it fixes f1, breaking the pairing with t1."""
    m1 = build_mk(1, 1)
    neg = m1.neg.copy()
    f = m1.index("f1")
    neg[f] = f
    return FiniteAlgebra(m1.signature, tuple(f"d{e}" for e in m1.elements),
                         m1.tables, neg, m1.consts)


def test_unit_iso_rejects_a_law_breaking_algebra():
    # the damaged algebra is no longer in the class: it has no homomorphism into any
    # M_k, so it has no natural dual and no evaluation onto a double dual
    with pytest.raises(ValueError, match="no homomorphism"):
        natural_dual(damaged_m1())


def test_unit_iso_rejects_a_non_injective_evaluation():
    # M_0 x damaged M_1: its 24 elements give only 4 evaluation rows, and those are
    # exactly the 4 morphism rows, so injectivity is the one condition that fails
    A = product([build_mk(1, 0), damaged_m1()])
    dual = natural_dual(A)
    evaluations = set(zip(*(h for homs in dual.homs for h in homs)))
    assert (A.size, len(evaluations)) == (24, 4)
    assert evaluations == set(morphism_rows(dual.structure))
    assert not verify_unit_iso(dual)


def test_hom_counts_add_over_direct_factors():
    # every hom out of a direct product into a generator is surjective (the
    # generators are constant-generated) and so factors through exactly one
    # projection; the counts must therefore add with no overlap
    for n in (1, 2):
        mks = mk_algebras(n)
        cases = [(mks[0], mks[0]), (mks[0], mks[1]), (mks[1], mks[1]),
                 (build_jn(n), mks[1])]
        for A, B in cases:
            prod = product([A, B])
            for k in range(n + 1):
                assert len(enumerate_homs(prod, mks[k])) == \
                    len(enumerate_homs(A, mks[k])) + len(enumerate_homs(B, mks[k]))
