"""Bounded distributive lattices and finite Priestley duality (H and K).

H sends a lattice to its poset of 0,1-lattice homomorphisms into the two-element
lattice under the pointwise order, which is the same as prime filters ordered by
inclusion. K builds the lattice of down-sets (or up-sets) of a finite poset.
The up-set composite K_up(H(L)) is isomorphic to L; the down-set composite gives
the order dual.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from .algebra import (FiniteAlgebra, GuardExceeded, NotALattice, bool_compose,
                      lattice_tables_from_leq)
from .posets import Poset, are_isomorphic, count_downsets, dual, enumerate_downsets

DEFAULT_HOM_SCAN_GUARD = 20
TRIPLE_CHECK_GUARD = 512   # elements of distributive_by_triples, which checks every triple


class Lattice:
    """Bounded lattice on an indexed carrier, stored as its order matrix."""

    __slots__ = ("poset", "elements", "leq", "bot", "top", "_irreducibles")

    def __init__(self, elements, leq):
        self.poset = Poset(elements, leq)
        self.elements = self.poset.elements
        self.leq = self.poset.leq
        mins = self.poset.minimal_elements()
        maxs = self.poset.maximal_elements()
        if len(mins) != 1 or len(maxs) != 1:
            raise NotALattice("carrier is not bounded")
        self.bot = mins[0]
        self.top = maxs[0]
        self._irreducibles = None

    @property
    def n(self) -> int:
        return len(self.elements)

    def _irreducible_order(self) -> tuple[list[int], Poset]:
        """J(L) and its induced order (points named by position), computed once."""
        if self._irreducibles is None:
            ji = join_irreducibles(self)
            sel = np.asarray(ji, dtype=np.int64)
            order = Poset([str(i) for i in range(len(ji))], self.leq[np.ix_(sel, sel)])
            self._irreducibles = (ji, order)
        return self._irreducibles

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(self.leq, other.leq)

    def __repr__(self):
        return f"Lattice({self.n} elements)"


def lattice_reduct(A: FiniteAlgebra) -> Lattice:
    """Bounded-distributive-lattice reduct: the truth order with bounds f_0 and t_0."""
    L = Lattice(A.elements, A.order_matrix("t"))
    if L.bot != A.consts["f_0"] or L.top != A.consts["t_0"]:
        raise NotALattice("truth bounds do not match the f_0/t_0 constants")
    return L


def distributive_by_triples(L: Lattice) -> bool:
    """Exhaustive triple check of a meet(b join c) = (a meet b) join (a meet c)."""
    if L.n > TRIPLE_CHECK_GUARD:
        raise GuardExceeded(f"{L.n} elements exceed the triple-check guard {TRIPLE_CHECK_GUARD}")
    meet, join = lattice_tables_from_leq(L.leq)
    for a in range(L.n):
        lhs = meet[a, join]
        rhs = join[meet[a][:, None], meet[a][None, :]]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def is_distributive(L: Lattice) -> bool:
    """Exact test by Birkhoff's theorem: true iff L is a distributive lattice.

    That holds exactly when a -> (down-set of a) ∩ J(L) is an order-isomorphism
    onto the down-sets of J(L): an order-embedding (a <= b iff every
    join-irreducible below a lies below b) whose image, a set of down-sets of
    J(L), has as many members as there are down-sets. A bounded poset that is
    not a lattice fails one of the two.
    """
    ji, order = L._irreducible_order()
    phi = L.leq[np.asarray(ji, dtype=np.int64)]
    if not np.array_equal(~bool_compose(phi.T, ~phi), L.leq):
        return False
    return count_downsets(order) == L.n


def join_irreducibles(L: Lattice) -> list[int]:
    """Elements with exactly one lower cover (the bottom is excluded)."""
    lower = Counter(j for _, j in L.poset.covers())
    return [j for j in range(L.n) if lower[j] == 1]


def priestley_dual_of_lattice(L: Lattice) -> Poset:
    """H(L): homs into the two-element lattice under the pointwise order.

    Computed through join-irreducibles: the prime filters are their up-sets, and
    filter inclusion reverses the induced order on join-irreducibles. L is
    checked to be a distributive lattice first.
    """
    if not is_distributive(L):
        raise NotALattice("input is not a distributive lattice")
    ji, order = L._irreducible_order()
    names = [f"pf_{L.elements[j]}" for j in ji]
    return Poset(names, order.leq.T)


def priestley_dual_by_homs(L: Lattice) -> Poset:
    """Oracle construction of H(L): scan all 0,1-maps for lattice homomorphisms."""
    if L.n > DEFAULT_HOM_SCAN_GUARD:
        raise GuardExceeded(f"{L.n} elements exceed the hom-scan guard {DEFAULT_HOM_SCAN_GUARD}")
    meet, join = lattice_tables_from_leq(L.leq)
    homs = []
    for bits in itertools.product((0, 1), repeat=L.n):
        h = np.asarray(bits, dtype=np.int16)
        if h[L.bot] != 0 or h[L.top] != 1:
            continue
        if not np.array_equal(h[meet], np.minimum(h[:, None], h[None, :])):
            continue
        if not np.array_equal(h[join], np.maximum(h[:, None], h[None, :])):
            continue
        homs.append(bits)
    homs.sort()
    n = len(homs)
    leq = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            leq[a, b] = all(x <= y for x, y in zip(homs[a], homs[b]))
    return Poset([f"h{i}" for i in range(n)], leq)


def _family_lattice(masks: list[int], n_points: int, tag: str) -> Lattice:
    masks = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    leq = np.zeros((n, n), dtype=bool)
    for a, ma in enumerate(masks):
        for b, mb in enumerate(masks):
            leq[a, b] = (ma & ~mb) == 0
    names = []
    for m in masks:
        bits = ",".join(str(i) for i in range(n_points) if m >> i & 1)
        names.append(f"{tag}{{{bits}}}")
    return Lattice(names, leq)


def lattice_of_downsets(P: Poset) -> Lattice:
    """O(P): all down-sets under union and intersection, bounded by {} and P."""
    return _family_lattice(enumerate_downsets(P), P.n, "D")


def lattice_of_upsets(P: Poset) -> Lattice:
    """Up-sets of P (down-sets of the dual), the classical K(P)."""
    masks = enumerate_downsets(dual(P))
    return _family_lattice(masks, P.n, "U")


def lattices_isomorphic(L1: Lattice, L2: Lattice) -> bool:
    """Isomorphism of finite distributive lattices via their join-irreducible posets.

    Sound only for distributive inputs, where L is determined by J(L).
    """
    if L1.n != L2.n:
        return False
    return are_isomorphic(L1._irreducible_order()[1], L2._irreducible_order()[1]) is not None
