"""Carrier maps into the two-element lattice and the piggyback relation machinery.

For each pair of carriers the maximal subuniverses of M_j x M_k inside the
carrier preimage of <= are computed from the full subuniverse family and named
against a fixed catalogue; an unnamed relation is a hard error because it would
mean the subuniverse landscape changed. The carrier space of an algebra glues
hom-sets tagged by carriers under the pointwise extension of these relations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (BINARY_OPS, FiniteAlgebra, bool_compose, enumerate_subuniverses, mk_algebras,
                      mk_elements, product)
from .multisorted import (COLLAPSE, MultiSortedStructure, NaturalDual, build_alter_ego,
                          pointwise_relation)
from .posets import Poset, count_downsets, is_order_isomorphism
from .ranked import construct_P


@dataclass(frozen=True)
class Carrier:
    """A bounded-lattice hom from a generating algebra's truth reduct onto {0,1}."""

    sort: int
    kind: str            # "gamma" | "delta"
    values: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"{self.kind}{self.sort}"

    def __call__(self, element: int) -> int:
        return self.values[element]


# Carrier values in element order: gamma_0 holds t0 and top0, delta_0 bot0 and t0; for
# k >= 1, gamma_k holds 1_k alone and delta_k everything but 0_k.
CARRIER_VALUES = (((0, 0, 1, 1), (1, 0, 1, 0)), ((0, 0, 0, 0, 1, 0), (1, 1, 0, 1, 1, 1)))


@lru_cache(maxsize=None)
def build_carriers(n: int) -> tuple[tuple[Carrier, Carrier], ...]:
    """The pairs (gamma_k, delta_k) for k in [0, n], verified once and cached (immutable)."""
    if n < 1:
        raise ValueError("carriers require n >= 1")
    out = []
    for k, mk in enumerate(mk_algebras(n)):
        pair = tuple(Carrier(k, kind, values)
                     for kind, values in zip(("gamma", "delta"), CARRIER_VALUES[k > 0]))
        for w in pair:
            _assert_carrier(w, mk)
        out.append(pair)
    return tuple(out)


def _assert_carrier(w: Carrier, mk: FiniteAlgebra):
    v = np.asarray(w.values)
    if v[mk.consts["f_0"]] != 0 or v[mk.consts["t_0"]] != 1:
        raise AssertionError(f"{w.name} does not preserve the bounds")
    for op, pointwise in (("meet", np.minimum), ("join", np.maximum)):
        if not np.array_equal(v[mk.tables[BINARY_OPS.index(f"{op}_t")]], pointwise.outer(v, v)):
            raise AssertionError(f"{w.name} does not preserve truth {op}")


def all_carriers(n: int) -> list[Carrier]:
    return [w for pair in build_carriers(n) for w in pair]


def check_sep(n: int) -> tuple[bool, tuple | None]:
    """Each pair of distinct points of a sort is split by its own carriers or below g."""
    carriers = build_carriers(n)
    mks = mk_algebras(n)
    for k in range(n + 1):
        omega_k = carriers[k]
        omega_0 = carriers[0]
        g = _g_map(k)
        for a in range(mks[k].size):
            for b in range(mks[k].size):
                if a == b:
                    continue
                if any(w(a) != w(b) for w in omega_k):
                    continue
                if any(w(g[a]) != w(g[b]) for w in omega_0):
                    continue
                return False, (k, mks[k].elements[a], mks[k].elements[b])
    return True, None


# ----------------------------------------------------------------------------
# named relations on M_j x M_k


def _g_map(k: int) -> tuple[int, ...]:
    """g_k into M_0, with g_0 the identity: every sort k >= 1 collapses the same way."""
    return COLLAPSE if k else tuple(range(len(mk_elements(0))))


def build_S_relations(j: int, k: int, n: int) -> tuple[frozenset, frozenset]:
    """S_le and S_ge from M_j to M_k; S_le is asserted equal to its explicit union.

    S_le relates a to b when g_j(a) sits below g_k(b) in the sort-0 order, and S_ge
    when g_j(a) sits above it.
    """
    mks = mk_algebras(n)
    mj, mk = mks[j], mks[k]
    gj, gk = _g_map(j), _g_map(k)
    le0 = mks[0].order_matrix("k")
    s_le = frozenset((a, b) for a in range(mj.size) for b in range(mk.size)
                     if le0[gj[a], gk[b]])
    s_ge = frozenset((a, b) for a in range(mj.size) for b in range(mk.size)
                     if le0[gk[b], gj[a]])

    def values(m, truth):   # the values of f_0..f_n (or t_0..t_n) in m
        return {m.consts[f"{truth}_{i}"] for i in range(n + 1)}

    union = {(a, mk.consts["top"]) for a in range(mj.size)}
    union |= {(mj.consts["bot"], b) for b in range(mk.size)}
    for truth in "ft":
        union |= set(itertools.product(values(mj, truth), values(mk, truth)))
    if frozenset(union) != s_le:
        raise AssertionError(f"S_le^{j}{k} does not match its explicit union")
    return s_le, s_ge


@lru_cache(maxsize=None)
def relation_catalogue(j: int, k: int, n: int) -> dict[frozenset, str]:
    """Named binary relations from M_j to M_k, each under the first name it is given."""
    mks = mk_algebras(n)
    mj, mk = mks[j], mks[k]
    ego = build_alter_ego(n)
    out: dict[frozenset, str] = {}

    def put(name, rel):
        out.setdefault(frozenset(rel), name)

    tag = k if j == k else f"{j}_{k}"
    if (j, k) in ego.rel:
        put(f"le{tag}", ego.rel[(j, k)])
    if (k, j) in ego.rel:
        put(f"ge{tag}", frozenset((b, a) for a, b in ego.rel[(k, j)]))
    s_le, s_ge = build_S_relations(j, k, n)
    put(f"Sle{j}_{k}", s_le)
    put(f"Sge{j}_{k}", s_ge)
    put(f"Smeet{j}_{k}", s_le & s_ge)
    if j == k:
        put(f"diag{k}", frozenset((a, a) for a in range(mj.size)))
    if j == 0 and k >= 1:
        gk = _g_map(k)
        put(f"cograph_g{k}", frozenset((gk[b], b) for b in range(mk.size)))
    if k == 0 and j >= 1:
        gj = _g_map(j)
        put(f"graph_g{j}", frozenset((a, gj[a]) for a in range(mj.size)))
    put(f"full{j}_{k}", frozenset(itertools.product(range(mj.size), range(mk.size))))
    return out


def name_relation(rel: frozenset, j: int, k: int, n: int) -> str:
    if (name := relation_catalogue(j, k, n).get(rel)) is None:
        raise AssertionError(f"unnamed subuniverse of M_{j} x M_{k}: {sorted(rel)}")
    return name


# ----------------------------------------------------------------------------
# piggyback relations


@dataclass(frozen=True)
class PiggybackRelationSet:
    relations: tuple[frozenset, ...]
    names: tuple[str, ...]


def preimage_sublattice(w1: Carrier, w2: Carrier) -> frozenset:
    """Pairs (a, b) with w1(a) <= w2(b).

    Both carriers are bounded-lattice homs onto {0,1}, checked by `_assert_carrier`
    when they are built, so the relation is closed under truth meet and join and
    holds at the f_0 and t_0 pairs without a check of its own.
    """
    return frozenset((a, b) for a, x in enumerate(w1.values) for b, y in enumerate(w2.values)
                     if x <= y)


_SUB_FAMILIES: dict[tuple, tuple[tuple[frozenset, bool], ...]] = {}


def subuniverse_pairs(n: int, j: int, k: int) -> tuple[tuple[frozenset, bool], ...]:
    """Sub(M_j x M_k) as relations from M_j to M_k, each with its meet-irreducible flag.

    Sub of a product is fixed by its factors' tables and negations and by its constant
    pairs, so the family is memoised under that content: six families at any n >= 2.
    """
    mks = mk_algebras(n)
    mj, mk = mks[j], mks[k]
    key = tuple((m.tables.tobytes(), m.neg.tobytes()) for m in (mj, mk))
    key += (frozenset((mj.consts[c], mk.consts[c]) for c in mj.signature.constant_symbols),)
    if key not in _SUB_FAMILIES:
        family = enumerate_subuniverses(product([mj, mk]))
        _SUB_FAMILIES[key] = tuple((frozenset(divmod(i, mk.size) for i in member), mi)
                                   for member, mi in zip(family.members, family.meet_irreducible))
    return _SUB_FAMILIES[key]


@lru_cache(maxsize=None)
def piggyback_relations(w1: Carrier, w2: Carrier, n: int) -> PiggybackRelationSet:
    """Maximal subuniverses of M_j x M_k inside the carrier preimage of <=."""
    preimage = preimage_sublattice(w1, w2)
    family = []
    for pairs, _ in subuniverse_pairs(n, w1.sort, w2.sort):
        if pairs <= preimage:
            family.append(pairs)
    maximal = [rel for rel in family
               if not any(rel < other for other in family)]
    names = tuple(name_relation(rel, w1.sort, w2.sort, n) for rel in maximal)
    order = sorted(range(len(names)), key=lambda i: names[i])   # the names are distinct
    return PiggybackRelationSet(tuple(maximal[i] for i in order), tuple(names[i] for i in order))


def expected_piggyback_names(w1: Carrier, w2: Carrier) -> tuple[str, ...]:
    """Schema of the published table, extended to every carrier pair."""
    j, k = w1.sort, w2.sort
    a, b = w1.kind, w2.kind
    if j == 0 and k == 0:
        return {("gamma", "gamma"): ("le0",), ("delta", "delta"): ("ge0",)}.get((a, b), ())
    if j == 0 and k >= 1:
        return {("gamma", "delta"): (f"Sle0_{k}",),
                ("delta", "delta"): (f"Sge0_{k}",)}.get((a, b), ())
    if j >= 1 and k == 0:
        return {("gamma", "gamma"): (f"Sle{j}_0",),
                ("gamma", "delta"): (f"Sge{j}_0",)}.get((a, b), ())
    if j == k:
        return {("gamma", "gamma"): (f"le{k}",),
                ("delta", "delta"): (f"ge{k}",),
                ("gamma", "delta"): (f"Sle{k}_{k}", f"Sge{k}_{k}")}.get((a, b), ())
    if j < k:
        return {("gamma", "gamma"): (f"le{j}_{k}",),
                ("gamma", "delta"): (f"Sle{j}_{k}", f"Sge{j}_{k}")}.get((a, b), ())
    return {("gamma", "delta"): (f"Sge{j}_{k}", f"Sle{j}_{k}"),
            ("delta", "delta"): (f"ge{j}_{k}",)}.get((a, b), ())


@dataclass
class Table3Row:
    omega1: str
    omega2: str
    names: tuple[str, ...]
    matches_schema: bool


def table3_report(n: int) -> list[Table3Row]:
    """Every carrier pair with its computed piggyback relations, checked per schema."""
    rows = []
    carriers = all_carriers(n)
    for w1 in carriers:
        for w2 in carriers:
            rel = piggyback_relations(w1, w2, n)
            expected = tuple(sorted(expected_piggyback_names(w1, w2)))
            rows.append(Table3Row(w1.name, w2.name, rel.names,
                                  tuple(sorted(rel.names)) == expected))
    return rows


# ----------------------------------------------------------------------------
# the carrier space and the translation isomorphism


@dataclass
class CarrierSpace:
    poset: Poset
    points: list[tuple[int, int, str]]   # (sort, hom index, carrier kind)


def build_carrier_space(dual: NaturalDual) -> CarrierSpace:
    """The hom-sets of D(A) tagged by carriers, ordered by pointwise piggyback relations.

    The relation must already be a partial order: it is not quotiented, and a failure
    (a fault in the implementation, not a mathematical possibility) is the Poset's ValueError.
    """
    n = dual.structure.n
    homs = dual.homs
    points = [(k, i, kind) for k in range(n + 1) for i in range(len(homs[k]))
              for kind in ("gamma", "delta")]
    pos = {pt: p for p, pt in enumerate(points)}
    mat = np.zeros((len(points), len(points)), dtype=bool)
    carriers = all_carriers(n)
    for w1 in carriers:
        for w2 in carriers:
            for rel in piggyback_relations(w1, w2, n).relations:
                for a, b in pointwise_relation(rel, homs[w1.sort], homs[w2.sort]):
                    mat[pos[(w1.sort, a, w1.kind)], pos[(w2.sort, b, w2.kind)]] = True
    names = [f"h{k}_{i}:{kind}" for k, i, kind in points]
    return CarrierSpace(Poset(names, mat), points)


def tagged_points(X: MultiSortedStructure) -> list[tuple[int, int, str]]:
    """The points of P(X) in order, tagged by carrier kind: plain gamma, hatted delta."""
    return [(k, i, kind) for kind in ("gamma", "delta") for k, i in X.points()]


def distinct_columns(masks: np.ndarray) -> int:
    """How many distinct columns a 2-D boolean array has (np.unique would import numpy.ma)."""
    return len({col.tobytes() for col in np.packbits(masks.T, axis=1)})


def carrier_map_is_iso(size: int, homs, points, poset: Poset) -> bool:
    """Whether the carriers map `poset` order-isomorphically onto H(A-flat), where |A| = size.

    Point (k, i, kind) gets the mask of the kind's carrier at sort k composed with
    the homomorphism homs[k][i]: a prime filter of A-flat. Certificate: the masks
    are ordered by inclusion as `poset` is, give `size` distinct columns, and
    `poset` has `size` down-sets. Then a -> {points whose mask holds a} embeds
    A-flat into the up-sets of `poset` (prime filters turn joins into unions),
    onto by the count; by Birkhoff's theorem each prime filter of A-flat is then
    the mask of exactly one point, so the carrier map is the iso onto H(A-flat).
    """
    carriers = {(w.sort, w.kind): np.asarray(w.values, dtype=bool)
                for w in all_carriers(len(homs) - 1)}
    masks = np.array([carriers[(k, kind)][np.asarray(homs[k][i])] for k, i, kind in points])
    return (np.array_equal(~bool_compose(masks, ~masks.T), poset.leq)
            and distinct_columns(masks) == size
            and count_downsets(poset) == size)


def verify_piggyback_iso(size: int, dual: NaturalDual) -> bool:
    """Hat-to-delta relabelling is an order-iso, and the carriers map onto H(A-flat), |A| = size."""
    space = build_carrier_space(dual)
    pos = {pt: i for i, pt in enumerate(space.points)}
    eta = [pos[pt] for pt in tagged_points(dual.structure)]
    return (is_order_isomorphism(eta, construct_P(dual.structure).poset, space.poset)
            and carrier_map_is_iso(size, dual.homs, space.points, space.poset))
