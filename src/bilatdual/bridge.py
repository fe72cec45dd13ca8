"""The doubled Priestley space P(X), lattice-reduct translation, and exact counting.

P(X) glues a ranked space and its order dual: plain elements keep the amalgated
order, hatted elements reverse it, and the two halves are related through the
retraction onto the rank-0 block. Down-sets of P(M~n) count the one-generated
free algebra, split by how they meet the top block.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .algebra import BUILD_GUARD, GuardExceeded
from .multisorted import MultiSortedStructure, NaturalDual, build_alter_ego, morphism_rows
from .piggyback import carrier_map_is_iso, tagged_points
from .posets import Poset, _row_masks, enumerate_downsets
from .ranked import RankedPriestleySpace, functor_F


# P(M~n) has 12n + 8 points, and `build` counts 8n^2 + 14n + 18 numbers in the alter ego, so
# every alter ego that the build guard admits has 8n^2 <= BUILD_GUARD and a P(M~n) this small.
P_POINT_GUARD = 8 + math.isqrt(18 * BUILD_GUARD)   # 3,008 points


def _guard_points(points: int) -> None:
    """Refuse, before anything is built, a P(X) of more than P_POINT_GUARD points."""
    if points > P_POINT_GUARD:
        raise GuardExceeded(f"P(X) would have {points} points (point guard {P_POINT_GUARD})")


@dataclass
class DoubledSpace:
    """X together with a hatted copy; with m = base.poset.n, [0, m) are plain, [m, 2m) hatted."""

    base: RankedPriestleySpace
    poset: Poset

    def block_masks(self) -> tuple[int, int, int]:
        """Bit masks of the bottom, centre and top blocks."""
        out = np.array(self.base.rank) >= 1
        none = np.zeros_like(out)
        # one row a block: its plain half, then its hatted half
        return tuple(_row_masks(np.block([[out, none], [~out, ~out], [none, out]])))


def construct_P(X: MultiSortedStructure) -> DoubledSpace:
    """The doubling of F(X), built from three blocks; the result must already be transitive.

    Let `out` be the points of rank >= 1 and G[x, y] = leq[g(x), g(y)]. Plain points
    keep the amalgamated order, and an outside x also lies below each rank-0 y above
    g(x). Hatted points carry the transposed order. A plain x lies below a hatted y when
    g(y) <= g(x) with x outside, or g(x) <= g(y) with y outside; no hatted point lies
    below a plain one. No transitive repair is applied: a failure here means the clauses
    were transcribed wrongly, and surfaces as a hard error from the Poset validator.
    """
    _guard_points(2 * X.starts[-1])
    Y = functor_F(X)
    leq = Y.poset.leq
    out = np.array(Y.rank) >= 1
    G = leq[np.ix_(Y.g, Y.g)]
    plain = leq | (out[:, None] & ~out[None, :] & G)
    across = (out[:, None] & G.T) | (out[None, :] & G)
    names = list(Y.poset.elements) + ["^" + e for e in Y.poset.elements]
    poset = Poset(names, np.block([[plain, across], [np.zeros_like(leq), plain.T]]))
    return DoubledSpace(Y, poset)


def verify_translation(size: int, dual: NaturalDual) -> bool:
    """H(A-flat) ≅ P(D(A)) by the carrier map (|A| = size): plain via gamma, hatted via delta."""
    P = construct_P(dual.structure)
    return carrier_map_is_iso(size, dual.homs, tagged_points(dual.structure), P.poset)


def verify_free_translation(n: int) -> bool:
    """verify_translation for F_V(n)(1), read off the endomorphisms of the alter ego.

    F ≅ E(D(F)) by the unit and D(F) ≅ M~ (a hom F -> M_k is fixed by its value at the
    generator), so F's elements are the rows of the morphisms M~ -> M~ over the points
    (k, a), which run sort by sort as the generator's coordinates do; the identity's
    row is the generator, and the sort-k columns are the |M_k| homs F -> M_k. Pinned
    to the closure rows by `test_the_kernel_rows_are_the_closure_rows`.

    The pointwise structure on those columns is M~ itself, so nothing is lifted: the
    identity row (checked) relates only columns related in M~, every endomorphism
    preserves M~'s relations, so those are related in every row, and commutes with g,
    so g maps column (k, a) to column (0, g_k(a)).
    """
    ego = build_alter_ego(n)
    rows = morphism_rows(ego)
    if tuple(i for _, i in ego.points()) not in rows:
        raise AssertionError("the identity of the alter ego is not among its endomorphisms")
    columns = [*zip(*rows)]
    homs = tuple(tuple(columns[s:e]) for s, e in itertools.pairwise(ego.starts))
    return verify_translation(len(rows), NaturalDual(ego, homs))


# ----------------------------------------------------------------------------
# counting


@dataclass(frozen=True)
class FreeSizes:
    avoiding_top: int
    meeting_top: int
    total: int


def free_size_formula(n: int) -> FreeSizes:
    """Closed forms for the down-set count of P(M~n), split by meeting the top."""
    if n < 1:
        raise ValueError("the counting formulas require n >= 1")
    f4 = n**6 + 10 * n**5 + 41 * n**4 + 96 * n**3 + 148 * n**2 + 148 * n + 144
    g4 = n**6 + 10 * n**5 + 43 * n**4 + 108 * n**3 + 166 * n**2 + 148 * n
    t2 = n**6 + 10 * n**5 + 42 * n**4 + 102 * n**3 + 157 * n**2 + 148 * n + 72
    if f4 % 4 or g4 % 4 or t2 % 2:
        raise AssertionError("polynomial values must be integral")
    sizes = FreeSizes(f4 // 4, g4 // 4, t2 // 2)
    if sizes.avoiding_top + sizes.meeting_top != sizes.total:
        raise AssertionError("split does not sum to the total")
    return sizes


_CENTRE = {"bot": "bot0", "f": "f0", "t": "t0", "top": "top0",
           "hbot": "^bot0", "hf": "^f0", "ht": "^t0", "htop": "^top0"}


def table_avoiding_expected(n: int) -> dict[frozenset[str], int]:
    """Expected tallies for top-avoiding down-sets, grouped by the centre trace."""
    c = _CENTRE
    table: dict[frozenset[str], int] = {}
    table[frozenset()] = (n + 1) ** 4 * (n + 2) ** 2 // 4
    for key in ({c["bot"]}, {c["htop"]}):
        table[frozenset(key)] = (n + 1) ** 3 * (n + 2) ** 2 // 4
    for key in ({c["bot"], c["f"]}, {c["bot"], c["t"]},
                {c["htop"], c["hf"]}, {c["htop"], c["ht"]}):
        table[frozenset(key)] = (n + 1) ** 2 * (n + 2) // 2
    for key in ({c["bot"], c["f"], c["t"]}, {c["htop"], c["hf"], c["ht"]}):
        table[frozenset(key)] = n + 1
    table[frozenset({c["bot"], c["htop"]})] = (n + 1) ** 2 * (n + 2) ** 2 // 4
    for key in ({c["bot"], c["htop"], c["hf"]}, {c["bot"], c["htop"], c["ht"]},
                {c["bot"], c["f"], c["htop"]}, {c["bot"], c["t"], c["htop"]},
                {c["bot"], c["f"], c["htop"], c["hf"]},
                {c["bot"], c["t"], c["htop"], c["ht"]}):
        table[frozenset(key)] = (n + 1) * (n + 2) // 2
    plain_downsets = [frozenset(), frozenset({c["bot"]}), frozenset({c["bot"], c["f"]}),
                      frozenset({c["bot"], c["t"]}), frozenset({c["bot"], c["f"], c["t"]}),
                      frozenset({c["bot"], c["f"], c["t"], c["top"]})]
    hat_downsets = [frozenset(), frozenset({c["htop"]}), frozenset({c["htop"], c["hf"]}),
                    frozenset({c["htop"], c["ht"]}), frozenset({c["htop"], c["hf"], c["ht"]}),
                    frozenset({c["htop"], c["hf"], c["ht"], c["hbot"]})]
    for p in plain_downsets:
        for h in hat_downsets:
            table.setdefault(p | h, 1)
    if len(table) != 36:
        raise AssertionError("centre must have exactly 36 down-sets")
    return table


def table_meeting_expected(n: int) -> dict[frozenset[str], int]:
    """Expected tallies for top-meeting down-sets, grouped by the minimal-top trace."""
    z, b, t, o = f"^0{n}", f"^bot{n}", f"^top{n}", f"^1{n}"
    q = (n + 1) * (n + 2) // 2
    table: dict[frozenset[str], int] = {}
    table[frozenset({z})] = (q - 1) * (q + 8)
    table[frozenset({o})] = (q - 1) * (q + 8)
    table[frozenset({b})] = 5 * n
    table[frozenset({t})] = 5 * n
    table[frozenset({z, o})] = 4 * (q - 1) ** 2
    for key in ({z, t}, {z, b}, {t, o}, {b, o}):
        table[frozenset(key)] = 3 * n * (q - 1)
    table[frozenset({t, b})] = n * n
    for key in ({b, t, o}, {z, t, b}):
        table[frozenset(key)] = n * n * (q - 1)
    for key in ({z, t, o}, {z, b, o}):
        table[frozenset(key)] = 2 * n * (q - 1) ** 2
    table[frozenset({z, b, t, o})] = n * n * (q - 1) ** 2
    if len(table) != 15:
        raise AssertionError("the minimal top block has 15 nonempty traces")
    return table


@dataclass
class PartitionedCount:
    avoiding_top: int
    meeting_top: int
    by_centre: dict[frozenset[str], int]
    by_min_top: dict[frozenset[str], int]


def partitioned_downset_count(n: int) -> PartitionedCount:
    """Count the down-sets of P(M~n), tallied by their traces on the centre and minimal top.

    The view counts the down-sets with each trace on those points (at most 36 x 16
    keys) without walking them. A down-set meets the top block if and only if it holds
    a minimal top point, so the keys fold into the two tables afterwards.
    """
    _guard_points(12 * n + 8)   # before the alter ego's n(n - 1)/2 cross slots are built
    space = construct_P(build_alter_ego(n))
    P = space.poset
    _, centre_mask, top_mask = space.block_masks()
    top_indices = [i for i in range(P.n) if top_mask >> i & 1]
    top_sub = P.restrict(top_indices)
    min_top_mask = sum(1 << top_indices[i] for i in top_sub.minimal_elements())
    by_centre: Counter[int] = Counter()
    by_min_top: Counter[int] = Counter()
    for key, count in enumerate_downsets(P).tally(centre_mask | min_top_mask).items():
        if key & min_top_mask:
            by_min_top[key & min_top_mask] += count
        else:
            by_centre[key] += count   # the key is already the centre trace

    def named(tally: Counter[int]) -> dict[frozenset[str], int]:
        return {frozenset(P.elements[i] for i in range(P.n) if trace >> i & 1): count
                for trace, count in tally.items()}
    return PartitionedCount(by_centre.total(), by_min_top.total(),
                            named(by_centre), named(by_min_top))
