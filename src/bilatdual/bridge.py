"""The lattice-reduct translation H(A-flat) ≅ P(D(A)), and exact counting.

Down-sets of P(M~n) count the one-generated free algebra, split by how they meet
the top block.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .algebra import GuardExceeded
from .multisorted import DEFAULT_MORPHISM_GUARD, NaturalDual, build_alter_ego, morphism_rows
from .piggyback import carrier_map_is_iso, tagged_points
from .posets import enumerate_downsets
from .ranked import _guard_points, construct_P


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
    size = free_size_formula(n).total   # the rows morphism_rows would list
    if size > DEFAULT_MORPHISM_GUARD:
        raise GuardExceeded(f"F_V{n}(1) has {size} elements "
                            f"(morphism guard {DEFAULT_MORPHISM_GUARD})")
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
