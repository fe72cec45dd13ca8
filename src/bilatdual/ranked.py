"""Single-sorted ranked spaces with a retraction, the structure functors F and G, and P(X).

F glues the sorts of a multi-sorted structure into one poset whose order is the
amalgam of the sort orders and cross relations, extends the g-maps by the
identity on sort 0, and ranks each point by its sort. G slices a ranked space
back into sorts. They are mutually inverse on the nose. P(X) doubles F(X): plain
elements keep the amalgamated order, hatted elements reverse it, and the two
halves are related through the retraction onto the rank-0 block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import BUILD_GUARD, GuardExceeded, reflexive_transitive_closure
from .multisorted import (AxiomReport, AxiomVerdict, MultiSortedStructure, check_axioms,
                          relation_slots)
from .posets import Poset, _row_masks, first_true, is_order_preserving


class StructureAxiomError(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"structure fails axioms: {report.failing()}")


@dataclass
class RankedPriestleySpace:
    poset: Poset
    g: tuple[int, ...]
    rank: tuple[int, ...]
    n: int

    def __post_init__(self):
        self.g = tuple(int(v) for v in self.g)
        self.rank = tuple(int(v) for v in self.rank)
        if len(self.g) != self.poset.n or len(self.rank) != self.poset.n:
            raise ValueError("g and rank must be total")
        if any(not 0 <= r <= self.n for r in self.rank):
            raise ValueError("rank out of range")
        if any(not 0 <= v < self.poset.n for v in self.g):
            raise ValueError("g image out of range")

    def to_dot(self, name: str = "ranked") -> str:
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];"]
        for r in range(self.n + 1):
            block = [i for i in range(self.poset.n) if self.rank[i] == r]
            if block:
                inner = "; ".join(f"n{i}" for i in block)
                lines.append(f"  {{ rank=same; {inner}; }}")
        for i, el in enumerate(self.poset.elements):
            lines.append(f'  n{i} [label="{el}"];')
        for i, j in self.poset.covers():
            lines.append(f"  n{i} -> n{j} [dir=none];")
        for i, v in enumerate(self.g):
            if i != v:
                lines.append(f"  n{i} -> n{v} [style=dashed, arrowhead=vee, constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def functor_F(X: MultiSortedStructure) -> RankedPriestleySpace:
    """Amalgamate the sorts; fails (with the report) if X does not satisfy the axioms."""
    report = check_axioms(X)
    if not report.ok:
        raise StructureAxiomError(report)
    poset = Poset([name for sort in X.sorts for name in sort], X.amalgam)
    return RankedPriestleySpace(poset, X.flat_g, X.point_sorts, X.n)


def functor_G(Y: RankedPriestleySpace) -> MultiSortedStructure:
    """Slice a ranked space back into sorts; fails unless the B-axioms hold."""
    report = check_axioms_B(Y)
    if not report.ok:
        raise StructureAxiomError(report)
    rank, g = np.array(Y.rank), np.array(Y.g)
    order = np.argsort(rank, kind="stable")   # rank by rank, each rank in index order
    leq = Y.poset.leq[np.ix_(order, order)]
    starts = np.searchsorted(rank[order], np.arange(Y.n + 2))
    span = [slice(a, b) for a, b in zip(starts, starts[1:])]
    position = np.empty_like(order)   # g lands in rank 0, which comes first in `order`
    position[order] = np.arange(len(order))
    sorts = tuple(tuple(Y.poset.elements[i] for i in order[s]) for s in span)
    rel = {(j, k): zip(*leq[span[j], span[k]].nonzero()) for j, k in relation_slots(Y.n)}
    return MultiSortedStructure(Y.n, sorts, tuple(position[g[order[s]]] for s in span[1:]), rel)


def check_axioms_B(Y: RankedPriestleySpace) -> AxiomReport:
    """B1-B6 with witnesses. B1 holds by type, since a Poset is an order (as A1 holds
    in check_axioms); each of the others is a read of the order matrix.

    B3 applies to comparabilities leaving the retract: x <= y with rank(x) >= 1
    forces g(x) = g(y); inside the rank-0 block g is the identity and the order
    is unconstrained. B4: a component of comparability is mixed when its row of
    the comparability closure meets both the g-image and its complement; the
    witness is the first mixed component. B6: the g-image is the rank-0 block;
    the witness lists the points where the two differ.
    """
    verdicts = {"B1": AxiomVerdict(True, None, 1)}
    leq = Y.poset.leq
    m = Y.poset.n
    g, rank = np.array(Y.g, dtype=np.intp), np.array(Y.rank, dtype=np.intp)
    verdicts["B2"] = AxiomVerdict.over(m, g[g] != g, first_true)
    leaving = leq & ~np.eye(m, dtype=bool) & (rank >= 1)[:, None]
    verdicts["B3"] = AxiomVerdict.over(np.count_nonzero(leaving),
                                       leaving & (g[:, None] != g[None, :]), first_true)
    image = np.zeros(m, dtype=bool)
    image[g] = True
    connected = reflexive_transitive_closure(leq | leq.T)
    mixed = (connected & image).any(1) & (connected & ~image).any(1)   # row by row
    verdicts["B4"] = AxiomVerdict.over(
        m, mixed, lambda bad: tuple(np.flatnonzero(connected[np.argmax(bad)]).tolist()))
    verdicts["B5"] = AxiomVerdict.over(np.count_nonzero(leq),
                                       leq & (rank[:, None] > rank[None, :]), first_true)
    verdicts["B6"] = AxiomVerdict.over(m, image != (rank == 0),
                                       lambda bad: (tuple(np.flatnonzero(bad).tolist()),))
    return AxiomReport(verdicts)


def flat_map_of_multimorphism(maps, Y: MultiSortedStructure) -> tuple[int, ...]:
    """Per-sort maps into Y as one map between the flat layouts of their source and Y."""
    return tuple(Y.starts[k] + v for k, image in enumerate(maps) for v in image)


def is_ranked_morphism(flat_map, Y1: RankedPriestleySpace, Y2: RankedPriestleySpace) -> bool:
    """Order-, g- and rank-preserving map between ranked spaces."""
    if len(flat_map) != Y1.poset.n:
        return False
    if any(not 0 <= v < Y2.poset.n for v in flat_map):
        return False
    for i in range(Y1.poset.n):
        if Y1.rank[i] != Y2.rank[flat_map[i]]:
            return False
        if flat_map[Y1.g[i]] != Y2.g[flat_map[i]]:
            return False
    return is_order_preserving(flat_map, Y1.poset, Y2.poset)


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
