"""Multi-sorted structures, the alter ego, the hom-functors D and E, and the axiom checkers.

A structure has sorts X_0..X_n, a total map g_k: X_k -> X_0 per k >= 1, and one binary
relation per slot: slot (k, k) on each sort X_k, and slot (j, k) from X_j to X_k for
1 <= j < k <= n. Everything is finite and discrete, so the topological side of the
axioms is automatic; what is left to check is first order plus up-set separation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (FiniteAlgebra, GuardExceeded, _product_subalgebra, bool_compose,
                      enumerate_homs, is_homomorphism, mk_algebras, mk_elements,
                      reflexive_transitive_closure, strict_index)
from .posets import check_relation, first_true

DEFAULT_MORPHISM_GUARD = 200_000
SEPARATION_NODE_GUARD = 1_000_000   # kernel nodes over all pinned searches of one structure
COUNIT_E_GUARD = 500   # largest E(X) whose dual the counit check builds
A7_FAMILY_GUARD = 2**22   # up-set families a7_by_families may scan


def relation_slots(n: int) -> list[tuple[int, int]]:
    """The relation slots of depth n in canonical order.

    Slot (k, k) holds the relation of sort k, for k = 0..n; slot (j, k) holds the cross
    relation from sort j to sort k, for 1 <= j < k <= n, in lexicographic order.
    """
    return [(k, k) for k in range(n + 1)] + \
        [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]


@dataclass(eq=True)
class MultiSortedStructure:
    """Sorted carriers with g-maps and one relation per slot (see `relation_slots`)."""

    n: int
    sorts: tuple[tuple[str, ...], ...]
    g: tuple[tuple[int, ...], ...]                       # g[k-1] : X_k -> X_0
    rel: dict[tuple[int, int], frozenset[tuple[int, int]]]   # missing cross slots are empty

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("structures require n >= 1")
        if len(self.sorts) != self.n + 1:
            raise ValueError("wrong number of sorts")
        self.sorts = tuple(tuple(s) for s in self.sorts)
        if len(self.g) != self.n:
            raise ValueError("need one g map per sort k >= 1")
        self.g = tuple(tuple(map(strict_index, m)) for m in self.g)
        for k in range(1, self.n + 1):
            if len(self.g[k - 1]) != len(self.sorts[k]):
                raise ValueError(f"g_{k} is not total")
            if any(not 0 <= v < len(self.sorts[0]) for v in self.g[k - 1]):
                raise ValueError(f"g_{k} image out of sort 0")
        given = dict(self.rel)
        self.rel = {}
        for j, k in relation_slots(self.n):
            if j == k and (k, k) not in given:
                raise ValueError(f"need a relation on sort {k}")
            rel = frozenset((strict_index(a), strict_index(b)) for a, b in given.pop((j, k), ()))
            for a, b in rel:
                if not (0 <= a < len(self.sorts[j]) and 0 <= b < len(self.sorts[k])):
                    raise ValueError(f"relation ({j},{k}) pair out of range")
            self.rel[(j, k)] = rel
        if given:
            j, k = min(given)
            kind = "sort" if j == k else "cross"
            raise ValueError(f"{kind} relation slot ({j},{k}) out of range")
        if all(len(s) == 0 for s in self.sorts):
            raise ValueError("a structure with all sorts empty is rejected")
        names = [nm for s in self.sorts for nm in s]
        if len(set(names)) != len(names):
            raise ValueError("element names must be unique across sorts")

    def points(self) -> list[tuple[int, int]]:
        return [(k, i) for k in range(self.n + 1) for i in range(len(self.sorts[k]))]

    # The flat layout lists the points in `points()` order, so point i of sort k sits at
    # starts[k] + i; each part is built when first read, as nothing mutates a structure.
    @cached_property
    def starts(self) -> tuple[int, ...]:
        """Each sort's first flat index, then the number of points."""
        return (0, *itertools.accumulate(map(len, self.sorts)))

    @cached_property
    def point_sorts(self) -> tuple[int, ...]:
        """The sort of each flat point."""
        return tuple(k for k, sort in enumerate(self.sorts) for _ in sort)

    @cached_property
    def flat_g(self) -> tuple[int, ...]:
        """g on the flat points: the identity on sort 0, g_k on sort k."""
        return (*range(self.starts[1]), *itertools.chain.from_iterable(self.g))

    @cached_property
    def amalgam(self) -> np.ndarray:
        """Every slot's relation as one read-only boolean matrix on the flat points."""
        starts, m = self.starts, self.starts[-1]
        rel = np.zeros((m, m), dtype=bool)
        rel.flat[[(starts[j] + a) * m + starts[k] + b
                  for (j, k), pairs in self.rel.items() for a, b in pairs]] = True
        rel.setflags(write=False)
        return rel

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sorts": [list(s) for s in self.sorts],
            "g": {str(k): list(self.g[k - 1]) for k in range(1, self.n + 1)},
            "rel_k": {str(k): sorted([a, b] for a, b in rel)
                      for (j, k), rel in self.rel.items() if j == k},
            "rel_jk": {f"{j},{k}": sorted([a, b] for a, b in rel)
                       for (j, k), rel in self.rel.items() if j < k},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MultiSortedStructure":
        n = strict_index(doc["n"])
        if len(doc["g"]) != n or len(doc["rel_k"]) != n + 1:
            raise ValueError("g must be keyed 1..n and rel_k 0..n")
        rel = {(k, k): doc["rel_k"][str(k)] for k in range(n + 1)}
        cross = doc.get("rel_jk", {})
        if not isinstance(cross, dict):
            raise TypeError("rel_jk must map \"j,k\" keys to relations")
        for key, pairs in cross.items():
            j, k = map(int, key.split(","))
            if key != f"{j},{k}" or j >= k:   # a sort slot here would overwrite rel_k
                raise ValueError(f"cross relation slot ({key}) out of range")
            rel[(j, k)] = pairs
        return cls(n, tuple(tuple(s) for s in doc["sorts"]),
                   tuple(doc["g"][str(k)] for k in range(1, n + 1)), rel)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MultiSortedStructure":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------------
# the alter ego


# Every sort k >= 1 is (bot, f, 0, t, 1, top) in M_k's element order, with the stretched
# order f <= 0, t <= 1 inside it and between any two such sorts, and the collapse g onto
# M_0's (bot, f, t, top). Sort 0 carries M_0's knowledge order: bot0 <= all <= top0.
STRETCHED_ORDER = frozenset({(i, i) for i in range(6)} | {(1, 2), (3, 4)})
COLLAPSE = (0, 1, 1, 2, 2, 3)
M0_KNOWLEDGE_ORDER = frozenset((a, b) for a in range(4) for b in range(4) if a in (0, b) or b == 3)


@lru_cache(maxsize=None)
def build_alter_ego(n: int) -> MultiSortedStructure:
    """Sorts M_0..M_n with the collapse maps and the stretched order; built once per depth."""
    if n < 1:
        raise ValueError("the alter ego requires n >= 1")
    rel = {**dict.fromkeys(relation_slots(n), STRETCHED_ORDER), (0, 0): M0_KNOWLEDGE_ORDER}
    return MultiSortedStructure(n, tuple(mk_elements(k) for k in range(n + 1)), (COLLAPSE,) * n,
                                rel)


# ----------------------------------------------------------------------------
# morphisms


def is_multimorphism(maps, X: MultiSortedStructure, Y: MultiSortedStructure) -> bool:
    """Per-sort maps, one a sort, that commute with g and preserve the relation of every slot."""
    maps = tuple(tuple(m) for m in maps)
    if X.n != Y.n or len(maps) != X.n + 1:
        return False
    for k in range(X.n + 1):
        if len(maps[k]) != len(X.sorts[k]):
            return False
        if any(not 0 <= v < len(Y.sorts[k]) for v in maps[k]):
            return False
    for k in range(1, X.n + 1):
        for i in range(len(X.sorts[k])):
            if maps[0][X.g[k - 1][i]] != Y.g[k - 1][maps[k][i]]:
                return False
    for (j, k), rel in X.rel.items():
        target = Y.rel[(j, k)]
        for a, b in rel:
            if (maps[j][a], maps[k][b]) not in target:
                return False
    return True


@dataclass
class _NodeBudget:
    """Kernel nodes (`visit` calls) spent across searches; more than `cap` raises."""

    cap: int
    spent: int = 0


def _kernel(X: MultiSortedStructure, Y: MultiSortedStructure):
    """Set up the backtracking search over the morphisms X -> Y; return `search`.

    Points are visited in `X.points()` order, sort 0 first, so every later
    point draws its candidates from one g-fibre of Y. Each relation pair of X
    is checked once, at the later of its two points (a reflexive pair at its
    own point). The check tables and fibres are built here, once per pair (roots
    are X.flat_g). `search(pins=(), budget=None, limit=None)` returns the first
    `limit` morphisms (all of them for None) as per-sort maps in lexicographic
    order. `pins` lists triples (k, i, v) that restrict point i of sort k to the
    one value v; a pin on a point of sort k >= 1 also pins its sort-0 root to the
    g-image of v, and pins that disagree on a point leave nothing to find. A
    `budget` counts every node and raises GuardExceeded once it has spent more
    than its cap.
    """
    starts, sorts_of, roots = X.starts, X.point_sorts, X.flat_g
    m, spans = starts[-1], [*itertools.pairwise(starts)]
    # checks[p]: (q, table) meaning the value at p must lie in table[image of q]
    checks: list[list] = [[] for _ in range(m)]

    def attach(pairs, rel, ka: int, kb: int):
        succ = [set() for _ in Y.sorts[ka]]
        pred = [set() for _ in Y.sorts[kb]]
        for u, v in rel:
            succ[u].add(v)
            pred[v].add(u)
        for a, b in pairs:
            x, y = starts[ka] + a, starts[kb] + b
            if x <= y:
                checks[y].append((x, succ))
            else:
                checks[x].append((y, pred))

    for (j, k), rel in X.rel.items():
        attach(rel, Y.rel[(j, k)], j, k)
    fibres = []
    for gk in Y.g:
        fibre: dict[int, list[int]] = {}
        for v, root in enumerate(gk):
            fibre.setdefault(root, []).append(v)
        fibres.append(fibre)
    everything = range(len(Y.sorts[0]))

    def search(pins=(), budget: _NodeBudget | None = None, limit: int | None = None) -> list:
        domains = [None] * m
        for k, i, v in pins:
            p = starts[k] + i
            forced = [(p, v)]
            if k:
                forced.append((roots[p], Y.g[k - 1][v]))
            for p, w in forced:
                if domains[p] is None:
                    domains[p] = (w,)
                elif domains[p] != (w,):
                    return []
        img, out = [0] * m, []

        def visit(p: int) -> bool:
            """Extend the map from point p on; true once `limit` morphisms are found."""
            if budget is not None:
                budget.spent += 1
                if budget.spent > budget.cap:
                    raise GuardExceeded(f"search exceeded {budget.cap} nodes")
            if p == m:
                out.append(tuple(tuple(img[s:e]) for s, e in spans))
                return len(out) == limit
            k = sorts_of[p]
            # a pinned point of sort k >= 1 has its root pinned too, so the pin lies in the fibre
            candidates = domains[p]
            if candidates is None:
                candidates = everything if k == 0 else fibres[k - 1].get(img[roots[p]], ())
            for v in candidates:
                img[p] = v
                for q, table in checks[p]:
                    if v not in table[img[q]]:
                        break
                else:
                    if visit(p + 1):
                        return True
            return False

        visit(0)
        return out

    return search


def enumerate_multimorphisms(X: MultiSortedStructure, Y: MultiSortedStructure) -> list[tuple]:
    """All morphisms X -> Y, as per-sort maps in lexicographic order.

    Raises GuardExceeded when there are more than DEFAULT_MORPHISM_GUARD.
    """
    if X.n != Y.n:
        raise ValueError("source and target must share the same n")
    cap = DEFAULT_MORPHISM_GUARD
    morphisms = _kernel(X, Y)(limit=cap + 1)
    if len(morphisms) > cap:
        raise GuardExceeded(f"morphism enumeration exceeded {cap}")
    return morphisms


def _sizes(X: MultiSortedStructure) -> tuple:
    """Depth, sort sizes and relation sizes, slot by slot.

    A morphism between structures of equal sizes that is injective on every sort
    maps every relation onto its target relation, so it is an isomorphism.
    """
    return X.n, [len(s) for s in X.sorts], [len(r) for r in X.rel.values()]


def structures_isomorphic(X: MultiSortedStructure, Y: MultiSortedStructure) -> bool:
    """Sort-wise bijections preserving g and the relation of every slot exactly."""
    return _sizes(X) == _sizes(Y) and any(   # see _sizes
        all(len(set(m)) == len(m) for m in maps) for maps in _kernel(X, Y)())


# ----------------------------------------------------------------------------
# the functor D


@dataclass
class NaturalDual:
    """D(A): hom-sets into each generating algebra, with pointwise structure."""

    structure: MultiSortedStructure
    homs: tuple[tuple[tuple[int, ...], ...], ...]


def natural_dual(A: FiniteAlgebra, n: int | None = None) -> NaturalDual:
    """D(A): the homs into each M_k as tuples, with the pointwise structure."""
    if n is None:
        n = A.signature.n
    if n < 1:
        raise ValueError("natural duals require n >= 1")
    mks = mk_algebras(n)
    homs = tuple(tuple(enumerate_homs(A, mks[k])) for k in range(n + 1))
    if not any(homs):
        raise ValueError("algebra has no homomorphism into any M_k, so it lies outside the class")
    sorts = tuple(tuple(f"h{k}_{i}" for i in range(len(homs[k]))) for k in range(n + 1))
    return NaturalDual(pointwise_structure(build_alter_ego(n), sorts, homs), homs)


def pointwise_structure(ego: MultiSortedStructure, sorts, tuples) -> MultiSortedStructure:
    """The structure on per-sort tuples over the alter ego, with everything pointwise.

    `tuples[k]` lists the points of sort k as tuples of M_k elements. The g-image
    of every point must be among `tuples[0]`; a pair is related when every
    coordinate pair is related in the alter ego.
    """
    index0 = {t: i for i, t in enumerate(tuples[0])}
    g = tuple(tuple(index0[tuple(gk[v] for v in t)] for t in tuples[k])
              for k, gk in enumerate(ego.g, start=1))
    rel = {(j, k): pointwise_relation(r, tuples[j], tuples[k]) for (j, k), r in ego.rel.items()}
    return MultiSortedStructure(ego.n, sorts, g, rel)


def pointwise_relation(rel, xs, ys) -> frozenset:
    """Index pairs (a, b) such that every coordinate pair of xs[a], ys[b] lies in `rel`."""
    return frozenset((a, b) for a, x in enumerate(xs) for b, y in enumerate(ys)
                     if all((u, v) in rel for u, v in zip(x, y)))


def dual_of_hom(u, dual_B: NaturalDual, dual_A: NaturalDual) -> tuple:
    """D(u): D(B) -> D(A) for a homomorphism u: A -> B, by precomposition, as per-sort maps."""
    u = tuple(int(v) for v in u)
    maps = []
    for k in range(dual_B.structure.n + 1):
        index_A = {h: i for i, h in enumerate(dual_A.homs[k])}
        layer = []
        for h in dual_B.homs[k]:
            composed = tuple(h[v] for v in u)
            layer.append(index_A[composed])
        maps.append(tuple(layer))
    return tuple(maps)


# ----------------------------------------------------------------------------
# the functor E and the evaluation unit


@dataclass
class HomAlgebra:
    """E(X): all morphisms X -> alter ego, as a subalgebra of the sort-wise power."""

    algebra: FiniteAlgebra
    rows: list[tuple[int, ...]]


def morphism_rows(X: MultiSortedStructure) -> list[tuple[int, ...]]:
    """E(X) as rows: the morphisms X -> alter ego as tuples over X.points(), lexicographic."""
    return [sum(maps, ()) for maps in enumerate_multimorphisms(X, build_alter_ego(X.n))]


def hom_algebra_E(X: MultiSortedStructure) -> HomAlgebra:
    """All morphisms X -> alter ego as an algebra under pointwise operations.

    The kernel lists morphisms in lexicographic order, which is the packed-key
    order the table builder expects; the builder raises if an operation leaves
    the hom-set, so compatibility is checked while the tables are built.
    """
    mks = mk_algebras(X.n)
    rows = morphism_rows(X)
    if any(a >= b for a, b in zip(rows, rows[1:])):
        raise AssertionError("morphism rows are not strictly increasing")
    algebra = _product_subalgebra([mks[k] for k in X.point_sorts], np.array(rows, dtype=np.int16))
    return HomAlgebra(algebra, rows)


def verify_unit_iso(size: int, dual: NaturalDual) -> bool:
    """Evaluation e_A: A -> E(D(A)), a -> (h(a))_h, where |A| = size: true iff an isomorphism.

    A certificate on rows, with no table of E(D(A)) built. The evaluation row of a
    lists h(a) over the points h of D(A), sort by sort. Every such h is a
    homomorphism A -> M_k that `enumerate_homs` verified, so e_A is a homomorphism
    into the power. Distinct evaluation rows make it injective, and evaluation rows
    equal as a set to the morphism rows D(A) -> alter ego make it onto E(D(A)),
    which as the image of a homomorphism is then a subuniverse. Both conditions
    are also necessary.
    """
    evaluations = set(zip(*(h for homs in dual.homs for h in homs)))
    return len(evaluations) == size and evaluations == set(morphism_rows(dual.structure))


def verify_counit_iso(X: MultiSortedStructure) -> bool:
    """Evaluation X -> DE(X), gated to small E(X); not part of the default suites."""
    E = hom_algebra_E(X)
    if E.algebra.size > COUNIT_E_GUARD:
        raise GuardExceeded(f"E(X) has {E.algebra.size} elements (> {COUNIT_E_GUARD})")
    DE = natural_dual(E.algebra)
    position = [{h: i for i, h in enumerate(homs)} for homs in DE.homs]
    maps = [[] for _ in DE.homs]
    for k, ev in zip(X.point_sorts, zip(*E.rows)):   # evaluation at a point: its column
        if ev not in position[k]:
            return False
        maps[k].append(position[k][ev])
    if _sizes(X) != _sizes(DE.structure) or any(len(set(m)) != len(m) for m in maps):
        return False
    # bijective and relation-preserving between equal sizes: it reflects the relations
    return is_multimorphism(maps, X, DE.structure)


# ----------------------------------------------------------------------------
# axiomatisation


@dataclass(frozen=True)
class AxiomVerdict:
    holds: bool
    witness: tuple | None
    instances: int

    @classmethod
    def over(cls, instances, failures: np.ndarray, locate) -> "AxiomVerdict":
        """The verdict on `instances` instances; `failures` marks where it fails, if anywhere.

        Only a failing axiom calls `locate(failures)` for its witness.
        """
        if failures.any():
            return cls(False, locate(failures), int(instances))
        return cls(True, None, int(instances))


@dataclass
class AxiomReport:
    verdicts: dict[str, AxiomVerdict]

    @property
    def ok(self) -> bool:
        return all(v.holds for v in self.verdicts.values())

    def failing(self) -> list[str]:
        return [k for k, v in self.verdicts.items() if not v.holds]


def check_axioms(X: MultiSortedStructure) -> AxiomReport:
    """A1-A7 with witnesses; A1 is vacuous here (finite discrete topology).

    Every axiom reads the amalgam `X.amalgam`, split into the sort orders D (its
    diagonal blocks) and the cross relations C: A4 holds iff D∘C∘D ⊆ C, over the
    D.sum(0) @ C @ D.sum(1) instances x D y C u D v, and A5 iff C∘C ⊆ C, over the
    C.sum(0) @ C.sum(1) instances x C y C z. A7: mutually increasing up-sets separate
    an unrelated pair of a cross slot iff its target is unreachable from its source.
    A witness is located only on failure, as the first failure in loop order: slot,
    then (for A5) the sort of z, then the slot's pair, then the other points.
    """
    n, rel, starts = X.n, X.amalgam, X.starts
    span = [slice(a, b) for a, b in itertools.pairwise(starts)]
    sort, g = np.array(X.point_sorts, dtype=np.intp), np.array(X.flat_g, dtype=np.intp)
    split = rel & (g[:, None] != g[None, :])   # related points with different g-images
    unrelated = ~rel
    D = rel & (sort[:, None] == sort[None, :])
    C = rel ^ D
    upper = D & (sort > 0)[:, None]   # the orders of the sorts k >= 1
    apart = unrelated & (sort[:, None] < sort[None, :]) & (sort > 0)[:, None]   # in cross slots

    def first_slot(bad):
        """(j, k, a, b): the first failure by slot, then row-major; `bad` marks one slot kind."""
        j = int(sort[np.argmax(bad.any(1))])
        k = int(sort[np.argmax(bad[span[j]].any(0))])
        return (j, k, *first_true(bad[span[j], span[k]]))

    def a4_witness(bad):
        j, k, y, u = first_slot(bad)
        x, v = first_true(D[span[j], starts[j] + y, None] & D[starts[k] + u, span[k]]
                          & unrelated[span[j], span[k]])
        return j, k, x, y, u, v

    def a5_witness(bad):
        j, k, _, _ = first_slot(bad)
        for l in range(k + 1, n + 1):
            above = C[span[k], span[l]]
            fails = C[span[j], span[k]] & bool_compose(unrelated[span[j], span[l]], above.T)
            if fails.any():
                x, y = first_true(fails)
                return j, k, l, x, y, first_true(above[y] & unrelated[starts[j] + x, span[l]])[0]

    verdicts = {
        "A1": AxiomVerdict(True, None, 0),
        # A2 (sorts k >= 1) and A3 (cross slots): related points have the same g-image
        "A2": AxiomVerdict.over(np.count_nonzero(upper), split & upper,
                                lambda bad: first_slot(bad)[1:]),
        "A3": AxiomVerdict.over(np.count_nonzero(C), split & C, first_slot),
        # A4: y C u fails when x D y C u D v for some unrelated x, v
        "A4": AxiomVerdict.over(D.sum(0) @ C @ D.sum(1),
                                C & bool_compose(bool_compose(D.T, unrelated), D.T), a4_witness),
        # A5: x C y fails when some y C z has x, z unrelated
        "A5": AxiomVerdict.over(C.sum(0) @ C.sum(1), C & bool_compose(unrelated, C.T), a5_witness),
    }
    # D is an order iff every diagonal block is; a failure is named by its first sort
    orders = [] if check_relation(D).ok else [check_relation(rel[s, s]) for s in span]
    bad = [(k, res.kind, res.witness) for k, res in enumerate(orders) if not res.ok]
    verdicts["A6"] = AxiomVerdict(not bad, bad[0] if bad else None, n + 1)
    # A7: unrelated points of a cross slot that are connected
    verdicts["A7"] = AxiomVerdict.over(np.count_nonzero(apart),
                                       apart & reflexive_transitive_closure(rel), first_slot)
    return AxiomReport(verdicts)


def a7_by_families(X: MultiSortedStructure, j: int, k: int, x: int, y: int) -> bool:
    """Literal search for mutually increasing up-sets separating x from y.

    Brute-forces every family of up-sets U_j..U_k, so it only runs on small
    sorts; kept as an independent oracle for the reachability-based check.
    """
    sizes = [len(X.sorts[l]) for l in range(j, k + 1)]
    space = 1
    for s in sizes:
        space *= 2 ** s
    if space > A7_FAMILY_GUARD:
        raise GuardExceeded("family search space too large")

    def upsets(l: int) -> list[int]:
        size = len(X.sorts[l])
        rel = X.rel[(l, l)]
        out = []
        for mask in range(1 << size):
            if all(not (mask >> a & 1) or (mask >> b & 1) for a, b in rel):
                out.append(mask)
        return out

    per_sort = [upsets(l) for l in range(j, k + 1)]
    for family in itertools.product(*per_sort):
        if not family[0] >> x & 1:
            continue
        if family[k - j] >> y & 1:
            continue
        ok = True
        for i in range(j, k + 1):
            for l in range(i, k + 1):
                rel = X.rel[(i, l)]
                for a, b in rel:
                    if family[i - j] >> a & 1 and not family[l - j] >> b & 1:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def membership_by_separation(X: MultiSortedStructure) -> bool:
    """Membership test via separation by morphisms into the alter ego.

    A requirement (j, a, k, b, allowed) is met by a morphism that sends (a, b)
    outside `allowed`: the diagonal of M_k for distinct points a, b of sort k,
    the alter ego's relation for an unrelated pair of a sort or cross relation.
    The first open requirement is tried one pin at a time: for each (u, v)
    outside `allowed`, the kernel looks for one morphism with a -> u, b -> v,
    and the morphism it finds drops every requirement it meets. A requirement
    that no pin meets decides False. (With no requirement at all, every sort has
    at most one point and the constant-true map is a morphism.) GuardExceeded is
    raised once the searches together visit more than SEPARATION_NODE_GUARD
    kernel nodes.
    """
    n = X.n
    ego = build_alter_ego(n)
    needs = []
    for (j, k), rel in X.rel.items():
        diagonal = frozenset((v, v) for v in range(len(ego.sorts[k])))
        for a, b in itertools.product(range(len(X.sorts[j])), range(len(X.sorts[k]))):
            if j == k and a != b:
                needs.append((k, a, k, b, diagonal))
            if (a, b) not in rel:
                needs.append((j, a, k, b, ego.rel[(j, k)]))
    total = len(needs)
    search = _kernel(X, ego)
    budget = _NodeBudget(SEPARATION_NODE_GUARD)
    try:
        while needs:
            j, a, k, b, allowed = needs[0]
            for u, v in itertools.product(range(len(ego.sorts[j])), range(len(ego.sorts[k]))):
                if (u, v) not in allowed and \
                        (hit := search(pins=((j, a, u), (k, b, v)), budget=budget, limit=1)):
                    maps = hit[0]
                    needs = [r for r in needs if (maps[r[0]][r[1]], maps[r[2]][r[3]]) in r[4]]
                    break
            else:
                return False
    except GuardExceeded:
        raise GuardExceeded(f"separation undecided after {budget.cap} kernel nodes, "
                            f"{len(needs)} of {total} requirements open") from None
    return True
