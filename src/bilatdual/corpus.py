"""Seeded corpora: small algebras, multi-sorted structures, and sampled morphisms.

Everything is driven by an explicit random.Random seed so verification runs are
reproducible byte for byte.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable

from . import algebra
from .algebra import FiniteAlgebra, GuardExceeded, _product_subalgebra, build_jn, mk_algebras
from .multisorted import (MultiSortedStructure, NaturalDual, _kernel, build_alter_ego,
                          natural_dual, pointwise_structure, relation_slots)

MEMBER_POWER = 2       # member substructures live in this power of the alter ego
MAX_SORT = 3           # largest sort size drawn for a corpus structure
MEMBER_SHARE = 0.5     # chance that a structure_corpus draw is a guaranteed member
SAMPLE_PAIR_CAP = 200  # morphisms listed per structure when sampling


@dataclass
class CorpusAlgebra:
    """A corpus algebra, labelled at the seeded draw; closed, then dualised, when first read.

    `close` returns the algebra, or the item whose algebra and dual this one shares.
    """

    label: str
    close: Callable[[], FiniteAlgebra | CorpusAlgebra]

    @cached_property
    def _closed(self) -> FiniteAlgebra | CorpusAlgebra | GuardExceeded:
        try:
            return self.close()
        except GuardExceeded as err:   # kept: every later check of the item skips at once
            return err.with_traceback(None)

    @property
    def algebra(self) -> FiniteAlgebra:
        if isinstance(self._closed, GuardExceeded):
            raise self._closed.with_traceback(None)
        return self._closed.algebra if isinstance(self._closed, CorpusAlgebra) else self._closed

    @cached_property
    def dual(self) -> NaturalDual:
        if isinstance(self._closed, CorpusAlgebra):
            return self._closed.dual
        return natural_dual(self.algebra)


def seeded_subalgebras(n: int, count: int, seed: int) -> list[CorpusAlgebra]:
    """Seeded generated subalgebras of J_n squared, closed when read; fewer draws give a prefix.

    Each draw is closed on its own; draws with equal closed rows share one item, which
    builds the tables and the dual once. The corpus keeps that item only weakly, so it
    is freed with the last draw that holds it.
    """
    rng = random.Random(seed)
    size = 2 * n + 4   # |J_n|; J_n is built at the first read, so a fault in it fails the reads
    draws = [sorted(rng.sample(range(size ** 2), rng.choice((1, 1, 2)))) for _ in range(count)]
    factors = cache(lambda: (build_jn(n),) * 2)
    shared = weakref.WeakValueDictionary()   # closed rows' bytes -> the item they share

    def close(label: str, gens: list[int]) -> CorpusAlgebra:
        rows = algebra.product_closure_rows(factors(), [divmod(g, size) for g in gens])
        key = rows.tobytes()   # the factors are fixed, so the sorted rows' bytes name the algebra
        return shared.get(key) or shared.setdefault(
            key, CorpusAlgebra(label, partial(_product_subalgebra, factors(), rows)))

    labels = [f"sub(J{n}^2)#{i}" for i in range(count)]
    return [CorpusAlgebra(label, partial(close, label, gens)) for label, gens in zip(labels, draws)]


def corpus_algebras(n: int, seed: int = 0, subalgebras: int = 5) -> list[CorpusAlgebra]:
    """The standard verification corpus at depth n: M_0..M_n, J_n, then the seeded draws."""
    mks = cache(lambda: mk_algebras(n))   # read once per corpus, by the first M_k check
    out = [CorpusAlgebra(f"M{k}", lambda k=k: mks()[k]) for k in range(n + 1)]
    out.append(CorpusAlgebra(f"J{n}", lambda: build_jn(n)))
    out.extend(seeded_subalgebras(n, subalgebras, seed))
    return out


def random_structure(n: int, rng: random.Random) -> MultiSortedStructure:
    """An arbitrary structure in the signature; most of these fail the axioms."""
    sizes = [rng.randint(1, MAX_SORT)] + [rng.randint(0, MAX_SORT) for _ in range(n)]
    sorts = tuple(tuple(f"s{k}e{i}" for i in range(sizes[k])) for k in range(n + 1))
    g = tuple(tuple(rng.randrange(sizes[0]) for _ in range(sizes[k]))
              for k in range(1, n + 1))
    rel = {}
    for j, k in relation_slots(n):
        # a sort relation draws its diagonal first, then each other pair; a cross relation each pair
        pairs = {(i, i) for i in range(sizes[k]) if j == k and rng.random() < 0.9}
        share = 0.25 if j == k else 0.3
        pairs.update((a, b) for a in range(sizes[j]) for b in range(sizes[k])
                     if (a != b or j < k) and rng.random() < share)
        rel[(j, k)] = frozenset(pairs)
    return MultiSortedStructure(n, sorts, g, rel)


def member_substructure(n: int, rng: random.Random) -> MultiSortedStructure:
    """A closed substructure of the alter ego raised to a small power.

    Substructures only need closure under the g-operations; relations are
    induced pointwise, so the result always satisfies the axioms.
    """
    ego = build_alter_ego(n)
    chosen: list[set[tuple[int, ...]]] = []
    for k in range(n + 1):
        size = len(ego.sorts[k])
        points = set()
        for _ in range(rng.randint(0, MAX_SORT)):
            points.add(tuple(rng.randrange(size) for _ in range(MEMBER_POWER)))
        chosen.append(points)
    for k in range(1, n + 1):
        gk = ego.g[k - 1]
        for p in chosen[k]:
            chosen[0].add(tuple(gk[v] for v in p))
    if not any(chosen):
        chosen[0].add(tuple(0 for _ in range(MEMBER_POWER)))
    points = [sorted(chosen[k]) for k in range(n + 1)]
    sorts = tuple(tuple(f"s{k}p" + "".join(map(str, p)) for p in points[k])
                  for k in range(n + 1))
    return pointwise_structure(ego, sorts, points)


def structure_corpus(n: int, count: int, seed: int) -> list[MultiSortedStructure]:
    """A mix of arbitrary structures and guaranteed members, seeded."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if rng.random() < MEMBER_SHARE:
            out.append(member_substructure(n, rng))
        else:
            out.append(random_structure(n, rng))
    return out


def sample_morphisms(structures, n: int, count: int, seed: int):
    """Sampled (source, target, per-sort maps) triples, from each structure's first morphisms."""
    rng = random.Random(seed)
    ego = build_alter_ego(n)
    pool = [(X, ego, maps) for X in structures for maps in _kernel(X, ego)(limit=SAMPLE_PAIR_CAP)]
    rng.shuffle(pool)
    return pool[:count]
