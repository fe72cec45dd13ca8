"""Pinned answers of the order checks: every A- and B-verdict and every P(X) order.

Each digest is the sha256 of the reprs of (name, holds, witness, instances) for every
verdict of a seeded pool of structures, or of the bytes of `construct_P(X).poset.leq`.
A change to how the checks read the relations must leave every digest as it is; one
that changes a verdict on purpose re-records the digest and says why in CHANGES.md.
"""

import hashlib
import random

import numpy as np
import pytest

from bilatdual.algebra import reflexive_transitive_closure
from bilatdual.bridge import construct_P
from bilatdual.corpus import corpus_algebras, structure_corpus
from bilatdual.multisorted import MultiSortedStructure, build_alter_ego, check_axioms
from bilatdual.posets import Poset
from bilatdual.ranked import RankedPriestleySpace, check_axioms_B, functor_F

SEED = 23
A_DIGEST = "d7e04133eed492c2a80614b9024bc65b388e22a7b2442a04e3eae727e471a44e"
B_DIGEST = "469998b1c65e2be25075e6ec598a46f2dabd586ad9724e21172c160c1154c7ad"
P_DIGEST = "c112acab3eedb647985f55ff220fbbbb45119c409b3cf95eeb4cb3da31faa69e"


def _deletions(n):
    """The alter ego at depth n with one pair dropped from one slot, for every pair."""
    ego = build_alter_ego(n)
    return [MultiSortedStructure(n, ego.sorts, ego.g, {**ego.rel, slot: rel - {pair}})
            for slot, rel in ego.rel.items() for pair in sorted(rel)]


def _random_space(rng):
    """A ranked space over a random poset with random g and rank; most fail B2-B6."""
    n, m = rng.randint(1, 3), rng.randint(1, 7)
    order = rng.sample(range(m), m)
    rel = np.zeros((m, m), dtype=bool)
    for a in range(m):
        for b in range(a + 1, m):
            rel[order[a], order[b]] = rng.random() < 0.3
    return RankedPriestleySpace(Poset([f"p{i}" for i in range(m)],
                                      reflexive_transitive_closure(rel)),
                                [rng.randrange(m) for _ in range(m)],
                                [rng.randint(0, n) for _ in range(m)], n)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def _verdicts(report):
    return [(name, v.holds, v.witness, v.instances) for name, v in report.verdicts.items()]


@pytest.fixture(scope="module")
def pool():
    """Corpora at n = 1..5, deletions and duals at n = 1..3; and the duals alone, for P(X)."""
    structures, duals = [], []
    for n in range(1, 6):
        structures += structure_corpus(n, 400, SEED + n)
    for n in range(1, 4):
        duals += [item.dual.structure for item in corpus_algebras(n, SEED, 4)]
        structures += _deletions(n)
    return structures + duals, duals


def test_axiom_verdicts_are_pinned(pool):
    structures, _ = pool
    assert _digest(v for X in structures for v in _verdicts(check_axioms(X))) == A_DIGEST


def test_b_axiom_verdicts_are_pinned(pool):
    structures, _ = pool
    rng = random.Random(SEED)
    spaces = [functor_F(X) for X in structures if check_axioms(X).ok]
    spaces += [_random_space(rng) for _ in range(400)]
    reports = [check_axioms_B(Y) for Y in spaces]
    assert sum(r.ok for r in reports) > 100 and sum(not r.ok for r in reports) > 300
    assert _digest(v for r in reports for v in _verdicts(r)) == B_DIGEST


def test_doubled_orders_are_pinned(pool):
    _, duals = pool
    spaces = [build_alter_ego(n) for n in range(1, 7)] + duals
    orders = (construct_P(X).poset.leq for X in spaces)
    assert _digest((leq.shape, leq.tobytes()) for leq in orders) == P_DIGEST
