"""Pinned answers of the order checks: every A- and B-verdict, every G(Y) and every P(X) order.

Each digest is the sha256 of the reprs of (name, holds, witness, instances) for every
verdict of a seeded pool of structures, of the JSON of `functor_G(Y)` for every ranked
space of that pool that passes B1-B6, or of the bytes of `construct_P(X).poset.leq`.
The alter ego at larger depths and three of its one-pair deletions at n = 90 are pinned
verdict by verdict.
A change to how the checks read the relations must leave every digest as it is; one
that changes a verdict on purpose re-records the digest and says why in CHANGES.md.
"""

import hashlib
import random
from math import comb

import numpy as np
import pytest

from bilatdual.algebra import reflexive_transitive_closure
from bilatdual.bridge import construct_P
from bilatdual.corpus import corpus_algebras, structure_corpus
from bilatdual.multisorted import MultiSortedStructure, build_alter_ego, check_axioms
from bilatdual.posets import Poset
from bilatdual.ranked import RankedPriestleySpace, check_axioms_B, functor_F, functor_G

SEED = 23
A_DIGEST = "d7e04133eed492c2a80614b9024bc65b388e22a7b2442a04e3eae727e471a44e"
B_DIGEST = "469998b1c65e2be25075e6ec598a46f2dabd586ad9724e21172c160c1154c7ad"
P_DIGEST = "c112acab3eedb647985f55ff220fbbbb45119c409b3cf95eeb4cb3da31faa69e"
G_DIGEST = "271a5ec056bf67a038862bfb0d3bcf000ee870bf46e4ed1fe63e0e9c9346ba8c"

# check_axioms on M~90 with (5, 5) dropped from one cross slot
DELETIONS_90 = {
    (1, 90): [("A1", True, None, 0), ("A2", True, None, 720), ("A3", True, None, 32039),
              ("A4", True, None, 48059), ("A5", False, (1, 2, 90, 5, 5, 5), 1174800),
              ("A6", True, None, 91), ("A7", False, (1, 90, 5, 5), 112141)],
    (88, 90): [("A1", True, None, 0), ("A2", True, None, 720), ("A3", True, None, 32039),
               ("A4", True, None, 48059), ("A5", False, (88, 89, 90, 5, 5, 5), 1174713),
               ("A6", True, None, 91), ("A7", False, (88, 90, 5, 5), 112141)],
    (89, 90): [("A1", True, None, 0), ("A2", True, None, 720), ("A3", True, None, 32039),
               ("A4", True, None, 48059), ("A5", True, None, 1174712),
               ("A6", True, None, 91), ("A7", True, None, 112141)],
}


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


@pytest.fixture(scope="module")
def spaces(pool):
    """F(X) for every structure of the pool that passes A1-A7, then 400 random spaces."""
    structures, _ = pool
    rng = random.Random(SEED)
    return [functor_F(X) for X in structures if check_axioms(X).ok] + \
        [_random_space(rng) for _ in range(400)]


def test_b_axiom_verdicts_are_pinned(spaces):
    reports = [check_axioms_B(Y) for Y in spaces]
    assert sum(r.ok for r in reports) > 100 and sum(not r.ok for r in reports) > 300
    assert _digest(v for r in reports for v in _verdicts(r)) == B_DIGEST


def test_functor_G_is_pinned(spaces):
    passing = [Y for Y in spaces if check_axioms_B(Y).ok]
    assert _digest(functor_G(Y).to_json() for Y in passing) == G_DIGEST


@pytest.mark.parametrize("n", [*range(1, 9), 60])
def test_alter_ego_instances_are_pinned(n):
    verdicts = check_axioms(build_alter_ego(n)).verdicts
    assert all(v.holds for v in verdicts.values())
    counts = tuple(verdicts[name].instances for name in ("A4", "A5", "A7"))
    assert counts == (6 * n * (n - 1), 10 * comb(n, 3), 28 * comb(n, 2))


@pytest.mark.parametrize("slot", sorted(DELETIONS_90), ids="{0[0]},{0[1]}".format)
def test_one_pair_deletions_at_depth_90_are_pinned(slot):
    ego = build_alter_ego(90)
    X = MultiSortedStructure(90, ego.sorts, ego.g, {**ego.rel, slot: ego.rel[slot] - {(5, 5)}})
    assert _verdicts(check_axioms(X)) == DELETIONS_90[slot]


def test_doubled_orders_are_pinned(pool):
    _, duals = pool
    spaces = [build_alter_ego(n) for n in range(1, 7)] + duals
    orders = (construct_P(X).poset.leq for X in spaces)
    assert _digest((leq.shape, leq.tobytes()) for leq in orders) == P_DIGEST
