"""Finite posets: validation, combinators, down-set counting, isomorphism, DOT export.

Every finite poset is treated as a Priestley space with the discrete topology,
so "clopen up-set" means "up-set" throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GuardExceeded, bool_compose

COUNT_MEMO_BYTES = 2**28   # memory the down-set counting memo may take
DEFAULT_ISO_GUARD = 64
DOWNSET_ORACLE_GUARD = 20   # points of count_downsets_bruteforce, which scans 2^n masks


@dataclass(frozen=True)
class PosetCheck:
    ok: bool
    kind: str | None = None   # "reflexivity" | "antisymmetry" | "transitivity"
    witness: tuple | None = None


def first_true(mask: np.ndarray) -> tuple[int, ...]:
    """The row-major index of the first True of a boolean array that has one."""
    return tuple(map(int, np.argwhere(mask)[0]))


def check_relation(rel) -> PosetCheck:
    """Decide whether a square boolean matrix is a partial order, with a named witness."""
    mat = np.asarray(rel, dtype=bool)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("relation must be a square matrix")
    diagonal = mat.diagonal()
    if not diagonal.all():
        return PosetCheck(False, "reflexivity", first_true(~diagonal))
    both = mat & mat.T
    if np.count_nonzero(both) > mat.shape[0]:   # more than the diagonal
        np.fill_diagonal(both, False)
        return PosetCheck(False, "antisymmetry", first_true(both))
    closure = bool_compose(mat, mat)
    if (closure != mat).any():   # a reflexive relation lies inside its square
        i, k = first_true(closure & ~mat)
        j = int(np.flatnonzero(mat[i] & mat[:, k])[0])
        return PosetCheck(False, "transitivity", (i, j, k))
    return PosetCheck(True)


class Poset:
    """Finite poset over named elements; `leq` is a read-only boolean matrix, always an order."""

    __slots__ = ("elements", "leq", "_downsets")

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        mat = np.array(leq, dtype=bool)
        if mat.shape != (len(self.elements),) * 2:
            raise ValueError("leq matrix shape does not match the carrier")
        res = check_relation(mat)
        if not res.ok:
            raise ValueError(f"not a partial order: {res.kind} fails at {res.witness}")
        mat.setflags(write=False)
        self.leq = mat
        self._downsets = None   # the DownsetView, made on first use

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(self.leq, other.leq)

    def __repr__(self):
        return f"Poset({self.n} elements)"

    # -- masks and covers ---------------------------------------------------

    def down_masks(self) -> list[int]:
        return _row_masks(self.leq.T)

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with i covered by j."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        via = bool_compose(lt, lt)
        cov = lt & ~via
        return [(int(i), int(j)) for i, j in np.argwhere(cov)]

    def minimal_elements(self) -> list[int]:
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        return [i for i in range(self.n) if not lt[:, i].any()]

    def maximal_elements(self) -> list[int]:
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        return [i for i in range(self.n) if not lt[i].any()]

    def restrict(self, indices) -> "Poset":
        sel = np.asarray(sorted(indices), dtype=np.int64)
        return Poset([self.elements[i] for i in sel], self.leq[np.ix_(sel, sel)])

    # -- interchange --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"elements": list(self.elements), "leq_pairs": np.argwhere(self.leq).tolist()}

    def to_dot(self, name: str = "poset") -> str:
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];",
                 "  edge [dir=none];"]
        for i, el in enumerate(self.elements):
            lines.append(f'  n{i} [label="{el}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# constructions


def chain(n: int, prefix: str = "c") -> Poset:
    mat = np.triu(np.ones((n, n), dtype=bool))
    return Poset([f"{prefix}{i}" for i in range(n)], mat)


def antichain(n: int, prefix: str = "a") -> Poset:
    return Poset([f"{prefix}{i}" for i in range(n)], np.eye(n, dtype=bool))


def dual(P: Poset) -> Poset:
    return Poset(P.elements, P.leq.T)


def disjoint_union(P: Poset, Q: Poset) -> Poset:
    n, m = P.n, Q.n
    mat = np.zeros((n + m, n + m), dtype=bool)
    mat[:n, :n] = P.leq
    mat[n:, n:] = Q.leq
    names = [f"L.{e}" for e in P.elements] + [f"R.{e}" for e in Q.elements]
    return Poset(names, mat)


def linear_sum(P: Poset, Q: Poset) -> Poset:
    """Everything in P below everything in Q."""
    n, m = P.n, Q.n
    mat = np.zeros((n + m, n + m), dtype=bool)
    mat[:n, :n] = P.leq
    mat[n:, n:] = Q.leq
    mat[:n, n:] = True
    names = [f"L.{e}" for e in P.elements] + [f"R.{e}" for e in Q.elements]
    return Poset(names, mat)


def direct_product(P: Poset, Q: Poset) -> Poset:
    names = [f"({a},{b})" for a in P.elements for b in Q.elements]
    mat = np.kron(P.leq, Q.leq)
    return Poset(names, mat)


def grid(a: int, b: int) -> Poset:
    return direct_product(chain(a, "r"), chain(b, "s"))


# ----------------------------------------------------------------------------
# down-sets


def _row_masks(mat) -> list[int]:
    """Each row of a boolean matrix as a bit mask, bit j for column j."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(mat, axis=1, bitorder="little")]


def _ranked(P: Poset) -> tuple[list[int], list[int], list[int]]:
    """Up- and down-set masks indexed by rank along a linear extension, and each rank's bit in P.

    Ranks sort the points by down-set size, ties by index. A point strictly below
    another has the smaller down-set, so in rank space the lowest set bit of any
    nonempty mask is a minimal element of that mask.
    """
    order = np.argsort(P.leq.sum(axis=0), kind="stable")
    ranked = P.leq[np.ix_(order, order)]
    return _row_masks(ranked), _row_masks(ranked.T), [1 << int(i) for i in order]


class DownsetView:
    """The down-sets of a poset as bit masks: streamed, counted, or tallied by trace.

    Each pass runs the depth-first search afresh and yields the same masks in the
    same order. A push takes a point out of the working mask, so the stack never
    holds more entries than P has points. Counting keeps one memo of rank-space
    masks for the poset, shared by every count and tally on it.
    """

    __slots__ = ("n", "up", "down", "bit", "memo")

    def __init__(self, P: Poset):
        self.n = P.n
        self.up, self.down, self.bit = _ranked(P)
        self.memo: dict[int, int] = {0: 1}

    def _walk(self, mask: int, bit):
        """The down-sets of the points of a rank-space mask, each as an OR of `bit` entries."""
        up = self.up
        stack = [(mask, 0)]
        while stack:
            mask, acc = stack.pop()
            while mask:
                low = mask & -mask
                i = low.bit_length() - 1
                stack.append((mask & ~up[i], acc))
                mask ^= low
                acc |= bit[i]
            yield acc

    def __iter__(self):
        return self._walk((1 << self.n) - 1, self.bit)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def count(self, mask: int) -> int:
        """The number of down-sets of the points of a rank-space mask.

        Branch on the lowest-ranked point x left: a down-set either misses x's up-set
        or contains x and is free on the rest. A mask leaves the stack once both
        branches are in the memo; COUNT_MEMO_BYTES bounds its size.
        """
        memo, up = self.memo, self.up
        # an entry holds a key of up to n bits (30 bits to a 4-byte digit), and about 100
        # bytes more for the dict slot, the int headers and the count
        cap = COUNT_MEMO_BYTES // (self.n // 7 + 100)
        stack = [] if mask in memo else [mask]
        while stack:
            top = stack[-1]
            low = top & -top
            miss, hit = top & ~up[low.bit_length() - 1], top ^ low
            below_miss, below_hit = memo.get(miss), memo.get(hit)
            if below_miss is not None and below_hit is not None:
                memo[top] = below_miss + below_hit
                stack.pop()
                if len(memo) > cap:
                    raise GuardExceeded(f"down-set counting exceeded its memo budget of "
                                        f"{COUNT_MEMO_BYTES} bytes ({cap} entries of "
                                        f"{self.n} bits)")
                continue
            if below_miss is None:
                stack.append(miss)
            if below_hit is None:
                stack.append(hit)
        return memo[mask]

    def tally(self, key: int) -> dict[int, int]:
        """{trace: number of down-sets D with D & key == trace}, counted without walking D.

        A down-set D with D & K = T is the down-closure of T together with any down-set
        of the points outside it and outside the up-closure of K - T; T runs over the
        down-sets of K, and only those are walked.
        """
        up, down, bit = self.up, self.down, self.bit
        points = [i for i in range(self.n) if bit[i] & key]
        keep, full, out = sum(1 << i for i in points), (1 << self.n) - 1, {}
        for T in self._walk(keep, [1 << i for i in range(self.n)]):
            closed, trace = 0, 0
            for i in points:
                if T >> i & 1:
                    closed |= down[i]
                    trace |= bit[i]
                else:
                    closed |= up[i]
            out[trace] = self.count(full & ~closed)
        return out


def _view(P: Poset) -> DownsetView:
    """The poset's one DownsetView, made on first use, so that its counts share a memo."""
    if P._downsets is None:
        P._downsets = DownsetView(P)
    return P._downsets


def count_downsets(P: Poset) -> int:
    """Exact number of down-sets, by branching on a minimal element with memoization.

    The memo lives with the poset's DownsetView, keyed by rank-space masks, and
    enumerate_downsets branches the same way, taking the include branch in its inner loop.
    """
    return _view(P).count((1 << P.n) - 1)


def enumerate_downsets(P: Poset) -> DownsetView:
    """All down-sets as bit masks, each once, depth-first along the linear extension.

    Returns a re-iterable view, not a list, so memory is O(|P|) whatever the count;
    `len` costs one pass over every down-set.
    """
    return _view(P)


def is_downset_mask(mask: int, down_masks) -> bool:
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        if down_masks[i] & ~mask:
            return False
        m &= m - 1
    return True


def count_downsets_bruteforce(P: Poset) -> int:
    """2^n scan used as a test oracle on small posets."""
    if P.n > DOWNSET_ORACLE_GUARD:
        raise GuardExceeded(f"{P.n} points exceed the brute-force oracle bound")
    down = P.down_masks()
    return sum(1 for mask in range(1 << P.n) if is_downset_mask(mask, down))


# ----------------------------------------------------------------------------
# isomorphism


def _refine_labels(P: Poset) -> tuple[int, ...]:
    leq = P.leq
    n = P.n
    labels = [int(leq[i].sum()) * (n + 1) + int(leq[:, i].sum()) for i in range(n)]
    for _ in range(n):
        sigs = []
        for i in range(n):
            above = tuple(sorted(labels[j] for j in range(n) if leq[i, j] and i != j))
            below = tuple(sorted(labels[j] for j in range(n) if leq[j, i] and i != j))
            sigs.append((labels[i], above, below))
        canon = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [canon[s] for s in sigs]
        if new == labels:
            break
        labels = new
    return tuple(labels)


def are_isomorphic(P: Poset, Q: Poset) -> tuple[int, ...] | None:
    """Order-isomorphism by invariant refinement plus backtracking (a test oracle).

    Returns a witness mapping (image index per element of P) or None. Gives up
    (GuardExceeded) past DEFAULT_ISO_GUARD points when refinement leaves the
    candidate space above 10**6.
    """
    if P.n != Q.n or int(P.leq.sum()) != int(Q.leq.sum()):
        return None
    lp, lq = _refine_labels(P), _refine_labels(Q)
    if sorted(lp) != sorted(lq):
        return None
    cands = [[j for j in range(Q.n) if lq[j] == lp[i]] for i in range(P.n)]
    space = 1.0
    for c in cands:
        space *= len(c)
    if P.n > DEFAULT_ISO_GUARD and space > 10**6:
        raise GuardExceeded(f"isomorphism search space too large for {P.n} points")
    order = sorted(range(P.n), key=lambda i: len(cands[i]))
    mapping = [-1] * P.n
    used = [False] * Q.n
    leqP, leqQ = P.leq, Q.leq

    def rec(pos: int) -> bool:
        if pos == P.n:
            return True
        i = order[pos]
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for pp in order[:pos]:
                qq = mapping[pp]
                if leqP[i, pp] != leqQ[j, qq] or leqP[pp, i] != leqQ[qq, j]:
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                if rec(pos + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    if rec(0):
        return tuple(mapping)
    return None


def is_order_preserving(mapping, P: Poset, Q: Poset) -> bool:
    """Whether i <= j in P implies mapping[i] <= mapping[j] in Q."""
    m = np.asarray(mapping, dtype=np.int64)
    return bool((Q.leq[np.ix_(m, m)] | ~P.leq).all())


def is_order_isomorphism(mapping, P: Poset, Q: Poset) -> bool:
    """Verify a witness: bijective and order-preserving in both directions."""
    if sorted(mapping) != list(range(P.n)) or Q.n != P.n:
        return False
    m = np.asarray(mapping, dtype=np.int64)
    return bool(np.array_equal(P.leq, Q.leq[np.ix_(m, m)]))
