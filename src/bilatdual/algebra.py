"""Finite algebras with two lattice orders, an involution and indexed default constants.

Carriers are indexed finite sets; every operation is a dense table (numpy, read-only).
All values are immutable after construction, so everything here is safe to share
between threads; enumeration results are emitted in a canonical order.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BINARY_OPS = ("meet_k", "join_k", "meet_t", "join_t")

DEFAULT_TABLE_GUARD = 10**8   # table entries per operation of a product subalgebra
DEFAULT_SUBUNIVERSE_GUARD = 64
DEFAULT_HOM_ORACLE_GUARD = 10**7
LAW_CHECK_GUARD = 512   # carrier of bilattice_law_violations, which checks every triple
DEFAULT_CLOSURE_GUARD = 10_000   # the largest carrier whose tables pass DEFAULT_TABLE_GUARD
BUILD_GUARD = 500_000   # numbers (table cells, pair coordinates) of an object built from --n alone
HOM_CHECK_BLOCK = 1 << 16   # entries per row block over the four tables: is_homomorphism, keys


class GuardExceeded(RuntimeError):
    """An operation was refused because its work estimate exceeds the configured guard."""


class SignatureMismatch(ValueError):
    pass


class NotALattice(ValueError):
    pass


def strict_index(value) -> int:
    """operator.index, refusing bools: a document's true or false is not the integer 1 or 0."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class SignatureN:
    """Signature for priority depth n: four binary ops, negation, and 2n+4 constants."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("priority depth n must be nonnegative")

    @property
    def constant_symbols(self) -> tuple[str, ...]:
        fs = tuple(f"f_{i}" for i in range(self.n + 1))
        ts = tuple(f"t_{i}" for i in range(self.n + 1))
        return ("bot", "top") + fs + ts


def _block_rows(width: int) -> int:
    """Rows per block, so that a block of all four tables holds at most HOM_CHECK_BLOCK entries."""
    return max(1, HOM_CHECK_BLOCK // (len(BINARY_OPS) * width))


def _table_values(values, shape: tuple, name: str) -> np.ndarray:
    """The values as an integer array of the given shape, each indexing a carrier of shape[-1]."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and not all(type(v) is int for v in arr.flat):
        raise ValueError("table entries must be integers")
    if arr.min(initial=0) < 0 or (arr.size and arr.max() >= shape[-1]):
        raise ValueError("table entry out of carrier range")
    if arr.shape != shape:
        raise ValueError(f"{name} table has wrong shape")
    return arr


def _spells_a_bool(text: str) -> bool:
    """Whether text holds true or false, found from its u or a: a one-letter search is fast."""
    for word, at in (("true", 2), ("false", 1)):
        i = text.find(word[at])
        while i >= 0 and not text.startswith(word, i - at):
            i = text.find(word[at], i + 1)
        if i >= 0:
            return True
    return False


def _as_table(values, shape: tuple, name: str) -> np.ndarray:
    arr = _table_values(values, shape, name).astype(np.int16, copy=False)
    arr.setflags(write=False)
    return arr


class FiniteAlgebra:
    """A finite algebra in some SignatureN, given by dense tables; binary ones commute.

    `tables` is one read-only (4, n, n) int16 array in BINARY_OPS order, kept uncopied if given so.
    """

    __slots__ = ("signature", "elements", "tables", "neg", "consts")

    def __init__(self, signature: SignatureN, elements, tables, neg, consts):
        self.signature = signature
        self.elements = tuple(elements)
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("element names must be distinct")
        self.tables = _as_table(tables, (len(BINARY_OPS), n, n), "binary")
        asymmetric = [not np.array_equal(tab, tab.T) for tab in self.tables]
        if any(asymmetric):
            raise ValueError(f"{BINARY_OPS[asymmetric.index(True)]} table is not commutative")
        self.neg = _as_table(neg, (n,), "neg")
        self.consts = dict(consts)
        if len(self.consts) != 2 * signature.n + 4:
            raise ValueError(f"{len(self.consts)} constants given, but depth "
                             f"n={signature.n} needs {2 * signature.n + 4}")
        for sym in signature.constant_symbols:
            if sym not in self.consts:
                raise ValueError(f"missing constant {sym}")
            if not 0 <= self.consts[sym] < n:
                raise ValueError(f"constant {sym} out of range")

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def apply(self, op: str, *args: int) -> int:
        if op in BINARY_OPS:
            return int(self.tables[BINARY_OPS.index(op), args[0], args[1]])
        if op == "neg":
            return int(self.neg[args[0]])
        return self.consts[op]

    def order_matrix(self, which: str) -> np.ndarray:
        """Partial order derived from a meet table: a <= b iff a meet b == a."""
        meet = self.tables[BINARY_OPS.index(f"meet_{which}")]
        leq = meet == np.arange(self.size, dtype=np.int16)[:, None]
        leq.setflags(write=False)
        return leq

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.elements == other.elements
            and self.consts == other.consts
            and np.array_equal(self.neg, other.neg)
            and np.array_equal(self.tables, other.tables)
        )

    def __repr__(self):
        return f"FiniteAlgebra(n={self.signature.n}, size={self.size})"

    def to_dict(self) -> dict:
        return {
            "signature": {"n": self.signature.n},
            "elements": list(self.elements),
            "ops": {
                **dict(zip(BINARY_OPS, self.tables.tolist())),
                "neg": self.neg.tolist(),
                "consts": {sym: self.elements[i] for sym, i in sorted(self.consts.items())},
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FiniteAlgebra":
        sig = SignatureN(strict_index(doc["signature"]["n"]))
        elements = tuple(doc["elements"])
        index = {name: i for i, name in enumerate(elements)}
        ops = doc["ops"]
        consts = {sym: index[name] for sym, name in ops["consts"].items()}
        tables = np.empty((len(BINARY_OPS), len(elements), len(elements)), dtype=np.int16)
        for i, op in enumerate(BINARY_OPS):   # one named table at a time into the stack
            tables[i] = _table_values(ops[op], tables.shape[1:], op)
        return cls(sig, elements, tables, ops["neg"], consts)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FiniteAlgebra":
        doc = json.loads(text)
        algebra = cls.from_dict(doc)   # so every table has its shape, and a row is flat
        if _spells_a_bool(text):   # numpy reads a JSON bool among integers as an integer
            ops = doc["ops"]
            rows = [ops["neg"], *(row for op in BINARY_OPS for row in ops[op])]
            if any(bool in map(type, row) for row in rows):
                raise ValueError("table entries must be integers")
        return algebra


# ----------------------------------------------------------------------------
# order helpers


def bool_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product through float32 BLAS; a sum of ones is never rounded to 0.

    A square (b is a) converts its matrix once.
    """
    fa = a.astype(np.float32)
    return (fa @ (fa if b is a else b.astype(np.float32))) > 0.5


def reflexive_transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Smallest reflexive and transitive relation containing a square boolean matrix."""
    leq = rel | np.eye(rel.shape[0], dtype=bool)
    for _ in range(rel.shape[0]):
        new = leq | bool_compose(leq, leq)
        if np.array_equal(new, leq):
            break
        leq = new
    return leq


def order_from_covers(names, covers) -> np.ndarray:
    """The order generated by a cover list given by element names."""
    idx = {name: i for i, name in enumerate(names)}
    rel = np.zeros((len(names),) * 2, dtype=bool)
    for a, b in covers:
        rel[idx[a], idx[b]] = True
    return reflexive_transitive_closure(rel)


def lattice_tables_from_leq(leq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Meet and join tables of a finite lattice order; raises NotALattice if bounds fail."""
    n = leq.shape[0]
    down = [0] * n
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if leq[j, i]:
                down[i] |= 1 << j
            if leq[i, j]:
                up[i] |= 1 << j
    by_down = {m: i for i, m in enumerate(down)}
    by_up = {m: i for i, m in enumerate(up)}
    meet = np.zeros((n, n), dtype=np.int16)
    join = np.zeros((n, n), dtype=np.int16)
    for i in range(n):
        for j in range(n):
            lo = by_down.get(down[i] & down[j])
            hi = by_up.get(up[i] & up[j])
            if lo is None or hi is None:
                raise NotALattice(f"no meet/join for pair ({i}, {j})")
            meet[i, j] = lo
            join[i, j] = hi
    return meet, join


def _algebra_from_orders(sig, elements, k_leq, t_leq, neg_names, const_names) -> FiniteAlgebra:
    idx = {name: i for i, name in enumerate(elements)}
    neg = [idx[neg_names[name]] for name in elements]
    consts = {sym: idx[name] for sym, name in const_names.items()}
    tables = np.stack([*lattice_tables_from_leq(k_leq), *lattice_tables_from_leq(t_leq)])
    return FiniteAlgebra(sig, elements, tables, neg, consts)


# ----------------------------------------------------------------------------
# the generating algebras


def build_jn(n: int) -> FiniteAlgebra:
    """The 2n+4 element bilattice with default constants graded by priority."""
    sig = SignatureN(n)
    fs = [f"f{i}" for i in range(n + 1)]
    ts = [f"t{i}" for i in range(n + 1)]
    elements = tuple(["bot"] + fs + ts + ["top"])
    k_covers = [("bot", fs[n]), ("bot", ts[n]), (fs[0], "top"), (ts[0], "top")]
    k_covers += [(fs[i + 1], fs[i]) for i in range(n)]
    k_covers += [(ts[i + 1], ts[i]) for i in range(n)]
    t_covers = [(fs[i], fs[i + 1]) for i in range(n)]
    t_covers += [(ts[i + 1], ts[i]) for i in range(n)]
    t_covers += [(fs[n], "top"), (fs[n], "bot"), ("top", ts[n]), ("bot", ts[n])]
    k_leq = order_from_covers(elements, k_covers)
    t_leq = order_from_covers(elements, t_covers)
    neg = {"bot": "bot", "top": "top"}
    neg.update({fs[i]: ts[i] for i in range(n + 1)})
    neg.update({ts[i]: fs[i] for i in range(n + 1)})
    consts = {"bot": "bot", "top": "top"}
    consts.update({f"f_{i}": fs[i] for i in range(n + 1)})
    consts.update({f"t_{i}": ts[i] for i in range(n + 1)})
    return _algebra_from_orders(sig, elements, k_leq, t_leq, neg, consts)


def mk_elements(k: int) -> tuple[str, ...]:
    """M_k's element names in element order, 4 for k=0 and 6 for k>=1."""
    stems = ("bot", "f", "t", "top") if k == 0 else ("bot", "f", "0", "t", "1", "top")
    return tuple(f"{s}{k}" for s in stems)


def build_mk(n: int, k: int) -> FiniteAlgebra:
    """The k-th generating algebra in SignatureN(n): 4 elements for k=0, 6 for k>=1.

    The constants below priority k collapse onto the inner pair; the rest land on
    the outer pair.
    """
    if not 0 <= k <= n:
        raise ValueError(f"sort index k={k} out of range [0, {n}]")
    sig = SignatureN(n)
    elements = mk_elements(k)
    if k == 0:
        k_covers = [("bot0", "f0"), ("bot0", "t0"), ("f0", "top0"), ("t0", "top0")]
        t_covers = [("f0", "top0"), ("f0", "bot0"), ("top0", "t0"), ("bot0", "t0")]
        neg = {"bot0": "bot0", "top0": "top0", "f0": "t0", "t0": "f0"}
        consts = {"bot": "bot0", "top": "top0"}
        for i in range(n + 1):
            consts[f"f_{i}"] = "f0"
            consts[f"t_{i}"] = "t0"
    else:
        b, f, z, t, o, tp = elements
        k_covers = [(b, f), (b, t), (f, z), (t, o), (z, tp), (o, tp)]
        t_covers = [(z, f), (f, tp), (f, b), (tp, t), (b, t), (t, o)]
        neg = {b: b, tp: tp, f: t, t: f, z: o, o: z}
        consts = {"bot": b, "top": tp}
        for i in range(n + 1):
            consts[f"f_{i}"] = z if i < k else f
            consts[f"t_{i}"] = o if i < k else t
    k_leq = order_from_covers(elements, k_covers)
    t_leq = order_from_covers(elements, t_covers)
    return _algebra_from_orders(sig, elements, k_leq, t_leq, neg, consts)


@lru_cache(maxsize=None)
def mk_algebras(n: int) -> tuple[FiniteAlgebra, ...]:
    """The generating algebras M_0..M_n, cached since they are immutable."""
    return tuple(build_mk(n, k) for k in range(n + 1))


# ----------------------------------------------------------------------------
# homomorphisms


def is_homomorphism(mapping, A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    """Exhaustively check that the map preserves every operation and constant.

    Large tables are compared in row blocks of all four operations at once, so
    a failing map is usually rejected after the first block.
    """
    if A.signature != B.signature:
        raise SignatureMismatch("source and target must share a signature")
    h = np.asarray(mapping, dtype=np.int16)
    if h.shape != (A.size,) or h.min() < 0 or h.max() >= B.size:
        return False
    for sym, ia in A.consts.items():
        if h[ia] != B.consts[sym]:
            return False
    if not np.array_equal(h[A.neg], B.neg[h]):
        return False
    step = _block_rows(A.size)
    for start in range(0, A.size, step):
        rows = slice(start, start + step)
        if not np.array_equal(h[A.tables[:, rows]], B.tables[:, h[rows]][:, :, h]):
            return False
    return True


class _Closure:
    """Incremental closure of a subset of A under all operations, one rule per element."""

    def __init__(self, A: FiniteAlgebra):
        self.A = A
        self.known = np.zeros(A.size, dtype=bool)
        self.order: list[int] = []
        self.rules: dict[int, tuple] = {}
        self.combined = 0   # order[:combined] have been combined with each other

    def add_seed(self, x: int):
        if not self.known[x]:
            self.known[x] = True
            self.order.append(x)
            self.rules[x] = ("seed",)

    def saturate(self):
        """Close under all operations, combining each new element with every member once."""
        A = self.A
        while self.combined < len(self.order):
            members = np.array(self.order, dtype=np.int64)
            fresh = members[self.combined:]
            self.combined = len(self.order)
            step = _block_rows(members.size)
            for start in range(0, fresh.size, step):   # one gather of the four tables per block
                left = fresh[start:start + step]
                flat = A.tables[:, left[:, None], members].ravel()
                unknown = np.flatnonzero(~self.known[flat])
                if not unknown.size:
                    continue
                vals, first = np.unique(flat[unknown], return_index=True)
                self.known[vals] = True
                op, pair = np.divmod(unknown[first], left.size * members.size)
                i, j = np.divmod(pair, members.size)
                for v, rule in zip(vals.tolist(), zip(op.tolist(), left[i].tolist(),
                                                      members[j].tolist())):
                    self.order.append(v)
                    self.rules[v] = ("bin", *rule)
            for src, v in zip(fresh.tolist(), A.neg[fresh].tolist()):
                if not self.known[v]:
                    self.known[v] = True
                    self.order.append(v)
                    self.rules[v] = ("neg", src)

    def members(self) -> list[int]:
        return sorted(np.flatnonzero(self.known).tolist())


def closure_indices(A: FiniteAlgebra, generators) -> list[int]:
    """Least subuniverse containing the generators and all constants, as sorted indices."""
    cl = _Closure(A)
    for sym in A.signature.constant_symbols:
        cl.add_seed(A.consts[sym])
    for x in generators:
        cl.add_seed(int(x))
    cl.saturate()
    return cl.members()


class _Stage:
    """One closure stage S_t of a generating sequence, with the A-side tables its check needs.

    `new` is S_t minus S_{t-1}; `derived` lists the rules that give the images
    of the new elements once the stage's seed has its image.
    """

    def __init__(self, cl: _Closure, start: int, end: int, last: bool):
        A = cl.A
        self.derived = [(v, cl.rules[v]) for v in cl.order[start:end]
                        if cl.rules[v][0] != "seed"]
        if last:
            return
        self.new = np.array(cl.order[start:end], dtype=np.int64)
        self.members = np.array(cl.order[:end], dtype=np.int64)
        self.neg_new = A.neg[self.new]
        self.new_by_members = A.tables[:, self.new[:, None], self.members]

    def holds(self, h: np.ndarray, B: FiniteAlgebra) -> bool:
        """Whether h is a homomorphism on S_t, given that it is one on S_{t-1}.

        Only pairs (new, member) are compared: S_t is closed, so every product
        lands where h is defined, older pairs were compared before, and the
        operations of A and B commute, so each pair needs one order.
        """
        hn, hm = h[self.new], h[self.members]
        return (np.array_equal(h[self.neg_new], B.neg[hn])
                and np.array_equal(h[self.new_by_members], B.tables[:, hn[:, None], hm]))


def enumerate_homs(A: FiniteAlgebra, B: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All homomorphisms A -> B, lexicographically sorted as image tuples.

    Constants pin their images first. A greedy generating sequence g_1..g_m is
    recorded with its closure stages: S_0 is the subuniverse the constants
    generate and S_t the closure of the constants plus g_1..g_t. Each g_t is
    the element outside S_{t-1} whose products with S_{t-1}, over the four
    binary tables, fall outside S_{t-1} most often (lowest index on ties), so
    the sequence depends on A alone. The search assigns generator images
    depth first; at level t it derives the images of S_t from the recorded
    rules and descends only if the partial map is a homomorphism on S_t. The
    restriction of a homomorphism to a subuniverse is one, so pruning loses
    no solution. Every map that reaches S_m = A is verified exhaustively by
    `is_homomorphism`.
    """
    if A.signature != B.signature:
        raise SignatureMismatch("source and target must share a signature")
    forced: dict[int, int] = {}
    for sym, ia in A.consts.items():
        ib = B.consts[sym]
        if forced.setdefault(ia, ib) != ib:
            return []
    cl = _Closure(A)
    for ia in sorted(forced):
        cl.add_seed(ia)
    cl.saturate()
    gens: list[int] = []
    ends = [len(cl.order)]
    while len(cl.order) < A.size:
        members = np.array(cl.order, dtype=np.int64)
        escapes = sum((~cl.known[tab[:, members]]).sum(axis=1) for tab in A.tables)
        gens.append(int(np.argmax(np.where(cl.known, -1, escapes))))
        cl.add_seed(gens[-1])
        cl.saturate()
        ends.append(len(cl.order))
    stages = [_Stage(cl, start, end, last=end == A.size)
              for start, end in zip([0] + ends, ends)]
    btabs = B.tables.tolist()
    bneg = B.neg.tolist()
    image = [-1] * A.size
    for ia, ib in forced.items():
        image[ia] = ib
    results = []

    def visit(t: int):
        """Derive S_t from the images of g_1..g_t, then check, record or descend."""
        for v, rule in stages[t].derived:
            if rule[0] == "bin":
                _, op, i, j = rule
                image[v] = btabs[op][image[i]][image[j]]
            else:
                image[v] = bneg[image[rule[1]]]
        h = np.array(image, dtype=np.int16)
        if t == len(gens):
            if is_homomorphism(h, A, B):
                results.append(tuple(image))
        elif stages[t].holds(h, B):
            for b in range(B.size):
                image[gens[t]] = b
                visit(t + 1)

    visit(0)
    results.sort()
    return results


def enumerate_homs_bruteforce(A, B):
    """Oracle-grade naive scanner over all |B|^|A| maps; refuses large instances."""
    if A.signature != B.signature:
        raise SignatureMismatch("source and target must share a signature")
    if B.size ** A.size > DEFAULT_HOM_ORACLE_GUARD:
        raise GuardExceeded(f"{B.size}^{A.size} maps exceed the oracle guard "
                            f"{DEFAULT_HOM_ORACLE_GUARD}")
    out = []
    for h in itertools.product(range(B.size), repeat=A.size):
        if is_homomorphism(h, A, B):
            out.append(h)
    out.sort()
    return out


# ----------------------------------------------------------------------------
# products and generated subalgebras


def product(algebras) -> FiniteAlgebra:
    """Eager direct product with tuple-indexed carrier (row-major)."""
    algebras = tuple(algebras)
    if not algebras:
        raise ValueError("product of an empty family is not supported")
    _common_signature(algebras)
    sizes = [a.size for a in algebras]
    _guard_tables(math.prod(sizes))
    rows = np.indices(sizes, dtype=np.int16).reshape(len(sizes), -1).T
    return _product_subalgebra(algebras, rows)


@dataclass
class Subalgebra:
    """A generated subalgebra together with its embedding into the ambient algebra."""

    algebra: FiniteAlgebra
    embedding: tuple[int, ...]


def generated_subalgebra(A: FiniteAlgebra, generators) -> Subalgebra:
    """Closure of generators (plus all constants) inside a materialized algebra."""
    members = closure_indices(A, generators)
    pos = {m: i for i, m in enumerate(members)}
    sel = np.array(members, dtype=np.int64)
    inv = np.full(A.size, -1, dtype=np.int16)
    inv[sel] = np.arange(len(members), dtype=np.int16)
    tables = inv[A.tables[:, sel[:, None], sel]]
    neg = inv[A.neg[sel]]
    consts = {sym: pos[i] for sym, i in A.consts.items()}
    elements = tuple(A.elements[m] for m in members)
    sub = FiniteAlgebra(A.signature, elements, tables, neg, consts)
    return Subalgebra(sub, tuple(members))


@dataclass
class ProductSubalgebra:
    """Subalgebra of a (never materialized) direct product, as explicit tuples."""

    algebra: FiniteAlgebra
    factors: tuple[FiniteAlgebra, ...]
    rows: tuple[tuple[int, ...], ...]
    generator_indices: tuple[int, ...]


def _pack_rows(rows: np.ndarray, radices) -> np.ndarray:
    packed = np.zeros(rows.shape[0], dtype=np.int64)
    for c, r in enumerate(radices):
        packed = packed * r + rows[:, c]
    return packed


def _unpack_keys(keys: np.ndarray, radices) -> np.ndarray:
    rows = np.empty((keys.shape[0], len(radices)), dtype=np.int16)
    rem = keys.copy()
    for c in range(len(radices) - 1, -1, -1):
        rows[:, c] = rem % radices[c]
        rem //= radices[c]
    return rows


def _common_signature(factors) -> SignatureN:
    sig = factors[0].signature
    if any(f.signature != sig for f in factors):
        raise SignatureMismatch("all factors must share a signature")
    return sig


def _guard_tables(size: int):
    if size * size > DEFAULT_TABLE_GUARD:
        raise GuardExceeded(f"tables on {size} elements need {size * size} entries "
                            f"per operation (> {DEFAULT_TABLE_GUARD})")


class _PackedKeys:
    """Exact int64 keys of product rows and of pointwise operations on row pairs.

    A row's key is its Horner value over the factor sizes, so keys sort like rows.
    Adjacent coordinates are grouped while their radix product stays within
    GROUP_CELLS. An operation is tabulated per group over the group codes present
    on each side only, gathered per row pair and combined over the groups by
    Horner. All four operations are computed together, in BINARY_OPS order.
    """

    GROUP_CELLS = 256

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.signature = _common_signature(self.factors)
        self.radices = [f.size for f in self.factors]
        if math.prod(self.radices) >= 2**62:
            raise GuardExceeded("product coordinate space too large to pack into int64 keys")
        self.groups = []   # (first coordinate, end coordinate, radix product)
        start = 0
        while start < len(self.radices):
            end, cells = start + 1, self.radices[start]
            while end < len(self.radices) and cells * self.radices[end] <= self.GROUP_CELLS:
                cells *= self.radices[end]
                end += 1
            self.groups.append((start, end, cells))
            start = end

    def pack(self, rows: np.ndarray) -> np.ndarray:
        return _pack_rows(rows, self.radices)

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        return _unpack_keys(keys, self.radices)

    def _codes(self, rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per group: the coordinates of the codes present, and each row's slot among them."""
        out = []
        for a, b, cells in self.groups:
            codes = _pack_rows(rows[:, a:b], self.radices[a:b])
            present = np.zeros(cells, dtype=bool)
            present[codes] = True
            slot = np.cumsum(present) - 1
            out.append((_unpack_keys(np.flatnonzero(present), self.radices[a:b]), slot[codes]))
        return out

    def op_keys(self, left: np.ndarray, right: np.ndarray):
        """keys(i, j)[op] is the key array of op(left[i], right[j]) for slices i, j."""
        parts = []
        for (a, b, cells), (da, ia), (db, ib) in zip(self.groups, self._codes(left),
                                                    self._codes(right)):
            # codes fit int16: a group spans at most GROUP_CELLS or one factor's size
            local = np.zeros((len(BINARY_OPS), da.shape[0], db.shape[0]), dtype=np.int16)
            for c in range(a, b):
                local *= self.radices[c]
                local += self.factors[c].tables[:, da[:, c - a][:, None], db[:, c - a]]
            parts.append((cells, local, ia, ib))

        def keys(i: slice, j: slice) -> np.ndarray:
            (_, first, ia0, ib0), *rest = parts
            out = np.take(first[:, ia0[i]], ib0[j], axis=2).astype(np.int64)
            for cells, local, ia, ib in rest:
                out *= cells
                out += np.take(local[:, ia[i]], ib[j], axis=2)
            return out
        return keys

    def neg_keys(self, rows: np.ndarray) -> np.ndarray:
        return self.pack(np.stack([f.neg[rows[:, c]] for c, f in enumerate(self.factors)],
                                  axis=-1))

    def const_rows(self) -> np.ndarray:
        """One row per constant symbol, in signature order."""
        return np.array([[f.consts[sym] for f in self.factors]
                         for sym in self.signature.constant_symbols], dtype=np.int16)


def _product_subalgebra(factors, rows: np.ndarray) -> FiniteAlgebra:
    """The algebra on closed product rows, sorted by packed key, under pointwise operations."""
    n = rows.shape[0]
    _guard_tables(n)
    kernel = _PackedKeys(factors)
    packed_sorted = kernel.pack(rows)

    def lookup(packed_vals: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(packed_sorted, packed_vals).astype(np.int16)   # n < 2**15
        if pos.size and (pos.max() >= n or
                         not np.array_equal(packed_sorted[pos], packed_vals)):
            raise AssertionError("operation escaped the closed set")
        return pos

    tables = np.empty((len(BINARY_OPS), n, n), dtype=np.int16)
    keys = kernel.op_keys(rows, rows)
    step = _block_rows(n)
    for start in range(0, n, step):
        tables[:, start:start + step] = lookup(keys(slice(start, start + step), slice(None)))
    neg = lookup(kernel.neg_keys(rows))
    consts = dict(zip(kernel.signature.constant_symbols,
                      lookup(kernel.pack(kernel.const_rows())).tolist()))
    elements = tuple(
        "(" + ",".join(f.elements[int(rows[i, c])] for c, f in enumerate(kernel.factors)) + ")"
        for i in range(n))
    return FiniteAlgebra(kernel.signature, elements, tables, neg, consts)


class _KeySet:
    """A set of int64 keys >= 0: open addressing, multiplicative hash, linear probing.

    The load stays at or below 1/4, and EMPTY (never a key) marks a free slot. A
    probe compares the full key, so membership is exact.
    """

    EMPTY = -1
    MIX = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self):
        self.size, self.slots = 0, np.full(16, self.EMPTY, dtype=np.int64)

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """The top bits of key * MIX, as slot numbers."""
        h = np.multiply(keys.view(np.uint64), self.MIX)
        np.right_shift(h, np.uint64(65 - self.slots.size.bit_length()), out=h)
        return h.view(np.int64)

    def _place(self, keys: np.ndarray):
        """Insert distinct keys that are not in the set."""
        slot, mask = self._home(keys), self.slots.size - 1
        while keys.size:
            free = self.slots[slot] == self.EMPTY
            self.slots[slot[free]] = keys[free]   # keys racing for one slot: one of them wins
            free[free] = self.slots[slot[free]] == keys[free]
            keys, slot = keys[~free], slot[~free]
            slot += 1
            slot &= mask

    def admit(self, cand: np.ndarray) -> np.ndarray:
        """Add the keys of cand that are not in the set; return them, distinct and sorted."""
        keys, found = cand.ravel(), [np.empty(0, dtype=np.int64)]
        slot, mask = self._home(keys), self.slots.size - 1
        while keys.size:
            held = self.slots[slot]
            empty = held == self.EMPTY
            found.append(keys[empty])
            go = held != keys
            go ^= empty
            keys, slot = keys[go], slot[go]
            slot += 1
            slot &= mask
        fresh = np.sort(np.concatenate(found))
        fresh = fresh[np.diff(fresh, prepend=self.EMPTY) != 0]
        self.size += fresh.size
        if 4 * self.size > self.slots.size:
            old = self.slots[self.slots != self.EMPTY]
            self.slots = np.full(1 << (4 * self.size - 1).bit_length(), self.EMPTY, dtype=np.int64)
            self._place(old)
        self._place(fresh)
        return fresh

    def sorted(self) -> np.ndarray:
        return np.sort(self.slots[self.slots != self.EMPTY])


NEG_CONJUGATE = (0, 1, 3, 2)   # op* for each op of BINARY_OPS: ¬ swaps meet_t and join_t


def _check_negation_symmetry(factors):
    """ValueError unless on every factor ¬ is an involution and op(¬x, ¬y) = ¬op*(x, y)."""
    for c, f in enumerate(factors):
        if not np.array_equal(f.neg[f.neg], np.arange(f.size)):
            raise ValueError(f"factor {c}: neg is not an involution")
        held = f.tables[:, f.neg[:, None], f.neg] == f.neg[f.tables[list(NEG_CONJUGATE)]]
        for op, conj, ok in zip(BINARY_OPS, NEG_CONJUGATE, held):
            if not ok.all():
                raise ValueError(f"factor {c}: {op}(neg x, neg y) != neg {BINARY_OPS[conj]}(x, y)")


def product_closure_rows(factors, generator_rows,
                         max_elements: int = DEFAULT_CLOSURE_GUARD) -> np.ndarray:
    """Close generator tuples (plus the constant tuples) under pointwise operations.

    Returns the closed rows sorted by packed key, without building tables. The
    ambient product is never materialized; only reachable tuples are kept, in a
    hashed `_KeySet`, and prod(sizes) must stay below 2**62.

    Each round pairs only half of the new rows, by the negation symmetry. On every
    factor ¬ is an involution and op(¬x, ¬y) = ¬op*(x, y), where op* swaps meet_t
    and join_t; this is checked first, with ValueError naming the failed law. The
    seed is closed under ¬, and each block's fresh keys come with their negations,
    so the rows R and the frontier F of a round are closed under ¬. A frontier row
    x leads when key(x) <= key(¬x), and each lead row is paired with every row of R.
    That misses no pair of F x R: if x does not lead, ¬x does, and (¬x, ¬y) is in
    F x R, so op*(¬x, ¬y) is found and its negation ¬op*(¬x, ¬y) = op(x, y) is
    admitted with it. Pairs inside the rows before F were combined in earlier
    rounds, and a pair in R x F is a pair of F x R because every binary operation
    of a FiniteAlgebra is commutative. The guard is checked after each block of a
    round, so a round stops as soon as its distinct new keys pass it.
    """
    kernel = _PackedKeys(factors)
    _check_negation_symmetry(kernel.factors)
    seen = _KeySet()

    def admit(cand: np.ndarray) -> np.ndarray:
        """Admit cand's new keys, then their negations; return both, in that order."""
        fresh = seen.admit(cand)
        fresh = np.concatenate([fresh, seen.admit(kernel.neg_keys(kernel.unpack(fresh)))])
        if seen.size > max_elements:
            raise GuardExceeded(f"closure exceeded {max_elements} elements")
        return fresh

    seed = np.array([tuple(int(v) for v in row) for row in generator_rows]
                    + kernel.const_rows().tolist(), dtype=np.int16)
    if ((seed < 0) | (seed >= kernel.radices)).any():
        raise ValueError("a generator row is outside the factors")
    rows = frontier = kernel.unpack(admit(kernel.pack(seed)))
    while frontier.size:
        lead = frontier[kernel.pack(frontier) <= kernel.neg_keys(frontier)]
        step = _block_rows(rows.shape[0])
        keys = kernel.op_keys(lead, rows)
        frontier = kernel.unpack(np.concatenate(
            [admit(keys(slice(s, s + step), slice(None))) for s in range(0, lead.shape[0], step)]))
        rows = np.concatenate([rows, frontier], axis=0)
    return kernel.unpack(seen.sorted())


def generated_subalgebra_in_product(factors, generator_rows) -> ProductSubalgebra:
    """The closure of the generator tuples, with tables on its rows."""
    factors = tuple(factors)
    rows = product_closure_rows(factors, generator_rows, DEFAULT_CLOSURE_GUARD)
    alg = _product_subalgebra(factors, rows)
    row_tuples = tuple(tuple(int(v) for v in row) for row in rows)
    row_pos = {t: i for i, t in enumerate(row_tuples)}
    gen_ix = tuple(row_pos[tuple(int(v) for v in g)] for g in generator_rows)
    return ProductSubalgebra(alg, factors, row_tuples, gen_ix)


def _free_generator(n: int):
    """Factors and generator row of the one-generated free algebra.

    One coordinate per pair (k, a) with a in M_k; the generator picks out a in
    each coordinate, so distinct unary terms stay distinct.
    """
    mks = mk_algebras(n)
    factors = tuple(mks[k] for k in range(n + 1) for _ in range(mks[k].size))
    gen = tuple(a for k in range(n + 1) for a in range(mks[k].size))
    return factors, gen


def free_algebra(n: int) -> ProductSubalgebra:
    """One-generated free algebra of the class generated by the M_k, built by closure."""
    factors, gen = _free_generator(n)
    return generated_subalgebra_in_product(factors, [gen])


def free_algebra_rows(n: int, max_elements: int = DEFAULT_CLOSURE_GUARD) -> np.ndarray:
    """Rows of the one-generated free algebra in `free_algebra` order, by closure alone."""
    factors, gen = _free_generator(n)
    return product_closure_rows(factors, [gen], max_elements)


# ----------------------------------------------------------------------------
# subuniverse enumeration


@dataclass
class SubuniverseSet:
    """All subuniverses of a small algebra, with meet-irreducible members marked."""

    members: tuple[frozenset[int], ...]
    meet_irreducible: tuple[bool, ...]

    @property
    def meet_irreducibles(self) -> tuple[frozenset[int], ...]:
        return tuple(s for s, mi in zip(self.members, self.meet_irreducible) if mi)


def enumerate_subuniverses(A: FiniteAlgebra) -> SubuniverseSet:
    """Sub(A) as the joins of Sg(∅) with one-generated subuniverses.

    Every subuniverse T is Sg(∅) joined with Sg(x) for each x in T, so the
    family starts at {Sg(∅)} and is joined with each distinct Sg(x) in turn,
    for x outside Sg(∅) only (inside it, Sg(x) is Sg(∅)); a join is the
    closure of the union, skipped when Sg(x) is already inside.
    """
    if A.size > DEFAULT_SUBUNIVERSE_GUARD:
        raise GuardExceeded(f"carrier {A.size} exceeds subuniverse guard "
                            f"{DEFAULT_SUBUNIVERSE_GUARD}")
    n = A.size

    def closed(mask: int) -> int:
        return sum(1 << i for i in closure_indices(A, (i for i in range(n) if mask >> i & 1)))

    base = closed(0)
    family = {base}
    for p in {closed(1 << x) for x in range(n) if not base >> x & 1}:
        family |= {closed(s | p) for s in family if p & ~s}
    masks = sorted(family, key=lambda mk: (bin(mk).count("1"), mk))
    members = tuple(frozenset(i for i in range(n) if mk >> i & 1) for mk in masks)
    full = (1 << n) - 1
    flags = []
    for mk in masks:
        inter = full
        for other in masks:
            if other != mk and (other & mk) == mk:
                inter &= other
        flags.append(inter != mk)
    return SubuniverseSet(members, tuple(flags))


# ----------------------------------------------------------------------------
# structural checks


def bilattice_law_violations(A: FiniteAlgebra) -> list[str]:
    """Violations of the two-lattice-plus-involution laws; empty list means all hold.

    Commutativity is not listed: FiniteAlgebra refuses a table that is not
    symmetric. Associativity is checked over all triples, so the carrier is guarded.
    """
    if A.size > LAW_CHECK_GUARD:
        raise GuardExceeded(f"carrier {A.size} exceeds law-check guard {LAW_CHECK_GUARD}")
    out = []
    rng = np.arange(A.size, dtype=np.int16)
    diag = np.broadcast_to(rng[:, None], (A.size, A.size))
    km, kj, tm, tj = A.tables
    for which, meet, join in (("k", km, kj), ("t", tm, tj)):
        if not (np.array_equal(meet[rng, rng], rng) and np.array_equal(join[rng, rng], rng)):
            out.append(f"{which}: idempotence")
        if not np.array_equal(meet[rng[:, None], join], diag):
            out.append(f"{which}: absorption meet(a, join(a,b)) = a")
        if not np.array_equal(join[rng[:, None], meet], diag):
            out.append(f"{which}: absorption join(a, meet(a,b)) = a")
        for tab, label in ((meet, "meet"), (join, "join")):
            lhs = tab[tab[:, :, None], rng[None, None, :]]
            rhs = tab[rng[:, None, None], tab[None, :, :]]
            if not np.array_equal(lhs, rhs):
                out.append(f"{which}: associativity of {label}")
    if not np.array_equal(A.neg[A.neg], rng):
        out.append("neg: not an involution")
    for tab, image, law in ((km, km, "preserve knowledge meet"),
                            (kj, kj, "preserve knowledge join"),
                            (tm, tj, "swap truth meet with truth join"),
                            (tj, tm, "swap truth join with truth meet")):
        if not np.array_equal(A.neg[tab], image[A.neg[:, None], A.neg[None, :]]):
            out.append(f"neg: does not {law}")
    return out

