"""Named verification suites with deterministic, seed-controlled reports.

Each check is a thunk returning (ok, witness). A suite passes it, with its id, to
the run's `check`, which appends one record to the run's one result; under `all`
the id is prefixed with the suite's name. Elapsed times are recorded but left out
of serialized output by default so identical invocations stay byte identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .algebra import GuardExceeded
from .bridge import (free_size_formula, partitioned_downset_count,
                     table_avoiding_expected, table_meeting_expected,
                     verify_free_translation, verify_translation)
from .corpus import CorpusAlgebra, corpus_algebras, sample_morphisms, structure_corpus
from .multisorted import (MultiSortedStructure, build_alter_ego, check_axioms,
                          is_multimorphism, morphism_rows, membership_by_separation,
                          verify_unit_iso)
from .piggyback import (check_sep, name_relation, subuniverse_pairs,
                        table3_report, verify_piggyback_iso)
from .posets import count_downsets, enumerate_downsets, grid
from .ranked import (StructureAxiomError, flat_map_of_multimorphism, functor_F, functor_G,
                     is_ranked_morphism)

DEFAULT_SEED = 20260809
AXIOMS_CORPUS = 100   # seeded structures on which the axioms suite compares A1-A7 with separation
# seeded subalgebras of J_n squared that each suite checks after M_0..M_n and J_n: a run draws
# one corpus, each suite checks a prefix, and an item is closed and dualised when first read
# and freed after the last suite that reads it
SUBALGEBRAS = {"duality": 25, "axioms": 3, "functors": 3, "translation": 5, "piggyback": 5}


@dataclass
class CheckRecord:
    id: str
    status: str               # "pass" | "fail" | "skip"
    witness: str | None = None
    elapsed: float = 0.0


@dataclass
class VerificationSuiteResult:
    suite: str
    n: int
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    def to_dict(self, timings: bool = False) -> dict:
        rows = []
        for c in self.checks:
            row = {"id": c.id, "status": c.status}
            if c.witness is not None:
                row["witness"] = c.witness
            if timings:
                row["elapsed"] = round(c.elapsed, 3)
            rows.append(row)
        return {"suite": self.suite, "n": self.n, "seed": self.seed,
                "overall": self.overall, "checks": rows}

    def format_text(self, timings: bool = False) -> str:
        lines = [f"suite {self.suite} (n={self.n}, seed={self.seed})"]
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[c.status]
            extra = f"  [{c.witness}]" if c.witness else ""
            stamp = f"  ({c.elapsed:.3f}s)" if timings else ""
            lines.append(f"  {mark}  {c.id}{extra}{stamp}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"

    def check(self, check_id: str, thunk):
        t0 = time.perf_counter()
        try:
            out = thunk()
            ok, witness = out if isinstance(out, tuple) else (bool(out), None)
            status, witness = ("pass", None) if ok else ("fail", witness)
        except GuardExceeded as err:
            status, witness = "skip", f"guard: {err}"
        except Exception as err:   # noqa: BLE001 - verification must not abort the run
            status, witness = "fail", f"{type(err).__name__}: {err}"
        self.checks.append(CheckRecord(check_id, status, witness, time.perf_counter() - t0))


# ----------------------------------------------------------------------------
# individual suites


def suite_duality(check, n: int, seed: int, corpus: list[CorpusAlgebra]) -> None:
    for item in corpus:
        check(f"unit-iso:{item.label}",
              lambda item=item: verify_unit_iso(item.algebra.size, item.dual))
    check("dual-sorts:M0", lambda: ([len(s) for s in corpus[0].dual.structure.sorts]
                                    == [1] + [0] * n, "unexpected sort sizes"))
    check("E-size:one-point",
          lambda: (_one_point_e_size(n) == 4, "E of the one-point structure is not M0-sized"))


def _one_point_e_size(n: int) -> int:
    one = MultiSortedStructure(n, (("p",),) + ((),) * n, ((),) * n,
                               {(k, k): {(0, 0)} if k == 0 else () for k in range(n + 1)})
    return len(morphism_rows(one))


def suite_axioms(check, n: int, seed: int, corpus: list[CorpusAlgebra]) -> None:
    check("alter-ego-satisfies-axioms", lambda: check_axioms(build_alter_ego(n)).ok)
    if n == 1:
        def vacuous():
            rep = check_axioms(build_alter_ego(1))
            quiet = all(rep.verdicts[a].instances == 0 for a in ("A3", "A4", "A5", "A7"))
            return quiet, "cross-sort axioms not vacuous at n=1"
        check("n1-cross-axioms-vacuous", vacuous)

    def axioms_vs_separation():
        disagreements = []
        for i, X in enumerate(structure_corpus(n, AXIOMS_CORPUS, seed)):
            ax = check_axioms(X).ok
            sep = membership_by_separation(X)
            if ax != sep:
                disagreements.append((i, ax, sep))
        return not disagreements, f"disagreements at {disagreements[:3]}"
    check(f"axioms-vs-separation:{AXIOMS_CORPUS}-structures", axioms_vs_separation)
    for item in corpus:
        check(f"dual-satisfies-axioms:{item.label}",
              lambda item=item: check_axioms(item.dual.structure).ok)


def suite_functors(check, n: int, seed: int, corpus: list[CorpusAlgebra]) -> None:
    drawn: list[MultiSortedStructure] = []

    def members() -> list[MultiSortedStructure]:
        """The seeded structures that satisfy the axioms, drawn by the first check to read them."""
        if not drawn:
            drawn[:] = [X for X in structure_corpus(n, 30, seed) if check_axioms(X).ok]
        return drawn

    def roundtrip(X):
        Y = functor_F(X)
        try:
            G = functor_G(Y)   # checks the B axioms first
        except StructureAxiomError:
            return False, "F(X) fails the B axioms"
        if G != X:
            return False, "G(F(X)) != X"
        if functor_F(G) != Y:
            return False, "F(G(Y)) != Y"
        return True, None

    def first_member():
        if not members():   # half the draws are members by construction
            return False, "no seeded structure satisfies the axioms"
        return roundtrip(members()[0])

    # thunks, so that every structure is built inside the checks that read it
    pool = [lambda: build_alter_ego(n), *(lambda item=item: item.dual.structure for item in corpus)]
    for i, get in enumerate(pool):
        check(f"roundtrip:{i}", lambda get=get: roundtrip(get()))
    check(f"roundtrip:{len(pool)}", first_member)
    for i, X in enumerate(drawn[1:], start=len(pool) + 1):
        check(f"roundtrip:{i}", lambda X=X: roundtrip(X))

    def transport():
        bad = []
        structures = [*(get() for get in pool), *members()]
        for idx, (X, Y, maps) in enumerate(sample_morphisms(structures, n, 50, seed)):
            FX, FY = functor_F(X), functor_F(Y)
            if not is_ranked_morphism(flat_map_of_multimorphism(maps, Y), FX, FY):
                bad.append(("morphism-not-transported", idx))
            mutated = [list(m) for m in maps]
            for k in range(n, -1, -1):
                if mutated[k]:
                    mutated[k][0] = (mutated[k][0] + 1) % len(Y.sorts[k])
                    break
            as_multi = is_multimorphism(mutated, X, Y)
            as_ranked = is_ranked_morphism(flat_map_of_multimorphism(mutated, Y), FX, FY)
            if as_multi != as_ranked:
                bad.append(("transport-mismatch", idx))
        return not bad, f"failures {bad[:3]}"
    check("morphism-transport:50-samples", transport)


def suite_translation(check, n: int, seed: int, corpus: list[CorpusAlgebra]) -> None:
    for item in corpus:
        check(f"translation:{item.label}",
              lambda item=item: verify_translation(item.algebra.size, item.dual))
    check(f"translation:F_V{n}(1)", lambda: verify_free_translation(n))   # skips past n = 6


def suite_piggyback(check, n: int, seed: int, corpus: list[CorpusAlgebra]) -> None:
    check("separation-condition", lambda: check_sep(n))
    for item in corpus:
        check(f"carrier-space:{item.label}",
              lambda item=item: (verify_piggyback_iso(item.algebra.size, item.dual), "iso failed"))


def suite_tables(check, n: int, seed: int, corpus: list[CorpusAlgebra]) -> None:
    def piggyback_table():
        bad = [(row.omega1, row.omega2, row.names)
               for row in table3_report(n) if not row.matches_schema]
        return not bad, f"cells {bad[:3]}"
    check(f"piggyback-table:{4 * (n + 1) ** 2}-pairs", piggyback_table)   # two carriers a sort

    def meet_irreducibles():
        j, k = (1, 2) if n >= 2 else (1, 1)
        cases = [((0, 0), 4, {"le0", "ge0"}),
                 ((0, k), 4, {f"Sle0_{k}", f"Sge0_{k}"}),
                 ((k, k), 7, {f"le{k}", f"ge{k}", f"Sle{k}_{k}", f"Sge{k}_{k}"})]
        if n >= 2:
            cases.append(((j, k), 5, {f"le{j}_{k}", f"Sle{j}_{k}", f"Sge{j}_{k}"}))
        for (a, b), size, expected in cases:
            family = subuniverse_pairs(n, a, b)
            if len(family) != size:
                return False, f"Sub(M{a} x M{b}) has {len(family)} members"
            got = {name_relation(pairs, a, b, n) for pairs, mi in family if mi}
            if got != expected:
                return False, f"meet-irreducibles of Sub(M{a} x M{b}) are {sorted(got)}"
        return True, None
    check("subuniverse-lattices", meet_irreducibles)

    def tallies():
        pc = partitioned_downset_count(n)
        fs = free_size_formula(n)
        if (pc.avoiding_top, pc.meeting_top) != (fs.avoiding_top, fs.meeting_top):
            return False, "top split does not match the closed forms"
        for block, got, expected in (("centre", pc.by_centre, table_avoiding_expected(n)),
                                     ("top", pc.by_min_top, table_meeting_expected(n))):
            for key in sorted(got.keys() | expected.keys(), key=sorted):
                if got.get(key, 0) != expected.get(key, 0):
                    return False, f"{block} cell {sorted(key)} tallies {got.get(key, 0)}"
        return True, None
    check("grouped-downset-tallies", tallies)

    def grid_counts():
        for m in range(1, 51):
            expected = (m + 1) * (m + 2) // 2
            P = grid(2, m)
            if m <= 12 and len(enumerate_downsets(P)) != expected:
                return False, f"direct enumeration disagrees at {m}"
            if count_downsets(P) != expected:
                return False, f"memoized count disagrees at {m}"
        return True, None
    check("two-by-m-grid-counts", grid_counts)


SUITE_PARTS = {"duality": suite_duality, "axioms": suite_axioms, "functors": suite_functors,
               "translation": suite_translation, "piggyback": suite_piggyback,
               "tables": suite_tables}   # the suites that "all" runs, in report order
SUITES = (*SUITE_PARTS, "all")


def run_suite(suite: str, n: int, seed: int = DEFAULT_SEED) -> VerificationSuiteResult:
    """Run one suite, or all of them on one corpus: items closed once, algebras dualised once."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if n < 1:
        raise ValueError("verification suites require n >= 1")
    names = list(SUITE_PARTS) if suite == "all" else [suite]
    result = VerificationSuiteResult(suite, n, seed)
    corpus = corpus_algebras(n, seed, subalgebras=max(SUBALGEBRAS.values()))
    for i, name in enumerate(names):
        # drop the items no suite from here on reads, so their closures and duals are freed
        corpus = corpus[:n + 2 + max(SUBALGEBRAS.get(later, 0) for later in names[i:])]
        prefix = f"{name}/" if suite == "all" else ""
        SUITE_PARTS[name](lambda check_id, thunk, p=prefix: result.check(p + check_id, thunk),
                          n, seed, corpus[:n + 2 + SUBALGEBRAS.get(name, 0)])
    return result
