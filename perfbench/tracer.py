"""Outside-in span tracer for the bilatdual package.

Wraps public functions of the package's modules without touching any source
file. Every module that binds a traced function (the defining module and every
module that re-imported the name) gets the same wrapper, so calls through a
re-bound name are counted too. Spans stay in memory with their parent's id;
`summary()` turns them into per-function self time, call counts and the counts
taken from return values.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, counts taken at that boundary). The counts are computed
# from the return value, except `candidates` (is_homomorphism calls made
# inside an enumerate_homs span) and `guard_trips` (GuardExceeded raised).
TARGETS = (
    ("algebra", "enumerate_homs", ("homs", "candidates")),
    ("algebra", "is_homomorphism", ()),
    ("algebra", "enumerate_subuniverses", ("members",)),
    ("algebra", "generated_subalgebra_in_product", ("elements",)),
    ("algebra", "product", ()),
    ("algebra", "free_algebra", ()),
    ("algebra", "mk_algebras", ()),
    ("posets", "enumerate_downsets", ("downsets",)),
    ("posets", "count_downsets", ()),
    ("posets", "are_isomorphic", ()),
    ("distlat", "priestley_dual_of_lattice", ()),
    ("multisorted", "enumerate_multimorphisms", ("morphisms", "guard_trips")),
    ("multisorted", "membership_by_separation", ()),
    ("multisorted", "check_axioms", ()),
    ("multisorted", "natural_dual", ()),
    ("multisorted", "hom_algebra_E", ()),
    ("multisorted", "verify_unit_iso", ()),
    ("multisorted", "build_alter_ego", ()),
    ("ranked", "functor_F", ()),
    ("ranked", "functor_G", ()),
    ("ranked", "check_axioms_B", ()),
    ("bridge", "partitioned_downset_count", ()),
    ("bridge", "verify_translation", ()),
    ("bridge", "construct_P", ()),
    ("piggyback", "piggyback_relations", ()),
    ("piggyback", "build_carrier_space", ()),
    ("piggyback", "verify_piggyback_iso", ()),
    ("piggyback", "table3_report", ()),
    ("piggyback", "check_sep", ()),
    ("corpus", "corpus_algebras", ()),
    ("corpus", "structure_corpus", ()),
    ("corpus", "sample_morphisms", ()),
    ("verify", "run_suite", ()),
    ("cli", "main", ()),
)

MODULES = tuple(dict.fromkeys(module for module, _, _ in TARGETS))

_RESULT_COUNTS = {
    "homs": len,
    "members": lambda fam: len(fam.members),
    "elements": lambda sub: sub.algebra.size,
    "downsets": len,
    "morphisms": len,
}

_HOMS = "algebra.enumerate_homs"
_CANDIDATE = "algebra.is_homomorphism"


class Tracer:
    """Records one span per traced call: [name, parent index, start, end, counts]."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self._open_homs: list[int] = []

    def wrap(self, name: str, fn, counts=()):
        result_counts = [(c, _RESULT_COUNTS[c]) for c in counts if c in _RESULT_COUNTS]
        tracks_homs = name == _HOMS
        is_candidate = name == _CANDIDATE
        counts_guards = "guard_trips" in counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, tracer._open[-1] if tracer._open else -1, 0, 0, {}]
            sid = len(tracer.spans)
            tracer.spans.append(span)
            tracer._open.append(sid)
            if is_candidate and tracer._open_homs:
                homs_counts = tracer.spans[tracer._open_homs[-1]][4]
                homs_counts["candidates"] = homs_counts.get("candidates", 0) + 1
            if tracks_homs:
                tracer._open_homs.append(sid)
            span[2] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if counts_guards and type(err).__name__ == "GuardExceeded":
                    span[4]["guard_trips"] = 1
                raise
            finally:
                span[3] = tracer.clock()
                tracer._open.pop()
                if tracks_homs:
                    tracer._open_homs.pop()
            for count, measure in result_counts:
                span[4][count] = span[4].get(count, 0) + measure(result)
            return result

        for attr in ("cache_clear", "cache_info"):   # lru_cache targets keep their API
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        traced.__perfbench_traced__ = True
        return traced

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, self_ns (duration minus direct children) and counts."""
        child_ns = [0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict[str, int]] = {}
        for (name, _, t0, t1, counts), inner in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += (t1 - t0) - inner
            for key, value in counts.items():
                row[key] = row.get(key, 0) + value
        return out


def install(tracer: Tracer, package: str = "bilatdual") -> list[tuple]:
    """Wrap every TARGETS function in every package module that binds it.

    Returns (module, attribute, original) triples for `uninstall`.
    """
    for module_name in MODULES:
        importlib.import_module(f"{package}.{module_name}")
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    patched = []
    for module_name, func_name, counts in TARGETS:
        home = sys.modules[f"{package}.{module_name}"]
        original = getattr(home, func_name)
        traced = tracer.wrap(f"{module_name}.{func_name}", original, counts)
        for module in modules:
            if getattr(module, func_name, None) is original:
                setattr(module, func_name, traced)
                patched.append((module, func_name, original))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, func_name, original in reversed(patched):
        setattr(module, func_name, original)
