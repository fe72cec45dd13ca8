"""Tests of the benchmark itself: tracer arithmetic, coverage, checks, metric list."""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer, install, uninstall  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", lambda: leaf())
    top = tracer.wrap("m.top", lambda: (mid(), leaf()))
    top()
    # clock reads: top 0, mid 10, leaf 20..30, mid ends 40, leaf 50..60, top ends 70
    summary = tracer.summary()
    assert summary["m.leaf"] == {"calls": 2, "self_ns": 20}
    assert summary["m.mid"] == {"calls": 1, "self_ns": 30 - 10}
    assert summary["m.top"] == {"calls": 1, "self_ns": 70 - 30 - 10}


def test_rebound_names_are_the_wrapped_ones():
    import bilatdual.algebra as algebra
    import bilatdual.cli  # noqa: F401
    import bilatdual.multisorted as multisorted
    originals = {(m, f): getattr(sys.modules[f"bilatdual.{m}"], f) for m, f, _ in TARGETS}
    tracer = Tracer()
    patched = install(tracer)
    try:
        assert multisorted.enumerate_homs is algebra.enumerate_homs
        assert getattr(multisorted.enumerate_homs, "__perfbench_traced__", False)
        assert multisorted.is_homomorphism is algebra.is_homomorphism
        for key, module in sys.modules.items():
            if key.startswith("bilatdual"):
                for name, original in originals.items():
                    assert getattr(module, name[1], None) is not original, (key, name)
        assert algebra.mk_algebras.cache_info().currsize >= 0
        dual = multisorted.natural_dual(algebra.build_jn(1), 1)
    finally:
        uninstall(patched)
    assert algebra.enumerate_homs is originals[("algebra", "enumerate_homs")]
    homs = tracer.summary()["algebra.enumerate_homs"]
    assert homs["homs"] == sum(len(h) for h in dual.homs)
    assert homs["candidates"] >= homs["homs"] > 0


def test_counts_repeat_exactly():
    from bilatdual import cli

    def traced_counts():
        tracer = Tracer()
        patched = install(tracer)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["free-size", "--method", "downsets", "--n", "2"]) == 0
        finally:
            uninstall(patched)
        return {name: {k: v for k, v in row.items() if k != "self_ns"}
                for name, row in tracer.summary().items()}

    first = traced_counts()
    assert first["posets.enumerate_downsets"]["downsets"] == checks.closed_form(2)[2]
    assert traced_counts() == first


def test_checker_rejects_a_doctored_free_size():
    argv = ["free-size", "--method", "all", "--n", "2"]
    good = "n=2  f=710  g=724  total=1434  counted=710/724/1434  generated=1434  agree\n"
    assert checks.check_output(argv, 0, good) is None
    doctored = good.replace("generated=1434", "generated=1433")
    assert "generated=1433" in checks._check_free_size(argv, doctored)
    assert checks.check_output(argv, 0, doctored) is not None
    assert checks.check_output(argv, 1, good) is not None


def test_closed_form_matches_the_paper():
    assert checks.closed_form(1) == (147, 119, 266)
    assert checks.closed_form(2)[2] == 1434


def test_verify_checker_needs_an_overall_pass():
    argv = ["verify", "--suite", "all", "--n", "3", "--seed", "5"]
    good = "suite all (n=3, seed=5)\n  PASS  duality/unit-iso:M0\noverall: pass\n"
    assert checks.check_output(argv, 0, good) is None
    bad = good.replace("PASS", "FAIL").replace("overall: pass", "overall: fail")
    assert checks.check_output(argv, 1, bad, expected_code=1) is not None


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_metrics()
