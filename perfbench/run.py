"""Benchmark of the bilatdual CLI: whole invocations end to end, and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the package is imported from ./src. Each
workload is a list of CLI invocations. Each invocation runs in a fresh
interpreter, one after another, because the package's module-level caches
start cold for every real CLI user. Passes over the list repeat until the next
one would end after --seconds; every output is checked (see checks.py).

With --trace 0 the last line reports the end-to-end metrics, with --trace 1
the per-layer metrics of one extra traced pass (see tracer.py). Earlier lines
give the run environment and each metric with its median, spread and sample
count. The last line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import DEFAULT_SEED, F1_SHA256, check_output  # noqa: E402
from tracer import MODULES, TARGETS  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join("perfbench", "_work")
F1_PATH = os.path.join(WORK, "F1.json")

SETUP_PROBES = 10           # import-only spawns per run, on top of the real invocations
RUN_LIMIT_S = 170           # no invocation starts or runs past this, from the start of a run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _invocations(workload: str) -> list[list[str]]:
    """Why each workload is here is recorded in BENCHMARK.json and README.md.

    The verify corpora stay at the CLI's default seed, whatever --seed says:
    their cost depends on the seed far more than on host noise (13 to 39 s for
    `verify --suite all --n 4` at seeds 1 to 5 on 2 vCPUs), so a seed-driven
    corpus would measure the seed.
    """
    if workload == "verify":
        return [["verify", "--suite", "all", "--n", "2", "--seed", str(DEFAULT_SEED)],
                ["verify", "--suite", "axioms", "--n", "4", "--seed", str(DEFAULT_SEED)]]
    if workload == "count-build":
        return ([["free-size", "--method", "all", "--n", str(n)] for n in (1, 2)]
                + [["free-size", "--method", "downsets", "--n", str(n)] for n in range(3, 8)]
                + [["build", kind, "--n", "1", "--in", F1_PATH]
                   for kind in ("dual", "carrier-space")])
    raise KeyError(workload)


WORKLOADS = ("verify", "count-build")
INVOCATION_LIMIT_S = 60     # about six times the slowest invocation on 2 vCPUs

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    def unit(name: str) -> str:
        return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
    return [(name, unit(name)) for name in layer_metrics([], 0.0)]


class Runner:
    """Spawns invocations in fresh interpreters and keeps every record."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)
        self.setup_samples: list[float] = []

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, argv: list[str], trace: bool = False) -> dict:
        """Run one invocation; the record holds its timings, report and failure reason."""
        limit = min(INVOCATION_LIMIT_S, self.time_left())
        record = {"argv": argv, "failure": None, "main_s": None, "report": {}}
        if limit <= 0:
            record["failure"] = "no time left in the run"
            return record
        cmd = [sys.executable, CHILD, self.src, "1" if trace else "0", *argv]
        spawned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            record["failure"] = f"timed out after {limit:.0f} s"
            record["main_s"] = time.perf_counter() - t0
            return record
        try:
            report = json.loads(proc.stderr.rstrip().rsplit("\n", 1)[-1])
        except (json.JSONDecodeError, IndexError):
            report = {}
        if "imported_ns" not in report:
            record["failure"] = f"no report (exit {proc.returncode}): {proc.stderr[-300:]}"
            record["main_s"] = time.perf_counter() - t0
            return record
        record["report"] = report
        self.setup_samples.append((report["imported_ns"] - spawned_ns) / 1e9)
        if argv:
            record["main_s"] = report["main_s"]
            record["failure"] = check_output(argv, proc.returncode, proc.stdout)
        return record

    def run_pass(self, invocations: list[list[str]], trace: bool = False) -> list[dict]:
        return [self.spawn(argv, trace) for argv in invocations]


def prepare_f1(runner: Runner) -> None:
    """Untimed: write the interchange form of F_V1(1) and check it against its digest."""
    os.makedirs(os.path.join(runner.root, WORK), exist_ok=True)
    code = ("import sys; sys.path.insert(0, sys.argv[1]);"
            "from bilatdual.algebra import free_algebra;"
            "open(sys.argv[2], 'w').write(free_algebra(1).algebra.to_json())")
    subprocess.run([sys.executable, "-c", code, runner.src, F1_PATH], cwd=runner.root,
                   env=runner.env, check=True, timeout=120)
    with open(os.path.join(runner.root, F1_PATH), "rb") as fh:
        got = hashlib.sha256(fh.read()).hexdigest()
    if got != F1_SHA256:
        raise SystemExit(f"error: {F1_PATH} has sha256 {got}, expected {F1_SHA256}; "
                         "free_algebra(1) changed its element order or format")


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": os.getloadavg(), "blas_env": {v: os.environ.get(v) for v in BLAS_VARS}}


def spread(values: list[float]) -> dict:
    """Median, highest percentile with at least ten samples beyond it (else max), count."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    else:
        out["max"] = max(values)
    return out


def timed_passes(runner: Runner, invocations: list[list[str]], seconds: int) -> list[list[dict]]:
    """Repeat passes while the next one, as long as the last, still ends within `seconds`."""
    passes = []
    t0 = time.monotonic()
    while True:
        started = time.monotonic()
        passes.append(runner.run_pass(invocations))
        last = time.monotonic() - started
        if time.monotonic() - t0 + last > seconds or runner.time_left() < 2 * last:
            return passes


def pass_wall(records: list[dict]) -> float:
    return sum(r["main_s"] or 0.0 for r in records)


def layer_metrics(traced: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer values summed over the traced invocations, in report order."""
    totals: dict[str, dict[str, int]] = {}
    for record in traced:
        for name, row in record["report"].get("trace", {}).items():
            acc = totals.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value
    values: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for module, func, counts in TARGETS:
        row = totals.get(f"{module}.{func}", {})
        self_s = row.get("self_ns", 0) / 1e9
        module_self[module] += self_s
        values[f"{module}.{func}.self_s"] = self_s
        values[f"{module}.{func}.calls"] = row.get("calls", 0)
        for count in counts:
            values[f"{module}.{func}.{count}"] = row.get(count, 0)
        if func == "enumerate_homs":
            candidates = row.get("candidates", 0)
            values[f"{module}.{func}.accept_ratio"] = (
                row.get("homs", 0) / candidates if candidates else 0.0)
    for module, self_s in module_self.items():
        values[f"{module}.self_s"] = self_s
    values["trace.overhead_s"] = overhead_s
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; no workload depends on it (see _invocations)")
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bilatdual", "cli.py")):
        print("error: run from the root of a bilatdual checkout (no src/bilatdual/cli.py)",
              file=sys.stderr)
        return 2
    runner = Runner(root)
    print("env " + json.dumps(environment()), flush=True)
    if args.workload == "count-build":
        prepare_f1(runner)
    invocations = _invocations(args.workload)

    for _ in range(SETUP_PROBES):
        probe = runner.spawn([])
        if probe["failure"]:
            print(f"error: set-up probe failed: {probe['failure']}", file=sys.stderr)
            return 1
    passes = timed_passes(runner, invocations, args.seconds)
    records = [r for p in passes for r in p]
    walls = [pass_wall(p) for p in passes]
    traced = runner.run_pass(invocations, trace=True) if args.trace else []
    records += traced

    failures = [r for r in records if r["failure"]]
    for r in failures:
        print(f"FAILED {' '.join(r['argv'])}: {r['failure']}")
    setup = [s * len(invocations) for s in runner.setup_samples]
    rss = [r["report"]["maxrss_kb"] / 1024 for p in passes for r in p if r["report"]]
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss or [0.0]}
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"fail_ratio={len(failures) / len(records):.4f} ({len(failures)}/{len(records)})")
    for name, unit in END_TO_END:
        print(f"  {name} [{unit}] " + json.dumps(spread(samples[name])))

    if args.trace:
        overhead = pass_wall(traced) - statistics.median(walls)
        values = layer_metrics(traced, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_metrics()}
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": max(samples["peak_rss_mb"])}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
