"""One benchmark invocation in a fresh interpreter.

    python3 perfbench/child.py SRC_DIR TRACE [CLI ARGS...]

Imports `bilatdual.cli` from SRC_DIR, runs `cli.main(CLI ARGS)` and exits
with its return code. The last line on stderr is a report in JSON: the
CLOCK_MONOTONIC time at which the import finished, the seconds spent inside
`cli.main`, the peak RSS and, with TRACE=1, the per-function trace summary.
With no CLI ARGS it only imports, which samples set-up time.
"""

import json
import resource
import sys
import time


def run(src: str, trace: bool, argv: list[str]) -> int:
    sys.path.insert(0, src)
    import bilatdual.cli
    imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    report = {"imported_ns": imported_ns}
    code = 0
    if argv:
        tracer = None
        if trace:
            from tracer import Tracer, install   # this script's directory is on sys.path
            tracer = Tracer()
            install(tracer)
        t0 = time.perf_counter()
        try:
            code = bilatdual.cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 2
        report["main_s"] = time.perf_counter() - t0
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.summary()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("\n" + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
