"""Command-line front end: build objects, reproduce counts, run verification suites."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import (BUILD_GUARD, DEFAULT_CLOSURE_GUARD, FiniteAlgebra, GuardExceeded, build_jn,
                      build_mk, free_algebra_rows)
from .bridge import free_size_formula, partitioned_downset_count
from .multisorted import MultiSortedStructure, build_alter_ego, natural_dual
from .piggyback import build_carrier_space
from .ranked import construct_P, functor_F
from .verify import DEFAULT_SEED, SUITES, run_suite

BUILD_KINDS = ("jn", "mk", "alter-ego", "dual", "priestley", "carrier-space")


def _build_refusal(kind: str, n: int) -> str | None:
    """Why `build KIND --n N` may not make its object from n alone, or None if it may.

    The object is J_n for jn, dual and carrier-space, and the alter ego for alter-ego and
    priestley; it is refused when it holds more than BUILD_GUARD numbers.
    """
    if kind == "mk":
        what, numbers = "M_k", 4 * 6 * 6 + 2 * n + 4
    elif kind in ("alter-ego", "priestley"):
        pairs = 9 + 8 * n + 8 * (n * (n - 1) // 2)
        what, numbers = "the alter ego", 2 * pairs + 6 * n
    else:
        m = 2 * n + 4
        what, numbers = "J_n", 4 * m * m
    if numbers <= BUILD_GUARD:
        return None
    return f"{what} at n={n} holds about {numbers} numbers (build guard {BUILD_GUARD})"


def _emit(text: str, out: str | None) -> int:
    """Write text to the --out file, or to stdout; 0, or 2 if the file cannot be written."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as err:
        return _fail_usage(f"cannot write --out {out}: {err.strerror or err}")
    return 0


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_build(args) -> int:
    n = args.n
    if n is None:
        return _fail_usage("build requires --n")
    dot = None
    source = None
    if args.infile and args.kind not in ("dual", "priestley", "carrier-space"):
        return _fail_usage(f"build {args.kind} takes no --in document")
    if args.k is not None and args.kind != "mk":
        return _fail_usage(f"build {args.kind} takes no --k")
    if args.dot and args.kind in ("jn", "mk"):
        return _fail_usage(f"build {args.kind} takes no --dot")
    if args.infile:
        decoder = MultiSortedStructure if args.kind == "priestley" else FiniteAlgebra
        try:
            source = decoder.from_json(Path(args.infile).read_text(encoding="utf-8"))
        except (OSError, AttributeError, TypeError, KeyError, ValueError, RecursionError) as err:
            return _fail_usage(f"bad --in document: {err}")
        depth = source.n if args.kind == "priestley" else source.signature.n
        if depth != n:
            return _fail_usage(f"--in document has depth n={depth} but --n is {n}")
    if source is None and (refusal := _build_refusal(args.kind, n)):
        return _fail_usage(refusal)
    try:
        if args.kind == "jn":
            doc = build_jn(n).to_dict()
        elif args.kind == "mk":
            if args.k is None:
                return _fail_usage("build mk requires --k")
            doc = build_mk(n, args.k).to_dict()
        elif args.kind == "alter-ego":
            ego = build_alter_ego(n)
            doc = ego.to_dict()
            if args.dot:
                dot = functor_F(ego).to_dot("alter_ego")
        elif args.kind == "priestley":
            space = construct_P(source or build_alter_ego(n))
            doc = space.poset.to_dict()
            if args.dot:
                dot = space.poset.to_dot("priestley")
        else:   # dual or carrier-space: D(A), whose homs must separate A before it is used
            dual = natural_dual(source or build_jn(n))
            _check_separated(source, dual.homs)
            if args.kind == "dual":
                doc = dual.structure.to_dict()
                if args.dot:
                    dot = functor_F(dual.structure).to_dot("dual")
            else:
                space = build_carrier_space(dual).poset
                doc = space.to_dict()
                if args.dot:
                    dot = space.to_dot("carrier_space")
    except (ValueError, KeyError, GuardExceeded) as err:
        return _fail_usage(str(err))
    code = _emit(_dump(doc), args.out)
    if dot is not None and not code:
        code = _emit(dot if args.out else "\n" + dot, args.out and args.out + ".dot")
        if code:   # a usage error leaves no output behind
            Path(args.out).unlink()
    return code


def _check_separated(A: FiniteAlgebra | None, homs) -> None:
    """Raise unless the homs separate A's points, i.e. A is in ISP(M_k); None stands for J_n."""
    first: dict = {}
    for a, row in enumerate(zip(*(h for hs in homs for h in hs)) if A else ()):
        if (b := first.setdefault(row, a)) != a:
            raise ValueError(f"no homomorphism into any M_k separates {A.elements[b]} and "
                             f"{A.elements[a]}, so the algebra lies outside the class")


def cmd_free_size(args) -> int:
    n = args.n
    if n is None or n < 1:
        return _fail_usage("free-size requires --n >= 1")
    if args.guard_limit < 1:
        return _fail_usage("free-size requires --guard-limit >= 1")
    method = args.method
    try:
        fs = free_size_formula(n)
    except AssertionError as err:
        print(f"error: free-size formula self-check failed: {err}", file=sys.stderr)
        return 1
    row: dict = {"n": n, "f_formula": fs.avoiding_top, "g_formula": fs.meeting_top,
                 "total_formula": fs.total}
    notices = []
    verdicts = []   # one per method that finished and was compared with the formula
    if method in ("downsets", "all"):
        try:
            pc = partitioned_downset_count(n)
            row["f_counted"] = pc.avoiding_top
            row["g_counted"] = pc.meeting_top
            row["total_counted"] = pc.avoiding_top + pc.meeting_top
            verdicts.append((pc.avoiding_top, pc.meeting_top) == (fs.avoiding_top, fs.meeting_top))
        except GuardExceeded as err:
            notices.append(f"downsets skipped: {err}")
    if method in ("generate", "all"):
        limit = min(args.guard_limit, DEFAULT_CLOSURE_GUARD)   # the largest tabled carrier
        if fs.total > limit:
            notices.append(f"generate skipped: formula size {fs.total} exceeds guard {limit}")
        else:
            try:
                row["brute_force_size"] = free_algebra_rows(n, max_elements=limit).shape[0]
                verdicts.append(row["brute_force_size"] == fs.total)
            except GuardExceeded as err:   # the closure outgrew the formula's total
                verdicts.append(False)
                notices.append(f"generate disagrees: {err}, but the formula gives {fs.total}")
    agree = all(verdicts) if verdicts else None   # None: nothing checked the formula
    row["agree"] = agree
    if notices:
        row["notices"] = notices
    if args.format == "structured":
        text = _dump(row)
    else:
        parts = [f"n={n}", f"f={row['f_formula']}", f"g={row['g_formula']}",
                 f"total={row['total_formula']}"]
        if "total_counted" in row:
            parts.append(f"counted={row['f_counted']}/{row['g_counted']}/{row['total_counted']}")
        if "brute_force_size" in row:
            parts.append(f"generated={row['brute_force_size']}")
        parts.append({True: "agree", False: "DISAGREE", None: "unchecked"}[agree])
        text = "  ".join(parts) + "\n"
        for notice in notices:
            text += f"note: {notice}\n"
    return _emit(text, args.out) or (1 if agree is False else 0)


def cmd_verify(args) -> int:
    if args.n is None or args.n < 1:
        return _fail_usage("verify requires --n >= 1")
    if refusal := _build_refusal("alter-ego", args.n):   # every suite reads the alter ego
        return _fail_usage(refusal)
    try:
        result = run_suite(args.suite, args.n, args.seed)
    except ValueError as err:
        return _fail_usage(str(err))
    if args.format == "structured":
        text = _dump(result.to_dict(timings=args.timings))
    else:
        text = result.format_text(timings=args.timings)
    return _emit(text, args.out) or (0 if result.overall == "pass" else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilatdual",
        description="Finite duality engine for prioritised default bilattices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct an object and emit its interchange form")
    p_build.add_argument("kind", choices=BUILD_KINDS)
    p_build.add_argument("--n", type=int, default=None)
    p_build.add_argument("--k", type=int, default=None)
    p_build.add_argument("--in", dest="infile", default=None,
                         help="input document for dual/priestley/carrier-space")
    p_build.add_argument("--dot", action="store_true", help="also emit a Hasse diagram")
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)

    p_free = sub.add_parser("free-size", help="one-generated free algebra size, three ways")
    p_free.add_argument("--n", type=int, default=None)
    p_free.add_argument("--method", choices=("formula", "downsets", "generate", "all"),
                        default="all")
    p_free.add_argument("--guard-limit", type=int, default=2000,
                        help="largest carrier the generate method may build "
                        f"(capped at {DEFAULT_CLOSURE_GUARD})")
    p_free.add_argument("--format", choices=("text", "structured"), default="text")
    p_free.add_argument("--out", default=None)
    p_free.set_defaults(func=cmd_free_size)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", choices=("text", "structured"), default="text")
    p_verify.add_argument("--timings", action="store_true",
                          help="include elapsed times (breaks byte-identical output)")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
