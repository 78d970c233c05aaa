"""Command-line front end; the library makes every decision.

Subcommands: run, analyze pts, analyze live, optimize, check-cert,
test-soundness. analyze and optimize read one deadcode.optimize
derivation (analyze pts with an empty exit live set), whose ValueError
is the only check of --live; each result goes to stdout once (a report
by certificate.to_json), and only optimize --cert writes a file.
check-cert takes no --widen: it reruns the analyses at the cap the
certificate states. Exit codes: 0 success/Accept, 1 parse error,
runtime abort or unwritable certificate, 2 Reject, 3 usage error.
All output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import re
import sys

from .certificate import (
    FormatError, deserialize, live_to_list, pts_to_doc, serialize, to_json,
)
from .deadcode import optimize
from .interp import DEFAULT_FUEL, Aborted, OutOfFuel, execute, zero_state
from .lang import ParseError, literal_value, parse, pretty, stmt_vars, walk_paths
from .memory import format_value
from .pointsto import DEFAULT_CAP, MAX_INSTANCE_CAP
from .harness import ALL_CHECKS, SUITE_FUEL, GenConfig, run_soundness_suite


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    """An ASCII decimal integer, optionally negative; int() alone would
    also take other scripts' digits, underscores and blanks."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


def _widen(text: str) -> int:
    """--widen K: the instance cap, at most MAX_INSTANCE_CAP."""
    cap = _positive(text)
    if cap > MAX_INSTANCE_CAP:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_INSTANCE_CAP}: {text}")
    return cap


def _build_parser() -> _Parser:
    parser = _Parser(prog="whilep",
                     description="Interpreter, pointer and liveness analyses, "
                                 "and certified dead-code elimination for a "
                                 "heap-manipulating while-language.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    widen = argparse.ArgumentParser(add_help=False)
    widen.add_argument("--widen", type=_widen, metavar="K", default=DEFAULT_CAP,
                       help=f"instance cap of the analyses, at most {MAX_INSTANCE_CAP}; "
                            f"types grow with its square (default: {DEFAULT_CAP})")

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("file")
    p_run.add_argument("--fuel", type=_positive, default=DEFAULT_FUEL)
    p_run.add_argument("--init", default="",
                       help="comma-separated integer bindings, e.g. x=3,y=0")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="print per-node analysis results")
    an_sub = p_an.add_subparsers(dest="analysis", required=True, metavar="KIND")

    p_pts = an_sub.add_parser("pts", parents=[widen], help="points-to annotations")
    p_pts.add_argument("file")
    p_pts.set_defaults(func=_cmd_analyze, live="")

    p_live = an_sub.add_parser("live", parents=[widen], help="live-set annotations")
    p_live.add_argument("file")
    p_live.add_argument("--live", default="",
                        help="comma-separated variables live at exit")
    p_live.set_defaults(func=_cmd_analyze)

    p_opt = sub.add_parser("optimize", parents=[widen],
                           help="dead-code-eliminate a program")
    p_opt.add_argument("file")
    p_opt.add_argument("--live", default="",
                       help="comma-separated variables live at exit")
    p_opt.add_argument("--cert", help="write the derivation certificate here")
    p_opt.set_defaults(func=_cmd_optimize)

    p_chk = sub.add_parser("check-cert", help="validate a certificate at the "
                                              "instance cap it states")
    p_chk.add_argument("file", help="program the certificate must describe")
    p_chk.add_argument("cert")
    p_chk.set_defaults(func=_cmd_check_cert)

    p_test = sub.add_parser("test-soundness", parents=[widen],
                            help="run differential suites")
    p_test.add_argument("--trials", type=_positive, default=1000)
    p_test.add_argument("--seed", type=_integer, default=0)
    p_test.add_argument("--fuel", type=_positive, default=SUITE_FUEL)
    p_test.add_argument("--checks", default=",".join(ALL_CHECKS),
                        help=f"comma-separated subset of {','.join(ALL_CHECKS)}")
    p_test.set_defaults(func=_cmd_test_soundness)

    return parser


def _read_text(path: str) -> str:
    """The text of a file; OSError if unreadable, ValueError if not UTF-8.
    Line ends are kept as they are, so that only LF ends a line, as in
    parse."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from None


def _load_program(path: str):
    try:
        text = _read_text(path)
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"whilep: cannot read {path}: {reason}", file=sys.stderr)
        return None
    try:
        return parse(text)
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return None


_INIT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(-?[0-9]+)$")


def _cmd_run(args) -> int:
    program = _load_program(args.file)
    if program is None:
        return 1
    state = zero_state(stmt_vars(program))
    if args.init:
        bound = set()
        for item in args.init.split(","):
            match = _INIT_RE.match(item.strip())
            try:
                value = literal_value(match.group(2)) if match else None
            except ValueError:  # more digits than a literal has
                value = None
            if value is None:
                print(f"whilep: bad --init binding: {item.strip()!r}"
                      " (expected name=int)", file=sys.stderr)
                return 3
            name = match.group(1)
            if name not in state.stack:
                print(f"whilep: --init names unknown variable: {name}",
                      file=sys.stderr)
                return 3
            if name in bound:
                print(f"whilep: --init binds {name} twice", file=sys.stderr)
                return 3
            bound.add(name)
            state.stack[name] = value
    outcome = execute(program, state, args.fuel)
    if isinstance(outcome, Aborted):
        print("abort")
        return 1
    if isinstance(outcome, OutOfFuel):
        print("out of fuel")
        return 1
    final = outcome.state
    for name in sorted(final.stack):
        print(f"{name} = {format_value(final.stack[name])}")
    for addr in sorted(final.heap):
        print(f"{addr!r} = {format_value(final.heap[addr])}")
    return 0


def _write(path: str, text: str) -> bool:
    """Write text to path; False, having said why, if it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"whilep: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _optimize(args):
    """The optimize result of args.file with exit live set args.live, or
    the exit code if the file does not load or --live names a variable
    the program does not mention."""
    program = _load_program(args.file)
    if program is None:
        return 1
    try:
        return optimize(program, {x.strip() for x in args.live.split(",") if x.strip()},
                        args.widen)
    except ValueError as exc:
        print(f"whilep: --live names {exc}", file=sys.stderr)
        return 3


def _cmd_analyze(args) -> int:
    """One row per derivation node: its types for pts (a loop's post is
    its invariant), its live sets for live. Each distinct type is
    converted once; the derivation keeps every type alive, so their ids
    stay distinct during the walk."""
    result = _optimize(args)
    if isinstance(result, int):
        return result
    docs = {}

    def doc(p):
        if id(p) not in docs:
            docs[id(p)] = pts_to_doc(p)
        return docs[id(p)]

    derivation = result.derivation
    report = {"instance_cap": args.widen, "nodes": []}
    if args.analysis == "live":
        report["live"] = live_to_list(derivation.judgment.post.live)
    for path, node in walk_paths(derivation, lambda d: (d.judgment.stmt, d.premises)):
        j = node.judgment
        row = {"path": path, "stmt": pretty(j.stmt)}
        if args.analysis == "pts":
            row["pre"], row["post"] = doc(j.pre.pts), doc(j.post.pts)
        else:
            row["live_pre"] = live_to_list(j.pre.live)
            row["live_post"] = live_to_list(j.post.live)
        report["nodes"].append(row)
    sys.stdout.write(to_json(report))
    return 0


def _cmd_optimize(args) -> int:
    result = _optimize(args)
    if isinstance(result, int):
        return result
    print(pretty(result.optimized))
    if args.cert and not _write(args.cert, serialize(result.derivation, args.widen)):
        return 1
    return 0


def _cmd_check_cert(args) -> int:
    program = _load_program(args.file)
    if program is None:
        return 1
    try:
        text = _read_text(args.cert)
    except OSError as exc:
        print(f"whilep: cannot read {args.cert}: {exc.strerror}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"Reject: root: {exc}")
        return 2
    try:
        derivation = deserialize(text)
    except FormatError as exc:
        print(f"Reject: {exc.path}: {exc.message}")
        return 2
    # deserialize takes this very tree when the texts match; otherwise
    # equal texts mean equal trees, and pretty loops where == recurses
    stmt = derivation.judgment.stmt
    if stmt is not program and pretty(stmt) != pretty(program):
        print("Reject: root: certificate does not describe this program")
        return 2
    print("Accept")
    return 0


def _cmd_test_soundness(args) -> int:
    names = tuple(x.strip() for x in args.checks.split(",") if x.strip())
    try:
        report = run_soundness_suite(args.trials, GenConfig(seed=args.seed),
                                     checks=names, cap=args.widen, fuel=args.fuel)
    except ValueError as exc:
        print(f"whilep: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(to_json(report))
    failures = sum(entry["fail"] for entry in report["checks"].values())
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
