"""Command-line front end.

Subcommands: run, analyze pts, analyze live, optimize, check-cert,
test-soundness. Exit codes: 0 success/Accept, 1 parse error or runtime
abort, 2 certificate Reject, 3 usage error. All output is deterministic
for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .certificate import (
    FormatError, deserialize, live_to_list, pts_to_doc, serialize,
)
from .deadcode import annotate_from_bottom, optimize, strip_dead_cons
from .interp import DEFAULT_FUEL, Aborted, OutOfFuel, execute, zero_state
from .lang import ParseError, While, parse, pretty, stmt_vars, walk_paths
from .memory import format_value
from .pointsto import MAX_INSTANCE_CAP, WidenConfig
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


def _widen(text: str) -> WidenConfig:
    """--widen K: the instance cap, at most MAX_INSTANCE_CAP."""
    cap = _positive(text)
    if cap > MAX_INSTANCE_CAP:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_INSTANCE_CAP}: {text}")
    return WidenConfig(cap)


def _build_parser() -> _Parser:
    parser = _Parser(prog="whilep",
                     description="Interpreter, pointer and liveness analyses, "
                                 "and certified dead-code elimination for a "
                                 "heap-manipulating while-language.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    widen = argparse.ArgumentParser(add_help=False)
    widen.add_argument("--widen", type=_widen, metavar="K", default=WidenConfig(),
                       help=f"instance cap of the analyses, at most {MAX_INSTANCE_CAP}; "
                            f"types grow with its square (default: "
                            f"{WidenConfig().instance_cap})")

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
    p_pts.add_argument("--out", help="write the JSON report to this path")
    p_pts.set_defaults(func=_cmd_analyze_pts)

    p_live = an_sub.add_parser("live", parents=[widen], help="live-set annotations")
    p_live.add_argument("file")
    p_live.add_argument("--live", default="",
                        help="comma-separated variables live at exit")
    p_live.add_argument("--out", help="write the JSON report to this path")
    p_live.set_defaults(func=_cmd_analyze_live)

    p_opt = sub.add_parser("optimize", parents=[widen],
                           help="dead-code-eliminate a program")
    p_opt.add_argument("file")
    p_opt.add_argument("--live", default="",
                       help="comma-separated variables live at exit")
    p_opt.add_argument("--emit", help="write the residual program to this path")
    p_opt.add_argument("--cert", help="write the derivation certificate here")
    p_opt.add_argument("--strip-dead-cons", action="store_true",
                       help="also drop allocations whose variable and cells "
                            "are all dead (the emitted certificate covers "
                            "the unstripped residual)")
    p_opt.set_defaults(func=_cmd_optimize)

    p_chk = sub.add_parser("check-cert", parents=[widen],
                           help="validate a certificate")
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
        for item in args.init.split(","):
            match = _INIT_RE.match(item.strip())
            if not match:
                print(f"whilep: bad --init binding: {item.strip()!r}"
                      " (expected name=int)", file=sys.stderr)
                return 3
            name, value = match.group(1), int(match.group(2))
            if name not in state.stack:
                print(f"whilep: --init names unknown variable: {name}",
                      file=sys.stderr)
                return 3
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


def _emit_report(doc, out_path) -> int:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"whilep: cannot write {out_path}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def _cmd_analyze_pts(args) -> int:
    program = _load_program(args.file)
    if program is None:
        return 1
    ann = annotate_from_bottom(program, args.widen)
    nodes = []
    for path, node in walk_paths(ann, lambda a: (a.stmt, a.children)):
        row = {"path": path,
               "stmt": pretty(node.stmt),
               "pre": pts_to_doc(node.pre),
               "post": pts_to_doc(node.post)}
        if isinstance(node.stmt, While):
            row["invariant"] = row["post"]
        nodes.append(row)
    return _emit_report({"widen": args.widen.instance_cap, "nodes": nodes}, args.out)


def _parse_live(arg: str, program) -> frozenset | None:
    names = [x.strip() for x in arg.split(",") if x.strip()] if arg else []
    known = stmt_vars(program)
    for name in names:
        if name not in known:
            print(f"whilep: --live names unknown variable: {name}",
                  file=sys.stderr)
            return None
    return frozenset(names)


def _cmd_analyze_live(args) -> int:
    program = _load_program(args.file)
    if program is None:
        return 1
    final_live = _parse_live(args.live, program)
    if final_live is None:
        return 3
    derivation = optimize(program, final_live, args.widen).derivation
    nodes = [{"path": path,
              "stmt": pretty(node.judgment.stmt),
              "live_pre": live_to_list(node.judgment.pre.live),
              "live_post": live_to_list(node.judgment.post.live)}
             for path, node in walk_paths(derivation,
                                          lambda d: (d.judgment.stmt, d.premises))]
    return _emit_report({"widen": args.widen.instance_cap,
                         "live": live_to_list(final_live),
                         "nodes": nodes}, args.out)


def _cmd_optimize(args) -> int:
    program = _load_program(args.file)
    if program is None:
        return 1
    final_live = _parse_live(args.live, program)
    if final_live is None:
        return 3
    result = optimize(program, final_live, args.widen)
    residual = result.optimized
    if args.strip_dead_cons:
        residual = strip_dead_cons(result.derivation)
        if args.cert:
            print("whilep: warning: the certificate covers the residual "
                  "before --strip-dead-cons", file=sys.stderr)
    text = pretty(residual)
    print(text)
    try:
        if args.emit:
            with open(args.emit, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        if args.cert:
            with open(args.cert, "w", encoding="utf-8") as handle:
                handle.write(serialize(result.derivation))
    except OSError as exc:
        print(f"whilep: cannot write output: {exc.strerror}", file=sys.stderr)
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
        derivation = deserialize(text, args.widen)
    except FormatError as exc:
        print(f"Reject: {exc.path}: {exc.message}")
        return 2
    if derivation.judgment.stmt != program:
        print("Reject: root: certificate does not describe this program")
        return 2
    print("Accept")
    return 0


def _cmd_test_soundness(args) -> int:
    names = tuple(x.strip() for x in args.checks.split(",") if x.strip())
    for name in names:
        if name not in ALL_CHECKS:
            print(f"whilep: unknown check: {name}", file=sys.stderr)
            return 3
    if not names:
        print("whilep: --checks selected nothing", file=sys.stderr)
        return 3
    report = run_soundness_suite(args.trials, GenConfig(seed=args.seed),
                                 checks=names, widen=args.widen, fuel=args.fuel)
    print(json.dumps(report, indent=2, sort_keys=True))
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
    sys.exit(main())
