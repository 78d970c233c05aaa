"""End-to-end command-line behavior: output, files, and exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import mutants
import pytest

from whilep import (
    GenConfig, certificate, check, deserialize, gen_program, optimize,
    run_soundness_suite, serialize,
)
from whilep.certificate import pts_to_doc
from whilep.cli import _build_parser, main
from whilep.lang import parse, pretty, stmt_vars, walk_paths
from whilep.pointsto import MAX_INSTANCE_CAP, annotate, bottom

RUN_SRC = "x := cons(3, 4); y := [x + 1]; z := y * 2"

# a literal one digit over lang's fixed limit, Python's default one
LONG_DIGITS = "9" * 4301
LONG_MESSAGE = "integer literal has more than 4300 digits"


@pytest.fixture
def prog(tmp_path):
    def write(src, name="prog.whl"):
        path = tmp_path / name
        path.write_text(src + "\n", encoding="utf-8")
        return str(path)
    return write


def _package_env(**extra):
    """The environment of a subprocess that imports whilep from src."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]), **extra}


def test_run_prints_final_state(prog, capsys):
    assert main(["run", prog(RUN_SRC)]) == 0
    out = capsys.readouterr().out
    assert out == ("x = addr(2,1,1)\n"
                   "y = 4\n"
                   "z = 8\n"
                   "addr(2,1,1) = 3\n"
                   "addr(2,1,2) = 4\n")


def _whilep_under(limit, *args):
    """python -m whilep args, exit code, stdout and stderr, in a process
    whose digit limit on int() and str() is limit (PYTHONINTMAXSTRDIGITS),
    or Python's default for None."""
    env = _package_env()
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    done = subprocess.run([sys.executable, "-m", "whilep", *args],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_certificate_with_a_long_literal_reads_under_any_digit_limit(prog, tmp_path):
    """A 1,000-digit literal is within lang's fixed limit, so the
    certificate written under Python's default digit limit is accepted,
    and written again byte for byte, under the least limit (640) and
    under none (0)."""
    text = f"x := {'7' * 1000}; y := x + 1"
    path, cert = prog(text), tmp_path / "default.cert"
    optimize = ["optimize", path, "--live", "y", "--cert"]
    assert _whilep_under(None, *optimize, str(cert)) == (0, text + "\n", "")
    for limit in ("640", "0"):
        assert _whilep_under(limit, "check-cert", path, str(cert)) == (0, "Accept\n", "")
        again = tmp_path / f"{limit}.cert"
        assert _whilep_under(limit, *optimize, str(again)) == (0, text + "\n", "")
        assert again.read_bytes() == cert.read_bytes()


@pytest.mark.parametrize("limit", [None, "640", "0"])
def test_overlong_literal_is_one_parse_error_under_any_digit_limit(prog, limit):
    path = prog(f"x := 1;\ny := {LONG_DIGITS}")
    assert _whilep_under(limit, "run", path) == (1, "", f"{path}:2:6: {LONG_MESSAGE}\n")


def test_python_m_whilep_runs_the_command_line(prog, tmp_path):
    """python -m whilep is the command line: same output and exit code,
    and nothing on stderr. So is python -m whilep.cli, which runpy finds
    unloaded, so it warns of nothing."""
    env = _package_env()
    run = [sys.executable, "-m", "whilep", "run"]
    done = subprocess.run(run + [prog(RUN_SRC)], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("x = addr(2,1,1)\ny = 4\nz = 8\n"
                           "addr(2,1,1) = 3\naddr(2,1,2) = 4\n")
    done = subprocess.run(run + [prog("x := [0]")], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (1, "abort\n")
    cert = tmp_path / "bad.cert"
    cert.write_text("garbage\n", encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "whilep.cli", "check-cert",
                           prog("x := 1"), str(cert)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert done.stdout.startswith("Reject: root: not valid JSON: ")
    assert "RuntimeWarning" not in done.stderr


def test_run_flat_chains(prog, capsys):
    """A 3,000-term sum and a guard of 2,000 conjuncts run to the end."""
    assert main(["run", prog("x := " + " + ".join(["1"] * 3000))]) == 0
    assert capsys.readouterr().out == "x = 3000\n"
    guard = " and ".join(["0 < 1"] * 2000)
    assert main(["run", prog(f"if {guard} then {{ x := 1 }} else {{ x := 2 }}")]) == 0
    assert capsys.readouterr().out == "x = 1\n"


def test_optimize_cert_flat_chains(prog, tmp_path):
    """python -m whilep optimize --cert takes a 3,000-term sum and a guard
    of 2,000 conjuncts to a residual and a certificate, exit 0, and
    check-cert accepts that certificate."""
    env = _package_env()

    def whilep(*args):
        done = subprocess.run([sys.executable, "-m", "whilep", *args],
                              capture_output=True, text=True, env=env)
        return done.returncode, done.stdout, done.stderr

    guard = " and ".join(["0 < 1"] * 2000)
    for text in ("x := " + " + ".join(["1"] * 3000),
                 f"if {guard} then {{ x := 1 }} else {{ x := 2 }}"):
        path, cert = prog(text), tmp_path / "chain.cert"
        assert whilep("optimize", path, "--live", "x", "--cert", str(cert)) \
            == (0, text + "\n", "")
        doc = json.loads(cert.read_text(encoding="utf-8"))
        assert doc["program"] == doc["residual"] == text
        assert whilep("check-cert", path, str(cert)) == (0, "Accept\n", "")


def test_run_abort(prog, capsys, fig_src):
    assert main(["run", prog(fig_src)]) == 1
    assert capsys.readouterr().out == "abort\n"


def test_run_out_of_fuel(prog, capsys):
    assert main(["run", prog("while true do { skip }"), "--fuel", "50"]) == 1
    assert capsys.readouterr().out == "out of fuel\n"


def test_run_prints_an_int_past_the_digit_limit(prog, capsys, default_digit_limit):
    """Fourteen squarings of 2 finish within fuel and print all 4,933
    digits of 2^(2^14), more than str() converts by default."""
    src = "x := 2; i := 0; while i < 14 do { x := x * x; i := i + 1 }"
    with default_digit_limit():
        assert main(["run", prog(src)]) == 0
    digits = format(Decimal(2 ** 16384), "f")
    assert len(digits) == 4933
    assert capsys.readouterr().out == f"i = 14\nx = {digits}\n"


def test_run_init(prog, capsys):
    path = prog("z := x + y")
    assert main(["run", path, "--init", "x=4, y=-2"]) == 0
    assert "z = 2" in capsys.readouterr().out
    assert main(["run", path, "--init", "w=1"]) == 3
    assert "unknown variable: w" in capsys.readouterr().err
    assert main(["run", path, "--init", "x=1, y=0, x=2"]) == 3
    assert capsys.readouterr() == ("", "whilep: --init binds x twice\n")
    assert main(["run", path, "--init", "x=one"]) == 3
    assert "bad --init binding" in capsys.readouterr().err
    assert main(["run", path, "--init", "x=\u0663"]) == 3  # only ASCII digits
    assert "bad --init binding" in capsys.readouterr().err
    if sys.get_int_max_str_digits():  # more digits than int() converts
        binding = f"x=-{LONG_DIGITS}"
        assert main(["run", path, "--init", binding]) == 3
        assert capsys.readouterr() == (
            "", f"whilep: bad --init binding: {binding!r} (expected name=int)\n")


@pytest.mark.parametrize("limit", [None, "640", "0"])
def test_run_init_reads_a_long_value_under_any_digit_limit(prog, limit):
    """--init reads its values as parse reads literals, so a 1,000-digit
    value binds under the least digit limit as it does in a program."""
    digits = "7" * 1000
    done = _whilep_under(limit, "run", prog("y := x + 1"), "--init", f"x={digits}")
    assert done == (0, f"x = {digits}\ny = {digits[:-1]}8\n", "")


def test_parse_error_reports_position(prog, capsys):
    assert main(["run", prog("x :=\n  := 3")]) == 1
    err = capsys.readouterr().err
    assert "2:3:" in err


def test_missing_file(capsys):
    assert main(["run", "/nonexistent/nope.whl"]) == 1
    assert "cannot read" in capsys.readouterr().err


# valid UTF-8 up to the byte 0xff at offset 16
NOT_UTF8 = b"x := 1 // caf\xc3\xa9 \xff\n"


@pytest.mark.parametrize("command", [["run"], ["analyze", "pts"],
                                     ["analyze", "live"], ["optimize"],
                                     ["check-cert"]])
def test_program_not_utf8_is_a_read_error(tmp_path, capsys, command):
    path = tmp_path / "prog.whl"
    path.write_bytes(NOT_UTF8)
    cert = [str(tmp_path / "cert.json")] if command == ["check-cert"] else []
    assert main([*command, str(path), *cert]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"whilep: cannot read {path}: "
                   "not valid UTF-8: invalid start byte at byte 16\n")


@pytest.mark.parametrize("command", [["run"], ["analyze", "pts"],
                                     ["analyze", "live"], ["optimize"],
                                     ["check-cert"]])
def test_overlong_literal_is_a_parse_error(prog, capsys, tmp_path, command):
    path = prog(f"x := 1;\ny := {LONG_DIGITS}")
    cert = [str(tmp_path / "cert.json")] if command == ["check-cert"] else []
    assert main([*command, path, *cert]) == 1
    assert capsys.readouterr() == ("", f"{path}:2:6: {LONG_MESSAGE}\n")


def test_overlong_literal_in_a_certificate_is_rejected(prog, capsys, tmp_path):
    cert = tmp_path / "cert.json"
    assert main(["optimize", prog("x := 1"), "--cert", str(cert)]) == 0
    capsys.readouterr()
    doc = json.loads(cert.read_text(encoding="utf-8"))
    cert.write_text(json.dumps({**doc, "program": f"x := {LONG_DIGITS}"}),
                    encoding="utf-8")
    assert main(["check-cert", prog("x := 1"), str(cert)]) == 2
    assert capsys.readouterr() == (
        f"Reject: root.program: unparsable program: 1:6: {LONG_MESSAGE}\n", "")


def test_check_cert_rejects_a_certificate_not_utf8(prog, capsys, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_bytes(b'{"program": "\xff"}')
    assert main(["check-cert", prog("skip"), str(cert)]) == 2
    assert capsys.readouterr().out == \
        "Reject: root: not valid UTF-8: invalid start byte at byte 13\n"


def test_lone_cr_does_not_end_a_line(tmp_path, capsys):
    """The CLI reads files with their line ends as they are, so it
    locates an error where parse does: only LF ends a line."""
    path = tmp_path / "prog.whl"
    path.write_bytes(b"x := 1;\r y := ;")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"{path}:1:15: expected an expression, found ';'\n"


def test_check_cert_accepts_crlf_files(prog, capsys, tmp_path, fig_src):
    src = prog(fig_src)
    cert = tmp_path / "cert.json"
    assert main(["optimize", src, "--live", "y", "--cert", str(cert)]) == 0
    capsys.readouterr()
    for path in (Path(src), cert):
        text = path.read_bytes()
        assert b"\r" not in text
        path.write_bytes(text.replace(b"\n", b"\r\n"))
    assert main(["check-cert", src, str(cert)]) == 0
    assert capsys.readouterr().out == "Accept\n"


def test_analyze_pts(prog, capsys):
    assert main(["analyze", "pts", prog("x := cons(5); dispose(x)")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance_cap"] == 3
    paths = [n["path"] for n in doc["nodes"]]
    assert paths == ["root", "root.items[0]", "root.items[1]"]
    cons = doc["nodes"][1]
    assert cons["stmt"] == "x := cons(5)"
    assert cons["pre"] == {"x": []}
    assert cons["post"] == {"x": ["addr(1,1,1)"], "addr(1,1,1)": []}


def test_analyze_pts_invariant_and_widen(prog, capsys):
    """A loop row's post type is its invariant, written once: no row
    repeats it under another key."""
    path = prog("i := 0; while i < 9 do { x := cons(x); i := i + 1 }")
    assert main(["analyze", "pts", path, "--widen", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    loop = next(n for n in doc["nodes"] if n["stmt"].startswith("while"))
    instances = {addr.split(",")[1] for addr in loop["post"]["x"]}
    assert instances == {"1", "2"}
    assert all(set(n) == {"path", "stmt", "pre", "post"} for n in doc["nodes"])


def test_analyze_live(prog, capsys):
    assert main(["analyze", "live", prog("x := y; z := x"),
                 "--live", "z"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["live"] == ["z"]
    root = doc["nodes"][0]
    assert root["path"] == "root"
    assert root["live_pre"] == ["y"] and root["live_post"] == ["z"]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["analyze", "pts", "--widen", "2"], "analyze_pts_widen2.json"),
    (["analyze", "live", "--live", "y"], "analyze_live_y.json"),
])
def test_analyze_reports_match_golden(capsys, argv, golden):
    """A while nested in an if, with a cons, a lookup and a heap write:
    both per-node reports stay byte-identical."""
    assert main(argv + [str(GOLDEN / "analyze.whl")]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


# runs each argv of the JSON list argv[1] through main and prints the
# exit code and the stdout text of each
_MAIN_SCRIPT = """
import contextlib, io, json, sys
from whilep.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, json.dumps(out.getvalue()))
"""


def test_outputs_do_not_depend_on_string_hashing(tmp_path):
    """optimize --cert, analyze live, check-cert and test-soundness print
    the same bytes, and write the same certificates, under two string
    hash seeds: no output follows the iteration order of a set."""
    programs = [(GOLDEN / "analyze.whl").read_text(encoding="utf-8"),
                pretty(gen_program(GenConfig(seed=7, max_stmts=40)))]
    outputs = []
    for hash_seed in ("0", "1"):
        run_dir = tmp_path / hash_seed
        run_dir.mkdir()
        argvs = []
        for i, text in enumerate(programs):
            path, cert = run_dir / f"prog{i}.whl", str(run_dir / f"cert{i}.json")
            path.write_text(text, encoding="utf-8")
            live = ",".join(sorted(stmt_vars(parse(text)))[1::2])
            argvs += [["optimize", str(path), "--live", live, "--cert", cert],
                      ["analyze", "live", str(path), "--live", live],
                      ["check-cert", str(path), cert]]
        argvs.append(["test-soundness", "--trials", "50"])
        done = subprocess.run([sys.executable, "-c", _MAIN_SCRIPT, json.dumps(argvs)],
                              capture_output=True, text=True, check=True,
                              env=_package_env(PYTHONHASHSEED=hash_seed))
        certs = [(run_dir / f"cert{i}.json").read_bytes() for i in range(len(programs))]
        outputs.append((done.stdout, done.stderr, certs))
    assert outputs[0] == outputs[1]
    assert [line.split()[0] for line in outputs[0][0].splitlines()] == ["0"] * 7


def test_analyze_live_unknown_variable(prog, capsys):
    assert main(["analyze", "live", prog("x := 1"), "--live", "zz"]) == 3
    assert "unknown variable: zz" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["optimize"], ["analyze", "live"]])
def test_unknown_live_name_exits_3_naming_it(prog, capsys, command):
    """optimize's check is the only one: the least unknown name is named."""
    assert main([*command, prog("x := 1; y := x"), "--live", "y,zz,qq"]) == 3
    assert capsys.readouterr() == ("", "whilep: --live names unknown variable: qq\n")


def test_unwritable_output_exits_1_naming_the_path(prog, capsys, tmp_path):
    """The certificate is the only file a command writes."""
    target = tmp_path / "missing" / "file"
    assert main(["optimize", prog("x := 1"), "--cert", str(target)]) == 1
    assert capsys.readouterr().err == \
        f"whilep: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("command, option", [
    (["analyze", "pts"], "--out"), (["analyze", "live"], "--out"),
    (["optimize"], "--emit"),
])
def test_second_output_flags_are_usage_errors(prog, capsys, tmp_path,
                                              command, option):
    """A report or residual goes to stdout only: a flag that would write
    a second copy of it is a usage error, and nothing is written."""
    target = tmp_path / "copy"
    assert main([*command, prog("x := 1"), option, str(target)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {option}" in err
    assert not target.exists()


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_analyze_pts_rows_are_the_points_to_annotation(prog, capsys, cap):
    """On generated programs, every analyze pts row holds the types that
    annotate gives its node from the bottom type: a loop's post is its
    invariant."""
    for seed in range(12):
        program = gen_program(GenConfig(seed, 12 if seed % 2 else 40))
        assert main(["analyze", "pts", prog(pretty(program)), "--widen", str(cap)]) == 0
        rows = json.loads(capsys.readouterr().out)["nodes"]
        ann = annotate(program, bottom(stmt_vars(program)), cap)
        want = []
        for path, node in walk_paths(ann, lambda a: (a.stmt, a.children)):
            row = {"path": path, "stmt": pretty(node.stmt),
                   "pre": pts_to_doc(node.pre), "post": pts_to_doc(node.post)}
            want.append(row)
        assert rows == want, seed


def test_optimize_stdout(prog, capsys, fig_src, fig_residual):
    assert main(["optimize", prog(fig_src), "--live", "y"]) == 0
    assert capsys.readouterr().out == fig_residual + "\n"


def test_optimize_emits_and_certifies(prog, capsys, tmp_path, fig_src,
                                      fig_residual):
    src = prog(fig_src)
    cert = tmp_path / "cert.json"
    assert main(["optimize", src, "--live", "y", "--cert", str(cert)]) == 0
    assert capsys.readouterr().out == fig_residual + "\n"

    assert main(["check-cert", src, str(cert)]) == 0
    assert capsys.readouterr().out == "Accept\n"


def test_check_cert_rejects_tampering(prog, capsys, tmp_path, fig_src):
    src = prog(fig_src)
    cert = tmp_path / "cert.json"
    assert main(["optimize", src, "--live", "y", "--cert", str(cert)]) == 0
    capsys.readouterr()

    doc = json.loads(cert.read_text(encoding="utf-8"))
    # put the aborting write back into the certified residual
    doc["residual"] = doc["residual"].replace("10; skip", "10; [i] := 7")
    cert.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-cert", src, str(cert)]) == 2
    assert capsys.readouterr().out == \
        "Reject: root.residual: does not match the rebuilt residual\n"

    src = prog("x := cons(1); i := 0; "
               "while i < 2 do { y := [x]; x := cons(y); i := i + 1 }", "loop.whl")
    assert main(["optimize", src, "--live", "y", "--cert", str(cert)]) == 0
    capsys.readouterr()
    doc = json.loads(cert.read_text(encoding="utf-8"))
    doc["loops"][0]["pts"]["x"].pop()
    cert.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-cert", src, str(cert)]) == 2
    assert capsys.readouterr().out == (
        "Reject: root.loops[0].pts: invariant does not contain the loop entry "
        "or is not closed under the body\n")


def test_check_cert_rejects_format_errors(prog, capsys, tmp_path, default_digit_limit):
    src, limit = prog("skip"), sys.get_int_max_str_digits()
    cert = tmp_path / "cert.json"
    cert.write_text('{"rule": "skip"}', encoding="utf-8")
    assert main(["check-cert", src, str(cert)]) == 2
    assert capsys.readouterr().out == (
        "Reject: root: wrong field set (difference: ['entry', 'exit_live', "
        "'loops', 'program', 'residual', 'rule'])\n")
    # json.loads raises ValueError on the first, over the default digit
    # limit, and RecursionError on the second
    for text in ('{"program": ' + "1" * 5001 + "}",
                 "[" * (sys.getrecursionlimit() + 1)):
        cert.write_text(text, encoding="utf-8")
        with default_digit_limit():
            assert main(["check-cert", src, str(cert)]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("Reject: root: not valid JSON: ")
        assert err == ""
    assert sys.get_int_max_str_digits() == limit


def test_check_cert_rejects_wrong_program(prog, capsys, tmp_path):
    cert = tmp_path / "cert.json"
    assert main(["optimize", prog("x := 1"), "--cert", str(cert)]) == 0
    capsys.readouterr()
    assert main(["check-cert", prog("x := 2", "other.whl"), str(cert)]) == 2
    assert capsys.readouterr().out == \
        "Reject: root: certificate does not describe this program\n"


def test_check_cert_of_the_readme_session_parses_the_program_once(
        prog, capsys, tmp_path, monkeypatch, fig_src):
    """The README session: prog.whl ends in a newline, and deserialize
    takes the tree check-cert parsed from it. A multi-line, commented
    file of the same program is accepted after one more parse. Another
    program's certificate is rejected for either file."""
    calls, parse = [], certificate.parse
    monkeypatch.setattr(certificate, "parse", lambda text: calls.append(text) or parse(text))
    readme = prog(fig_src)
    spread = prog("// the README example\n" + fig_src.replace("; ", ";\n"), "spread.whl")
    cert, other = tmp_path / "cert.json", tmp_path / "other.json"
    assert main(["optimize", readme, "--live", "y", "--cert", str(cert)]) == 0
    assert main(["optimize", prog("x := cons(3, 4); y := [x]", "other.whl"),
                 "--live", "y", "--cert", str(other)]) == 0
    capsys.readouterr()
    for path, parses in ((readme, []), (spread, [fig_src])):
        calls.clear()
        assert main(["check-cert", path, str(cert)]) == 0
        assert (capsys.readouterr().out, calls) == ("Accept\n", parses)
        assert main(["check-cert", path, str(other)]) == 2
        assert capsys.readouterr().out == \
            "Reject: root: certificate does not describe this program\n"


PROBE_SRC = "p := 0; i := 0; while i < 5 do { p := cons(p); i := i + 1 }"


def test_check_cert_reruns_at_the_cap_the_certificate_states(prog, capsys, tmp_path):
    """A certificate written at any cap is accepted with no cap flag."""
    src, cert = prog(PROBE_SRC), tmp_path / "cert.json"
    for cap in (1, 2, 3, 5):
        assert main(["optimize", src, "--live", "p", "--widen", str(cap),
                     "--cert", str(cert)]) == 0
        capsys.readouterr()
        assert main(["check-cert", src, str(cert)]) == 0
        assert capsys.readouterr().out == "Accept\n"


def test_check_cert_rejects_a_larger_cap(prog, capsys, tmp_path):
    """A certificate whose cap was edited below the one it was written at
    is rejected at the first instance above the stated cap."""
    src, cert = prog(PROBE_SRC), tmp_path / "cert.json"
    assert main(["optimize", src, "--live", "p", "--widen", "3",
                 "--cert", str(cert)]) == 0
    capsys.readouterr()
    doc = json.loads(cert.read_text(encoding="utf-8"))
    cert.write_text(json.dumps(dict(doc, instance_cap=2)), encoding="utf-8")
    assert main(["check-cert", src, str(cert)]) == 2
    assert capsys.readouterr().out == ("Reject: root.loops[0].pts: addr(1,3,1): "
                                       "instance 3 is above the instance cap 2\n")


def test_check_cert_rejects_a_bad_cap_before_any_analysis(prog, capsys, tmp_path,
                                                         monkeypatch):
    """A missing, malformed or out-of-range cap is a Reject of that field,
    given before the certificate's program is analysed."""
    src, cert = prog(PROBE_SRC), tmp_path / "cert.json"
    assert main(["optimize", src, "--live", "p", "--cert", str(cert)]) == 0
    capsys.readouterr()
    doc = json.loads(cert.read_text(encoding="utf-8"))

    def ran(*args):
        raise AssertionError("an analysis ran")

    monkeypatch.setattr(certificate, "annotate", ran)
    capless = {k: v for k, v in doc.items() if k != "instance_cap"}
    for bad in [capless] + [dict(doc, instance_cap=cap)
                            for cap in (True, "3", 0, 2.0, MAX_INSTANCE_CAP + 1)]:
        cert.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["check-cert", src, str(cert)]) == 2
        assert capsys.readouterr() == (
            "Reject: root.instance_cap: expected the cap the certificate was "
            f"written at, an integer from 1 to {MAX_INSTANCE_CAP}\n", "")


def test_removed_options_are_usage_errors(prog, capsys, tmp_path):
    """check-cert takes its cap from the certificate, and optimize emits
    only the residual a certificate covers."""
    src, cert = prog(PROBE_SRC), str(tmp_path / "cert.json")
    assert main(["optimize", src, "--cert", cert]) == 0
    capsys.readouterr()
    assert main(["check-cert", src, cert, "--widen", "3"]) == 3
    assert "unrecognized arguments: --widen 3" in capsys.readouterr().err
    assert main(["optimize", src, "--strip-dead-cons"]) == 3
    assert "unrecognized arguments: --strip-dead-cons" in capsys.readouterr().err


def test_byte_determinism(prog, capsys, fig_src):
    path = prog(fig_src)
    outputs = []
    for _ in range(2):
        assert main(["analyze", "pts", path]) == 0
        assert main(["analyze", "live", path, "--live", "y"]) == 0
        assert main(["optimize", path, "--live", "y"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_usage_errors_exit_3(capsys):
    assert main([]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["run"]) == 3
    assert main(["run", "x", "--fuel", "0"]) == 3
    capsys.readouterr()
    assert main(["test-soundness", "--checks", "t1,t9,t8"]) == 3
    assert capsys.readouterr() == ("", "whilep: unknown check: t9\n")
    assert main(["test-soundness", "--checks", " , "]) == 3
    assert capsys.readouterr() == ("", "whilep: no check selected\n")


# a loop whose invariant tracks every instance up to the cap
ALLOC_LOOP_SRC = "i := 0; while i < 2 do { p := cons(0); i := i + 1 }"


@pytest.mark.parametrize("command", [
    ["analyze", "pts", "{prog}"], ["analyze", "live", "{prog}"],
    ["optimize", "{prog}", "--cert", "{cert}"], ["check-cert", "{prog}", "{cert}"],
    ["test-soundness", "--trials", "1"],
], ids=["analyze-pts", "analyze-live", "optimize", "check-cert", "test-soundness"])
def test_widen_takes_at_most_the_maximum(command, prog, capsys, tmp_path):
    """Every cap accepts MAX_INSTANCE_CAP and rejects one more: --widen as
    a usage error that names the maximum, and check-cert, which reads the
    cap from the certificate, as a Reject of that field."""
    path, cert = prog(ALLOC_LOOP_SRC), str(tmp_path / "cert.json")
    top = str(MAX_INSTANCE_CAP)
    assert main(["optimize", path, "--live", "p", "--widen", top, "--cert", cert]) == 0
    argv = [arg.format(prog=path, cert=cert) for arg in command]
    capsys.readouterr()
    if command[0] == "check-cert":
        assert main(argv) == 0
        assert capsys.readouterr().out == "Accept\n"
        doc = json.loads(Path(cert).read_text(encoding="utf-8"))
        assert doc["instance_cap"] == MAX_INSTANCE_CAP
        Path(cert).write_text(json.dumps(dict(doc, instance_cap=MAX_INSTANCE_CAP + 1)),
                              encoding="utf-8")
        assert main(argv) == 2
        assert capsys.readouterr().out == (
            "Reject: root.instance_cap: expected the cap the certificate was "
            f"written at, an integer from 1 to {MAX_INSTANCE_CAP}\n")
        return
    assert main(argv + ["--widen", top]) == 0
    out = capsys.readouterr().out
    if command[0] == "analyze":
        assert json.loads(out)["instance_cap"] == MAX_INSTANCE_CAP
    assert main(argv + ["--widen", str(MAX_INSTANCE_CAP + 1)]) == 3
    assert f"must be <= {MAX_INSTANCE_CAP}: " in capsys.readouterr().err


def test_one_cap_reaches_every_leaf_step(prog, monkeypatch, tmp_path):
    """Each path that takes a cap hands it, never DEFAULT_CAP, to every
    transfer and cons_block call, through each package module that binds
    those names."""
    calls = []

    def recorder(name, step):
        def record(*args):
            calls.append((name, args[2]))
            return step(*args)
        return record

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "whilep"]:
        for name in ("transfer", "cons_block"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorder(name, getattr(module, name)))
    path, cert = prog(ALLOC_LOOP_SRC), str(tmp_path / "cert.json")
    d = optimize(parse(ALLOC_LOOP_SRC), {"p"}, 7).derivation
    paths = {
        "optimize": lambda: optimize(parse(ALLOC_LOOP_SRC), {"p"}, 7),
        "serialize, deserialize": lambda: deserialize(serialize(d, 7)),
        "check": lambda: check(d, 7).ok,
        # trials 11, 13, 20 and 21 draw a synthetic entry type, so t4 calls optimize
        "run_soundness_suite": lambda: run_soundness_suite(12, GenConfig(10), cap=7),
        "analyze pts": lambda: main(["analyze", "pts", path, "--widen", "7"]) == 0,
        # the certificate is read back at the cap it states
        "optimize --cert": lambda: main(["optimize", path, "--live", "p", "--widen", "7",
                                         "--cert", cert]) == 0
        and deserialize(Path(cert).read_text(encoding="utf-8")),
        "test-soundness": lambda: main(["test-soundness", "--trials", "12", "--seed", "10",
                                        "--widen", "7"]) == 0,
    }
    for label, run in paths.items():
        calls.clear()
        assert run(), label
        assert {name for name, _ in calls} == {"transfer", "cons_block"}, label
        assert {cap for _, cap in calls} == {7}, label


def test_integer_options_read_ascii_digits_only(prog, capsys):
    path = prog("x := 1; while x < 100 do { x := x + 1 }")
    for bad in ("\u0665\u0660", "1_000", " 7 ", "7 ", "+7", "\uff15"):
        assert main(["run", path, "--fuel", bad]) == 3, bad
        assert "not an integer" in capsys.readouterr().err
        assert main(["analyze", "pts", path, "--widen", bad]) == 3, bad
        assert main(["test-soundness", "--trials", bad]) == 3, bad
        assert main(["test-soundness", "--seed", bad]) == 3, bad
        assert main(["test-soundness", "--seed", "-" + bad]) == 3, bad
        capsys.readouterr()
    assert main(["run", path, "--fuel", "50"]) == 1
    assert "out of fuel" in capsys.readouterr().out
    assert main(["run", path, "--fuel", "500"]) == 0
    assert "x = 100" in capsys.readouterr().out
    assert main(["test-soundness", "--trials", "3", "--seed", "-2",
                 "--checks", "t1"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 3


def test_soundness_command(capsys):
    assert main(["test-soundness", "--trials", "40", "--seed", "7",
                 "--checks", "t1,lemma1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 40
    assert set(doc["checks"]) == {"t1", "lemma1"}
    for entry in doc["checks"].values():
        assert entry["fail"] == 0


def test_soundness_sabotage_fails(capsys, monkeypatch):
    """A failing suite exits 1; the analyses take no sabotage flag."""
    mutants.install(monkeypatch, "weak_drop")
    code = main(["test-soundness", "--trials", "600", "--seed", "0",
                 "--checks", "t1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["checks"]["t1"]["fail"] >= 1
    assert doc["checks"]["t1"]["failing_seeds"]
    assert main(["test-soundness", "--trials", "1", "--break-weak-update"]) == 3


def _argparse_flags(parser, command=""):
    """(subcommand, its long options) for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _argparse_flags(sub, f"{command} {name}".strip())
            return
    yield command, {opt for action in parser._actions
                    for opt in action.option_strings
                    if opt.startswith("--") and opt != "--help"}


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_flags():
    """(subcommand, the long options its synopsis lines list) from the
    README's "Command line" block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    entries = []
    for line in block.splitlines():
        if line.startswith("whilep "):
            words = line.split()[1:]
            command = " ".join(words[:2] if words[0] == "analyze" else words[:1])
            entries.append((command, set()))
        entries[-1][1].update(re.findall(r"--[a-z][a-z-]*", line))
    return entries


def test_readme_synopsis_lists_the_argparse_flags():
    """Each subcommand has one synopsis entry in the README, listing
    exactly the options its parser takes; outside its pip commands, the
    README names no other long option, so a removed one cannot linger."""
    readme, parsers = _readme_flags(), dict(_argparse_flags(_build_parser()))
    assert len(readme) == len(dict(readme))
    assert dict(readme) == parsers
    named = {flag for line in README.read_text(encoding="utf-8").splitlines()
             if not line.startswith("pip ")
             for flag in re.findall(r"--[a-z][a-z-]*", line)}
    assert named <= set().union(*parsers.values()), named
