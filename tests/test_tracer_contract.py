"""The benchmark's tracer wraps names in the modules that call them; these
checks keep every name it wraps bound and called where it looks for it."""

import ast
import importlib
import importlib.util
from pathlib import Path

import whilep
from whilep import interp
from whilep.lang import parse, stmt_vars

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def called_names(tree) -> set[str]:
    """Names called bare, as f(...), and as an attribute, as m.f(...)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                out.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                out.add(node.func.attr)
    return out


def test_called_names_sees_bare_and_attribute_calls():
    tree = ast.parse("f(1)\nW.g(2)\nh = k\nm.n\n")
    assert called_names(tree) == {"f", "g"}


def test_every_tracer_target_resolves_and_is_called():
    """Each (calling module, attribute, span) target: the attribute is the
    span's function, and the calling module calls it by that name. The
    package's names are called by the benchmark itself, through the
    package namespace."""
    targets = load_tracing().TARGETS
    assert targets
    bench_calls = set().union(*(called_names(ast.parse(path.read_text(encoding="utf-8")))
                                for path in BENCH.glob("*.py")))
    for module_name, attr, span in targets:
        module = importlib.import_module(module_name)
        defining, function = span.split(".")
        target = getattr(importlib.import_module(f"whilep.{defining}"), function)
        assert getattr(module, attr) is target, (module_name, attr)
        if module is whilep:
            assert attr in whilep.__all__ and attr in bench_calls, attr
        else:
            source = Path(module.__file__).read_text(encoding="utf-8")
            assert attr in called_names(ast.parse(source)), (module_name, attr)


def test_fresh_instance_is_looked_up_once_per_executed_cons(monkeypatch):
    """A wrapper installed on whilep.interp.fresh_instance after a program
    was compiled sees exactly one call per cons that runs, and none for a
    cons whose arguments abort."""
    cases = [
        ("i := 0; p := 0; while i < 7 do { p := cons(i, p); i := i + 1 }; "
         "q := cons(1)", 8),
        ("x := cons(1); y := cons(2, 3); z := nil + 1; w := cons(4)", 2),
        ("x := cons(1); if x = x then { y := cons(2) } else { y := cons(3) }", 2),
        ("x := cons(nil + 1)", 0),
    ]
    calls = []
    original = interp.fresh_instance

    def counted(blocks, length):
        calls.append(length)
        return original(blocks, length)

    for src, n in cases:
        prog = parse(src)
        state = interp.zero_state(stmt_vars(prog))
        monkeypatch.setattr(interp, "fresh_instance", original)
        interp.execute(prog, state)
        monkeypatch.setattr(interp, "fresh_instance", counted)
        for _ in range(2):
            calls.clear()
            interp.execute(prog, state)
            assert len(calls) == n, src
