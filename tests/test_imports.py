"""Import checks: no module of the package or its tests imports a name it
never uses, no module of the package imports another's private name or
dataclasses, every top-level definition of the package is read
somewhere, importing the package loads neither dataclasses nor inspect
nor the command line, no string of the package holds the Unicode
digit class \\d, no code of the package writes into a points-to
environment, only parse writes the facts memo of the parser, each
pass steps a leaf at one site, and the instance cap has one name."""

import ast
import subprocess
import sys
from pathlib import Path

import whilep

PACKAGE = Path(whilep.__file__).parent
TESTS = Path(__file__).parent
BENCH = TESTS.parent / "bench"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source and never read, as 'name (line n)'.

    A string annotation counts as a use of the names it mentions.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from re import match, sub\n"
              "from typing import Any, Dict\n"
              "def f(x: 'Dict[str, int]') -> None:\n"
              "    return sub('a', 'b', x)\n")
    assert unused_imports(source) == [
        "Any (line 5)", "match (line 4)", "os (line 2)", "osp (line 3)"]


def private_imports(source: str) -> list[str]:
    """Names with a leading underscore that source imports from another
    module, as 'name (line n)'."""
    return sorted(f"{alias.name} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name.startswith("_"))


def test_checker_finds_private_imports():
    source = ("from __future__ import annotations\n"
              "from .lang import _Parser, parse\n"
              "from .memory import _helper as helper, Address\n")
    assert private_imports(source) == ["_Parser (line 2)", "_helper (line 3)"]


def imported_modules(source: str) -> list[str]:
    """The top-level names of the modules source imports, as 'name (line n)';
    relative imports are left out."""
    tree = ast.parse(source)
    names = [(alias.name, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [(node.module, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    return sorted(f"{name.split('.')[0]} (line {line})" for name, line in names)


def test_checker_finds_imported_modules():
    source = ("from __future__ import annotations\n"
              "import json.encoder, re\n"
              "from dataclasses import dataclass\n"
              "from .lang import Record\n")
    assert imported_modules(source) == [
        "__future__ (line 1)", "dataclasses (line 3)", "json (line 2)", "re (line 2)"]


def digit_classes(source: str) -> list[str]:
    """String constants in source that hold the regex class \\d, which
    matches every Unicode decimal digit, as 'text (line n)'."""
    return sorted(f"{node.value} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "\\d" in node.value)


def test_checker_finds_digit_classes():
    source = ("import re\n"
              "A = re.compile(r'x(\\d+)')\n"
              "B = '-?\\\\d'\n"
              "C = r'[0-9]+|\\w'\n"
              "D = rf'({A}|\\d)'\n")
    assert digit_classes(source) == [
        "-?\\d (line 3)", "x(\\d+) (line 2)", "|\\d) (line 5)"]


_DICT_WRITES = {"update", "pop", "setdefault", "clear", "popitem"}


def _env_aliases(scope: ast.AST) -> set[str]:
    """The names scope binds to an expression ending in .env."""
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                out.update(t.id for t, v in pairs if isinstance(t, ast.Name)
                           and isinstance(v, ast.Attribute) and v.attr == "env")
    return out


def env_writes(source: str) -> list[str]:
    """Writes into a points-to environment in source, as 'line n': a store,
    a delete or an augmented assignment through an expression ending in
    .env, or a call of a dict method that changes it. Within a function,
    a name it binds to such an expression, as `env = p.env` does, counts
    as one."""
    tree = ast.parse(source)
    lines = set()
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        aliases = set() if scope is tree else _env_aliases(scope)
        for node in ast.walk(scope):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.AugAssign):
                target = node.target
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DICT_WRITES):
                target = node.func.value
            else:
                continue
            if (isinstance(target, ast.Attribute) and target.attr == "env"
                    or isinstance(target, ast.Name) and target.id in aliases):
                lines.add(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


def test_checker_finds_env_writes():
    source = ("def f(p, q, d):\n"
              "    p.env[1] = 2\n"
              "    del q.pts.env['x']\n"
              "    p.env |= d\n"
              "    p.env.update(d)\n"
              "    q.env.setdefault('x', 0)\n"
              "    env, other = p.env, {}\n"
              "    env.pop('x')\n"
              "    other['x'] = 1\n"
              "    return p.env.get('x'), p.env | d, dict(p.env), d.clear()\n"
              "def g(env):\n"
              "    env['x'] = 1\n"
              "    x.env.clear()\n"
              "p.env.popitem()\n")
    assert env_writes(source) == [f"line {n}" for n in (2, 3, 4, 5, 6, 8, 13, 14)]


def memo_writes(source: str, name: str, writer: str) -> list[str]:
    """Writes of the module-level memo `name` outside the function
    writer, as 'line n': a store or delete of the name in any other
    function, or at top level after its first binding there, or of an
    attribute of that name anywhere."""
    tree = ast.parse(source)
    owner = {}  # node -> the innermost function it is in
    for fn in ast.walk(tree):  # outer functions come first
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, fn.name) for node in ast.walk(fn) if node is not fn)
    lines, bound = set(), False
    for node in ast.walk(tree):
        if not (isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and (node.id if isinstance(node, ast.Name) else node.attr) == name):
            continue
        where = owner.get(node)
        if isinstance(node, ast.Name) and where is None and not bound:
            bound = True  # the definition
        elif isinstance(node, ast.Attribute) or where != writer:
            lines.add(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


def test_checker_finds_memo_writes():
    source = ("_memo = None\n"
              "def parse(src):\n"
              "    global _memo\n"
              "    _memo = src\n"
              "def other(x):\n"
              "    global _memo\n"
              "    _memo = x\n"
              "    def inner():\n"
              "        lang._memo = 1\n"
              "    del _memo\n"
              "_memo = 2\n"
              "for _memo in (): pass\n"
              "def reader():\n"
              "    return _memo, lang._memo\n")
    assert memo_writes(source, "_memo", "parse") == [
        f"line {n}" for n in (7, 9, 10, 11, 12)]


def _reads(tree: ast.AST) -> set[str]:
    """The names tree reads: as a name, an attribute, an imported name or
    an entry of __all__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    return out


def _defines(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class or a
    constant; dunders such as __all__ are left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = {stmt.target.id}
    else:
        names = set()
    return {name for name in names if not name.startswith("__")}


def unreferenced(source: str, elsewhere: set[str]) -> list[str]:
    """Top-level functions, classes and constants of source that no other
    statement of source reads and that are not among elsewhere, the names
    other files read, as 'name (line n)'; a definition that reads only
    itself, as a recursion does, is not read."""
    tree = ast.parse(source)
    reads = [(stmt, _reads(stmt)) for stmt in tree.body]
    return sorted(f"{name} (line {stmt.lineno})" for stmt in tree.body
                  for name in _defines(stmt)
                  if name not in elsewhere
                  and not any(name in r and name not in _defines(s) for s, r in reads))


def test_checker_finds_unreferenced_definitions():
    source = ("_NONE: frozenset = frozenset()\n"
              "LIMIT = 3\n"
              "def walk(x):\n"
              "    return walk(x - 1) if x else LIMIT\n"
              "def _helper(x):\n"
              "    return _helper(x)\n"
              "class Node:\n"
              "    pass\n"
              "def exported():\n"
              "    pass\n"
              "__all__ = ['exported']\n")
    elsewhere = _reads(ast.parse("from m import walk\nimport m\nm.Node()\n"))
    assert unreferenced(source, elsewhere) == ["_NONE (line 1)", "_helper (line 5)"]
    assert unreferenced(source, set()) == [
        "Node (line 7)", "_NONE (line 1)", "_helper (line 5)", "walk (line 3)"]


def test_package_defines_nothing_unreferenced():
    """Every top-level function, class and constant of the package is read
    outside its own definition: in the package, its tests or the
    benchmark, or by __all__."""
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(
        [*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *BENCH.glob("*.py")])}
    reads = {path: _reads(ast.parse(text)) for path, text in sources.items()}
    found = {path.name: unreferenced(sources[path], set().union(
                 *(names for other, names in reads.items() if other != path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def _by_file(check, paths) -> dict:
    found = {path.name: check(path.read_text(encoding="utf-8")) for path in paths}
    return {name: names for name, names in found.items() if names}


def test_package_imports_no_private_names():
    assert _by_file(private_imports, sorted(PACKAGE.glob("*.py"))) == {}


def test_package_has_no_unused_imports():
    """__init__.py is left out: its imports are the package's re-exports."""
    assert _by_file(unused_imports, (path for path in sorted(PACKAGE.glob("*.py"))
                                     if path.name != "__init__.py")) == {}


def test_package_does_not_import_dataclasses():
    """Nodes are Records; dataclasses would also pull in inspect."""
    uses = {path.name: [name for name in imported_modules(path.read_text(encoding="utf-8"))
                        if name.startswith("dataclasses ")]
            for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {}


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, whilep, whilep.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=PACKAGE.parent)
    assert proc.stdout == "[]\n"


def test_importing_the_package_leaves_out_the_command_line():
    """The library never loads cli or argparse, so runpy finds whilep.cli
    unloaded and runs it without a RuntimeWarning."""
    code = ("import sys, whilep; "
            "print(sorted({'whilep.cli', 'argparse'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=PACKAGE.parent)
    assert proc.stdout == "[]\n"
    proc = subprocess.run([sys.executable, "-m", "whilep.cli"], capture_output=True,
                          text=True, cwd=PACKAGE.parent)
    assert (proc.returncode, proc.stdout) == (3, "")  # no command: a usage error
    assert proc.stderr.startswith("usage: whilep ")


def test_package_reads_only_ascii_digits():
    """Every regex of the package reads program, certificate or command
    line text, where a digit is 0-9."""
    assert _by_file(digit_classes, sorted(PACKAGE.glob("*.py"))) == {}


def test_package_never_writes_into_a_points_to_env():
    """A points-to type's env is never changed once built (a step builds
    env | delta), so cons_block may recognise a type it saw by identity."""
    assert _by_file(env_writes, sorted(PACKAGE.glob("*.py"))) == {}


def test_only_parse_writes_the_parse_facts():
    """lang._facts, the facts recorded for the tree parse returned last,
    is written by parse alone, so it never pairs a tree with another
    tree's facts."""
    assert _by_file(lambda text: memo_writes(text, "_facts", "parse"),
                    sorted(PACKAGE.glob("*.py"))) == {}
    lang = (PACKAGE / "lang.py").read_text(encoding="utf-8")
    planted = lang.replace("def seq_of(", "def _plant():\n    global _facts\n"
                           "    _facts = None\n\n\ndef seq_of(", 1)
    assert len(memo_writes(planted, "_facts", "parse")) == 1


def test_only_pretty_writes_the_print_memo():
    """lang._printed, the tree pretty printed last with its text, is
    written by pretty alone, so it never pairs a tree with another
    tree's text."""
    assert _by_file(lambda text: memo_writes(text, "_printed", "pretty"),
                    sorted(PACKAGE.glob("*.py"))) == {}
    lang = (PACKAGE / "lang.py").read_text(encoding="utf-8")
    planted = lang.replace("def seq_of(", "def _plant():\n    global _printed\n"
                           "    _printed = None\n\n\ndef seq_of(", 1)
    assert len(memo_writes(planted, "_printed", "pretty")) == 1


def call_sites(source: str, name: str) -> list[str]:
    """The calls of the plain name `name` in source, as 'line n'."""
    return [f"line {n}" for n in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == name)]


def test_each_pass_steps_a_leaf_at_one_site():
    """pointsto calls transfer, and liveness calls leaf_live_pre, at one
    site: each pass steps a leaf, wherever it stands, in the one loop
    that steps a sequence's items."""
    for module, step in (("pointsto", "transfer"), ("liveness", "leaf_live_pre")):
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        assert len(call_sites(source, step)) == 1, module
        planted = source + f"\n\ndef _plant(*args):\n    return {step}(*args)\n"
        assert len(call_sites(planted, step)) == 2, module


def cap_aliases(source: str) -> list[str]:
    """Other names of the instance cap in source, as 'name (line n)': a
    function parameter named cfg or widen, or a read of an attribute
    .instance_cap."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            found += [f"{arg.arg} (line {arg.lineno})"
                      for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                      if arg is not None and arg.arg in ("cfg", "widen")]
        elif isinstance(node, ast.Attribute) and node.attr == "instance_cap":
            found.append(f".instance_cap (line {node.lineno})")
    return sorted(found)


def test_checker_finds_cap_aliases():
    source = ("def transfer(s, p, cfg):\n"
              "    return cfg.instance_cap\n"
              "def twin(rng, *, widen=None):\n"
              "    return widen\n"
              "step = lambda s, cfg, /: s\n"
              "def fine(cap, config, *widened):\n"
              "    widen = config.seed\n"
              "    return args.widen, {'instance_cap': cap}\n")
    assert cap_aliases(source) == [
        ".instance_cap (line 2)", "cfg (line 1)", "cfg (line 5)", "widen (line 3)"]


def test_the_package_names_the_cap_cap():
    """The instance cap is a plain int named cap in every layer: no
    function takes it as cfg or widen, and no code reads .instance_cap
    off a record."""
    assert _by_file(cap_aliases, sorted(PACKAGE.glob("*.py"))) == {}


def test_tests_have_no_unused_imports():
    assert _by_file(unused_imports, sorted(TESTS.glob("*.py"))) == {}


def test_every_export_resolves():
    """A stale name in __all__ would make `from whilep import *` fail."""
    assert [name for name in whilep.__all__ if not hasattr(whilep, name)] == []
    assert len(set(whilep.__all__)) == len(whilep.__all__)
