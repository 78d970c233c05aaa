"""Derivation checking and the on-disk certificate format."""

import functools
import gc
import hashlib
import itertools
import json
import random
import sys
import time
from collections import Counter

import pytest
import tamper_ops
from hypothesis import example, given, settings, strategies as st

from whilep import GenConfig, certificate, gen_program, lang, liveness, pointsto
from whilep.certificate import (
    ACCEPT, CheckResult, FormatError, check, deserialize, serialize,
)
from whilep.cli import main
from whilep.deadcode import optimize
from whilep.interp import Final, execute, zero_state
from whilep.lang import (
    Assign, If, IntLit, ParseError, Seq, Skip, While, parse, pretty, stmt_vars,
    walk, walk_paths,
)
from whilep.liveness import Derivation, LiveType
from whilep.memory import Address
from whilep.pointsto import DEFAULT_CAP, MAX_INSTANCE_CAP, PointsTo, bottom

CAP = DEFAULT_CAP


def derivation_for(src, live):
    return optimize(parse(src), frozenset(live), CAP).derivation


def corpus():
    rng = random.Random(53)
    out = []
    for seed in range(40):
        prog = gen_program(GenConfig(seed=seed))
        variables = sorted(stmt_vars(prog))
        live = frozenset(v for v in variables if rng.random() < 0.5)
        out.append(optimize(prog, live, CAP).derivation)
    return out


def test_serialize_shape():
    doc = json.loads(serialize(derivation_for("skip", set())))
    assert doc == {"instance_cap": 3, "program": "skip", "entry": {},
                   "exit_live": [], "loops": [], "residual": "skip"}


def test_serialize_addresses_and_nesting():
    # loops in source preorder: the then-branch loop, then the else-branch
    # loop, then the loop nested in it; the inner one starts after q := 0
    src = ("x := cons(1); if x = 0 then { while a < 1 do { a := a + 1 } } "
           "else { while b < 1 do { q := 0; while c < 1 do { c := c + 1 }; "
           "q := cons(2); b := b + 1 } }")
    text = serialize(derivation_for(src, {"x", "q"}))
    doc = json.loads(text)
    assert text.count(src) == 1
    assert doc["entry"] == {k: [] for k in ("a", "b", "c", "q", "x")}
    assert doc["exit_live"] == ["q", "x"]
    assert [("a" in t["live"], "c" in t["live"]) for t in doc["loops"]] == \
        [(True, False), (False, True), (False, True)]
    assert [t["pts"]["x"] for t in doc["loops"]] == [["addr(1,1,1)"]] * 3
    assert "addr(1,2,1)" in doc["loops"][1]["pts"]["q"]
    assert doc["loops"][2]["pts"]["q"] == []
    assert doc["residual"].startswith("x := cons(0); if")


def test_serialize_matches_json_dumps_and_leaves_no_cycles():
    d = derivation_for(LOOP_SRC, {"q"})
    text = serialize(d)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            serialize(d)
        assert gc.collect() == 0
    finally:
        gc.enable()


# report-shaped values: what certificates and the command line's reports
# hold; string lists take the writer's one join, lists that mix strings
# with ints or containers its recursion
STRING_LISTS = st.lists(st.text(), min_size=1, max_size=6)
REPORT_VALUES = st.recursive(
    st.integers() | st.text() | STRING_LISTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(REPORT_VALUES)
@example({"caf\u00e9": [-3, "\u2603 \U0001d11e", {}, []], "": {"n": [0, -10 ** 20]}})
@example([])
@example(["q", "a\"b\\", "\n\t\x00\x1f\x7f", "caf\u00e9", "\U0001d11e", ""])
@example({"pts": {"addr(1,1,1)": [], "p": ["addr(1,1,1)", "addr(1,2,1)"]}, "live": ["p"]})
@example(["x", 1, "y"])
@example([{}, "x", [], [[], {}], {"k": [{}]}, ["y", ["z"]]])
@example([[[]], [{}], {"": {}}])
def test_to_json_matches_json_dumps(value):
    """The one JSON writer is json.dumps with a two-space indent and
    sorted keys, plus a line end."""
    assert certificate.to_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def _addresses(most):
    return st.integers(1, most).flatmap(lambda n: st.builds(
        Address, st.just(n), st.integers(1, most), st.integers(1, n)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_addresses(10 ** 30), max_size=8))
@example([Address(10 ** 300, 10 ** 300, 10 ** 300 - 1)])
def test_address_memo_spells_each_address_as_repr(addresses):
    """The memo's spelling of an address is its repr, at any length,
    instance and index, seen once or again."""
    for _ in range(2):
        assert list(map(certificate._spell, addresses)) == list(map(repr, addresses))


def test_address_memo_stays_within_its_bound(monkeypatch):
    """More distinct addresses than the memo holds leave it within its
    bound, emptied when full rather than evicted entry by entry, and
    every spelling stays the repr."""
    memo, bound = certificate._SPELLINGS, certificate._SPELLINGS_BOUND
    sizes = set()
    for n in range(1, bound + 100):
        a = Address(1, n, 1)
        assert certificate._spell(a) == repr(a)
        sizes.add(len(memo))
    assert max(sizes) == bound and len(memo) < bound
    monkeypatch.setattr(certificate, "_SPELLINGS_BOUND", 3)
    memo.clear()
    sizes = []
    for n in range(1, 8):
        certificate._spell(Address(2, n, 2))
        sizes.append(len(memo))
    assert sizes == [1, 2, 3, 1, 2, 3, 1]


_SMALL_KEYS = st.sampled_from(["p", "q", "x1", "zz"]) | _addresses(12)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_SMALL_KEYS, st.frozensets(_addresses(12), max_size=6), max_size=8))
def test_type_texts_are_the_plain_definitions(env):
    """pts_to_doc and live_to_list equal their one-line definitions: keys
    in the type's order as the variable's name or the address's repr,
    images sorted; live sets sorted variables first, by name, then
    addresses as triples."""
    def text(k):
        return repr(k) if isinstance(k, Address) else k

    doc = certificate.pts_to_doc(PointsTo(env))
    assert list(doc.items()) == [(text(k), [repr(a) for a in sorted(image)])
                                 for k, image in env.items()]
    live = frozenset(env).union(*env.values())
    assert certificate.live_to_list(live) == [
        text(k) for k in sorted(live, key=lambda k: (isinstance(k, Address), k))]


def test_serialize_prints_a_residual_printed_just_before_once(monkeypatch, fig_src):
    """optimize --cert prints the residual, then serializes: the printer
    runs for the program only. Without that print it runs for both."""
    top, printer = [], lang._pretty
    depth = 0

    def counted(s):
        nonlocal depth
        if not depth:
            top.append(s)
        depth += 1
        try:
            return printer(s)
        finally:
            depth -= 1

    monkeypatch.setattr(lang, "_pretty", counted)
    d = derivation_for(fig_src, {"y"})
    program, residual = d.judgment.stmt, d.judgment.residual
    assert residual != program
    text = pretty(residual)
    assert top == [residual]
    top.clear()
    cert = serialize(d)
    assert [s is program for s in top] == [True]
    assert json.loads(cert)["residual"] == text
    top.clear()
    assert serialize(d) == cert
    assert [s is t for s, t in zip(top, (residual, program), strict=True)] == [True, True]


def test_round_trip(fig_src):
    for d in corpus() + [derivation_for(fig_src, {"y"})]:
        text = serialize(d)
        again = deserialize(text)
        assert again == d
        assert serialize(again) == text  # byte-identical re-serialization


def chain_src(n):
    """n statements alternating an allocation linking the previous block
    with a lookup of that link, over four variables."""
    names = ("p0", "p1", "p2", "p3")
    return "; ".join(
        f"{names[i % 4]} := cons({i % 10}, {names[(i - 1) % 4] if i else 0})"
        if i % 2 == 0 else f"{names[i % 4]} := [{names[(i - 1) % 4]} + 1]"
        for i in range(n))


def test_certificate_size_is_linear():
    # the per-node tree took 9.5 MB for 200 statements
    src = chain_src(200)
    text = serialize(derivation_for(src, {"p0"}))
    assert len(text) <= 10_000
    assert text.count(src) == 1


def _pipeline_seconds(n):
    """One run of a chain of n statements from parse to check."""
    src = chain_src(n)
    start = time.perf_counter()
    prog = parse(src)
    assert pretty(prog) == src
    out = execute(prog, zero_state(stmt_vars(prog)), n)
    assert isinstance(out, Final)
    result = optimize(prog, frozenset({"p0"}), CAP)
    d = deserialize(serialize(result.derivation))
    assert d == result.derivation and check(d, CAP) == ACCEPT
    return time.perf_counter() - start


def test_pipeline_time_is_linear():
    # a linear pipeline takes ~4x as long for 4x the statements, a
    # quadratic one ~16x
    bound = 8 * min(_pipeline_seconds(5_000) for _ in range(3))
    runs = []
    while len(runs) < 3 and min(runs, default=bound) >= bound:
        runs.append(_pipeline_seconds(20_000))
    assert min(runs) < bound, (bound, runs)


def test_each_pass_computes_a_cons_block_once(monkeypatch):
    """optimize, deserialize and check each compute a cons's block once,
    in its transfer; the leaf rule reads the block from the exit type.
    Every module of the package that binds the name is counted."""
    calls, cons_block = [], pointsto.cons_block

    def counted(*args):
        calls.append(args)
        return cons_block(*args)

    for module in (pointsto, liveness, certificate):
        if hasattr(module, "cons_block"):
            monkeypatch.setattr(module, "cons_block", counted)
    src = chain_src(200)
    assert src.count("cons(") == 100
    per_pass = []

    def blocks_in(run):
        calls.clear()
        out = run()
        per_pass.append(len(calls))
        return out

    d = blocks_in(lambda: optimize(parse(src), frozenset({"p0"}), CAP).derivation)
    text = serialize(d)
    again = blocks_in(lambda: deserialize(text))
    assert blocks_in(lambda: check(again, CAP)) == ACCEPT
    assert per_pass == [100, 100, 100]


# three counter loops nested around four copies: 10 leaves
NESTED_COPIES = (
    "i := 0; while i < 2 do { j := 0; while j < 2 do { k := 0; while k < 2 do "
    "{ x1 := x2; x2 := x3; x3 := x4; x4 := x5; k := k + 1 }; j := j + 1 }; "
    "i := i + 1 }")


@pytest.mark.parametrize("src, live, per_pass", [
    (NESTED_COPIES, {"x1"}, [(10, 46), (10, 10)]),
    ("x := cons(1)", set(), [(1, 1), (1, 1)]),
    ("if x < 1 then { x := cons(1) } else { y := [x] }", set(), [(2, 2), (2, 2)]),
    ("while x < 3 do { x := x + 1 }", set(), [(1, 1), (1, 1)]),
])
def test_each_pass_steps_each_leaf_as_often_as_pinned(monkeypatch, src, live, per_pass):
    """optimize and deserialize call transfer and leaf_live_pre, patched
    in as the mutants are, these many times: a leaf that is the whole
    program, a branch or a loop body steps like a sequence's item. A
    loop's live pass rebuilds its body every round (46 on the nested
    loops); deserialize's seeded loops end in one."""
    counts = Counter()

    def counted(name, step):
        def wrapper(*args):
            counts[name] += 1
            return step(*args)
        return wrapper

    monkeypatch.setattr(pointsto, "transfer", counted("transfer", pointsto.transfer))
    monkeypatch.setattr(liveness, "leaf_live_pre",
                        counted("leaf_live_pre", liveness.leaf_live_pre))
    text = serialize(derivation_for(src, live))
    optimized = (counts["transfer"], counts["leaf_live_pre"])
    counts.clear()
    deserialize(text)
    assert [optimized, (counts["transfer"], counts["leaf_live_pre"])] == per_pass


def _unshared_boundaries(d):
    """The seq_d boundaries of d that are two objects: (statement, i)
    where premise i's exit is not premise i + 1's entry, or (statement,
    "entry"/"exit") where the sequence's own side is not its first
    premise's entry or its last premise's exit."""
    out, todo = [], [d]
    while todo:
        node = todo.pop()
        todo += node.premises
        if node.rule != "seq_d":
            continue
        j, js = node.judgment, [premise.judgment for premise in node.premises]
        out += [(pretty(j.stmt), i) for i in range(len(js) - 1)
                if js[i].post is not js[i + 1].pre]
        if js[0].pre is not j.pre:
            out.append((pretty(j.stmt), "entry"))
        if js[-1].post is not j.post:
            out.append((pretty(j.stmt), "exit"))
    return out


def test_adjacent_judgments_share_one_boundary():
    """In the derivations optimize and deserialize build, each item of a
    sequence ends at the very LiveType the next item starts at."""
    rng = random.Random(25)
    runs = [(parse(chain_src(200)), CAP)]
    for seed, cap in itertools.product(range(100), (1, 2, 3)):
        runs.append((gen_program(GenConfig(seed=seed, max_stmts=(12, 40)[seed % 2])),
                     cap))
    boundaries = 0
    for prog, cap in runs:
        live = frozenset(v for v in sorted(stmt_vars(prog)) if rng.random() < 0.5)
        d = optimize(prog, live, cap).derivation
        again = deserialize(serialize(d, cap))
        for built in (d, again):
            assert _unshared_boundaries(built) == [], (pretty(prog), cap)
            boundaries += sum(len(n.premises) - 1 for _, n in walk_paths(
                built, lambda x: (x.judgment.stmt, x.premises)) if n.rule == "seq_d")
    assert boundaries > 10_000, boundaries


def test_no_pass_walks_a_parsed_program(monkeypatch):
    """A program walk (lang._collect for stmt_vars, lang.walk for the
    loops and block lengths) runs in neither optimize nor deserialize of
    the tree parse returned last, since its parse recorded those facts,
    and never in check; optimize of a generated tree walks it once.
    free_vars walks only a leaf's operands and a guard. Every variable is
    live, so every leaf keeps its statement and reads its operands."""
    calls, collect, lang_walk = [], lang._collect, lang.walk

    def counted_collect(root, writes):
        if writes:
            calls.append(root)
        return collect(root, writes)

    def counted_walk(root):
        calls.append(root)
        return lang_walk(root)

    monkeypatch.setattr(lang, "_collect", counted_collect)
    monkeypatch.setattr(lang, "walk", counted_walk)
    src = chain_src(200)
    per_pass = []

    def walks_in(run):
        calls.clear()
        out = run()
        per_pass.append(len(calls))
        return out

    live = frozenset({"p0", "p1", "p2", "p3"})
    d = walks_in(lambda: optimize(parse(src), live, CAP).derivation)
    assert {premise.rule for premise in d.premises} == {"con_d2", "lok_d2"}
    text = serialize(d)
    again = walks_in(lambda: deserialize(text))
    assert walks_in(lambda: check(again, CAP)) == ACCEPT
    assert per_pass == [0, 0, 0]
    program = gen_program(GenConfig(seed=7, max_stmts=40))
    walks_in(lambda: optimize(program, (), CAP))
    assert per_pass[-1] == 1 and calls == [program]


PROBE = "p := 0; i := 0; while i < 5 do { p := cons(p); i := i + 1 }"
TWO_DEEP = ("p := 0; q := 0; i := 0; while i < 3 do { q := cons(q, i); j := 0; "
            "while j < 3 do { p := cons(p, q); j := j + 1 }; i := i + 1 }")
CAPS = (3, 50, 400)


def _transfer_steps(monkeypatch, run):
    """How many leaf steps pointsto.transfer takes during run()."""
    steps, transfer = [], pointsto.transfer

    def counted(*args):
        steps.append(args[0])
        return transfer(*args)

    monkeypatch.setattr(pointsto, "transfer", counted)
    run()
    monkeypatch.setattr(pointsto, "transfer", transfer)
    return len(steps)


@pytest.mark.parametrize("src", [PROBE, TWO_DEEP])
def test_loop_rounds_do_not_grow_with_the_cap(src, monkeypatch):
    """Each loop starts at the cells its body allocates, so optimize takes
    as many leaf steps at every cap; iterated from the entry alone, the
    rounds grew with the cap (12, 106 and 406 steps on PROBE at caps 3,
    50 and 200, and 26, 120 and 420 on TWO_DEEP)."""
    steps = [_transfer_steps(monkeypatch, lambda: optimize(
        parse(src), {"p"}, k)) for k in CAPS]
    assert steps[0] == steps[1] == steps[2], steps


def test_thinned_invariant_rejected_in_rounds_independent_of_the_cap(monkeypatch):
    """A certificate whose loop invariant is thinned to its variables is
    rejected at that invariant, after as many leaf steps at every cap."""
    steps = []
    for k in CAPS:
        doc = json.loads(serialize(optimize(parse(PROBE), {"p"}, k).derivation, k))
        inv = doc["loops"][0]["pts"]
        doc["loops"][0]["pts"] = {key: inv[key] for key in ("i", "p")}
        text = json.dumps(doc)

        def rerun():
            with pytest.raises(FormatError) as err:
                deserialize(text)
            assert err.value.path == "root.loops[0].pts"

        steps.append(_transfer_steps(monkeypatch, rerun))
    assert steps[0] == steps[1] == steps[2], steps


# leaves that are Seq items, branch bodies and the whole program
LOOP_FREE = [
    "x := cons(1, 2); y := [x + 1]; [x] := y; dispose(x); skip; z := x",
    "x := 1; if x < 2 then { y := cons(x) } else { y := 2; z := [y] }; w := y",
    "if true then { skip } else { x := cons(1); [x] := 2 }",
    "x := 7",
]
# leaves that are also lone loop bodies and items of loop bodies
WITH_LOOPS = [
    "i := 0; while i < 3 do { i := i + 1 }",
    "p := cons(0); i := 0; while i < 2 do { q := [p]; p := cons(p); i := i + 1 }",
    "p := nil; while p = nil do { while true do { p := cons(p) } }; x := [p]",
    "while x < 1 do { if x = 0 then { x := 1 } else { skip } }",
]


def _leaf_ids(s):
    return sorted(id(n) for n in walk(s) if not isinstance(n, (Seq, If, While)))


@pytest.fixture
def leaf_steps(monkeypatch):
    """The ids of the statements passed to transfer and to leaf_live_pre,
    through counting wrappers installed in every module that calls them:
    the passes and the rule checker."""
    calls = {}
    for module, name in ((pointsto, "transfer"), (certificate, "transfer"),
                         (liveness, "leaf_live_pre"),
                         (certificate, "leaf_live_pre")):
        original, seen = getattr(module, name), calls.setdefault(name, [])

        def counted(s, *args, original=original, seen=seen):
            seen.append(id(s))
            return original(s, *args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("src", LOOP_FREE)
def test_the_analyses_step_each_leaf_once(src, leaf_steps):
    """Without loops, annotate and live_annotate each take exactly one
    leaf step per leaf, wherever it sits."""
    prog = parse(src)
    variables = stmt_vars(prog)
    ann = pointsto.annotate(prog, bottom(variables), CAP)
    liveness.live_annotate(ann, variables)
    assert sorted(leaf_steps["transfer"]) == _leaf_ids(prog)
    assert sorted(leaf_steps["leaf_live_pre"]) == _leaf_ids(prog)


@pytest.mark.parametrize("src", LOOP_FREE + WITH_LOOPS)
def test_deserialize_steps_each_leaf_once(src, leaf_steps):
    """The seeded rerun of deserialize runs each loop body once, so each
    leaf is stepped exactly once by each analysis."""
    prog = parse(src)
    text = serialize(optimize(prog, stmt_vars(prog), CAP).derivation)
    for seen in leaf_steps.values():
        seen.clear()
    d = deserialize(text)
    assert sorted(leaf_steps["transfer"]) == _leaf_ids(d.judgment.stmt)
    assert sorted(leaf_steps["leaf_live_pre"]) == _leaf_ids(d.judgment.stmt)


@pytest.mark.parametrize("src", LOOP_FREE + WITH_LOOPS)
def test_check_cert_steps_each_leaf_once(src, leaf_steps, tmp_path, capsys):
    """The check-cert verdict is the seeded rerun alone: each leaf of the
    program deserialize rebuilds is stepped once by each analysis."""
    prog = parse(src)
    (tmp_path / "prog.whl").write_text(src, encoding="utf-8")
    (tmp_path / "cert.json").write_text(
        serialize(optimize(prog, stmt_vars(prog), CAP).derivation),
        encoding="utf-8")
    for seen in leaf_steps.values():
        seen.clear()
    assert main(["check-cert", str(tmp_path / "prog.whl"),
                 str(tmp_path / "cert.json")]) == 0
    assert capsys.readouterr().out == "Accept\n"
    # the stepped leaves all belong to the one rebuilt tree, alive
    # throughout the verdict, so distinct leaves have distinct ids
    leaves = len(_leaf_ids(prog))
    for seen in leaf_steps.values():
        assert len(seen) == len(set(seen)) == leaves


# sha256 per instance cap over the certificates of a seeded corpus
CORPUS_DIGESTS = {
    1: "9a047095ccc72d68f9f962b5dd47d8d067970b38a7371186e1a6488a9d564709",
    2: "d0dc43b7057f9a587198804c569bab8332e0a25ddf29fd56469b56cf8ddceb18",
    3: "bac9125c3db6934d3cbab03cc056cbf3dc987e7c38a5d7b48fbae4cdcc74ecd4",
}

# the same digests over certificates written without the instance_cap field
CAPLESS_DIGESTS = {
    1: "6e1ea380bb7e8fccc166dcbc7cc87817fe9e225be25030c761ba77187412d8d7",
    2: "08bbad6c68d1b5a53040b1255fdefcb77a6f75debfdb2e4d14fb7fb7482a6720",
    3: "50b39ee4c0b728c956fb538d03aea31162d8badf8ed2b53f143fa719227eaf32",
}


@functools.cache
def _corpus_certificates() -> dict:
    """The certificates of 600 generated programs, per instance cap."""
    corpus = []
    for seed in range(600):
        prog = gen_program(GenConfig(seed=seed, max_stmts=(12, 40)[seed % 2]))
        rng = random.Random(f"live:{seed}")
        live = frozenset(v for v in sorted(stmt_vars(prog)) if rng.random() < 0.5)
        corpus.append((prog, live))
    texts = {}
    for cap in CORPUS_DIGESTS:
        texts[cap] = [serialize(optimize(prog, live, cap).derivation, cap)
                      for prog, live in corpus]
    return texts


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _reject_digest(lines) -> str:
    """The digest of reject outcomes, one tab-separated line each."""
    return _digest("\t".join(line) + "\n" for line in lines)


def test_corpus_certificates_pinned():
    """The certificates of 600 generated programs stay byte-identical."""
    assert {cap: _digest(texts) for cap, texts in _corpus_certificates().items()} \
        == CORPUS_DIGESTS


def test_corpus_certificates_differ_only_by_the_cap():
    """Each certificate states the cap it was written at, and without that
    field it is byte-identical to the one written before the field was."""
    digests = {}
    for cap, texts in _corpus_certificates().items():
        docs = [json.loads(text) for text in texts]
        assert {doc.pop("instance_cap") for doc in docs} == {cap}
        digests[cap] = _digest(map(certificate.to_json, docs))
    assert digests == CAPLESS_DIGESTS


LOOP_SRC = "p := cons(0); i := 0; while i < 3 do { q := [p]; i := i + 1 }"


def test_deserialize_rejects_bad_documents():
    """Each bad document is rejected at its field, and the messages of
    all of them are pinned by their digest."""
    good = json.loads(serialize(derivation_for(LOOP_SRC, {"q"})))
    rejects = []

    def reject(doc, where):
        with pytest.raises(FormatError) as err:
            deserialize(json.dumps(doc))
        assert err.value.path == where, err.value
        rejects.append((err.value.path, err.value.message))

    def loop(**changes):
        return dict(good, loops=[dict(good["loops"][0], **changes)])

    reject([1, 2], "root")
    bad = dict(good)
    del bad["program"]
    reject(bad, "root")
    # the cap is read before any other field's value, and bounds the rerun
    bad = dict(good)
    del bad["instance_cap"]
    reject(bad, "root.instance_cap")
    for cap in (True, "3", 0, MAX_INSTANCE_CAP + 1):
        reject(dict(good, instance_cap=cap), "root.instance_cap")
    capless = {k: v for k, v in good.items() if k != "instance_cap"}
    for doc in (dict(good, comment="hello"), dict(capless, comment="hello")):
        with pytest.raises(FormatError, match=r"^root: wrong field set "
                                              r"\(difference: \['comment'\]\)$"):
            deserialize(json.dumps(doc))
    reject(dict(good, comment="hello"), "root")
    reject(dict(good, program=7), "root.program")
    reject(dict(good, program="x :="), "root.program")
    reject(dict(good, entry="x"), "root.entry")
    reject(dict(good, entry={"x": [1]}), "root.entry")
    reject(dict(good, entry={"x": ["addr(0,1,1)"]}), "root.entry")
    reject(dict(good, entry={"1x": []}), "root.entry")
    reject(dict(good, exit_live="q"), "root.exit_live")
    reject(dict(good, exit_live=[3]), "root.exit_live")
    reject(dict(good, exit_live=["addr(1,1)"]), "root.exit_live")
    reject(dict(good, loops={}), "root.loops")
    reject(dict(good, loops=[]), "root.loops")
    reject(dict(good, loops=good["loops"] * 2), "root.loops")
    reject(dict(good, loops=[5]), "root.loops[0]")
    reject(dict(good, loops=[{"pts": {}}]), "root.loops[0]")
    reject(loop(pts=[]), "root.loops[0].pts")
    reject(loop(pts={"p": "addr(1,1,1)"}), "root.loops[0].pts")
    reject(loop(live="q"), "root.loops[0].live")
    reject(loop(live=["addr(1,1,0)"]), "root.loops[0].live")
    # well-formed annotations the analyses do not reproduce
    reject(loop(pts=dict(good["loops"][0]["pts"], p=[])), "root.loops[0].pts")
    reject(loop(pts=dict(good["loops"][0]["pts"], **{"addr(1,1,1)": ["addr(1,2,1)"]})),
           "root.loops[0].pts")
    reject(loop(live=["p", "q", "addr(1,1,1)"]), "root.loops[0].live")
    reject(dict(good, residual=3), "root.residual")
    reject(dict(good, residual="skip"), "root.residual")
    # blocks of a length no cons of the program allocates; on a sum of two
    # addresses the analyses would enumerate every cell of such a block
    huge = "addr(100000000,1,1)"
    sums = json.loads(serialize(derivation_for(
        "p := cons(1); x := y + z; while q < 3 do { x := y + z; q := q + 1 }", {"x"})))
    sum_loop = sums["loops"][0]
    start = time.perf_counter()
    reject(dict(sums, entry=dict(sums["entry"], y=[huge])), "root.entry")
    reject(dict(sums, entry=dict(sums["entry"], **{huge: []})), "root.entry")
    reject(dict(sums, loops=[dict(sum_loop, pts=dict(sum_loop["pts"], y=[huge]))]),
           "root.loops[0].pts")
    reject(dict(sums, loops=[dict(sum_loop, pts=dict(sum_loop["pts"], **{huge: []}))]),
           "root.loops[0].pts")
    reject(dict(good, entry=dict(good["entry"], p=["addr(2,1,1)"])), "root.entry")
    assert time.perf_counter() - start < 1.0
    # variables the program never mentions, and addresses in blocks of a
    # length it never allocates, in live sets and as points-to keys
    lookup = json.loads(serialize(derivation_for("x := cons(1, 2); y := [x]; z := y",
                                                 {"z"})))
    reject(dict(lookup, exit_live=["ghost", "z", "addr(7,1,1)"]), "root.exit_live")
    with pytest.raises(FormatError, match="^root.exit_live: ghost: "):
        deserialize(json.dumps(dict(lookup, exit_live=["wraith", "z", "ghost", "spook"])))
    reject(dict(lookup, exit_live=["ghost", "z"]), "root.exit_live")
    reject(dict(lookup, exit_live=["z", "addr(7,1,1)"]), "root.exit_live")
    reject(dict(lookup, entry=dict(lookup["entry"], ghost=[])), "root.entry")
    # addresses are written with ASCII digits only
    arabic = "addr(\u0662,1,1)"
    reject(dict(lookup, entry=dict(lookup["entry"], **{arabic: []})), "root.entry")
    reject(dict(lookup, entry=dict(lookup["entry"], y=[arabic])), "root.entry")
    head = good["loops"][0]["live"]
    reject(loop(live=head + ["ghost"]), "root.loops[0].live")
    reject(loop(live=head + ["addr(7,1,1)"]), "root.loops[0].live")
    reject(loop(pts=dict(good["loops"][0]["pts"], ghost=[])), "root.loops[0].pts")
    # instances above the cap: the analyses keep every type within it
    above = f"addr(1,{CAP + 1},1)"
    reject(dict(good, entry=dict(good["entry"], p=[above])), "root.entry")
    reject(dict(good, exit_live=good["exit_live"] + [above]), "root.exit_live")
    reject(loop(pts=dict(good["loops"][0]["pts"], **{above: []})), "root.loops[0].pts")
    reject(loop(live=head + [above]), "root.loops[0].live")
    with pytest.raises(FormatError) as err:
        deserialize("{not json")
    assert err.value.path == "root"
    # two nested loops: an annotation missing part of its loop's
    # fixpoint is named by its own index, and the other loop's holds
    nested = json.loads(serialize(derivation_for(NESTED_SRC, {"q"})))

    def nest(i, field, value):
        loops = list(nested["loops"])
        loops[i] = dict(loops[i], **{field: value})
        return dict(nested, loops=loops)

    for i, t in enumerate(nested["loops"]):
        where = f"root.loops[{i}]"
        for key, image in t["pts"].items():
            reject(nest(i, "pts", {k: v for k, v in t["pts"].items() if k != key}),
                   f"{where}.pts")
            for a in image:
                reject(nest(i, "pts", dict(t["pts"], **{key: [b for b in image if b != a]})),
                       f"{where}.pts")
        for key in t["live"]:
            reject(nest(i, "live", [k for k in t["live"] if k != key]), f"{where}.live")
        reject(nest(i, "pts", dict(t["pts"], ghost=[])), f"{where}.pts")
        reject(nest(i, "live", t["live"] + ["addr(7,1,1)"]), f"{where}.live")
    assert len(rejects) == BAD_DOCUMENT_REJECTS[0]
    assert _reject_digest(rejects) == BAD_DOCUMENT_REJECTS[1]


def test_out_of_scope_address_only_in_a_loop_image():
    """An address out of scope that only a loop image holds, after images
    and members in scope, is found, and the least offender of the first
    image that holds one is named, whatever the order of its members."""
    src = "p := cons(0); i := 0; while i < 2 do { q := [p]; p := cons(p); i := i + 1 }"
    good = json.loads(serialize(derivation_for(src, {"q"})))
    pts = good["loops"][0]["pts"]
    assert list(pts)[-2:] == ["p", "q"] and "addr(1,1,1)" in pts["p"]

    def message(**images):
        doc = dict(good, loops=[dict(good["loops"][0], pts=dict(pts, **images))])
        with pytest.raises(FormatError) as err:
            deserialize(json.dumps(doc))
        return str(err.value)

    assert message(q=["addr(1,1,1)", "addr(2,1,1)", "addr(1,4,1)"]) == (
        "root.loops[0].pts: addr(1,4,1): instance 4 is above the instance cap 3")
    assert message(q=["addr(1,1,1)", "addr(2,1,1)"]) == (
        "root.loops[0].pts: addr(2,1,1): no cons of the program allocates "
        "blocks of length 2")
    assert message(p=["addr(1,1,1)", "addr(2,1,1)"], q=["addr(1,4,1)"]) == (
        "root.loops[0].pts: addr(2,1,1): no cons of the program allocates "
        "blocks of length 2")


NESTED_SRC = ("p := cons(0); i := 0; z := 0; while i < 2 do { j := 0; "
              "while j < 2 do { q := [p]; p := cons(p); j := j + 1 }; "
              "i := i + 1 }")


def test_loop_annotations_come_from_the_parse(monkeypatch):
    """deserialize walks the rerun's derivation for its loop annotations
    only when the parse recorded a loop: on the loop-free chain_src(200)
    it visits no derivation node for them, while programs with nested
    loops keep every annotation."""
    visited, loop_types = [], certificate._loop_types

    def counted(d):
        visited.append(sum(1 for _ in walk_paths(d, lambda n: (n.judgment.stmt, n.premises))))
        return loop_types(d)

    d = derivation_for(chain_src(200), {"p0", "p1", "p2", "p3"})
    text = serialize(d)
    assert json.loads(text)["loops"] == []
    monkeypatch.setattr(certificate, "_loop_types", counted)
    assert deserialize(text) == d
    assert visited == []
    for src in (NESTED_SRC, TWO_DEEP, WITH_LOOPS[2], WITH_LOOPS[3]):
        prog = parse(src)
        d = optimize(prog, stmt_vars(prog), CAP).derivation
        loops = sum(isinstance(n, While) for n in walk(prog))
        visited.clear()
        text = serialize(d)
        assert len(json.loads(text)["loops"]) == loops >= 1, src
        again = deserialize(text)
        assert again == d and serialize(again) == text, src
        assert len(visited) == 3 and min(visited) > 0, src


def test_deserialize_rejects_a_repeated_key():
    """JSON keeps the last value of a repeated key, so a document could
    state two facts for one key and have the first ignored."""
    good = serialize(derivation_for(LOOP_SRC, {"q"}))
    decoy = '{"program": "skip",' + good[1:]
    assert json.loads(decoy) == json.loads(good)
    with pytest.raises(FormatError, match="^root: repeated key 'program'$"):
        deserialize(decoy)
    nested = good.replace('"pts": {', '"pts": {"p": [], ', 1)
    assert json.loads(nested) == json.loads(good)
    with pytest.raises(FormatError, match="^root: repeated key 'p'$"):
        deserialize(nested)
    assert deserialize(good) == derivation_for(LOOP_SRC, {"q"})


def test_deserialize_reads_one_spelling_per_address():
    """A numeral with a leading zero would name a cell under a second key,
    whose image could silently replace the first; no such key or image
    member is read."""
    good = json.loads(serialize(derivation_for("x := cons(1); y := [x]", {"y"})))
    for entry in ({"addr(1,01,1)": ["addr(1,1,1)"], "addr(1,1,1)": []},
                  {"addr(1,1,1)": [], "x": ["addr(01,1,1)"]}):
        doc = dict(good, entry=dict(good["entry"], **entry))
        with pytest.raises(FormatError) as err:
            deserialize(json.dumps(doc))
        assert err.value.path == "root.entry"
        spelled = {k: [a.replace("01", "1") for a in v]
                   for k, v in doc["entry"].items() if "01" not in k}
        deserialize(json.dumps(dict(doc, entry=spelled)))


def test_variables_named_like_addresses_round_trip():
    """Only a key that starts with 'addr(' is read as an address, so
    variables whose names start with addr are read as variables."""
    src = ("addr := cons(1); i := 0; while i < 2 do { addrx := [addr]; "
           "addr_1 := cons(addrx); i := i + 1 }")
    d = derivation_for(src, {"addr_1", "addr"})
    text = serialize(d)
    assert json.loads(text)["exit_live"] == ["addr", "addr_1"]
    again = deserialize(text)
    assert again == d and serialize(again) == text


def test_deserialize_parses_each_address_spelling_once(monkeypatch):
    """A large certificate repeats a few distinct addresses in many
    images; each spelling is parsed once per document."""
    calls, parse_addr = [], certificate.parse_addr

    def counted(text):
        calls.append(text)
        return parse_addr(text)

    monkeypatch.setattr(certificate, "parse_addr", counted)
    text = serialize(optimize(parse(PROBE), {"p"}, 20).derivation, 20)
    assert deserialize(text).judgment.stmt == parse(PROBE)
    assert len(calls) == len(set(calls)) < text.count('"addr(') / 10


def test_the_verdict_parses_the_program_once(monkeypatch):
    """deserialize takes its program from the caller's parse of the same
    text, trailing whitespace aside, and parses any other text once:
    calls counted by wrapping certificate.parse, as the benchmark's
    tracer does. A failed parse leaves the memo pairing the older source
    with its own tree. A derivation built on a reused tree equals a
    fresh one and serializes to the same bytes."""
    calls, parse_ = [], certificate.parse

    def counted(text):
        calls.append(text)
        return parse_(text)

    monkeypatch.setattr(certificate, "parse", counted)
    texts = [pretty(gen_program(GenConfig(seed=seed, max_stmts=n)))
             for seed in range(0, 300, 10) for n in (12, 40)]
    other = "q := cons(1); r := [q]"
    for text in texts + [chain_src(200)]:
        prog = parse(text)
        cert = serialize(optimize(prog, stmt_vars(prog), CAP).derivation)
        assert json.loads(cert)["program"] == text
        parse(other)
        calls.clear()
        fresh = deserialize(cert)
        assert calls == [text]
        for form in (text, text + "\n"):
            tree = parse(form)
            calls.clear()
            d = deserialize(cert)
            assert calls == [] and d.judgment.stmt is tree, form
            assert d == fresh and serialize(d) == cert
        with pytest.raises(ParseError):
            parse(other + "; [")
        assert lang.last_parsed(text) is tree
        calls.clear()
        assert deserialize(cert) == fresh and calls == []
        tree = parse("// the same program\n" + text.replace("; ", ";\n  "))
        assert tree == fresh.judgment.stmt
        calls.clear()
        d = deserialize(cert)
        assert calls == [text] and d.judgment.stmt is not tree
        assert d == fresh and serialize(d) == cert


def test_invariant_faults_named_before_live_faults():
    """The live pass reads the invariants, so a coarser inner invariant
    that is not closed also changes an earlier loop's head live set;
    the invariant is named, not that live set."""
    prog = gen_program(GenConfig(seed=174, max_stmts=14))
    for cap in (1, 2, 3):
        doc = json.loads(serialize(optimize(prog, {"v2", "v3", "v4"}, cap).derivation, cap))
        image = doc["loops"][1]["pts"]["addr(2,1,1)"]
        assert "addr(1,1,1)" not in image
        image.append("addr(1,1,1)")
        with pytest.raises(FormatError) as err:
            deserialize(json.dumps(doc))
        assert err.value.path == "root.loops[1].pts", cap


def _loop_seeds(d):
    """The recorded annotations of d's loops, in source preorder."""
    out, todo = [], [d]
    while todo:
        node = todo.pop()
        if node.rule == "whl_d":
            out.append((node.judgment.post.pts, node.judgment.pre.live))
        todo.extend(reversed(node.premises))
    return out


def test_perturbed_seeds_still_reach_closure():
    """A loop seed that misses part of the fixpoint is only a start value:
    the seeded analyses still iterate every loop to closure, so they
    return the unseeded derivation, which check accepts."""
    perturbed = 0
    for seed in range(150):
        prog = gen_program(GenConfig(seed=seed, max_stmts=14))
        loops = [n for n in walk(prog) if isinstance(n, While)]
        variables = stmt_vars(prog)
        live = frozenset(sorted(variables)[::2])
        ann = pointsto.annotate(prog, bottom(variables), CAP)
        d = liveness.live_annotate(ann, live)
        seeds = _loop_seeds(d)
        all_pts = {id(w): pts for w, (pts, _) in zip(loops, seeds)}
        all_live = {id(w): head for w, (_, head) in zip(loops, seeds)}
        cases = []
        for w, (pts, head) in zip(loops, seeds):
            cases += [({**all_pts, id(w): PointsTo({k: v for k, v in pts.env.items()
                                                    if k != key})}, all_live)
                      for key in pts.env]
            cases += [(all_pts, {**all_live, id(w): head - {key}}) for key in head]
        for pts_seeds, live_seeds in cases:
            again = liveness.live_annotate(
                pointsto.annotate(prog, bottom(variables), CAP, pts_seeds),
                live, live_seeds)
            assert check(again, CAP) == ACCEPT, seed
            assert again == d, seed
        perturbed += len(cases)
    assert perturbed >= 1_000, perturbed


def test_coarser_closed_invariant_accepted():
    d = derivation_for(LOOP_SRC, {"q"})
    doc = json.loads(serialize(d))
    pts = doc["loops"][0]["pts"]
    pts["q"] = pts["addr(1,1,1)"] = ["addr(1,1,1)"]
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    coarse = deserialize(text)
    assert coarse != d and check(coarse, CAP) == ACCEPT
    assert coarse.judgment.residual == d.judgment.residual
    assert serialize(coarse) == text


# (count, digest) of the reject messages of the hand-written bad documents,
# and of the outcomes of the document tamper corpus and of the planted
# out-of-scope keys and addresses
BAD_DOCUMENT_REJECTS = (
    112, "00d9ed540141bb0f56d6dfedf71179ff46052d703719eadd6b80f4c2aa875084")
TAMPER_OUTCOMES = (
    4506, "da1551d228f086b7a53e1664dbbba8c318219dfc3d42b0e84e34e595d91a3f15")
SCOPE_OUTCOMES = (
    780, "ec8c3fbdb398c9309b2594d7b778fe097caeb3f42971486085f73a0e441cb159")


def _leaf_mutants(s):
    """Each tree with exactly one leaf of s replaced by a different leaf."""
    if isinstance(s, Seq):
        for i, item in enumerate(s.items):
            yield from (Seq(*s.items[:i], m, *s.items[i + 1:])
                        for m in _leaf_mutants(item))
    elif isinstance(s, If):
        yield from (If(s.cond, m, s.else_body) for m in _leaf_mutants(s.then_body))
        yield from (If(s.cond, s.then_body, m) for m in _leaf_mutants(s.else_body))
    elif isinstance(s, While):
        yield from (While(s.cond, m) for m in _leaf_mutants(s.body))
    else:
        yield Skip() if s != Skip() else Assign("zz", IntLit(1))


def _document_mutants(doc):
    """(kind, mutated document) pairs, one edit each."""
    def edited(fn):
        copy = json.loads(json.dumps(doc))
        fn(copy)
        return copy

    for i, t in enumerate(doc["loops"]):
        for key, image in t["pts"].items():
            for k in range(len(image)):
                yield "address", edited(
                    lambda c: c["loops"][i]["pts"][key].pop(k))
            yield "key", edited(lambda c: c["loops"][i]["pts"].pop(key))
        for k in range(len(t["live"])):
            yield "live", edited(lambda c: c["loops"][i]["live"].pop(k))
        yield "loop", edited(lambda c: c["loops"].pop(i))
    for field in ("residual", "program"):
        for m in _leaf_mutants(parse(doc[field])):
            yield field, dict(doc, **{field: pretty(m)})


def test_document_tamper_corpus_rejected():
    """Every one-edit mutant of a certificate is rejected, or describes
    another program; the outcome of each, the path and message of every
    reject included, is pinned by their digest."""
    rng = random.Random(67)
    counts = Counter()
    outcomes = []
    programs = 0
    for seed in itertools.count():
        if programs == 100:
            break
        prog = gen_program(GenConfig(seed=seed, max_stmts=14))
        variables = sorted(stmt_vars(prog))
        live = frozenset(v for v in variables if rng.random() < 0.5)
        doc = json.loads(serialize(optimize(prog, live, CAP).derivation))
        if not doc["loops"]:
            continue
        programs += 1
        for kind, mutant in _document_mutants(doc):
            counts[kind] += 1
            try:
                d = deserialize(json.dumps(mutant))
            except FormatError as err:
                outcomes.append((kind, err.path, err.message))
                continue
            outcomes.append((kind, "accepted"))
            # a derivation deserialize returns is valid by construction,
            # so only the program comparison can reject it
            assert check(d, CAP).ok, f"seed {seed}: {kind} mutation unchecked"
            assert d.judgment.stmt != prog, f"seed {seed}: {kind} mutation accepted"
    assert min(counts[k] for k in ("address", "key", "live", "loop",
                                   "residual", "program")) >= 100, counts
    assert len(outcomes) == TAMPER_OUTCOMES[0]
    assert _reject_digest(outcomes) == TAMPER_OUTCOMES[1]


def _scope_mutants(doc, rng):
    """Documents with 1-3 keys or image members out of scope planted in
    random places of the entry, exit live set and loop annotations: a
    variable the program never mentions, an address in a block of a
    length no cons allocates, or one above the cap, each of several."""
    bad = ["ghost", "wraith", "addr(9,1,1)", "addr(7,2,3)",
           f"addr(1,{CAP + 1},1)", f"addr(1,{CAP + 4},1)"]
    for _ in range(20):
        copy = json.loads(json.dumps(doc))
        types = [copy["entry"]] + [t["pts"] for t in copy["loops"]]
        lives = [copy["exit_live"]] + [t["live"] for t in copy["loops"]]
        for _ in range(rng.randint(1, 3)):
            text = rng.choice(bad)
            where = rng.random()
            if where < 0.25:
                lives[rng.randrange(len(lives))].insert(0, text)
            elif where < 0.5:
                rng.choice(types)[text] = []
            else:
                pts = rng.choice(types)
                if pts and not text.isidentifier():
                    image = pts[rng.choice(sorted(pts))]
                    image.insert(rng.randint(0, len(image)), text)
        yield copy


def test_scope_rejects_name_the_first_offender():
    """Out-of-scope keys and addresses planted in the 39 certificates with
    a loop among 60 generated programs: a document that got one is
    rejected at the first part that holds one, naming that part's least
    offender, and every outcome is pinned by their digest."""
    rng = random.Random(89)
    outcomes = []
    for seed in range(60):
        prog = gen_program(GenConfig(seed=seed, max_stmts=(12, 40)[seed % 2]))
        live = frozenset(sorted(stmt_vars(prog))[::2])
        doc = json.loads(serialize(optimize(prog, live, CAP).derivation))
        if not doc["loops"]:
            continue
        for mutant in _scope_mutants(doc, rng):
            try:
                deserialize(json.dumps(mutant))
            except FormatError as err:
                outcomes.append((err.path, err.message))
            else:
                outcomes.append(("accepted",))
    assert len(outcomes) == SCOPE_OUTCOMES[0]
    assert _reject_digest(outcomes) == SCOPE_OUTCOMES[1]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)

FIELD_PATHS = (("instance_cap",), ("program",), ("entry",), ("entry", "p"), ("exit_live",),
               ("loops",), ("loops", 0), ("loops", 0, "pts"),
               ("loops", 0, "pts", "p"), ("loops", 0, "live"), ("residual",))


# json.loads raises ValueError on the first, over the default digit
# limit, and RecursionError on the second
UNREADABLE_JSON = ('{"program": ' + "1" * 5001 + "}",
                   "[" * (sys.getrecursionlimit() + 1))


@settings(max_examples=200, deadline=None)
@given(st.text())
@example(UNREADABLE_JSON[0])
@example(UNREADABLE_JSON[1])
def test_deserialize_text_raises_only_format_error(default_digit_limit, text):
    try:
        with default_digit_limit():
            deserialize(text)
    except FormatError as err:
        if text in UNREADABLE_JSON:
            assert err.path == "root"
            assert err.message.startswith("not valid JSON: ")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELD_PATHS), JSON_VALUES)
def test_deserialize_field_values_raise_only_format_error(where, value):
    doc = json.loads(serialize(derivation_for(LOOP_SRC, {"q"})))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    try:
        deserialize(json.dumps(doc))
    except FormatError:
        pass


def test_check_accepts_emitted(fig_src):
    for d in corpus() + [derivation_for(fig_src, {"y"})]:
        assert check(d, CAP) == ACCEPT


def test_check_rejects_rule_on_wrong_form():
    d = derivation_for("z := y + 1", set())
    assert d.rule == "ass_d1"
    wrong = Derivation("lok_d1", d.judgment, d.premises)
    verdict = check(wrong, CAP)
    assert not verdict.ok and verdict.path == "root"
    assert "does not apply" in verdict.reason
    # check knows only the rules the optimizer builds: the consequence
    # rule is not one of them
    wrapped = Derivation("csq_d", d.judgment, (d,))
    assert check(wrapped, CAP) == CheckResult(False, "root", "unknown rule 'csq_d'")


# every rule with the statement class it applies to, and a statement of
# each class
RULE_FORMS = {
    "skip": "Skip", "ass_d1": "Assign", "ass_d2": "Assign", "con_d1": "Cons",
    "con_d2": "Cons", "lok_d1": "Lookup", "lok_d2": "Lookup", "mut_d1": "Mutate",
    "mut_d2": "Mutate", "dis_d": "Dispose", "seq_d": "Seq", "if_d": "If", "whl_d": "While",
}
FORM_SRCS = ["skip", "x := 1", "x := cons(1)", "x := [x]", "[x] := 1", "dispose(x)",
             "x := 1; skip", "if x < 1 then { skip } else { x := 2 }",
             "while x < 1 do { x := x + 1 }"]


def test_check_names_every_rule_on_every_other_form():
    """For every rule, check given a statement of another class, with that
    statement's own premises, gives the reason text check has always
    given; so does every rule given the wrong number of premises."""
    derivations = [derivation_for(src, set()) for src in FORM_SRCS]
    assert sorted({type(d.judgment.stmt).__name__ for d in derivations}) == \
        sorted(set(RULE_FORMS.values()))
    wrong = 0
    for rule, form in RULE_FORMS.items():
        for d in derivations:
            s = d.judgment.stmt
            if type(s).__name__ == form:
                arity = len(d.premises)
                for premises in (d.premises + (d,), d.premises[1:]):
                    if len(premises) != arity:
                        verdict = check(Derivation(rule, d.judgment, premises), CAP)
                        assert verdict == CheckResult(False, "root", f"{rule} takes "
                                                      f"{arity} premises, got {len(premises)}")
                continue
            verdict = check(Derivation(rule, d.judgment, d.premises), CAP)
            assert verdict == CheckResult(False, "root",
                                          f"{rule} does not apply to {pretty(s)!r}"), rule
            wrong += 1
    assert wrong == 13 * 8  # each rule meets the eight classes it does not name


def test_check_rejects_flipped_side_condition():
    d = derivation_for("z := y + 1", {"z"})
    assert d.rule == "ass_d2"
    wrong = Derivation("ass_d1", tamper_ops.replace(d.judgment, residual=parse("skip")))
    verdict = check(wrong, CAP)
    assert not verdict.ok and "side condition" in verdict.reason


def _analyze_paths(d):
    """The `whilep analyze live` row path of every node of d, keyed by
    the premise address a tamper_ops label names it by ("0.2", "root")."""
    rows = walk_paths(d, lambda n: (n.judgment.stmt, n.premises))
    return {".".join(map(str, addr)) or "root": path
            for (addr, _), (path, _) in zip(tamper_ops.walk(d), rows, strict=True)}


def _names_mutated_node(verdict, label, paths):
    """Whether verdict names the node label mutated, or an ancestor."""
    mutated = paths[label.partition("@")[2]]
    return verdict.path == mutated or mutated.startswith(verdict.path + ".")


def test_check_reports_addressable_paths(fig_src, tmp_path, capsys):
    d = derivation_for(fig_src, {"y"})
    prog = tmp_path / "fig.whl"
    prog.write_text(fig_src)
    assert main(["analyze", "live", str(prog), "--live", "y"]) == 0
    rows = json.loads(capsys.readouterr().out)["nodes"]
    paths = _analyze_paths(d)
    assert list(paths.values()) == [row["path"] for row in rows]
    for label, mutant in tamper_ops.mutants(d):
        verdict = check(mutant, CAP)
        assert not verdict.ok and verdict.reason, label
        assert _names_mutated_node(verdict, label, paths), (label, verdict.path)


# sha256 of "label|ok|reason" lines over the mutants below, recorded
# before check became one preorder loop
TAMPER_VERDICTS = (1417, "a17e3ec6e8994945b754f4d64d20772ac975dc7c81d488abc9a63c5888c58951")


def test_tamper_corpus_rejected():
    h, rejected, own = hashlib.sha256(), 0, 0
    for d in corpus()[:12]:
        paths = _analyze_paths(d)
        for label, mutant in tamper_ops.mutants(d):
            verdict = check(mutant, CAP)
            assert not verdict.ok, f"{label} was accepted"
            assert _names_mutated_node(verdict, label, paths), (label, verdict.path)
            h.update(f"{label}|{verdict.ok}|{verdict.reason}\n".encode())
            rejected += 1
            own += verdict.path == paths[label.partition("@")[2]]
    assert (rejected, h.hexdigest()) == TAMPER_VERDICTS
    assert 0 < own < rejected


def test_check_rejects_broken_seq_chain(fig_src):
    d = derivation_for(fig_src, {"y"})
    p = d.premises
    assert d.rule == "seq_d" and len(p) == 5 and check(d, CAP) == ACCEPT
    # a valid derivation of the third item from another entry type
    detached = derivation_for("i := 10", {"i"})
    assert detached.judgment.stmt == p[2].judgment.stmt
    assert detached.judgment.pre != p[2].judgment.pre
    assert check(detached, CAP) == ACCEPT
    items = d.judgment.residual.items
    other = LiveType(bottom({"q"}), frozenset())
    cover = "seq_d premises do not cover the items in order"
    cases = {
        "swapped": ((p[1], p[0]) + p[2:], cover),
        "swapped in the middle": (p[:2] + (p[3], p[2], p[4]), cover),
        "dropped": (p[:2] + p[3:], "seq_d takes 5 premises, got 4"),
        "dropped last": (p[:4], "seq_d takes 5 premises, got 4"),
        "duplicated": (p[:2] + (p[1],) + p[3:], cover),
        "extra": (p + (p[4],), "seq_d takes 5 premises, got 6"),
        "none": ((), "seq_d takes 5 premises, got 0"),
        "chain broken in the middle": (
            p[:2] + (detached,) + p[3:], "seq_d premises 1 and 2 do not chain"),
    }
    for label, (premises, reason) in cases.items():
        verdict = check(Derivation("seq_d", d.judgment, premises), CAP)
        assert verdict == CheckResult(False, "root", reason), label
    judgments = {
        "entry": (tamper_ops.replace(d.judgment, pre=other),
                  "seq_d entry does not match the first premise"),
        "exit": (tamper_ops.replace(d.judgment, post=other),
                 "seq_d exit does not match the last premise"),
        "wrong residual item": (
            tamper_ops.replace(d.judgment, residual=Seq(Skip(), *items[1:])),
            "seq_d residual is not the premises' sequence"),
        "residual items dropped": (
            tamper_ops.replace(d.judgment, residual=Seq(*items[:4])),
            "seq_d residual is not the premises' sequence"),
        "residual not a sequence": (
            tamper_ops.replace(d.judgment, residual=items[0]),
            "seq_d residual is not the premises' sequence"),
    }
    for label, (judgment, reason) in judgments.items():
        verdict = check(Derivation("seq_d", judgment, p), CAP)
        assert verdict == CheckResult(False, "root", reason), label
