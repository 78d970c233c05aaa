"""Random program/state generation and the differential soundness suites."""

import random

import mutants
import pytest

from whilep import harness
from whilep.harness import (
    GenConfig, _gen_state, _synthetic_ptype, gen_program, gen_state,
    make_similar_state, run_soundness_suite,
)
from whilep.lang import (
    Assign, Cons, Dispose, If, Lookup, Mutate, Seq, Skip, While, free_vars,
    parse, pretty, stmt_vars, walk,
)
from whilep.interp import OutOfFuel, execute
from whilep.liveness import live_annotate, similar_states
from whilep.memory import Address, NilValue
from whilep.pointsto import DEFAULT_CAP, annotate, bottom, models

CAP = DEFAULT_CAP


def forms(s):
    return {type(node) for node in walk(s)}


def test_gen_program_deterministic():
    for seed in range(30):
        cfg = GenConfig(seed=seed)
        assert gen_program(cfg) == gen_program(cfg)


def test_gen_program_single_leaf():
    prog = gen_program(GenConfig(seed=1, max_stmts=1))
    assert not isinstance(prog, (Seq, If, While))


def test_gen_program_covers_every_form():
    seen = set()
    for seed in range(100):
        prog = gen_program(GenConfig(seed=seed, max_stmts=20))
        shapes = forms(prog)
        assert len(shapes) >= 3, f"seed {seed}: {pretty(prog)}"
        seen |= shapes
    assert seen == {Skip, Assign, Cons, Lookup, Mutate, Dispose,
                    Seq, If, While}


def test_gen_program_respects_budget():
    def count(s):
        if isinstance(s, Seq):
            return sum(map(count, s.items))
        if isinstance(s, If):
            return 1 + count(s.then_body) + count(s.else_body)
        if isinstance(s, While):
            return 1 + count(s.body)
        return 1

    for seed in range(60):
        cfg = GenConfig(seed=seed, max_stmts=8)
        assert count(gen_program(cfg)) <= 2 * cfg.max_stmts


def test_gen_state_from_bottom():
    cfg = GenConfig(seed=4)
    prog = gen_program(cfg)
    st = gen_state(cfg, bottom(stmt_vars(prog)))
    assert set(st.stack) == stmt_vars(prog)
    # an empty points-to image forbids addresses but allows nil
    assert all(not isinstance(v, Address) for v in st.stack.values())
    assert st.heap == {}
    assert gen_state(cfg, bottom(stmt_vars(prog))) == st


def test_gen_state_models_its_type():
    rng = random.Random(61)
    for _ in range(1000):
        p = _synthetic_ptype(rng, ["x", "y", "z"], 3)
        st = _gen_state(rng, p)
        assert models(st, p, CAP)
        assert set(st.stack) == {"x", "y", "z"}
        for a in st.heap:
            assert isinstance(a, Address)


def test_make_similar_state_contract():
    rng = random.Random(67)
    changed_var = changed_cell = 0
    for seed in range(200):
        cfg = GenConfig(seed=seed)
        prog = gen_program(cfg)
        base = bottom(stmt_vars(prog))
        ann = annotate(prog, base, CAP)
        live = live_annotate(ann, frozenset())
        st = _gen_state(rng, base)
        twin = make_similar_state(rng, st, prog, live.judgment.pre.live, CAP)
        assert similar_states(st, twin, base, live.judgment.pre.live, CAP), \
            f"seed {seed}"
        reads = free_vars(prog)
        for x, v in twin.stack.items():
            if st.stack[x] != v:
                assert x not in live.judgment.pre.live and x not in reads
                changed_var += 1
        for a, v in twin.heap.items():
            if st.heap[a] != v:
                changed_cell += 1
        assert twin.heap.keys() == st.heap.keys()
    assert changed_var > 0  # the twins genuinely differ somewhere


def test_junk_values_cover_all_kinds():
    rng = random.Random(71)
    prog = parse("x := 1; y := 2")  # writes only: both variables junkable
    base = bottom(stmt_vars(prog))
    kinds = set()
    for _ in range(300):
        st = _gen_state(rng, base)
        twin = make_similar_state(rng, st, prog, frozenset(), CAP)
        for v in twin.stack.values():
            kinds.add(NilValue if isinstance(v, NilValue) else type(v))
    assert {int, NilValue, Address} <= kinds


def test_suite_deterministic():
    kw = dict(gen_cfg=GenConfig(seed=5), checks=("t1", "t4"), cap=CAP)
    assert run_soundness_suite(60, **kw) == run_soundness_suite(60, **kw)


def test_t4_executes_no_twin_after_an_original_out_of_fuel(monkeypatch):
    """Trial 57 starts from the bottom type, and its program runs out of
    fuel, so t4 has nothing to compare: the original is the only run."""
    assert random.Random("suite:57").random() >= 0.35  # no synthetic entry type
    outcomes = []

    def spy(*args):
        outcomes.append(execute(*args))
        return outcomes[-1]
    monkeypatch.setattr(harness, "execute", spy)
    report = run_soundness_suite(1, GenConfig(57), checks=("t4",))
    assert report["checks"]["t4"] == {"pass": 0, "skip": 1, "fail": 0,
                                      "failing_seeds": [], "corrected": 0}
    assert outcomes == [OutOfFuel()]


def test_suite_rejects_an_unknown_check(monkeypatch):
    """An unknown name is a ValueError naming the first one, and an empty
    selection one of its own, before any trial runs."""
    def trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "gen_program", trial)
    monkeypatch.setattr(harness, "_lemma1_trial", trial)
    for checks, name in ((("t9",), "t9"), (("t1", "t8", "t9"), "t8"), (["lemma1", "T1"], "T1")):
        with pytest.raises(ValueError) as info:
            run_soundness_suite(3, checks=checks)
        assert str(info.value) == f"unknown check: {name}"
    for checks in ((), []):
        with pytest.raises(ValueError, match="^no check selected$"):
            run_soundness_suite(3, checks=checks)


def test_suite_accounting_and_structure():
    report = run_soundness_suite(120, GenConfig(seed=9))
    assert report["trials"] == 120
    assert set(report["checks"]) == {"t1", "t2", "t3", "t4", "lemma1"}
    for name, entry in report["checks"].items():
        assert entry["pass"] + entry["skip"] + entry["fail"] == 120, name
        assert entry["fail"] == 0, (name, entry)
        assert entry["failing_seeds"] == []
    assert "corrected" in report["checks"]["t4"]
    # lemma1 needs no program execution, so nothing is ever skipped
    assert report["checks"]["lemma1"]["skip"] == 0


def test_suite_completion_rate():
    """Generated programs must terminate normally often enough that the
    execution-dependent checks see real coverage."""
    report = run_soundness_suite(300, GenConfig(seed=0), checks=("t1",),
                                 cap=CAP)
    assert report["checks"]["t1"]["pass"] >= 60


def test_sabotage_is_detected_and_replayable(monkeypatch):
    """A weak write that drops the old images fails t1, and its first
    failing seed replays alone."""
    mutants.install(monkeypatch, "weak_drop")
    report = run_soundness_suite(600, GenConfig(seed=0), checks=("t1",),
                                 cap=CAP)
    assert report["checks"]["t1"]["fail"] >= 1
    seeds = report["checks"]["t1"]["failing_seeds"]
    assert seeds
    replay = run_soundness_suite(1, GenConfig(seed=seeds[0]), checks=("t1",),
                                 cap=CAP)
    assert replay["checks"]["t1"]["fail"] == 1
    monkeypatch.undo()
    healthy = run_soundness_suite(1, GenConfig(seed=seeds[0]), checks=("t1",),
                                  cap=CAP)
    assert healthy["checks"]["t1"]["fail"] == 0


def test_failing_seeds_capped(monkeypatch):
    mutants.install(monkeypatch, "weak_drop")
    report = run_soundness_suite(4000, GenConfig(seed=0), checks=("t1",),
                                 cap=CAP)
    entry = report["checks"]["t1"]
    assert entry["fail"] > 20
    assert len(entry["failing_seeds"]) == 20


def test_suite_counts_pinned():
    """Per-check counts of a full run at seed 0. Each check draws its
    inputs from its own stream, so running it alone reports exactly its
    entry of the full run, failing seeds included."""
    full = run_soundness_suite(300, GenConfig(seed=0))
    assert full["checks"] == {
        "t1": {"pass": 122, "skip": 178, "fail": 0, "failing_seeds": []},
        "t2": {"pass": 122, "skip": 178, "fail": 0, "failing_seeds": []},
        "t3": {"pass": 122, "skip": 178, "fail": 0, "failing_seeds": []},
        "t4": {"pass": 135, "skip": 165, "fail": 0, "failing_seeds": [],
               "corrected": 61},
        "lemma1": {"pass": 300, "skip": 0, "fail": 0, "failing_seeds": []},
    }
    for name in full["checks"]:
        alone = run_soundness_suite(300, GenConfig(seed=0), checks=(name,))
        assert alone["checks"] == {name: full["checks"][name]}, name
