"""Acceptance gate: every deliverable guarantee at its stated scale.

Run with -s to see one PASS/FAIL line per criterion:

    python3 -m pytest tests/test_acceptance.py -s
"""

import random
import time

from whilep import GenConfig, gen_program, run_soundness_suite
from whilep.certificate import ACCEPT, check, deserialize, serialize
from whilep.deadcode import optimize
from whilep.interp import Aborted, Final, execute
from whilep.lang import While, parse, stmt_vars
from whilep.pointsto import DEFAULT_CAP, annotate, bottom, leq
from whilep.harness import _gen_state

import mutants
import tamper_ops

CAP = DEFAULT_CAP


def report(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_1_motivating_example(fig_src, fig_residual):
    started = time.perf_counter()
    program = parse(fig_src)
    result = optimize(program, frozenset({"y"}), CAP)
    entry = result.derivation.judgment.pre.pts
    st = _gen_state(random.Random(0), entry)
    original = execute(program, st, 100_000)
    optimized = execute(result.optimized, st.copy(), 100_000)
    elapsed = time.perf_counter() - started
    ok = (result.optimized == parse(fig_residual)
          and isinstance(original, Aborted)
          and isinstance(optimized, Final)
          and optimized.state.stack["y"] == 3
          and elapsed < 1.0)
    report(1, ok, "aborting write is eliminated, residual exact, "
                  f"y = 3 preserved ({elapsed:.3f}s)")


def test_criteria_2_3_6_entry_exit_soundness():
    started = time.perf_counter()
    suite = run_soundness_suite(10_000, GenConfig(seed=0),
                                checks=("t1", "t2", "lemma1"), cap=CAP)
    elapsed = time.perf_counter() - started
    t1 = suite["checks"]["t1"]
    ok = t1["fail"] == 0 and elapsed < 60.0
    report(2, ok, f"exit points-to soundness: {t1['pass']} executions, "
                  f"0 violations required, got {t1['fail']} ({elapsed:.1f}s)")
    t2 = suite["checks"]["t2"]
    report(3, t2["fail"] == 0,
           f"live-restricted soundness at entry and exit: {t2['pass']} "
           f"executions, got {t2['fail']} violations")
    l1 = suite["checks"]["lemma1"]
    report(6, l1["fail"] == 0,
           f"abstract expression evaluation covers concrete results: "
           f"10000 trials, got {l1['fail']} violations")


def test_criteria_4_5_similarity_and_optimization():
    suite = run_soundness_suite(5_000, GenConfig(seed=0),
                                checks=("t3", "t4"), cap=CAP)
    t3 = suite["checks"]["t3"]
    report(4, t3["fail"] == 0,
           f"similar states stay similar: {t3['pass']} constructed pairs, "
           f"got {t3['fail']} violations")
    t4 = suite["checks"]["t4"]
    report(5, t4["fail"] == 0,
           f"residuals simulate originals on live data: {t4['pass']} runs "
           f"(skips include {t4['corrected']} aborting originals), "
           f"got {t4['fail']} violations")


def test_criterion_7_loop_invariants():
    loops = 0
    seed = 0
    slowest = 0.0
    valid = True
    while loops < 1000:
        program = gen_program(GenConfig(seed=seed, max_stmts=14))
        seed += 1
        started = time.perf_counter()
        ann = annotate(program, bottom(stmt_vars(program)), CAP)
        slowest = max(slowest, time.perf_counter() - started)
        stack = [ann]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if not isinstance(node.stmt, While):
                continue
            loops += 1
            inv = node.post
            if not (leq(node.pre, inv)
                    and leq(annotate(node.stmt.body, inv, CAP).post, inv)):
                valid = False
    ok = valid and slowest < 1.0
    report(7, ok, f"{loops} loop invariants contain their entry and are "
                  f"closed under the body (slowest analysis {slowest:.3f}s)")


def test_criterion_8_certificates(fig_src):
    rng = random.Random(8)
    derivations = [optimize(parse(fig_src), frozenset({"y"}), CAP).derivation]
    round_trips = 0
    accepted = 0
    for seed in range(1000):
        program = gen_program(GenConfig(seed=seed))
        live = frozenset(v for v in sorted(stmt_vars(program))
                         if rng.random() < 0.5)
        derivation = optimize(program, live, CAP).derivation
        derivations.append(derivation)
        if check(derivation, CAP) == ACCEPT:
            accepted += 1
        if deserialize(serialize(derivation)) == derivation:
            round_trips += 1
    mutated = rejected = 0
    for derivation in derivations:
        if mutated >= 100:
            break
        for label, mutant in tamper_ops.mutants(derivation):
            mutated += 1
            if not check(mutant, CAP).ok:
                rejected += 1
    ok = accepted == 1000 and round_trips == 1000 \
        and mutated >= 100 and rejected == mutated
    report(8, ok, f"{accepted}/1000 emitted certificates accepted, "
                  f"{round_trips}/1000 round-trips exact, "
                  f"{rejected}/{mutated} tampered certificates rejected")


def test_criterion_9_suite_detects_sabotage(monkeypatch):
    """Each mutant of the table is killed by its differential check
    within 1,000 trials from seed 0, first at the seed the table lists,
    where the healthy analyses pass."""
    first, healthy = {}, {}
    for name, mutant in mutants.MUTANTS.items():
        with monkeypatch.context() as patch:
            mutants.install(patch, name)
            suite = run_soundness_suite(1_000, GenConfig(seed=0),
                                        checks=(mutant.check,), cap=CAP)
        first[name] = suite["checks"][mutant.check]["failing_seeds"][:1]
        replay = run_soundness_suite(1, GenConfig(seed=mutant.first_kill),
                                     checks=(mutant.check,), cap=CAP)
        healthy[name] = replay["checks"][mutant.check]["fail"]
    ok = first == {name: [m.first_kill] for name, m in mutants.MUTANTS.items()} \
        and not any(healthy.values())
    report(9, ok, f"all {len(first)} mutants killed within 1,000 trials, "
                  f"first at seeds {first}")
