"""Dead-code elimination: rewrites, guarantees, and emitted derivations."""

import random

import pytest

from whilep import GenConfig, gen_program
from whilep.certificate import check
from whilep.deadcode import OptResult, optimize
from whilep.harness import _gen_state
from whilep.interp import Aborted, Final, execute
from whilep.lang import (
    Assign, Cons, If, IntLit, Seq, Skip, While, parse, pretty, stmt_vars,
)
from whilep.memory import Address
from whilep.pointsto import DEFAULT_CAP, annotate, bottom

CAP = DEFAULT_CAP


def residual_of(src, live):
    return optimize(parse(src), frozenset(live), CAP).optimized


def test_leaf_rewrites():
    assert residual_of("z := y + 1", {"y"}) == Skip()
    assert residual_of("z := y + 1", {"z"}) == parse("z := y + 1")
    assert residual_of("y := [x]", set()) == Skip()
    assert residual_of("dispose(x)", set()) == parse("dispose(x)")
    assert residual_of("skip", set()) == Skip()


def test_mutate_rewrites():
    # constant target is provably no live cell, but the write's target
    # expression stays live, so the assignment feeding it survives
    assert residual_of("i := 10; [i] := 7", set()) == \
        Seq(Assign("i", IntLit(10)), Skip())
    # the written cell feeds the live lookup, so the write stays
    kept = residual_of("x := cons(1); [x] := 2; y := [x]", {"y"})
    assert kept == parse("x := cons(1); [x] := 2; y := [x]")


def test_cons_rewrites():
    # dead allocation: same shape, arguments zeroed
    assert residual_of("x := cons(y, z)", set()) == \
        Cons("x", (IntLit(0), IntLit(0)))
    # live pointer, dead cells: the allocation stays, its arguments do not
    assert residual_of("x := cons(y, z)", {"x"}) == parse("x := cons(0, 0)")
    # only the argument of the cell a later lookup reads is kept
    assert residual_of("x := cons(y, z); w := [x + 1]", {"w"}) == \
        parse("x := cons(0, z); w := [x + 1]")


def test_rule_labels():
    result = optimize(parse("x := cons(y); z := y + 1"), frozenset(), CAP)
    seq = result.derivation
    assert seq.rule == "seq_d"
    assert [p.rule for p in seq.premises] == ["con_d1", "ass_d1"]


def test_motivating_example(fig_src, fig_residual):
    result = optimize(parse(fig_src), frozenset({"y"}), CAP)
    assert result.optimized == parse(fig_residual)
    assert pretty(result.optimized) == fig_residual
    j = result.derivation.judgment
    st = _gen_state(random.Random(0), j.pre.pts)
    assert isinstance(execute(parse(fig_src), st, 10_000), Aborted)
    out = execute(result.optimized, st, 10_000)
    assert isinstance(out, Final)
    assert out.state.stack["y"] == 3
    assert j.pre.live == frozenset({Address(2, 1, 1)})
    assert j.post.live == frozenset({"y"})


def test_entry_exit_types():
    prog = parse("x := cons(5); y := [x]")
    result = optimize(prog, frozenset({"y"}), CAP)
    base = bottom(stmt_vars(prog))
    j = result.derivation.judgment
    assert j.pre.pts == base
    assert j.post.pts == annotate(prog, base, CAP).post
    assert isinstance(result, OptResult)
    assert result.optimized is j.residual


def test_guards_and_structure_preserved():
    """The residual keeps the original's control skeleton and guards."""
    def same_shape(a, b):
        if isinstance(a, Seq):
            return isinstance(b, Seq) and len(a.items) == len(b.items) \
                and all(map(same_shape, a.items, b.items))
        if isinstance(a, If):
            return isinstance(b, If) and a.cond == b.cond \
                and same_shape(a.then_body, b.then_body) \
                and same_shape(a.else_body, b.else_body)
        if isinstance(a, While):
            return isinstance(b, While) and a.cond == b.cond \
                and same_shape(a.body, b.body)
        return not isinstance(b, (Seq, If, While))

    rng = random.Random(41)
    for seed in range(150):
        prog = gen_program(GenConfig(seed=seed, max_stmts=14))
        variables = sorted(stmt_vars(prog))
        live = frozenset(v for v in variables if rng.random() < 0.5)
        assert same_shape(prog, optimize(prog, live, CAP).optimized)


def test_emitted_derivations_check(fig_src):
    rng = random.Random(43)
    sources = [fig_src]
    for seed in range(120):
        sources.append(pretty(gen_program(GenConfig(seed=seed))))
    for src in sources:
        prog = parse(src)
        variables = sorted(stmt_vars(prog))
        live = frozenset(v for v in variables if rng.random() < 0.5)
        result = optimize(prog, live, CAP)
        verdict = check(result.derivation, CAP)
        assert verdict.ok, f"{src!r}: {verdict.path}: {verdict.reason}"


def test_repeated_optimization_converges():
    """Re-optimizing the residual reaches a fixed point, and the fixed
    point is genuinely stable under one more pass."""
    rng = random.Random(47)
    for seed in range(100):
        prog = gen_program(GenConfig(seed=seed))
        variables = sorted(stmt_vars(prog))
        live = frozenset(v for v in variables if rng.random() < 0.5)
        current = prog
        for _ in range(len(variables) + 4):
            # rewrites can erase a live variable's last occurrence, and
            # a variable mentioned nowhere cannot affect any rewrite
            live_now = live & stmt_vars(current)
            after = optimize(current, live_now, CAP).optimized
            if after == current:
                break
            current = after
        live_now = live & stmt_vars(current)
        assert optimize(current, live_now, CAP).optimized == current, \
            f"seed {seed}"


def test_optimize_deterministic():
    prog = parse("x := cons(a, b); if a < b then { y := [x] } else { y := 0 }")
    r1 = optimize(prog, frozenset({"y"}), CAP)
    r2 = optimize(prog, frozenset({"y"}), CAP)
    assert r1.optimized == r2.optimized
    assert r1.derivation == r2.derivation


def test_stray_final_live_rejected():
    with pytest.raises(ValueError, match=r"^unknown variable: qq$"):
        optimize(parse("x := 1"), frozenset({"x", "zz", "qq"}), CAP)


def test_final_live_cells_allowed():
    # addresses in the final live set are not stray: callers may observe cells
    result = optimize(parse("x := cons(7)"), frozenset({Address(1, 1, 1)}), CAP)
    assert result.optimized == parse("x := cons(7)")
    assert result.derivation.rule == "con_d2"
