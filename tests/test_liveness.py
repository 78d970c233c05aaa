"""Backward liveness analysis and the live-restricted model relation."""

import itertools
import random

from whilep import GenConfig, gen_program
from whilep.harness import _gen_state, _synthetic_ptype
from whilep.interp import EvalError, Final, eval_aexp, execute
from whilep.certificate import ACCEPT, check
from whilep.lang import free_vars, parse, pretty, stmt_vars
from whilep.liveness import (
    leaf_live_pre, live_annotate, models_live, similar_states,
)
from whilep.memory import NIL, Address, ProgState
from whilep.pointsto import (
    PointsTo, DEFAULT_CAP, annotate, bottom, models, transfer,
)

CAP = DEFAULT_CAP
A111 = Address(1, 1, 1)
A121 = Address(1, 2, 1)
A211 = Address(2, 1, 1)
A212 = Address(2, 1, 2)


def pts(env):
    return PointsTo({k: frozenset(v) for k, v in env.items()})


def lv(*keys):
    return frozenset(keys)


def leaf_of(src, post, p=None):
    """(entry live set, rule, residual text) of a leaf from exit set post,
    with the exit type the transfer gives."""
    prog = parse(src)
    p = p if p is not None else bottom(stmt_vars(prog))
    live, rule, residual = leaf_live_pre(prog, p, transfer(prog, p, CAP),
                                         frozenset(post))
    return live, rule, pretty(residual)


def test_skip_and_assign_rules():
    assert leaf_of("skip", [A111, "x"]) == (lv(A111, "x"), "skip", "skip")
    assert leaf_of("x := y", ["x"]) == (lv("y"), "ass_d2", "x := y")
    assert leaf_of("x := y", ["z"]) == (lv("z"), "ass_d1", "skip")
    assert leaf_of("x := x + y", ["x", "z"]) == \
        (lv("x", "y", "z"), "ass_d2", "x := x + y")


def test_cons_rules():
    # nothing touched is live: the whole allocation is dead, but it stays
    # in the residual so that the heap domain evolves as in the original
    assert leaf_of("x := cons(y, z)", []) == (lv(), "con_d1", "x := cons(0, 0)")
    assert leaf_of("x := cons(y, z)", ["w"]) == \
        (lv("w"), "con_d1", "x := cons(0, 0)")
    # only the pointer is live: args are dead and zeroed, pointer killed
    assert leaf_of("x := cons(y, z)", ["x"]) == (lv(), "con_d2", "x := cons(0, 0)")
    assert leaf_of("x := cons(y, z)", ["x", "w"]) == \
        (lv("w"), "con_d2", "x := cons(0, 0)")
    # a live cell makes exactly its position's argument live and kept
    assert leaf_of("x := cons(y, z)", ["x", A212]) == \
        (lv("z", A212), "con_d2", "x := cons(0, z)")
    assert leaf_of("x := cons(y, z)", [A211, A212]) == \
        (lv("y", "z", A211, A212), "con_d2", "x := cons(y, z)")
    # from the bottom type the block is instance 1, so a live instance-2
    # cell is not written and the argument stays dead
    assert leaf_of("x := cons(y)", [A121]) == (lv(A121), "con_d1", "x := cons(0)")
    # once instance 1 is tracked, the allocation may occupy instance 1 or
    # 2, and a live cell of either keeps the argument
    p = pts({"x": [], "y": [], A111: []})
    assert leaf_of("x := cons(y)", [A121], p) == \
        (lv("y", A121), "con_d2", "x := cons(y)")
    assert leaf_of("x := cons(y)", [A111], p) == \
        (lv("y", A111), "con_d2", "x := cons(y)")


def test_cons_residual_is_the_statement_when_every_cell_is_live():
    s = parse("x := cons(y, z)")
    p = bottom(stmt_vars(s))
    live, rule, residual = leaf_live_pre(s, p, transfer(s, p, CAP), lv("x", A211, A212))
    assert residual is s and rule == "con_d2"
    # a dead cell zeroes its argument in a new statement
    live, rule, residual = leaf_live_pre(s, p, transfer(s, p, CAP), lv("x", A212))
    assert residual is not s and residual == parse("x := cons(0, z)")
    assert residual.args[1] is s.args[1]


def test_lookup_rules():
    p = pts({"x": [A211], "y": []})
    assert leaf_of("y := [x]", ["y"], p) == (lv("x", A211), "lok_d2", "y := [x]")
    assert leaf_of("y := [x]", ["z"], p) == (lv("z"), "lok_d1", "skip")
    # shifted address: the target cell comes from abstract evaluation
    q = pts({"x": [A211]})
    assert leaf_of("y := [x + 1]", ["y"], q) == \
        (lv("x", A212), "lok_d2", "y := [x + 1]")


def test_mutate_rules():
    # integer target: no live cell can be written, value stays dead
    assert leaf_of("[i] := x", ["y"]) == (lv("y", "i"), "mut_d1", "skip")
    p = pts({"p": [A111], "q": [], A111: []})
    assert leaf_of("[p] := q", [A111], p) == \
        (lv(A111, "p", "q"), "mut_d2", "[p] := q")
    assert leaf_of("[p] := q", ["z"], p) == (lv("z", "p"), "mut_d1", "skip")


def test_dispose_rule():
    assert leaf_of("dispose(x)", ["y", A111]) == \
        (lv("x", "y", A111), "dis_d", "dispose(x)")


def test_live_annotate_sequence():
    prog = parse("x := y; z := x")
    ann = annotate(prog, bottom(stmt_vars(prog)), CAP)
    live = live_annotate(ann, lv("z"))
    first, rest = live.premises
    assert rest.judgment.post.live == lv("z")
    assert rest.judgment.pre.live == lv("x")
    assert first.judgment.post.live == lv("x")
    assert first.judgment.pre.live == lv("y")
    assert live.judgment.pre.live == lv("y")
    assert live.judgment.stmt is prog


def test_live_annotate_if():
    prog = parse("if x < 3 then { y := a } else { y := b }")
    ann = annotate(prog, bottom(stmt_vars(prog)), CAP)
    live = live_annotate(ann, lv("y"))
    assert live.judgment.pre.live == lv("x", "a", "b")


def test_while_live_fixpoint_is_least():
    """Brute-force the minimal guard-closed live set on a two-variable loop."""
    prog = parse("while x < 3 do { x := x + y }")
    ann = annotate(prog, bottom({"x", "y"}), CAP)
    live = live_annotate(ann, lv())
    body_ann = ann.children[0]
    floor = free_vars(prog.cond)
    closed = []
    for r in range(3):
        for extra in itertools.combinations(["x", "y"], r):
            cand = floor | frozenset(extra)
            body = live_annotate(body_ann, cand)
            if body.judgment.pre.live <= cand:
                closed.append(cand)
    assert live.judgment.pre.live in closed
    for cand in closed:
        assert live.judgment.pre.live <= cand
    assert live.judgment.pre.live == lv("x", "y")


def test_counter_only_loop_keeps_body_dead():
    prog = parse("i := 0; while i < 5 do { x := x + 1; i := i + 1 }")
    ann = annotate(prog, bottom(stmt_vars(prog)), CAP)
    live = live_annotate(ann, lv())
    assert live.judgment.pre.live == lv()
    loop = live.premises[1]
    assert loop.judgment.pre.live == lv("i")
    assert "x" not in loop.judgment.pre.live


def test_live_annotate_derivation_is_accepted():
    """The backward pass builds the whole derivation: rules, residuals and
    live sets that the checker accepts, from the bottom type and from
    synthetic entry types alike."""
    rng = random.Random(43)
    rules = set()
    for seed in range(150):
        prog = gen_program(GenConfig(seed=seed))
        variables = sorted(stmt_vars(prog))
        entry = _synthetic_ptype(rng, variables, CAP) \
            if seed % 2 else bottom(variables)
        final_live = frozenset(v for v in variables if rng.random() < 0.5)
        d = live_annotate(annotate(prog, entry, CAP), final_live)
        assert check(d, CAP) == ACCEPT, f"seed {seed}"
        assert d.judgment.stmt is prog and d.judgment.pre.pts == entry
        assert d.judgment.post.live == final_live
        todo = [d]
        while todo:
            node = todo.pop()
            rules.add(node.rule)
            todo.extend(node.premises)
    assert rules >= {"seq_d", "if_d", "whl_d", "ass_d1", "ass_d2", "con_d2",
                     "lok_d2", "mut_d1", "dis_d"}


def test_models_live_examples():
    p = pts({"x": [A111], A111: []})
    assert models_live(ProgState({"x": NIL}, {}), p, lv("x"), CAP)
    assert not models_live(ProgState({"x": A111}, {}), pts({"x": []}),
                           lv("x"), CAP)
    # a dead variable may hold anything
    assert models_live(ProgState({"x": A111}, {}), pts({"x": []}), lv(), CAP)
    # but the heap-domain clause is global regardless of liveness
    assert not models_live(ProgState({"x": 0}, {Address(1, 2, 1): 1}),
                           p, lv(), CAP)


def test_models_is_models_live_at_full_liveness():
    rng = random.Random(5)
    for _ in range(60):
        p = _synthetic_ptype(rng, ["x", "y"], 3)
        st = _gen_state(rng, p)
        everything = frozenset(p.env)
        assert models(st, p, CAP) == models_live(st, p, everything, CAP)


def test_models_live_antitone_in_live_set():
    """Shrinking the live set can only make the relation easier to satisfy."""
    rng = random.Random(11)
    for _ in range(80):
        p = _synthetic_ptype(rng, ["x", "y"], 3)
        st = _gen_state(rng, p)
        keys = sorted(p.env, key=repr)
        big = frozenset(k for k in keys if rng.random() < 0.7)
        small = frozenset(k for k in big if rng.random() < 0.6)
        if models_live(st, p, big, CAP):
            assert models_live(st, p, small, CAP)


def test_similar_states_examples():
    p = pts({"x": [A111], "y": [], A111: []})
    st = ProgState({"x": A111, "y": 4}, {A111: 9})
    assert similar_states(st, st.copy(), p, lv("x", "y", A111), CAP)
    twin = ProgState({"x": A111, "y": 77}, {A111: 9})
    assert similar_states(st, twin, p, lv("x", A111), CAP)
    assert not similar_states(st, twin, p, lv("x", "y"), CAP)
    # heap domains must match exactly even on dead cells
    assert not similar_states(st, ProgState({"x": A111, "y": 4}, {}),
                              p, lv("x"), CAP)
    # a dead cell's value may differ
    assert similar_states(st, ProgState({"x": A111, "y": 4}, {A111: 0}),
                          p, lv("x", "y"), CAP)
    assert not similar_states(st, ProgState({"x": A111, "y": 4}, {A111: 0}),
                              p, lv("x", A111), CAP)


def test_expression_eval_depends_only_on_free_vars():
    """States agreeing on an expression's free variables evaluate it
    identically (or both fail), whatever the dead variables hold."""
    from whilep.harness import gen_aexp

    rng = random.Random(19)
    for _ in range(300):
        e = gen_aexp(rng, ["x", "y", "z"], rng.randint(1, 3))
        stack = {"x": rng.randint(-3, 9), "y": rng.choice([NIL, 2, A111]),
                 "z": rng.choice([0, A211, 5])}
        junked = {v: (rng.randint(-99, 99) if rng.random() < 0.7 else NIL)
                  for v in stack if v not in free_vars(e)}
        try:
            v1 = eval_aexp(e, stack)
        except EvalError:
            v1 = EvalError
        try:
            v2 = eval_aexp(e, {**stack, **junked})
        except EvalError:
            v2 = EvalError
        assert v1 == v2


def test_live_pre_monotone_in_live_post():
    rng = random.Random(31)
    for seed in range(120):
        prog = gen_program(GenConfig(seed=seed))
        variables = sorted(stmt_vars(prog))
        ann = annotate(prog, bottom(variables), CAP)
        big = frozenset(v for v in variables if rng.random() < 0.6)
        small = frozenset(v for v in big if rng.random() < 0.6)
        pre_small = live_annotate(ann, small).judgment.pre.live
        pre_big = live_annotate(ann, big).judgment.pre.live
        assert pre_small <= pre_big, f"seed {seed}"


def test_live_annotate_determinism():
    for seed in range(30):
        prog = gen_program(GenConfig(seed=seed))
        ann = annotate(prog, bottom(stmt_vars(prog)), CAP)
        live = frozenset(sorted(stmt_vars(prog))[:1])
        assert live_annotate(ann, live) == live_annotate(ann, live)


def test_motivating_example_live_sets(fig_src):
    prog = parse(fig_src)
    ann = annotate(prog, bottom(stmt_vars(prog)), CAP)
    live = live_annotate(ann, lv("y"))
    # the first cons cell feeds the later lookup, so it is live at entry
    assert live.judgment.pre.live == lv(A211)
    flat = []
    stack = [live]
    while stack:
        node = stack.pop()
        if node.premises:
            stack.extend(reversed(node.premises))
        else:
            flat.append(node)
    by_src = {repr(n.judgment.stmt): n for n in flat}
    assert by_src[repr(parse("z := y + 1"))].judgment.pre.live == lv("y")
    assert by_src[repr(parse("i := 10"))].judgment.post.live == lv("y", "i")


def test_executions_respect_live_restricted_types():
    """Executed programs stay inside entry and exit live-restricted types."""
    rng = random.Random(37)
    passed = 0
    for seed in range(300):
        cfg = GenConfig(seed=seed)
        prog = gen_program(cfg)
        variables = sorted(stmt_vars(prog))
        base = bottom(variables)
        ann = annotate(prog, base, CAP)
        final_live = frozenset(v for v in variables if rng.random() < 0.5)
        live = live_annotate(ann, final_live)
        st = _gen_state(rng, base)
        out = execute(prog, st, 1500)
        if not isinstance(out, Final):
            continue
        assert models_live(st, base, live.judgment.pre.live, CAP), f"seed {seed}"
        assert models_live(out.state, ann.post, final_live, CAP), \
            f"seed {seed}"
        passed += 1
    assert passed >= 50
