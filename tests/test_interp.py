"""Big-step interpreter tests: evaluation, outcomes, fuel, and frames."""

import hashlib
import random
import time

import pytest

from whilep import GenConfig, gen_program, gen_state
from whilep.interp import (
    Aborted, EvalError, Final, OutOfFuel, eval_aexp, eval_bexp, execute,
    zero_state,
)
from whilep.lang import (
    Assign, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit, Nil, Not, Seq, Skip,
    Var, parse, stmt_vars,
)
from whilep.memory import NIL, Address, ProgState, format_value
from whilep.pointsto import bottom


def run(src, stack=None, fuel=10_000):
    prog = parse(src)
    state = zero_state(stmt_vars(prog))
    if stack:
        state.stack.update(stack)
    return execute(prog, state, fuel)


def test_eval_aexp_ints():
    assert eval_aexp(BinOp("+", IntLit(2), IntLit(3)), {}) == 5
    assert eval_aexp(BinOp("-", IntLit(2), IntLit(3)), {}) == -1
    assert eval_aexp(BinOp("*", IntLit(2), IntLit(3)), {}) == 6
    assert eval_aexp(Nil(), {}) == NIL


def test_eval_aexp_address_shift():
    stack = {"x": Address(3, 1, 1)}
    assert eval_aexp(BinOp("+", Var("x"), IntLit(2)), stack) == Address(3, 1, 3)
    assert eval_aexp(BinOp("+", IntLit(1), Var("x")), stack) == Address(3, 1, 2)
    assert eval_aexp(BinOp("-", Var("x"), IntLit(0)), stack) == Address(3, 1, 1)


def test_eval_aexp_errors():
    with pytest.raises(EvalError):
        eval_aexp(BinOp("+", Nil(), IntLit(1)), {})
    with pytest.raises(EvalError):  # out-of-block shift
        eval_aexp(BinOp("+", Var("x"), IntLit(3)), {"x": Address(3, 1, 1)})
    a, b = Address(2, 1, 1), Address(2, 1, 2)
    with pytest.raises(EvalError):  # address + address
        eval_aexp(BinOp("+", Var("x"), Var("y")), {"x": a, "y": b})
    with pytest.raises(EvalError):  # int - address
        eval_aexp(BinOp("-", IntLit(4), Var("x")), {"x": a})
    with pytest.raises(EvalError):  # address * int
        eval_aexp(BinOp("*", Var("x"), IntLit(2)), {"x": a})


def test_eval_bexp():
    assert eval_bexp(BoolLit(True), {}) is True
    assert eval_bexp(Cmp("=", Var("x"), Var("x")), {"x": NIL}) is True
    assert eval_bexp(Cmp("<", Var("x"), Var("y")), {"x": 0, "y": NIL}) is True
    assert eval_bexp(Cmp("<", Var("x"), Var("y")),
                     {"x": NIL, "y": Address(2, 1, 1)}) is True
    assert eval_bexp(Cmp("<=", Var("x"), Var("x")), {"x": 3}) is True
    assert eval_bexp(Cmp("<", Var("x"), IntLit(5)), {"x": 9}) is False


def test_unknown_node_raises_only_when_reached():
    """A node outside the language is a TypeError when it runs, and
    nothing before that."""
    stray = object()
    prog = Seq(Assign("x", IntLit(1)), If(Cmp("=", Var("x"), IntLit(2)), stray, Skip()))
    assert execute(prog, ProgState({"x": 0}, {})) == Final(ProgState({"x": 1}, {}))
    prog = Seq(Assign("x", IntLit(2)), If(Cmp("=", Var("x"), IntLit(2)), stray, Skip()))
    with pytest.raises(TypeError, match="not a statement"):
        execute(prog, ProgState({"x": 0}, {}))
    with pytest.raises(TypeError, match="not an arithmetic expression"):
        eval_aexp(BinOp("+", IntLit(1), stray), {})
    with pytest.raises(TypeError, match="not a guard"):
        eval_bexp(Not(stray), {})
    assert execute(Seq(Skip(), Dispose(stray)), ProgState({}, {}), 0) == OutOfFuel()


def test_flat_chains_run():
    """Left-deep chains of 2,000-3,000 terms, arithmetic and guards, run
    without recursion and fold left: 1 + p + q is (1 + p) + q, so on an
    address p it aborts exactly where 1 + p + q leaves p's block."""
    chain = parse("x := " + " + ".join(["1"] * 3000))
    assert execute(chain, zero_state({"x"})) == Final(ProgState({"x": 3000}, {}))
    mixed = parse("x := 0 - " + " - ".join(["1"] * 2000) + " * 2")
    assert execute(mixed, zero_state({"x"})) == Final(ProgState({"x": -2001}, {}))
    guard = parse("if " + " and ".join(["0 < 1"] * 2000) + " then { x := 1 } else { x := 2 }")
    assert execute(guard, zero_state({"x"})) == Final(ProgState({"x": 1}, {}))
    either = parse("if " + " or ".join(["1 < 0"] * 2000) + " or x = 0 then { x := 1 } "
                   "else { x := 2 }")
    assert execute(either, zero_state({"x"})) == Final(ProgState({"x": 1}, {}))
    p = Address(2, 1, 1)
    assert eval_aexp(parse("x := 1 + p + q").expr, {"p": p, "q": 0}) == Address(2, 1, 2)
    with pytest.raises(EvalError):  # (1 + p) + 1 leaves the block
        eval_aexp(parse("x := 1 + p + q").expr, {"p": p, "q": 1})
    with pytest.raises(EvalError):  # q - p: int - address
        eval_aexp(parse("x := q - p + 1").expr, {"p": p, "q": 1})


def test_execute_skip():
    out = run("skip")
    assert out == Final(ProgState({}, {}))


def test_execute_cons_lookup():
    out = run("x := cons(3, 4); y := [x]")
    assert isinstance(out, Final)
    a1 = Address(2, 1, 1)
    assert out.state.stack == {"x": a1, "y": 3}
    assert out.state.heap == {a1: 3, Address(2, 1, 2): 4}


def test_execute_mutate_abort():
    assert run("i := 10; [i] := 7") == Aborted()


def test_lookup_dispose_abort_on_missing_cell():
    assert run("y := [x]") == Aborted()
    assert run("dispose(x)") == Aborted()
    assert run("x := cons(1); dispose(x); dispose(x)") == Aborted()


def test_eval_error_lifts_to_abort():
    assert run("x := nil + 1") == Aborted()
    assert run("x := cons(1); y := x * 2") == Aborted()


def test_dispose_then_realloc_reuses_instance():
    out = run("x := cons(1); dispose(x); y := cons(2)")
    assert isinstance(out, Final)
    # instance 1 became free again, so the second block reuses it
    assert out.state.stack["y"] == Address(1, 1, 1)
    assert out.state.heap == {Address(1, 1, 1): 2}


def test_fresh_instance_skips_live_blocks():
    out = run("x := cons(1); y := cons(2); z := cons(3, 4)")
    assert isinstance(out, Final)
    assert out.state.stack["x"] == Address(1, 1, 1)
    assert out.state.stack["y"] == Address(1, 2, 1)
    assert out.state.stack["z"] == Address(2, 1, 1)


def test_cons_dispose_churn_final_state():
    """Partly disposed blocks stay in use; fully disposed ones are reused
    least instance first, inside a loop too."""
    out = run("x := cons(1, 2); y := cons(3); z := cons(4, 5); dispose(x + 1); "
              "w := cons(6, 7); dispose(x); dispose(z); dispose(z + 1); "
              "v := cons(8, 9); u := cons(10, 11); dispose(y); t := cons(12); "
              "s := cons(13, 14); i := 0; while i < 3 do { dispose(w + 1); "
              "dispose(w); w := cons(i, 0); i := i + 1 }")
    assert isinstance(out, Final)
    a = Address
    assert out.state.stack == {
        "x": a(2, 1, 1), "y": a(1, 1, 1), "z": a(2, 2, 1), "w": a(2, 3, 1),
        "v": a(2, 1, 1), "u": a(2, 2, 1), "t": a(1, 1, 1), "s": a(2, 4, 1),
        "i": 3}
    assert out.state.heap == {
        a(2, 1, 1): 8, a(2, 1, 2): 9, a(2, 2, 1): 10, a(2, 2, 2): 11,
        a(2, 3, 1): 2, a(2, 3, 2): 0, a(1, 1, 1): 12, a(2, 4, 1): 13,
        a(2, 4, 2): 14}


def _live_blocks_seconds(n):
    """Best of three runs of a loop that allocates n blocks, all kept live."""
    prog = parse(f"i := 0; p := 0; while i < {n} do {{ p := cons(i, p); i := i + 1 }}")
    state = zero_state(stmt_vars(prog))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        out = execute(prog, state)
        best = min(best, time.perf_counter() - start)
        assert isinstance(out, Final) and len(out.state.heap) == 2 * n
    return best


def test_allocation_time_is_linear():
    # linear allocation takes ~4x as long for 4x the blocks, a heap scan
    # per cons ~16x
    assert _live_blocks_seconds(20_000) < 8 * _live_blocks_seconds(5_000)


def test_if_and_while():
    out = run("i := 0; s := 0; while i < 5 do { s := s + i; i := i + 1 }")
    assert isinstance(out, Final)
    assert out.state.stack == {"i": 5, "s": 10}
    out = run("if 1 < 2 then { x := 1 } else { x := 2 }")
    assert out.state.stack == {"x": 1}


def test_while_guard_abort():
    assert run("x := nil; while x < 1 + nil do { skip }") == Aborted()


def test_out_of_fuel():
    assert run("while true do { skip }", fuel=50) == OutOfFuel()
    assert run("x := 0; while 0 <= x do { x := x + 1 }", fuel=1000) == OutOfFuel()


def test_sequence_fuel_accounting():
    # a k-item sequence spends k - 1 units, one before each item but the last
    for k in (2, 3, 10, 500):
        src = "; ".join(f"x := {i}" for i in range(k))
        assert run(src, fuel=k - 2) == OutOfFuel()
        assert run(src, fuel=k - 1) == Final(ProgState({"x": k - 1}, {}))
    # the unit is spent before the item runs, so an abort in the first
    # item needs one unit to show, and one in the last item needs k - 1
    assert run("x := nil + 1; skip", fuel=0) == OutOfFuel()
    assert run("x := nil + 1; skip", fuel=1) == Aborted()
    assert run("skip; skip; x := nil + 1", fuel=1) == OutOfFuel()
    assert run("skip; skip; x := nil + 1", fuel=2) == Aborted()
    # nested: 3 guard checks, 2 units per body run, 1 before the loop
    loop = "i := 0; while i < 2 do { skip; skip; i := i + 1 }"
    assert run(loop, fuel=7) == OutOfFuel()
    assert isinstance(run(loop, fuel=8), Final)


def test_fuel_monotonicity():
    """A run that finishes keeps the same outcome with more fuel."""
    for seed in range(80):
        prog = gen_program(GenConfig(seed=seed))
        state = zero_state(stmt_vars(prog))
        out = execute(prog, state, 400)
        if isinstance(out, Final):
            assert execute(prog, state, 401) == out
            assert execute(prog, state, 100_000) == out


def test_determinism():
    for seed in range(60):
        prog = gen_program(GenConfig(seed=seed))
        state = zero_state(stmt_vars(prog))
        assert execute(prog, state, 600) == execute(prog, state, 600)


def test_input_state_not_mutated():
    prog = parse("x := cons(5); [x] := 6; dispose(x); x := 1")
    state = zero_state(stmt_vars(prog))
    before = state.copy()
    execute(prog, state)
    assert state.stack == before.stack
    assert state.heap == before.heap


def test_heap_growth_discipline():
    """Cons adds exactly its block, Dispose removes exactly one cell."""
    rng = random.Random(5)
    state = ProgState({"x": 0}, {})
    for _ in range(40):
        arity = rng.randint(1, 3)
        args = tuple(IntLit(rng.randint(0, 9)) for _ in range(arity))
        out = execute(Cons("x", args), state)
        assert isinstance(out, Final)
        new_cells = set(out.state.heap) - set(state.heap)
        a = out.state.stack["x"]
        assert a.index == 1 and a.length == arity
        assert new_cells == {Address(arity, a.instance, i)
                             for i in range(1, arity + 1)}
        state = out.state
        if rng.random() < 0.4:
            out = execute(Dispose(Var("x")), state)
            assert isinstance(out, Final)
            assert set(state.heap) - set(out.state.heap) == {a}
            state = out.state


def test_frame_properties():
    # Assign and Lookup leave the heap alone; Mutate and Dispose the stack
    out = run("x := cons(7); y := [x]")
    heap_after_lookup = out.state.heap
    out2 = run("x := cons(7); y := [x]; z := y + 1")
    assert out2.state.heap == heap_after_lookup
    out3 = run("x := cons(7); [x] := 9")
    assert out3.state.stack["x"] == Address(1, 1, 1)
    out4 = run("x := cons(7); dispose(x)")
    assert out4.state.stack["x"] == Address(1, 1, 1)
    assert out4.state.heap == {}


def test_zero_state():
    st = zero_state({"a", "b"})
    assert st.stack == {"a": 0, "b": 0}
    assert st.heap == {}


def test_execute_outcomes_pinned():
    """One digest over the outcome of 2,000 generated programs, each run
    from its generated state at a small and a large fuel: the kind, and
    for a final state the sorted, formatted stack and heap."""
    digest = hashlib.sha256()
    kinds = {40: {}, 1500: {}}
    for seed in range(2000):
        cfg = GenConfig(seed=seed)
        prog = gen_program(cfg)
        state = gen_state(cfg, bottom(sorted(stmt_vars(prog))))
        for fuel, counts in kinds.items():
            out = execute(prog, state, fuel)
            kind = type(out).__name__
            counts[kind] = counts.get(kind, 0) + 1
            digest.update(f"{seed} {fuel} {kind}\n".encode())
            if isinstance(out, Final):
                stack = sorted(f"{x}={format_value(v)}"
                               for x, v in out.state.stack.items())
                heap = sorted(f"{format_value(a)}={format_value(v)}"
                              for a, v in out.state.heap.items())
                digest.update(f"{stack} {heap}\n".encode())
    assert kinds == {40: {"Final": 775, "Aborted": 1198, "OutOfFuel": 27},
                     1500: {"Final": 783, "Aborted": 1199, "OutOfFuel": 18}}
    assert digest.hexdigest() == \
        "9a793c484f286e76178dde369ef27c1aef2b0d43a9f09c9518c69e605cb10187"
