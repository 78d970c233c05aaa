"""Big-step interpreter with abort and a fuel bound.

Expression evaluation raises EvalError on undefined arithmetic (nil
operands, address-address arithmetic, out-of-block shifts); statement
execution turns that, and any heap access outside the domain, into an
Aborted outcome. Every item of a sequence but the last, and every loop
iteration, costs one unit of fuel before it runs; running out yields
OutOfFuel, which is distinct from abort.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lang import (
    AExp, And, Assign, BExp, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit,
    Lookup, Mutate, Nil, Not, Or, Seq, Skip, Stmt, Var, While,
)
from .memory import (
    NIL, Address, Blocks, ProgState, Stack, Value, addr_shift,
    fresh_instance, value_lt,
)

DEFAULT_FUEL = 100_000


class EvalError(Exception):
    """An arithmetic operation with no defined result."""


def eval_aexp(e: AExp, stack: Stack) -> Value:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Nil):
        return NIL
    if isinstance(e, Var):
        return stack[e.name]
    if isinstance(e, BinOp):
        v1 = eval_aexp(e.lhs, stack)
        v2 = eval_aexp(e.rhs, stack)
        if isinstance(v1, int) and isinstance(v2, int):
            if e.op == "+":
                return v1 + v2
            if e.op == "-":
                return v1 - v2
            return v1 * v2
        # address arithmetic: only addr + int, int + addr, addr - int
        if e.op == "+" and isinstance(v1, Address) and isinstance(v2, int):
            shifted = addr_shift(v1, v2)
        elif e.op == "+" and isinstance(v1, int) and isinstance(v2, Address):
            shifted = addr_shift(v2, v1)
        elif e.op == "-" and isinstance(v1, Address) and isinstance(v2, int):
            shifted = addr_shift(v1, -v2)
        else:
            raise EvalError(f"undefined operation {v1!r} {e.op} {v2!r}")
        if shifted is None:
            raise EvalError(f"address shift out of block: {v1!r} {e.op} {v2!r}")
        return shifted
    raise TypeError(f"not an arithmetic expression: {e!r}")


def eval_bexp(b: BExp, stack: Stack) -> bool:
    if isinstance(b, BoolLit):
        return b.value
    if isinstance(b, Cmp):
        v1 = eval_aexp(b.lhs, stack)
        v2 = eval_aexp(b.rhs, stack)
        if b.op == "=":
            return v1 == v2
        if b.op == "<":
            return value_lt(v1, v2)
        return value_lt(v1, v2) or v1 == v2
    if isinstance(b, Not):
        return not eval_bexp(b.arg, stack)
    if isinstance(b, And):
        # both sides always evaluate, so errors on either side surface
        v1 = eval_bexp(b.lhs, stack)
        v2 = eval_bexp(b.rhs, stack)
        return v1 and v2
    if isinstance(b, Or):
        v1 = eval_bexp(b.lhs, stack)
        v2 = eval_bexp(b.rhs, stack)
        return v1 or v2
    raise TypeError(f"not a guard: {b!r}")


@dataclass(frozen=True)
class Final:
    state: ProgState


@dataclass(frozen=True)
class Aborted:
    pass


@dataclass(frozen=True)
class OutOfFuel:
    pass


ExecOutcome = Final | Aborted | OutOfFuel


class _Abort(Exception):
    pass


class _Fuel(Exception):
    pass


class _Gas:
    __slots__ = ("left",)

    def __init__(self, fuel: int):
        self.left = fuel

    def tick(self):
        if self.left <= 0:
            raise _Fuel()
        self.left -= 1


def execute(s: Stmt, state: ProgState, fuel: int = DEFAULT_FUEL) -> ExecOutcome:
    """Run s from a copy of state; the input state is never modified."""
    gas = _Gas(fuel)
    st = state.copy()
    try:
        return Final(_run(s, st, gas, Blocks(st.heap)))
    except (_Abort, EvalError):
        return Aborted()
    except _Fuel:
        return OutOfFuel()


def _run(s: Stmt, st: ProgState, gas: _Gas, blocks: Blocks) -> ProgState:
    if isinstance(s, Skip):
        return st
    if isinstance(s, Assign):
        st.stack[s.var] = eval_aexp(s.expr, st.stack)
        return st
    if isinstance(s, Cons):
        vals = [eval_aexp(a, st.stack) for a in s.args]
        n = len(vals)
        u = fresh_instance(blocks, n)
        for i, v in enumerate(vals, start=1):
            st.heap[Address(n, u, i)] = v
        st.stack[s.var] = Address(n, u, 1)
        return st
    if isinstance(s, Lookup):
        target = eval_aexp(s.addr, st.stack)
        if not isinstance(target, Address) or target not in st.heap:
            raise _Abort()
        st.stack[s.var] = st.heap[target]
        return st
    if isinstance(s, Mutate):
        target = eval_aexp(s.target, st.stack)
        value = eval_aexp(s.value, st.stack)
        if not isinstance(target, Address) or target not in st.heap:
            raise _Abort()
        st.heap[target] = value
        return st
    if isinstance(s, Dispose):
        target = eval_aexp(s.addr, st.stack)
        if not isinstance(target, Address) or target not in st.heap:
            raise _Abort()
        blocks.dispose(target)
        return st
    if isinstance(s, Seq):
        items = s.items
        last = len(items) - 1
        for i in range(last):
            gas.tick()
            st = _run(items[i], st, gas, blocks)
        return _run(items[last], st, gas, blocks)
    if isinstance(s, If):
        taken = eval_bexp(s.cond, st.stack)
        return _run(s.then_body if taken else s.else_body, st, gas, blocks)
    if isinstance(s, While):
        while True:
            gas.tick()
            if not eval_bexp(s.cond, st.stack):
                return st
            st = _run(s.body, st, gas, blocks)
    raise TypeError(f"not a statement: {s!r}")


def zero_state(variables) -> ProgState:
    """Initial state: every variable at integer 0, empty heap."""
    return ProgState({x: 0 for x in variables}, {})
