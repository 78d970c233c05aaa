"""Big-step interpreter with abort and a fuel bound.

A program is translated once into nested closures, one per node, and then
the closures run (closure compilation, Feeley and Lapalme 1987). An
expression becomes f(stack); a statement becomes f(stack, heap, blocks,
gas) and updates the stack and heap in place. execute compiles the
statement it is given unless it is the one it ran last, so a program run
from several states in a row is compiled once. eval_aexp and eval_bexp
apply the same closures, so expressions have one semantics.

Expression evaluation raises EvalError on undefined arithmetic (nil
operands, address-address arithmetic, out-of-block shifts); statement
execution turns that, and any heap access outside the domain, into an
Aborted outcome. Every item of a sequence but the last, and every loop
iteration, costs one unit of fuel before it runs; running out yields
OutOfFuel, which is distinct from abort. Both sides of and/or evaluate.
A node outside the language raises TypeError when it is reached.
"""

from __future__ import annotations

from operator import add, itemgetter, mul, sub

from .lang import (
    AExp, And, Assign, BExp, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit,
    Lookup, Mutate, Nil, Not, Or, Record, Seq, Skip, Stmt, Var, While,
)
from .memory import (
    NIL, Address, Blocks, ProgState, Stack, Value, addr_shift,
    fresh_instance, value_lt,
)

DEFAULT_FUEL = 100_000


class EvalError(Exception):
    """An arithmetic operation with no defined result."""


def eval_aexp(e: AExp, stack: Stack) -> Value:
    return _aexp(e)(stack)


def eval_bexp(b: BExp, stack: Stack) -> bool:
    return _bexp(b)(stack)


class Final(Record):
    __slots__ = ()
    state: ProgState


class Aborted(Record):
    __slots__ = ()


class OutOfFuel(Record):
    __slots__ = ()


ExecOutcome = Final | Aborted | OutOfFuel


class _Abort(Exception):
    pass


class _Fuel(Exception):
    pass


_last = (None, None)  # the statement execute ran last, and its closure


def execute(s: Stmt, state: ProgState, fuel: int = DEFAULT_FUEL) -> ExecOutcome:
    """Run s from a copy of state; the input state is never modified."""
    global _last
    last, run = _last
    if last is not s:
        run = _stmt(s)
        _last = (s, run)
    st = state.copy()
    try:
        # gas is the one-item list of the fuel left
        run(st.stack, st.heap, Blocks(st.heap), [fuel])
    except (_Abort, EvalError):
        return Aborted()
    except _Fuel:
        return OutOfFuel()
    return Final(st)


def _unknown(kind: str, node):
    def unknown(*args):
        raise TypeError(f"not {kind}: {node!r}")
    return unknown


# --- expressions: f(stack) -> value ---

def _aexp(e: AExp):
    if isinstance(e, Var):
        return itemgetter(e.name)
    if isinstance(e, IntLit):
        value = e.value
        return lambda stack: value
    if isinstance(e, BinOp):
        return _binop(e.op, _aexp(e.lhs), _aexp(e.rhs))
    if isinstance(e, Nil):
        return lambda stack: NIL
    return _unknown("an arithmetic expression", e)


def _binop(op: str, f1, f2):
    arith = _ARITH.get(op, mul)

    def binop(stack):
        v1 = f1(stack)
        v2 = f2(stack)
        if isinstance(v1, int) and isinstance(v2, int):
            return arith(v1, v2)
        return _address_arith(op, v1, v2)
    return binop


_ARITH = {"+": add, "-": sub}  # any other operator multiplies


def _address_arith(op: str, v1: Value, v2: Value) -> Address:
    """The operations on a non-integer: only addr + int, int + addr and
    addr - int are defined."""
    if op == "+" and isinstance(v1, Address) and isinstance(v2, int):
        shifted = addr_shift(v1, v2)
    elif op == "+" and isinstance(v1, int) and isinstance(v2, Address):
        shifted = addr_shift(v2, v1)
    elif op == "-" and isinstance(v1, Address) and isinstance(v2, int):
        shifted = addr_shift(v1, -v2)
    else:
        raise EvalError(f"undefined operation {v1!r} {op} {v2!r}")
    if shifted is None:
        raise EvalError(f"address shift out of block: {v1!r} {op} {v2!r}")
    return shifted


# --- guards: f(stack) -> bool ---

def _bexp(b: BExp):
    if isinstance(b, Cmp):
        f1, f2 = _aexp(b.lhs), _aexp(b.rhs)
        if b.op == "=":
            return lambda stack: f1(stack) == f2(stack)
        if b.op == "<":
            def lt(stack):
                v1 = f1(stack)
                v2 = f2(stack)
                if type(v1) is int and type(v2) is int:
                    return v1 < v2
                return value_lt(v1, v2)
            return lt

        def le(stack):
            v1 = f1(stack)
            v2 = f2(stack)
            if type(v1) is int and type(v2) is int:
                return v1 <= v2
            return value_lt(v1, v2) or v1 == v2
        return le
    if isinstance(b, BoolLit):
        value = b.value
        return lambda stack: value
    if isinstance(b, Not):
        f = _bexp(b.arg)
        return lambda stack: not f(stack)
    # on bools & and | evaluate both sides, so errors on either surface
    if isinstance(b, And):
        f1, f2 = _bexp(b.lhs), _bexp(b.rhs)
        return lambda stack: f1(stack) & f2(stack)
    if isinstance(b, Or):
        f1, f2 = _bexp(b.lhs), _bexp(b.rhs)
        return lambda stack: f1(stack) | f2(stack)
    return _unknown("a guard", b)


# --- statements: f(stack, heap, blocks, gas) ---
# The heap's keys are addresses, so a value is in its domain exactly when
# it is an address of a cell in use.

def _stmt(s: Stmt):
    if isinstance(s, Assign):
        var, f = s.var, _aexp(s.expr)

        def assign(stack, heap, blocks, gas):
            stack[var] = f(stack)
        return assign
    if isinstance(s, Skip):
        return _skip
    if isinstance(s, Cons):
        var, fs, n = s.var, list(map(_aexp, s.args)), len(s.args)

        def cons(stack, heap, blocks, gas):
            values = [f(stack) for f in fs]
            # a module global, so a wrapper installed after compiling sees it
            u = fresh_instance(blocks, n)
            first = Address(n, u, 1)
            heap[first] = values[0]
            for i in range(1, n):
                heap[Address(n, u, i + 1)] = values[i]
            stack[var] = first
        return cons
    if isinstance(s, Seq):
        *init, last = map(_stmt, s.items)

        def seq(stack, heap, blocks, gas):
            for f in init:
                if gas[0] <= 0:
                    raise _Fuel()
                gas[0] -= 1
                f(stack, heap, blocks, gas)
            last(stack, heap, blocks, gas)
        return seq
    if isinstance(s, Mutate):
        f1, f2 = _aexp(s.target), _aexp(s.value)

        def mutate(stack, heap, blocks, gas):
            target = f1(stack)
            value = f2(stack)
            if target not in heap:
                raise _Abort()
            heap[target] = value
        return mutate
    if isinstance(s, If):
        cond, then_body, else_body = \
            _bexp(s.cond), _stmt(s.then_body), _stmt(s.else_body)

        def if_(stack, heap, blocks, gas):
            (then_body if cond(stack) else else_body)(stack, heap, blocks, gas)
        return if_
    if isinstance(s, Lookup):
        var, f = s.var, _aexp(s.addr)

        def lookup(stack, heap, blocks, gas):
            target = f(stack)
            if target not in heap:
                raise _Abort()
            stack[var] = heap[target]
        return lookup
    if isinstance(s, While):
        cond, body = _bexp(s.cond), _stmt(s.body)

        def while_(stack, heap, blocks, gas):
            while True:
                if gas[0] <= 0:
                    raise _Fuel()
                gas[0] -= 1
                if not cond(stack):
                    return
                body(stack, heap, blocks, gas)
        return while_
    if isinstance(s, Dispose):
        f = _aexp(s.addr)

        def dispose(stack, heap, blocks, gas):
            target = f(stack)
            if target not in heap:
                raise _Abort()
            blocks.dispose(target)
        return dispose
    return _unknown("a statement", s)


def _skip(stack, heap, blocks, gas):
    pass


def zero_state(variables) -> ProgState:
    """Initial state: every variable at integer 0, empty heap."""
    return ProgState({x: 0 for x in variables}, {})
