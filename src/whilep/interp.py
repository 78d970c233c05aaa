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

Some closures are specialized on the shape of their operands, and only
on that; no outcome, value or error changes. In x + c, x - c and the
comparisons x op c and c op x, a literal c is folded into the closure
and a variable x is read from the stack directly; when the values are
exact ints the closure takes a fast path, and any other values fall
through to the general case. x + c and x - c also shift an address x
within its block in place, and x op c has one closure per operator,
which compares two ints with the operator itself. An assignment
x := y + c or x := y - c is one closure that adds in place when y holds
an int, and a sequence of two items makes its two calls without the
item loop, ticking as the loop does. A cons of two arguments evaluates
them without building a list, and every cons builds its cells without
Address's checks, as fresh_instance has already made its block valid.
The general case of an arithmetic operator, and every and/or, compiles
a left-deep chain (((a op b) op c) ...) into one closure that folds
left, so a chain of any length runs without recursion.
"""

from __future__ import annotations

from operator import add, and_, eq, itemgetter, le, lt, mul, or_, sub

from .lang import (
    AExp, And, Assign, BExp, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit,
    Lookup, Mutate, Nil, Not, Or, Record, Seq, Skip, Stmt, Var, While,
)
from .memory import (
    NIL, Address, Blocks, ProgState, Stack, Value, addr_shift,
    fresh_instance, value_lt,
)

DEFAULT_FUEL = 100_000

_new = tuple.__new__  # builds an Address whose triple is known valid


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
    kind = type(e)
    if kind is Var:
        return itemgetter(e.name)
    if kind is IntLit:
        value = e.value
        return lambda stack: value
    if kind is BinOp:
        return _binop(e)
    if kind is Nil:
        return lambda stack: NIL
    return _unknown("an arithmetic expression", e)


def _literal(e) -> bool:
    """e is an integer literal, whose value a closure may fold in."""
    return type(e) is IntLit and type(e.value) is int


def _shift_shape(e) -> tuple | None:
    """(x, k) when e is x + c or x - c with a literal c, so e is x + k."""
    if type(e) is BinOp:
        op, lhs, rhs, _ = e
        if op != "*" and type(lhs) is Var and _literal(rhs):
            return lhs.name, rhs.value if op == "+" else -rhs.value
    return None


def _binop(e: BinOp):
    shape = _shift_shape(e)
    if shape is None:
        return _chain(e)
    # x + c and x - c: one addition on an integer x, one shift within
    # the block of an address x
    name, k = shape
    op, c = e.op, e.rhs.value

    def shift(stack):
        v = stack[name]
        if type(v) is int:
            return v + k
        if type(v) is Address:
            n, u, i = v
            i += k
            if 0 < i <= n:
                return _new(Address, (n, u, i))
        return _any_arith(op, v, c)
    return shift


def _chain(e: BinOp):
    """The left spine ((a op1 b) op2 c) ... of e as one closure that folds
    left, in the nested evaluation's order, so a long chain compiles and
    runs without recursion. The one general case of a BinOp."""
    steps = []
    while type(e) is BinOp:
        op, e, rhs, _ = e
        steps.append((op, _ARITH.get(op, mul), _aexp(rhs)))
    first = _aexp(e)
    steps = tuple(reversed(steps))

    def chain(stack):
        v1 = first(stack)
        for op, arith, f in steps:
            v2 = f(stack)
            if type(v1) is int and type(v2) is int:
                v1 = arith(v1, v2)
            else:
                v1 = _any_arith(op, v1, v2)
        return v1
    return chain


_ARITH = {"+": add, "-": sub}  # any other operator multiplies


def _any_arith(op: str, v1: Value, v2: Value) -> Value:
    """v1 op v2 for operands that are not both exact ints. On a non-integer
    only addr + int, int + addr and addr - int are defined."""
    if isinstance(v1, int) and isinstance(v2, int):
        return _ARITH.get(op, mul)(v1, v2)
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
    kind = type(b)
    if kind is Cmp:
        return _cmp(b)
    if kind is BoolLit:
        value = b.value
        return lambda stack: value
    if kind is Not:
        f = _bexp(b.arg)
        return lambda stack: not f(stack)
    if kind is And or kind is Or:
        return _junction(b)
    return _unknown("a guard", b)


def _value_le(v1: Value, v2: Value) -> bool:
    return value_lt(v1, v2) or v1 == v2


# per operator: the test on two exact ints, and the test on any values
_CMP = {"=": (eq, eq), "<": (lt, value_lt)}
_LE = (le, _value_le)  # any other operator is <=


def _var_const(op: str, name: str, c: int):
    """x op c, on an exact int x compared by the operator itself."""
    if op == "=":
        return lambda stack: stack[name] == c  # eq on any values
    if op == "<":
        def var_lt(stack):
            v = stack[name]
            if type(v) is int:
                return v < c
            return value_lt(v, c)
        return var_lt

    def var_le(stack):
        v = stack[name]
        if type(v) is int:
            return v <= c
        return _value_le(v, c)
    return var_le


def _cmp(b: Cmp):
    op, lhs, rhs, _ = b
    int_test, test = _CMP.get(op, _LE)
    if type(lhs) is Var and _literal(rhs):
        return _var_const(op, lhs.name, rhs.value)
    if _literal(lhs) and type(rhs) is Var:
        c, name = lhs.value, rhs.name

        def const_var(stack):
            v = stack[name]
            if type(v) is int:
                return int_test(c, v)
            return test(c, v)
        return const_var
    f1, f2 = _aexp(lhs), _aexp(rhs)

    def cmp(stack):
        v1 = f1(stack)
        v2 = f2(stack)
        if type(v1) is int and type(v2) is int:
            return int_test(v1, v2)
        return test(v1, v2)
    return cmp


def _junction(b: And | Or):
    """The left spine of and/or nodes under b as one closure that folds
    left. On bools & and | evaluate both sides, so errors on either
    surface."""
    steps = []
    while type(b) is And or type(b) is Or:
        steps.append((and_ if type(b) is And else or_, _bexp(b.rhs)))
        b = b.lhs
    first = _bexp(b)
    steps = tuple(reversed(steps))

    def junction(stack):
        v = first(stack)
        for op, f in steps:
            v = op(v, f(stack))
        return v
    return junction


# --- statements: f(stack, heap, blocks, gas) ---
# The heap's keys are addresses, so a value is in its domain exactly when
# it is an address of a cell in use.

def _stmt(s: Stmt):
    kind = type(s)
    if kind is Assign:
        var, f = s.var, _aexp(s.expr)
        shape = _shift_shape(s.expr)
        if shape is not None:
            # x := y + c and x := y - c: one addition on an integer y
            name, k = shape

            def assign_shift(stack, heap, blocks, gas):
                v = stack[name]
                stack[var] = v + k if type(v) is int else f(stack)
            return assign_shift

        def assign(stack, heap, blocks, gas):
            stack[var] = f(stack)
        return assign
    if kind is Skip:
        return _skip
    if kind is Cons:
        return _cons(s.var, tuple(map(_aexp, s.args)))
    if kind is Seq:
        *init, last = map(_stmt, s.items)
        if len(init) == 1:
            first = init[0]

            def seq2(stack, heap, blocks, gas):
                if gas[0] <= 0:
                    raise _Fuel()
                gas[0] -= 1
                first(stack, heap, blocks, gas)
                last(stack, heap, blocks, gas)
            return seq2

        def seq(stack, heap, blocks, gas):
            for f in init:
                if gas[0] <= 0:
                    raise _Fuel()
                gas[0] -= 1
                f(stack, heap, blocks, gas)
            last(stack, heap, blocks, gas)
        return seq
    if kind is Mutate:
        f1, f2 = _aexp(s.target), _aexp(s.value)

        def mutate(stack, heap, blocks, gas):
            target = f1(stack)
            value = f2(stack)
            if target not in heap:
                raise _Abort()
            heap[target] = value
        return mutate
    if kind is If:
        cond, then_body, else_body = \
            _bexp(s.cond), _stmt(s.then_body), _stmt(s.else_body)

        def if_(stack, heap, blocks, gas):
            (then_body if cond(stack) else else_body)(stack, heap, blocks, gas)
        return if_
    if kind is Lookup:
        var, f = s.var, _aexp(s.addr)

        def lookup(stack, heap, blocks, gas):
            target = f(stack)
            if target not in heap:
                raise _Abort()
            stack[var] = heap[target]
        return lookup
    if kind is While:
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
    if kind is Dispose:
        f = _aexp(s.addr)

        def dispose(stack, heap, blocks, gas):
            target = f(stack)
            if target not in heap:
                raise _Abort()
            blocks.dispose(target)
        return dispose
    return _unknown("a statement", s)


def _cons(var: str, fs: tuple):
    """x := cons(...) with argument closures fs. The arguments are
    evaluated before fresh_instance, a module global, so a wrapper
    installed after compiling sees it, and only for a cons that runs; the
    block it names is valid, so its cells are built without Address's
    checks."""
    n = len(fs)
    if n == 2:
        f1, f2 = fs

        def cons2(stack, heap, blocks, gas):
            v1 = f1(stack)
            v2 = f2(stack)
            u = fresh_instance(blocks, 2)
            first = _new(Address, (2, u, 1))
            heap[first] = v1
            heap[_new(Address, (2, u, 2))] = v2
            stack[var] = first
        return cons2

    def cons(stack, heap, blocks, gas):
        values = [f(stack) for f in fs]
        u = fresh_instance(blocks, n)
        for i, value in enumerate(values, 1):
            heap[_new(Address, (n, u, i))] = value
        stack[var] = _new(Address, (n, u, 1))
    return cons


def _skip(stack, heap, blocks, gas):
    pass


def zero_state(variables) -> ProgState:
    """Initial state: every variable at integer 0, empty heap."""
    return ProgState({x: 0 for x in variables}, {})
