"""A reference big-step interpreter, read directly from the rules.

A plain recursive evaluator over the syntax tree: no closures, no
specialization by shape, no compile memo and nothing shared with
whilep.interp. It allocates the least free instance by scanning the heap,
and builds every address through Address's checks. It ticks one unit of
fuel before every item of a sequence but the last and before every loop
iteration, and runs out when a tick finds none left. Expression errors
(nil operands, address-address arithmetic, shifts out of the block) and
heap accesses outside the domain abort.

run(s, state, fuel) returns ("Final", stack, heap), ("Aborted",) or
("OutOfFuel",), and leaves the state it is given alone.
"""

from __future__ import annotations

from whilep.lang import (
    And, Assign, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit, Lookup,
    Mutate, Nil, Not, Or, Seq, Skip, Var, While,
)
from whilep.memory import NIL, Address, NilValue


class _Abort(Exception):
    pass


class _NoFuel(Exception):
    pass


def run(s, state, fuel: int) -> tuple:
    machine = _Machine(dict(state.stack), dict(state.heap), fuel)
    try:
        machine.stmt(s)
    except _Abort:
        return ("Aborted",)
    except _NoFuel:
        return ("OutOfFuel",)
    return ("Final", machine.stack, machine.heap)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _rank(v) -> int:
    """ints < nil < addresses"""
    if _is_int(v):
        return 0
    if isinstance(v, NilValue):
        return 1
    return 2


def _key(v):
    return (v.length, v.instance, v.index) if isinstance(v, Address) else v


def less(v1, v2) -> bool:
    if _rank(v1) != _rank(v2):
        return _rank(v1) < _rank(v2)
    return _rank(v1) != 1 and _key(v1) < _key(v2)


def same(v1, v2) -> bool:
    return _rank(v1) == _rank(v2) and (_rank(v1) == 1 or _key(v1) == _key(v2))


def _shift(a: Address, k: int) -> Address:
    index = a.index + k
    if not 1 <= index <= a.length:
        raise _Abort()
    return Address(a.length, a.instance, index)


def arith(op: str, v1, v2):
    if _is_int(v1) and _is_int(v2):
        if op == "+":
            return v1 + v2
        if op == "-":
            return v1 - v2
        return v1 * v2
    if op == "+" and isinstance(v1, Address) and _is_int(v2):
        return _shift(v1, v2)
    if op == "+" and _is_int(v1) and isinstance(v2, Address):
        return _shift(v2, v1)
    if op == "-" and isinstance(v1, Address) and _is_int(v2):
        return _shift(v1, -v2)
    raise _Abort()


class _Machine:
    def __init__(self, stack: dict, heap: dict, fuel: int):
        self.stack, self.heap, self.fuel = stack, heap, fuel

    def tick(self) -> None:
        if self.fuel <= 0:
            raise _NoFuel()
        self.fuel -= 1

    def aexp(self, e):
        if isinstance(e, Var):
            return self.stack[e.name]
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, Nil):
            return NIL
        if isinstance(e, BinOp):
            return arith(e.op, self.aexp(e.lhs), self.aexp(e.rhs))
        raise TypeError(f"not an arithmetic expression: {e!r}")

    def bexp(self, b) -> bool:
        if isinstance(b, Cmp):
            v1, v2 = self.aexp(b.lhs), self.aexp(b.rhs)
            if b.op == "=":
                return same(v1, v2)
            if b.op == "<":
                return less(v1, v2)
            return less(v1, v2) or same(v1, v2)
        if isinstance(b, BoolLit):
            return b.value
        if isinstance(b, Not):
            return not self.bexp(b.arg)
        if isinstance(b, (And, Or)):
            # both sides evaluate, so an error on either aborts
            v1, v2 = self.bexp(b.lhs), self.bexp(b.rhs)
            return (v1 and v2) if isinstance(b, And) else (v1 or v2)
        raise TypeError(f"not a guard: {b!r}")

    def cell(self, e) -> Address:
        """The address e evaluates to, which must be a cell in the heap."""
        a = self.aexp(e)
        if not isinstance(a, Address) or a not in self.heap:
            raise _Abort()
        return a

    def stmt(self, s) -> None:
        if isinstance(s, Skip):
            return
        if isinstance(s, Assign):
            self.stack[s.var] = self.aexp(s.expr)
        elif isinstance(s, Cons):
            values = [self.aexp(e) for e in s.args]
            n = len(values)
            used = {a.instance for a in self.heap if a.length == n}
            u = 1
            while u in used:
                u += 1
            for i, v in enumerate(values, 1):
                self.heap[Address(n, u, i)] = v
            self.stack[s.var] = Address(n, u, 1)
        elif isinstance(s, Lookup):
            self.stack[s.var] = self.heap[self.cell(s.addr)]
        elif isinstance(s, Mutate):
            a = self.cell(s.target)
            self.heap[a] = self.aexp(s.value)
        elif isinstance(s, Dispose):
            del self.heap[self.cell(s.addr)]
        elif isinstance(s, Seq):
            for item in s.items[:-1]:
                self.tick()
                self.stmt(item)
            self.stmt(s.items[-1])
        elif isinstance(s, If):
            self.stmt(s.then_body if self.bexp(s.cond) else s.else_body)
        elif isinstance(s, While):
            while True:
                self.tick()
                if not self.bexp(s.cond):
                    return
                self.stmt(s.body)
        else:
            raise TypeError(f"not a statement: {s!r}")
