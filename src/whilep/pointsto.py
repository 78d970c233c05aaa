"""Flow-sensitive points-to analysis over stack variables and heap cells.

A points-to type maps every program variable, plus a tracked set of
abstract addresses, to the set of addresses its value may be. Abstract
addresses mirror runtime ones; allocation inside loops is kept finite by
an instance cap: once a block's instance number would exceed the cap,
it is folded onto the cap instance, which from then on stands for every
concrete instance at or above it (a summary). Strong updates are only
allowed through a singleton target below the cap.

abs_eval gives an expression's abstract value as a plain int when it is
that exact integer and as a frozenset of addresses otherwise. It folds
the left spine of a long sum in a loop, and reads a variable or literal
operand in place; _shifts and _variants are looked up as module globals
at each use. transfer, like leaf_live_pre, reads each operand of a leaf
as addr_part(abs_eval(e, p)). An address plus or minus a known offset
is shifted within its block, and a shift that leaves the block is
dropped; the shifts that stay are valid addresses by construction, so
they are built without Address's checks. The shifts of a set by an
offset, its closure under unknown offsets and the cells of a cons are
each kept in a bounded cache keyed by value, since every pass over a
program asks for the same ones.

transfer is the step of one leaf statement: of the keys the leaf may
change (its variable, a cons's block cells, a heap write's targets) it
writes only those whose image changes or that become tracked, and
returns its entry type itself when there are none; join returns its
first type when the second adds nothing. A step that changes nothing
thus costs no copy. annotate steps a statement as the run of its
items, a Seq's or itself alone, so it builds each item's AnnStmt and
calls transfer at one site. These per-node paths, abs_eval, transfer
and annotate, dispatch on the class tag node[-1] and build the PointsTo
and AnnStmt of a leaf with tuple.__new__ (see lang.Record).

A loop starts from its entry joined with its allocations: the cells of
instances 1..K of each block length a cons in its body allocates, at
empty images. Every closed invariant tracks them, as cons_block takes
the least untracked instance and no rule untracks one, so the start is
below the least fixpoint and the rounds do not grow with K. Iteration
ends: images only grow, over the program's variables and cells <= K.

No type holds an address above the cap. bottom, join and every transfer
preserve that: the cons transfer writes only the capped cells that
cons_block returns, so no pass folds a whole type afterwards. A type
read from a certificate is checked against the cap when it is loaded.
The cons transfer points the variable at the index-1 cells of the
block, one per instance, so block_cells of that image's size is the
block again: the live rule reads it from the exit type and does not
scan the entry type a second time.

No code writes into a type's env once the type is built, so a type is
a value that its identity names. cons_block keeps its last call, the
type object, length and cap with their answer, and returns that answer
to a call under the same type object without scanning it again: along
a straight line of leaves that change nothing, the type is one object,
so a run of conses there scans it once.

The model relation compares runtime addresses against the analysis
through cap_address, which is the identity until the cap is reached.
"""

from __future__ import annotations

from functools import lru_cache

from .lang import (
    AExp, Assign, BinOp, Cons, Dispose, If, IntLit, Lookup, Mutate, Nil,
    Record, Seq, Skip, Stmt, Var, While, walk,
)
from .memory import Address, ProgState

Key = object  # str (variable) or Address (tracked cell)


# the analyses' one parameter, the instance cap K; types grow with K
# squared, so the command line takes K up to MAX_INSTANCE_CAP
DEFAULT_CAP = 3
MAX_INSTANCE_CAP = 1_000

EMPTY: frozenset = frozenset()


class PointsTo(Record):
    """A points-to type. Its env is never written once the type is built:
    a step that changes an image builds a new dict (env | delta), so a
    type is a value and may be recognised by identity, as cons_block's
    memo does. test_imports pins that no package code writes into an env."""

    __slots__ = ()
    env: dict  # Key -> frozenset[Address]

    def image(self, key: Key) -> frozenset:
        return self.env.get(key, EMPTY)

    def tracked(self) -> frozenset:
        return frozenset(k for k in self.env if isinstance(k, Address))

    def variables(self) -> frozenset:
        return frozenset(k for k in self.env if isinstance(k, str))


def bottom(variables) -> PointsTo:
    """Least type over the given variables: everything points nowhere."""
    return PointsTo({x: EMPTY for x in variables})


def leq(p: PointsTo, q: PointsTo) -> bool:
    for key, image in p.env.items():
        if key not in q.env:
            return False
        if not image <= q.env[key]:
            return False
    return True


def join(p: PointsTo, q: PointsTo) -> PointsTo:
    """Least upper bound: writes only the keys of q that p lacks or whose
    image q's adds to. Returns p itself when q adds nothing (leq(q, p))."""
    env, delta = p.env, {}
    for key, image in q.env.items():
        old = env.get(key)
        if old is None or not image <= old:
            delta[key] = image if old is None else old | image
    return PointsTo(env | delta) if delta else p


def cap_address(a: Address, cap: int) -> Address:
    """Fold instances beyond the cap onto the cap's summary instance."""
    if a.instance <= cap:
        return a
    return Address(a.length, cap, a.index)


# --- abstract expression evaluation ---

def addr_part(v: int | frozenset) -> frozenset:
    return EMPTY if isinstance(v, int) else v


@lru_cache(maxsize=1024)
def _shifts(addrs: frozenset, k: int) -> frozenset:
    """Each address moved k cells, dropped where that leaves its block."""
    out = []
    for n, u, i in addrs:
        i += k
        if 1 <= i <= n:  # valid, so built without Address's checks
            out.append(tuple.__new__(Address, (n, u, i)))
    return frozenset(out)


@lru_cache(maxsize=1024)
def _variants(addrs: frozenset) -> frozenset:
    """Every in-block shift of every address: the unknown-offset closure."""
    out = set()
    for a in addrs:
        for i in range(1, a.length + 1):
            out.add(Address(a.length, a.instance, i))
    return frozenset(out)


def abs_eval(e: AExp, p: PointsTo) -> int | frozenset:
    """Abstract value of e: an int when e is that exact integer, otherwise
    the frozenset of addresses it may be.

    A set V promises only that an address result lies in V; the
    concrete value may always be some integer or nil instead.

    A long sum nests on the left, so the left spine of operators is
    followed in a loop and folded back up, and its length is no limit;
    a variable or literal operand is read in place.
    """
    tag = e[-1]
    if tag is Var:
        return p.env.get(e[0], EMPTY)
    if tag is IntLit:
        return e[0]
    if tag is BinOp:
        env, lhs = p.env, e[1]
        if lhs[-1] is BinOp:
            spine = [e]
            while lhs[-1] is BinOp:
                spine.append(lhs)
                lhs = lhs[1]
            nodes = reversed(spine)
        else:
            nodes = (e,)
        tag = lhs[-1]
        v1 = env.get(lhs[0], EMPTY) if tag is Var else lhs[0] if tag is IntLit \
            else abs_eval(lhs, p)
        for op, _, rhs, _ in nodes:
            tag = rhs[-1]
            v2 = env.get(rhs[0], EMPTY) if tag is Var else rhs[0] if tag is IntLit \
                else abs_eval(rhs, p)
            if isinstance(v1, int) and isinstance(v2, int):
                v1 = v1 + v2 if op == "+" else v1 - v2 if op == "-" else v1 * v2
            elif op == "*":
                v1 = EMPTY  # multiplication never yields an address
            elif isinstance(v2, int):  # addrs (+|-) known offset
                v1 = _shifts(v1, v2 if op == "+" else -v2)
            elif isinstance(v1, int):  # known int + addrs; int - addrs is undefined
                v1 = _shifts(v2, v1) if op == "+" else EMPTY
            # both sides may be addresses or unknown integers: any in-block
            # shift of the left side, plus of the right side under +
            elif op == "+":
                v1 = _variants(v1) | _variants(v2)
            else:
                v1 = _variants(v1)
        return v1
    if tag is Nil:
        return EMPTY
    raise TypeError(f"not an arithmetic expression: {e!r}")


# --- transfer functions and annotation ---

class AnnStmt(Record):
    """A statement with its entry and exit types; children in source order
    (the items of a Seq, then/else for If, body for While). A While's
    exit type is its loop invariant."""

    __slots__ = ()
    stmt: Stmt
    pre: PointsTo
    post: PointsTo
    children: tuple = ()


# the type, length and cap cons_block scanned last, and its answer
_last_block = (None, 0, 0, None)


def cons_block(p: PointsTo, length: int, cap: int) -> tuple[int, frozenset]:
    """Abstract allocation at a cons of the given arity.

    Returns (v, cells): v is the least instance whose block is untracked
    by p, and cells are the capped addresses of every block instance the
    allocation may occupy (instances 1..v, folded at the cap).

    A call with the very type object, length and cap of the previous call
    returns the previous answer without scanning p: no code writes into a
    type's env, and the memo holds p, so its id is not reused.
    """
    global _last_block
    last, last_length, last_cap, block = _last_block
    if last is p and last_length == length and last_cap == cap:
        return block
    used = set()  # a plain loop: a comprehension costs more on small types
    for k in p.env:
        if type(k) is Address and k[0] == length:
            used.add(k[1])
    v = 1
    while v in used:
        v += 1
    block = v, block_cells(length, v, cap)
    _last_block = (p, length, cap, block)
    return block


@lru_cache(maxsize=1024)
def block_cells(length: int, v: int, cap: int) -> frozenset:
    """The cells cons_block returns when v is the least untracked
    instance: every cell of instances 1..v, folded at the cap."""
    return frozenset(
        Address(length, min(i, cap), j)
        for i in range(1, v + 1)
        for j in range(1, length + 1))


@lru_cache(maxsize=1024)
def _block_heads(length: int, v: int, cap: int) -> frozenset:
    """The index-1 cells of block_cells: where the cons's variable points."""
    return frozenset(a for a in block_cells(length, v, cap) if a[2] == 1)


def transfer(s: Stmt, p: PointsTo, cap: int) -> PointsTo:
    """Exit type of leaf s from entry type p: each branch writes only the
    keys s may change whose image changes or that become tracked; every
    other key keeps its image. Returns p itself when s writes no key."""
    tag, env = s[-1], p.env
    if tag is Assign:
        image = addr_part(abs_eval(s.expr, p))
        delta = {s.var: image} if env.get(s.var) != image else None
    elif tag is Cons:
        images = [addr_part(abs_eval(a, p)) for a in s.args]
        length = len(images)
        v, cells = cons_block(p, length, cap)
        delta = {}
        for a in cells:  # each cell joins its argument's image, as in join
            image, old = images[a[2] - 1], env.get(a)
            if old is None or not image <= old:
                delta[a] = image if old is None else old | image
        heads = _block_heads(length, v, cap)
        if env.get(s.var) != heads:
            delta[s.var] = heads
    elif tag is Lookup:
        targets = addr_part(abs_eval(s.addr, p))
        image = EMPTY.union(*[env.get(a, EMPTY) for a in targets])
        delta = {s.var: image} if env.get(s.var) != image else None
    elif tag is Mutate:
        targets = addr_part(abs_eval(s.target, p))
        stored = addr_part(abs_eval(s.value, p))
        only = next(iter(targets)) if len(targets) == 1 else None
        if only is not None and only.instance < cap:
            # strong update: unique, non-summary target
            delta = {only: stored} if env.get(only) != stored else None
        else:
            delta = {}
            for a in targets:  # weak update: each target joins stored
                old = env.get(a)
                if old is None or not stored <= old:
                    delta[a] = stored if old is None else old | stored
    elif tag is Skip or tag is Dispose:
        return p
    else:
        raise TypeError(f"not a leaf statement: {s!r}")
    return tuple.__new__(PointsTo, (env | delta, PointsTo)) if delta else p


def annotate(s: Stmt, p: PointsTo, cap: int,
             seeds: dict | None = None) -> AnnStmt:
    """Run the analysis from entry type p, annotating every node. seeds,
    when given, maps id() of every While node in s to a recorded
    invariant, which joins the loop's start; the loop then ends at its
    seed exactly when the seed contains its entry and is closed under
    the body."""
    return _annotate(s, p, cap, seeds or {}, {})


def _annotate(s: Stmt, p: PointsTo, cap: int, seeds: dict,
              starts: dict) -> AnnStmt:
    """annotate, with each loop's start memoised in starts by id(). A
    statement steps as the run of its items: a Seq's, or itself alone."""
    is_seq = s[-1] is Seq
    children, q = [], p
    for item in s.items if is_seq else (s,):
        tag = item[-1]
        if tag is If:
            then_ann = _annotate(item.then_body, q, cap, seeds, starts)
            else_ann = _annotate(item.else_body, q, cap, seeds, starts)
            child = AnnStmt(item, q, join(then_ann.post, else_ann.post),
                            (then_ann, else_ann))
        elif tag is While:
            if id(item) not in starts:  # the body's allocations at empty images, and the seed
                starts[id(item)] = PointsTo(
                    {a: EMPTY for n in walk(item.body) if isinstance(n, Cons)
                     for a in block_cells(len(n.args), cap, cap)}
                    | seeds.get(id(item), bottom(())).env)
            inv = join(q, starts[id(item)])
            while True:
                body = _annotate(item.body, inv, cap, seeds, starts)
                grown = join(inv, body.post)
                if grown is inv:
                    break
                inv = grown
            child = AnnStmt(item, q, inv, (body,))
        else:  # transfer is looked up per call, so patches apply
            child = tuple.__new__(AnnStmt, (item, q, transfer(item, q, cap), (), AnnStmt))
        children.append(child)
        q = child.post
    return AnnStmt(s, p, q, tuple(children)) if is_seq else child


def models(st: ProgState, p: PointsTo, cap: int) -> bool:
    """Does the runtime state satisfy the type, up to instance capping?"""
    for a in st.heap:
        if cap_address(a, cap) not in p.env:
            return False
    for x, v in st.stack.items():
        if isinstance(v, Address) and cap_address(v, cap) not in p.image(x):
            return False
    for a, v in st.heap.items():
        if isinstance(v, Address):
            if cap_address(v, cap) not in p.image(cap_address(a, cap)):
                return False
    return True
