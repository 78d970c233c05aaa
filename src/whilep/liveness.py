"""Backward liveness over stack variables and heap cells, and the
dead-code derivation it yields.

A live set mixes variable names with abstract addresses. The analysis
walks a points-to-annotated program backwards from a caller-supplied
final live set; each node's entry set records what must be preserved
for the program to compute the same live results. Heap writes never
kill (the written cell is only known up to a set), and the guard of a
branch or loop is always live.

The same pass builds the optimization derivation: every node's live
judgment also carries the rule whose side condition holds there and the
residual that rule emits, so a live judgment plus its residual is the
judgment the certificate checker revalidates. At a leaf, one function,
leaf_live_pre, decides all three from the node's entry and exit types:
the live rule enriches the points-to judgment, so a cons reads the
cells of its block from the exit image of its variable, which transfer
has set to the block's index-1 cells, and neither scans the entry type
for the block again nor takes a cap of its own.
Adjacent judgments share one boundary: an item of a sequence ends at
the very LiveType the next item starts at, and the sequence starts at
its first item's entry and ends at its last item's exit, so a leaf item
costs three records (its derivation, judgment and entry LiveType) and
check's chain comparisons meet one object. As in pointsto.annotate,
each item's records are built, and leaf_live_pre called, at one site.
leaf_live_pre and live_annotate dispatch on the class tag node[-1] and
build their records with tuple.__new__ (see lang.Record).
"""

from __future__ import annotations

from .lang import (
    Assign, Cons, Dispose, If, IntLit, Lookup, Mutate, Record, Seq, Skip, Stmt,
    While, free_vars,
)
from .memory import Address, ProgState
from .pointsto import (
    AnnStmt, PointsTo, abs_eval, addr_part, block_cells, cap_address,
)


class LiveType(Record):
    """A points-to type paired with a live set; the unit of judgment."""

    __slots__ = ()
    pts: PointsTo
    live: frozenset


class Judgment(Record):
    __slots__ = ()
    stmt: Stmt
    pre: LiveType
    post: LiveType
    residual: Stmt


class Derivation(Record):
    __slots__ = ()
    rule: str
    judgment: Judgment
    premises: tuple = ()


# the argument of a dead cell and the residual of a removed leaf;
# nodes are immutable, so one of each serves every rewrite
_ZERO = IntLit(0)
_SKIP = Skip()


def leaf_live_pre(s: Stmt, pre: PointsTo, post_p: PointsTo,
                  post: frozenset) -> tuple[frozenset, str, Stmt]:
    """The leaf rule for s between entry type pre and exit live set post:
    (entry live set, the rule whose side condition holds, its residual).
    post_p must be the exit type, transfer(s, pre, cap) with the annotation's
    cap: a cons reads its block from post_p, and another type gives a
    wrong cell set or a KeyError, not a reported mismatch. check compares
    post_p with the transfer before it calls this. No cap is taken: the
    exit image of a cons's variable holds one cell per instance up to the
    cap, so its size m is the number of instances the block may occupy.

    Writes to dead variables and heap writes that reach no live cell
    become skip; a cons keeps its allocation, so that the heap domain
    evolves as in the original, but the arguments of its dead cells are
    zeroed, so that the residual never evaluates them.
    """
    tag = s[-1]
    if tag is Assign:
        if s.var not in post:
            return post, "ass_d1", _SKIP
        return (post - {s.var}) | free_vars(s.expr), "ass_d2", s
    if tag is Cons:
        # the block's cells are those of instances 1..m, none above the cap
        m = len(post_p.env[s.var])
        cells = block_cells(len(s.args), m, m)
        live_args = {a[2] for a in cells & post}
        entry = post - {s.var} if s.var in post else post
        for j in live_args:
            entry = entry | free_vars(s.args[j - 1])
        rule = "con_d2" if live_args or s.var in post else "con_d1"
        if len(live_args) == len(s.args):  # the rewrite keeps s as it is
            return entry, rule, s
        args = tuple([a if j in live_args else _ZERO
                      for j, a in enumerate(s.args, 1)])
        return entry, rule, tuple.__new__(Cons, (s.var, args, Cons))
    if tag is Lookup:
        if s.var not in post:
            return post, "lok_d1", _SKIP
        targets = addr_part(abs_eval(s.addr, pre))
        return (post - {s.var}) | free_vars(s.addr) | targets, "lok_d2", s
    if tag is Mutate:
        entry = post | free_vars(s.target)
        if addr_part(abs_eval(s.target, pre)) & post:
            return entry | free_vars(s.value), "mut_d2", s
        return entry, "mut_d1", _SKIP
    if tag is Skip:
        return post, "skip", s
    if tag is Dispose:
        return post | free_vars(s.addr), "dis_d", s
    raise TypeError(f"not a leaf statement: {s!r}")


def live_annotate(ann: AnnStmt, post: frozenset,
                  seeds: dict | None = None) -> Derivation:
    """The derivation of an annotated program, backwards from exit live
    set post: every node's live sets, rule and residual.

    Each loop iterates to closure from exit set and guard, joined with
    its seed when seeds (id() of every While node -> recorded head live
    set) is given, as in pointsto.annotate; so it ends at the seed exactly
    when the seed holds guard and exit and is closed under the body. It
    ends: head sets only grow, over the program's variables and cells <= K.
    """
    return _derive(ann, tuple.__new__(LiveType, (ann.post, post, LiveType)),
                   seeds or {})


def _derive(ann: AnnStmt, out: LiveType, seeds: dict) -> Derivation:
    """live_annotate, ending at the exit judgment side out. A statement
    steps as the run of its items, a Seq's or itself alone, backwards.
    Adjacent judgments share one boundary: an item ends at the next
    item's entry LiveType, the last at out, and a sequence starts at its
    first item's entry."""
    s = ann.stmt
    is_seq = s[-1] is Seq
    new, premises, nxt = tuple.__new__, [], out
    for child in reversed(ann.children) if is_seq else (ann,):
        item, post = child.stmt, nxt.live
        tag = item[-1]
        if tag is If:
            then_ann, else_ann = child.children
            then_d = _derive(then_ann, LiveType(then_ann.post, post), seeds)
            else_d = _derive(else_ann, LiveType(else_ann.post, post), seeds)
            pre = free_vars(item.cond) | then_d.judgment.pre.live | else_d.judgment.pre.live
            rule, residual, subs = "if_d", If(item.cond, then_d.judgment.residual,
                                              else_d.judgment.residual), (then_d, else_d)
        elif tag is While:
            # least fixpoint above the exit set plus the guard: the body is
            # re-analyzed with the loop head as its exit until nothing grows
            body_ann = child.children[0]
            pre = post | free_vars(item.cond) | seeds.get(id(item), frozenset())
            while True:
                body = _derive(body_ann, LiveType(body_ann.post, pre), seeds)
                grown = pre | body.judgment.pre.live
                if grown == pre:
                    break
                pre = grown
            rule, residual, subs = "whl_d", While(item.cond, body.judgment.residual), (body,)
        else:  # leaf_live_pre is looked up at each call, so a patched one sees it
            pre, rule, residual = leaf_live_pre(item, child.pre, child.post, post)
            subs = ()
        d = new(Derivation, (rule, new(Judgment, (
            item, new(LiveType, (child.pre, pre, LiveType)), nxt, residual,
            Judgment)), subs, Derivation))
        premises.append(d)
        nxt = d.judgment.pre
    if not is_seq:
        return d
    premises.reverse()
    # no residual item is a Seq, so the items are not re-spliced
    residual = new(Seq, (tuple([d.judgment.residual for d in premises]), Seq))
    return new(Derivation, ("seq_d", new(Judgment, (s, nxt, out, residual, Judgment)),
                            tuple(premises), Derivation))


def models_live(st: ProgState, p: PointsTo, live: frozenset, cap: int) -> bool:
    """The model relation restricted to the live portion of the state.

    The heap-domain clause stays global (every allocated cell is tracked);
    the value clauses apply only to live variables and live cells.
    """
    for a in st.heap:
        if cap_address(a, cap) not in p.env:
            return False
    for x, v in st.stack.items():
        if x in live and isinstance(v, Address):
            if cap_address(v, cap) not in p.image(x):
                return False
    for a, v in st.heap.items():
        abstract = cap_address(a, cap)
        if abstract in live and isinstance(v, Address):
            if cap_address(v, cap) not in p.image(abstract):
                return False
    return True


def similar_states(st1: ProgState, st2: ProgState, p: PointsTo,
                   live: frozenset, cap: int) -> bool:
    """Same heap domain, both model (p, live), and agreement on live data."""
    if st1.heap.keys() != st2.heap.keys():
        return False
    if not (models_live(st1, p, live, cap) and models_live(st2, p, live, cap)):
        return False
    for key in live:
        if isinstance(key, str):
            if st1.stack.get(key) != st2.stack.get(key):
                return False
    for a, v in st1.heap.items():
        if cap_address(a, cap) in live and st2.heap[a] != v:
            return False
    return True
