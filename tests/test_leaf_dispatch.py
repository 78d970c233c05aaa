"""The per-node hot paths dispatch on the class tag and build records with
tuple.__new__ (lang.Record). These tests hold them to frozen isinstance
versions of abs_eval, transfer and leaf_live_pre, join to a frozen
dict-copy version, the interpreter's specialized expression and guard
closures to a frozen unspecialized version, the records to the
constructors, and each to a loud TypeError on a node of the wrong kind."""

import ast
import pickle
import random
from operator import add, itemgetter, mul, sub
from pathlib import Path

import pytest

from whilep import GenConfig, gen_program
from whilep.harness import _synthetic_ptype, gen_aexp
from whilep.interp import EvalError, eval_aexp, eval_bexp, execute
from whilep.lang import (
    AExp, And, Assign, BExp, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit,
    Lookup, Mutate, Nil, Not, Or, Seq, Skip, Stmt, Var, While, children,
    free_vars, parse, pretty, pretty_aexp, pretty_bexp, stmt_vars, walk,
)
from whilep.liveness import Derivation, Judgment, LiveType, leaf_live_pre
from whilep.memory import NIL, Address, NilValue, ProgState, addr_shift
from whilep.pointsto import (
    DEFAULT_CAP, EMPTY, AnnStmt, PointsTo, _block_heads, _shifts, _variants,
    abs_eval, addr_part, bottom, cons_block, join, transfer,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "whilep"


# --- frozen reference copies: the isinstance versions the tag dispatch replaced ---

def ref_abs_eval(e: AExp, p: PointsTo):
    if isinstance(e, Var):
        return p.env.get(e.name, EMPTY)
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BinOp):
        v1 = ref_abs_eval(e.lhs, p)
        v2 = ref_abs_eval(e.rhs, p)
        if isinstance(v1, int) and isinstance(v2, int):
            if e.op == "+":
                return v1 + v2
            if e.op == "-":
                return v1 - v2
            return v1 * v2
        if e.op == "*":
            return EMPTY
        if isinstance(v2, int):
            return _shifts(v1, v2 if e.op == "+" else -v2)
        if isinstance(v1, int):
            return _shifts(v2, v1) if e.op == "+" else EMPTY
        if e.op == "+":
            return _variants(v1) | _variants(v2)
        return _variants(v1)
    if isinstance(e, Nil):
        return EMPTY
    raise TypeError(f"not an arithmetic expression: {e!r}")


def ref_transfer(s: Stmt, p: PointsTo, cap: int) -> PointsTo:
    if isinstance(s, Assign):
        delta = {s.var: addr_part(ref_abs_eval(s.expr, p))}
    elif isinstance(s, Cons):
        images = [addr_part(ref_abs_eval(a, p)) for a in s.args]
        length, env = len(s.args), p.env
        v, cells = cons_block(p, length, cap)
        delta = {a: env.get(a, EMPTY) | images[a[2] - 1] for a in cells}
        delta[s.var] = _block_heads(length, v, cap)
    elif isinstance(s, Lookup):
        targets = addr_part(ref_abs_eval(s.addr, p))
        delta = {s.var: EMPTY.union(*map(p.image, targets))}
    elif isinstance(s, Mutate):
        targets = addr_part(ref_abs_eval(s.target, p))
        stored = addr_part(ref_abs_eval(s.value, p))
        only = next(iter(targets)) if len(targets) == 1 else None
        if only is not None and only.instance < cap:
            delta = {only: stored}
        else:
            delta = {a: p.image(a) | stored for a in targets}
    elif isinstance(s, (Skip, Dispose)):
        delta = {}
    else:
        raise TypeError(f"not a leaf statement: {s!r}")
    return PointsTo(p.env | delta) if delta else p


def ref_join(p: PointsTo, q: PointsTo) -> PointsTo:
    env = dict(p.env)
    for key, image in q.env.items():
        old = env.get(key)
        env[key] = image if old is None else old | image
    return PointsTo(env)


def ref_leaf_live_pre(s: Stmt, pre: PointsTo, post: frozenset, cap: int):
    if isinstance(s, Skip):
        return post, "skip", s
    if isinstance(s, Assign):
        if s.var not in post:
            return post, "ass_d1", Skip()
        return (post - {s.var}) | free_vars(s.expr), "ass_d2", s
    if isinstance(s, Cons):
        _, cells = cons_block(pre, len(s.args), cap)
        live_args = {a[2] for a in cells & post}
        entry = post - {s.var}
        for j in live_args:
            entry |= free_vars(s.args[j - 1])
        rule = "con_d2" if live_args or s.var in post else "con_d1"
        if len(live_args) == len(s.args):
            return entry, rule, s
        args = tuple([a if j in live_args else IntLit(0)
                      for j, a in enumerate(s.args, 1)])
        return entry, rule, Cons(s.var, args)
    if isinstance(s, Lookup):
        if s.var not in post:
            return post, "lok_d1", Skip()
        targets = addr_part(ref_abs_eval(s.addr, pre))
        return (post - {s.var}) | free_vars(s.addr) | targets, "lok_d2", s
    if isinstance(s, Mutate):
        entry = post | free_vars(s.target)
        if addr_part(ref_abs_eval(s.target, pre)) & post:
            return entry | free_vars(s.value), "mut_d2", s
        return entry, "mut_d1", Skip()
    if isinstance(s, Dispose):
        return post | free_vars(s.addr), "dis_d", s
    raise TypeError(f"not a leaf statement: {s!r}")


# the interpreter's expression and guard closures before they were
# specialized on operand shape

def ref_aexp(e: AExp):
    if isinstance(e, Var):
        return itemgetter(e.name)
    if isinstance(e, IntLit):
        value = e.value
        return lambda stack: value
    if isinstance(e, BinOp):
        return ref_binop(e.op, ref_aexp(e.lhs), ref_aexp(e.rhs))
    if isinstance(e, Nil):
        return lambda stack: NIL
    raise TypeError(f"not an arithmetic expression: {e!r}")


def ref_binop(op: str, f1, f2):
    arith = {"+": add, "-": sub}.get(op, mul)

    def binop(stack):
        v1 = f1(stack)
        v2 = f2(stack)
        if isinstance(v1, int) and isinstance(v2, int):
            return arith(v1, v2)
        return ref_address_arith(op, v1, v2)
    return binop


def ref_address_arith(op: str, v1, v2) -> Address:
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


def ref_rank(v) -> int:
    if isinstance(v, bool):
        raise TypeError("booleans are not values")
    if isinstance(v, int):
        return 0
    if isinstance(v, NilValue):
        return 1
    return 2


def ref_value_lt(v1, v2) -> bool:
    r1, r2 = ref_rank(v1), ref_rank(v2)
    if r1 != r2:
        return r1 < r2
    return r1 != 1 and v1 < v2


def ref_bexp(b: BExp):
    if isinstance(b, Cmp):
        f1, f2 = ref_aexp(b.lhs), ref_aexp(b.rhs)
        if b.op == "=":
            return lambda stack: f1(stack) == f2(stack)
        if b.op == "<":
            def lt(stack):
                v1 = f1(stack)
                v2 = f2(stack)
                if type(v1) is int and type(v2) is int:
                    return v1 < v2
                return ref_value_lt(v1, v2)
            return lt

        def le(stack):
            v1 = f1(stack)
            v2 = f2(stack)
            if type(v1) is int and type(v2) is int:
                return v1 <= v2
            return ref_value_lt(v1, v2) or v1 == v2
        return le
    if isinstance(b, BoolLit):
        value = b.value
        return lambda stack: value
    if isinstance(b, Not):
        f = ref_bexp(b.arg)
        return lambda stack: not f(stack)
    if isinstance(b, And):
        f1, f2 = ref_bexp(b.lhs), ref_bexp(b.rhs)
        return lambda stack: f1(stack) & f2(stack)
    if isinstance(b, Or):
        f1, f2 = ref_bexp(b.lhs), ref_bexp(b.rhs)
        return lambda stack: f1(stack) | f2(stack)
    raise TypeError(f"not a guard: {b!r}")


# --- differential ---

def _partial_ptype(rng: random.Random, variables, cap: int) -> PointsTo:
    """A type that tracks only some cells of a block, as a certificate's
    entry type or loop invariant may: a proper, nonempty subset of the
    cells of one or two blocks of length 2 or 3."""
    env = {x: EMPTY for x in variables}
    for _ in range(rng.randint(1, 2)):
        n, u = rng.randint(2, 3), rng.randint(1, cap)
        kept = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
        for j in kept:
            env[Address(n, u, j)] = EMPTY
    cells = [k for k in env if isinstance(k, Address)]
    for key in list(env):
        if rng.random() < 0.5:
            env[key] = frozenset(rng.sample(cells, rng.randint(1, min(2, len(cells)))))
    # a variable may also point at a cell of the block that is not tracked
    for x in variables:
        if rng.random() < 0.2:
            a = rng.choice(cells)
            env[x] = env[x] | {Address(a.length, a.instance, a.length + 1 - a.index)}
    return PointsTo(env)


def _expressions(s: Stmt):
    """Every arithmetic expression node under leaf s."""
    todo = [getattr(s, name) for name in ("expr", "addr", "target", "value")
            if hasattr(s, name)]
    todo += getattr(s, "args", ())
    while todo:
        e = todo.pop()
        yield e
        if isinstance(e, BinOp):
            todo += (e.lhs, e.rhs)


def _assert_join_matches(p: PointsTo, q: PointsTo):
    joined, ref = join(p, q), ref_join(p, q)
    assert joined == ref and list(joined.env) == list(ref.env), (p, q)


def test_leaf_steps_match_the_isinstance_reference():
    """transfer, leaf_live_pre and abs_eval agree with the frozen copies on
    every leaf of gen_program seeds 0-299, at caps 1-3, from three kinds
    of entry type and random exit live sets that include cells; transfer
    keeps the reference's key order, and join agrees with the frozen
    copy, in value and key order, on each exit type and each entry.
    leaf_live_pre is given transfer's exit type, from which it reads a
    cons's block with no cap; the reference scans the entry type for it
    and folds it at the cap."""
    kinds = set()
    for seed in range(300):
        prog = gen_program(GenConfig(seed=seed))
        variables = sorted(stmt_vars(prog))
        leaves = [n for n in walk(prog) if not children(n)]
        for cap in (1, 2, 3):
            rng = random.Random(f"leaf:{seed}:{cap}")
            entries = (bottom(variables), _synthetic_ptype(rng, variables, cap),
                       _partial_ptype(rng, variables, cap))
            for entry in entries:
                for other in entries:
                    _assert_join_matches(entry, other)
                for s in leaves:
                    kinds.add(type(s))
                    for e in _expressions(s):
                        assert abs_eval(e, entry) == ref_abs_eval(e, entry), (seed, e)
                    post_p = transfer(s, entry, cap)
                    assert post_p == ref_transfer(s, entry, cap), (seed, cap, s)
                    assert type(post_p) is PointsTo
                    assert list(post_p.env) == list(ref_transfer(s, entry, cap).env)
                    for other in entries:
                        _assert_join_matches(post_p, other)
                    keys = sorted(post_p.env.keys() | entry.env.keys(), key=repr)
                    post = frozenset(k for k in keys if rng.random() < 0.5)
                    assert leaf_live_pre(s, entry, post_p, post) == \
                        ref_leaf_live_pre(s, entry, post, cap), (seed, cap, s, post)
    assert kinds == {Skip, Assign, Cons, Lookup, Mutate, Dispose}


def _chain(rng: random.Random, n: int, operand) -> AExp:
    """A left-deep chain of n operands, as a long sum parses."""
    e = operand(rng)
    for _ in range(n - 1):
        e = BinOp(rng.choice("++-*" if rng.random() < 0.1 else "+-"), e, operand(rng))
    return e


def test_abs_eval_matches_the_recursive_reference():
    """abs_eval, which folds a left spine in a loop and reads variable and
    literal operands in place, agrees with the recursive reference on
    gen_aexp output and on long left-deep chains over types that track
    addresses, and folds a chain past the recursion limit."""
    rng = random.Random("abs-eval")
    names = ("x", "y", "z")
    shapes = set()
    for _ in range(600):
        p = _synthetic_ptype(rng, names, rng.randint(1, 3))
        exprs = [gen_aexp(rng, names, rng.randint(0, 5)) for _ in range(5)]
        exprs.append(_chain(rng, rng.randint(2, 300), lambda r: (
            Var(r.choice(names)) if r.random() < 0.4 else
            IntLit(r.randint(-2, 3)) if r.random() < 0.8 else
            Nil() if r.random() < 0.5 else gen_aexp(r, names, 2))))
        for e in exprs:
            got, want = abs_eval(e, p), ref_abs_eval(e, p)
            assert got == want and type(got) is type(want), e
            shapes.add(type(got))
    assert shapes == {int, frozenset}
    p = PointsTo({"x": frozenset({Address(3, 1, 1)})})
    long_sum, walk_x = IntLit(1), BinOp("+", Var("x"), IntLit(1))
    for _ in range(2_999):
        long_sum = BinOp("+", long_sum, IntLit(1))
        walk_x = BinOp("-", BinOp("+", walk_x, IntLit(1)), IntLit(1))
    assert abs_eval(long_sum, p) == 3_000
    assert abs_eval(walk_x, p) == {Address(3, 1, 2)}


_NAMES = ("a", "b", "c")


def _operand(rng: random.Random) -> AExp:
    """Mostly the shapes the interpreter specializes: variables and
    constants, negative and zero among them."""
    roll = rng.random()
    if roll < 0.45:
        return Var(rng.choice(_NAMES))
    if roll < 0.9:
        return IntLit(rng.randint(-3, 3))
    return Nil()


def _gen_aexp(rng: random.Random, depth: int) -> AExp:
    if depth <= 0 or rng.random() < 0.3:
        return _operand(rng)
    if rng.random() < 0.2:  # a left-deep chain, as a long sum parses
        e = _gen_aexp(rng, depth - 1)
        for _ in range(rng.randint(1, 4)):
            e = BinOp(rng.choice("+-*"), e, _gen_aexp(rng, depth - 2))
        return e
    return BinOp(rng.choice(("+", "+", "-", "-", "*")),
                 _gen_aexp(rng, depth - 1), _gen_aexp(rng, depth - 1))


def _gen_bexp(rng: random.Random, depth: int) -> BExp:
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return Cmp(rng.choice(("=", "<", "<=")), _gen_aexp(rng, 1), _gen_aexp(rng, 1))
    if roll < 0.6:
        return BoolLit(rng.random() < 0.5)
    if roll < 0.7:
        return Not(_gen_bexp(rng, depth - 1))
    b = _gen_bexp(rng, depth - 1)
    for _ in range(rng.randint(1, 3)):
        b = (And if rng.random() < 0.5 else Or)(b, _gen_bexp(rng, depth - 1))
    return b


def _gen_value(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return rng.randint(-3, 4)
    if roll < 0.65:
        return NIL
    n = rng.randint(1, 3)
    return Address(n, rng.randint(1, 2), rng.randint(1, n))


def _outcome(f, *args):
    """f's value on args, or the type of the exception it raised."""
    try:
        return f(*args)
    except (EvalError, TypeError) as exc:
        return type(exc)


def test_closures_match_the_unspecialized_reference():
    """eval_aexp and eval_bexp agree with the frozen unspecialized closures
    on 4,000 generated expressions and guards, each over six stacks of
    ints, nil and addresses: the same value, of the same type, or the same
    exception. Every specialized shape, an out-of-block shift and every
    comparison between kinds of value occur."""
    rng = random.Random("closures")
    errors = 0
    for _ in range(2000):
        e, b = _gen_aexp(rng, 3), _gen_bexp(rng, 2)
        stacks = [{x: _gen_value(rng) for x in _NAMES} for _ in range(6)]
        for stack in stacks:
            for got, ref in ((_outcome(eval_aexp, e, stack), _outcome(ref_aexp(e), stack)),
                             (_outcome(eval_bexp, b, stack), _outcome(ref_bexp(b), stack))):
                assert got == ref and type(got) is type(ref), (e, b, stack)
                errors += ref is EvalError
    assert errors > 1000
    # the shapes, each once, from a stack that takes the slow path
    stack = {"a": Address(2, 1, 1), "b": NIL, "c": 0}
    for e in (BinOp("+", Var("a"), IntLit(1)), BinOp("-", Var("a"), IntLit(0)),
              BinOp("+", Var("a"), IntLit(2)), BinOp("-", Var("a"), IntLit(-1)),
              BinOp("+", IntLit(1), Var("a")), BinOp("-", IntLit(1), Var("a")),
              BinOp("+", Var("b"), IntLit(0)), BinOp("*", Var("a"), IntLit(1))):
        assert _outcome(eval_aexp, e, stack) == _outcome(ref_aexp(e), stack), e
    for op in ("=", "<", "<="):
        for x in _NAMES:
            for lhs, rhs in ((Var(x), IntLit(0)), (IntLit(0), Var(x)), (Var(x), Var("a"))):
                b = Cmp(op, lhs, rhs)
                assert eval_bexp(b, stack) is ref_bexp(b)(stack), b


# --- direct construction ---

_P = PointsTo({"p": frozenset({Address(2, 1, 1)}), Address(2, 1, 1): EMPTY})
_LEAF = Cons("p", (IntLit(1), Var("q")))
_T = LiveType(_P, frozenset({"p", Address(2, 1, 2)}))
_J = Judgment(_LEAF, _T, _T, _LEAF)
_DIRECT = {
    PointsTo: (_P.env,),
    AnnStmt: (_LEAF, _P, _P, ()),
    Cons: ("x", (IntLit(0), Var("p"))),
    Seq: ((_LEAF, Skip()),),
    # the parser's leaves and its operator loop
    BinOp: ("+", Var("p"), IntLit(1)),
    Assign: ("x", Var("p")),
    Lookup: ("x", BinOp("+", Var("p"), IntLit(1))),
    Mutate: (Var("p"), IntLit(2)),
    Dispose: (Var("p"),),
    Skip: (),
    LiveType: (_P, frozenset({"p"})),
    Judgment: (_LEAF, _T, _T, Skip()),
    Derivation: ("con_d2", _J, (Derivation("skip", _J),)),
}


def _direct_builds(tree) -> set[str]:
    """The classes named first in calls of tuple.__new__, or of a local
    alias `new` of it."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "new"
                    or isinstance(func, ast.Attribute) and func.attr == "__new__"
                    and isinstance(func.value, ast.Name) and func.value.id == "tuple"):
                out.add(node.args[0].id)
    return out


def _hash(record):
    """The record's hash, or None when a field (a dict) is unhashable."""
    try:
        return hash(record)
    except TypeError:
        return None


def test_every_direct_construction_is_sampled():
    """Each class the package builds directly is one the next test
    compares; Record's and Address's own constructors pass cls."""
    built = set().union(*(_direct_builds(ast.parse(path.read_text(encoding="utf-8")))
                          for path in SRC.glob("*.py")))
    assert built == {cls.__name__ for cls in _DIRECT} | {"Address", "cls"}


@pytest.mark.parametrize("cls", list(_DIRECT), ids=lambda cls: cls.__name__)
def test_direct_construction_equals_the_constructor(cls):
    """tuple.__new__(Cls, (*fields, Cls)) is Cls(*fields): same class,
    ==, hash (or both unhashable), repr and pickle round trip."""
    fields = _DIRECT[cls]
    direct = tuple.__new__(cls, (*fields, cls))
    built = cls(*fields[0]) if cls is Seq else cls(*fields)
    assert type(direct) is cls
    assert direct == built and _hash(direct) == _hash(built)
    assert repr(direct) == repr(built)
    twin = pickle.loads(pickle.dumps(direct))
    assert type(twin) is cls and twin == built and repr(twin) == repr(built)


def test_direct_address_equals_the_constructor():
    """_shifts builds valid addresses without Address's checks; they have
    no tag, as Address is a plain namedtuple."""
    direct = tuple.__new__(Address, (3, 2, 1))
    built = Address(3, 2, 1)
    assert type(direct) is Address
    assert direct == built and hash(direct) == hash(built)
    assert repr(direct) == repr(built) == "addr(3,2,1)"
    assert pickle.loads(pickle.dumps(direct)) == built


# --- wrong kinds ---

_P0 = bottom({"x"})
_LOOP = While(Cmp("<", Var("x"), IntLit(1)), Skip())
_CALLS = {
    "abs_eval": lambda n: abs_eval(n, _P0),
    "transfer": lambda n: transfer(n, _P0, DEFAULT_CAP),
    "leaf_live_pre": lambda n: leaf_live_pre(n, _P0, _P0, EMPTY),
    "pretty": pretty,
    "pretty_aexp": pretty_aexp,
    "pretty_bexp": pretty_bexp,
    "eval_aexp": lambda n: eval_aexp(n, {"x": 0}),
    "eval_bexp": lambda n: eval_bexp(n, {"x": 0}),
    "execute": lambda n: execute(n, ProgState({"x": 0}, {})),
}
_WRONG_KINDS = [
    ("abs_eval", Skip(), "not an arithmetic expression"),
    ("abs_eval", BoolLit(True), "not an arithmetic expression"),
    ("abs_eval", _P0, "not an arithmetic expression"),
    ("transfer", parse("skip; skip"), "not a leaf statement"),
    ("transfer", _LOOP, "not a leaf statement"),
    ("transfer", Var("x"), "not a leaf statement"),
    ("leaf_live_pre", _LOOP, "not a leaf statement"),
    ("leaf_live_pre", If(BoolLit(True), Skip(), Skip()), "not a leaf statement"),
    ("leaf_live_pre", IntLit(0), "not a leaf statement"),
    ("pretty", Var("x"), "not a statement"),
    ("pretty", And(BoolLit(True), BoolLit(False)), "not a statement"),
    ("pretty_aexp", Skip(), "not an arithmetic expression"),
    ("pretty_aexp", Cmp("=", Nil(), Nil()), "not an arithmetic expression"),
    ("pretty_bexp", Var("x"), "not a guard"),
    ("pretty_bexp", Skip(), "not a guard"),
    ("eval_aexp", Skip(), "not an arithmetic expression"),
    ("eval_aexp", Cmp("<", Var("x"), IntLit(1)), "not an arithmetic expression"),
    ("eval_aexp", BoolLit(True), "not an arithmetic expression"),
    ("eval_bexp", Var("x"), "not a guard"),
    ("eval_bexp", Skip(), "not a guard"),
    ("eval_bexp", IntLit(1), "not a guard"),
    ("execute", Var("x"), "not a statement"),
    ("execute", BoolLit(True), "not a statement"),
    ("execute", Cmp("<", Var("x"), IntLit(1)), "not a statement"),
]


@pytest.mark.parametrize("name, node, message", _WRONG_KINDS,
                         ids=[f"{name}-{type(node).__name__}" for name, node, _ in _WRONG_KINDS])
def test_wrong_kind_nodes_raise_type_error(name, node, message):
    """Tag dispatch never falls through silently: a node of another kind
    is the TypeError the isinstance chains raised, with the same text."""
    with pytest.raises(TypeError) as info:
        _CALLS[name](node)
    assert str(info.value) == f"{message}: {node!r}"
