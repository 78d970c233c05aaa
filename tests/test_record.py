"""Record semantics: the checker compares statements, residuals and
types with ==, so equality must be structural and never confuse two
classes, and records must not change once built."""

import copy
import pickle
from collections import namedtuple

import pytest

from whilep.certificate import CheckResult, check
from whilep.deadcode import OptResult, optimize
from whilep.harness import GenConfig
from whilep.interp import Aborted, Final, OutOfFuel
from whilep.lang import (
    And, Assign, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit, Lookup,
    Mutate, Nil, Not, Or, Record, Seq, Skip, Var, While, parse,
)
from whilep.liveness import Derivation, Judgment, LiveType
from whilep.memory import Address, ProgState
from whilep.pointsto import AnnStmt, PointsTo

A = Address(2, 1, 1)
P = PointsTo({"p": frozenset({A}), A: frozenset()})
T = LiveType(P, frozenset({"p"}))
J = Judgment(Skip(), T, T, Skip())
D = Derivation("skip", J)

# one record of each class, with its repr as the frozen dataclasses
# printed it
SAMPLES = [
    (IntLit(-1), "IntLit(value=-1)"),
    (Nil(), "Nil()"),
    (Var("x"), "Var(name='x')"),
    (BinOp("*", Var("x"), IntLit(2)),
     "BinOp(op='*', lhs=Var(name='x'), rhs=IntLit(value=2))"),
    (BoolLit(True), "BoolLit(value=True)"),
    (Cmp("<", Var("x"), Nil()), "Cmp(op='<', lhs=Var(name='x'), rhs=Nil())"),
    (Not(BoolLit(False)), "Not(arg=BoolLit(value=False))"),
    (And(BoolLit(True), BoolLit(False)),
     "And(lhs=BoolLit(value=True), rhs=BoolLit(value=False))"),
    (Or(BoolLit(True), BoolLit(False)),
     "Or(lhs=BoolLit(value=True), rhs=BoolLit(value=False))"),
    (Skip(), "Skip()"),
    (Assign("x", IntLit(0)), "Assign(var='x', expr=IntLit(value=0))"),
    (Cons("p", (IntLit(1), Nil())),
     "Cons(var='p', args=(IntLit(value=1), Nil()))"),
    (Lookup("y", Var("p")), "Lookup(var='y', addr=Var(name='p'))"),
    (Mutate(Var("p"), IntLit(0)),
     "Mutate(target=Var(name='p'), value=IntLit(value=0))"),
    (Dispose(Var("p")), "Dispose(addr=Var(name='p'))"),
    (Seq(Skip(), Skip(), Skip()), "Seq(items=(Skip(), Skip(), Skip()))"),
    (If(BoolLit(False), Skip(), Nil()),
     "If(cond=BoolLit(value=False), then_body=Skip(), else_body=Nil())"),
    (While(BoolLit(False), Skip()),
     "While(cond=BoolLit(value=False), body=Skip())"),
    (P, "PointsTo(env={'p': frozenset({addr(2,1,1)}), addr(2,1,1): frozenset()})"),
    (AnnStmt(Skip(), P, P),
     "AnnStmt(stmt=Skip(), pre=PointsTo(env={'p': frozenset({addr(2,1,1)}), "
     "addr(2,1,1): frozenset()}), post=PointsTo(env={'p': frozenset({addr(2,1,1)}), "
     "addr(2,1,1): frozenset()}), children=())"),
    (LiveType(PointsTo({}), frozenset({"p"})),
     "LiveType(pts=PointsTo(env={}), live=frozenset({'p'}))"),
    (Judgment(Skip(), LiveType(PointsTo({}), frozenset()),
              LiveType(PointsTo({}), frozenset()), Skip()),
     "Judgment(stmt=Skip(), pre=LiveType(pts=PointsTo(env={}), live=frozenset()), "
     "post=LiveType(pts=PointsTo(env={}), live=frozenset()), residual=Skip())"),
    (Derivation("skip", Judgment(Skip(), None, None, Skip())),
     "Derivation(rule='skip', judgment=Judgment(stmt=Skip(), pre=None, "
     "post=None, residual=Skip()), premises=())"),
    (Final(ProgState({"x": 1}, {A: 0})),
     "Final(state=ProgState(stack={'x': 1}, heap={addr(2,1,1): 0}))"),
    (Aborted(), "Aborted()"),
    (OutOfFuel(), "OutOfFuel()"),
    (ProgState({}, {}), "ProgState(stack={}, heap={})"),
    (CheckResult(False, "root", "why"),
     "CheckResult(ok=False, path='root', reason='why')"),
    (OptResult(None), "OptResult(derivation=None)"),
    (GenConfig(seed=5), "GenConfig(seed=5, max_stmts=12)"),
]
NAMES = [type(record).__name__ for record, _ in SAMPLES]


def test_every_record_class_is_sampled():
    def classes(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from classes(sub)
    sampled = {type(record) for record, _ in SAMPLES}
    abstract = {"AExp", "BExp", "Stmt"}
    assert {cls for cls in classes(Record) if cls.__name__ not in abstract} == sampled


@pytest.mark.parametrize("record, text", SAMPLES, ids=NAMES)
def test_fields_are_read_by_namedtuples_c_accessors(record, text):
    """Field i of every class is read by namedtuple's C accessor for
    position i, never by a Python property."""
    accessor = type(namedtuple("Pair", "a b").a)
    cls = type(record)
    probe = tuple(range(len(cls._fields) + 1))
    for i, name in enumerate(cls._fields):
        assert type(vars(cls)[name]) is accessor
        assert vars(cls)[name].__get__(probe) == i
        assert getattr(record, name) is record[i]


def test_a_field_may_not_start_with_an_underscore():
    """The constructor's own names start with one, as in namedtuple."""
    with pytest.raises(TypeError, match="Tagged: a field name starts with '_'"):
        type("Tagged", (Record,), {"__slots__": (), "__annotations__": {"_tag": "int"}})


@pytest.mark.parametrize("record, text", SAMPLES, ids=NAMES)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("a, b", [
    (Assign("x", Var("y")), Lookup("x", Var("y"))),
    (And(BoolLit(True), BoolLit(False)), Or(BoolLit(True), BoolLit(False))),
    (Not(Var("p")), Dispose(Var("p"))),
    (Skip(), Nil()),
    (IntLit(1), BoolLit(True)),
    (Aborted(), OutOfFuel()),
])
def test_records_of_different_classes_are_unequal(a, b):
    assert a != b and not a == b
    assert len({a, b}) == 2


def test_check_rejects_a_residual_of_the_wrong_class():
    d = optimize(parse("x := y"), frozenset({"x"})).derivation
    assert d.judgment.residual == Assign("x", Var("y"))
    swapped = Derivation(d.rule, Judgment(d.judgment.stmt, d.judgment.pre,
                                          d.judgment.post, Lookup("x", Var("y"))))
    assert check(swapped) == CheckResult(False, "root",
                                         "residual does not match the ass_d2 rewrite")


def test_equal_trees_from_two_parses_are_equal_and_hash_equal():
    src = "p := cons(1, x); while x < 3 and not p = nil do { [p] := x; x := x + 1 }"
    first, second = parse(src), parse(src)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert parse(src.replace("x + 1", "x + 2")) != first


@pytest.mark.parametrize("record, text", SAMPLES, ids=NAMES)
def test_records_are_immutable(record, text):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record, text", SAMPLES, ids=NAMES)
def test_copy_and_pickle_round_trip(record, text):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == text


def test_constructors_take_keywords_and_defaults():
    assert IntLit(value=3) == IntLit(3)
    assert Derivation("skip", J).premises == ()
    assert AnnStmt(Skip(), P, P).children == ()
    assert CheckResult(True) == CheckResult(ok=True, path="", reason="")
    assert GenConfig(max_stmts=4) == GenConfig(0, 4)


@pytest.mark.parametrize("build", [
    lambda: IntLit(1, Skip), lambda: IntLit(1, tag=Skip), lambda: Skip(Nil),
    lambda: Nil(tag=IntLit), lambda: GenConfig(0, 12, GenConfig),
    lambda: Derivation("skip", J, (), Derivation), lambda: IntLit(),
], ids=["tag", "tag-keyword", "no-fields", "no-fields-keyword", "defaults",
        "after-default", "missing"])
def test_constructors_take_the_fields_only(build):
    """The class tag is no argument: a surplus one is a TypeError, as for
    the frozen dataclasses, not a record tagged with another class."""
    with pytest.raises(TypeError):
        build()


def test_seq_splices_and_keeps_its_binary_view():
    a, b, c = Assign("a", IntLit(1)), Skip(), Dispose(Var("p"))
    assert Seq(a, Seq(b, c)) == Seq(Seq(a, b), c) == Seq(a, b, c)
    assert Seq(a, Seq(b, c)).items == (a, b, c)
    s = Seq(a, b, c)
    assert s.first == a and s.rest == Seq(b, c)
    assert s.rest.first == b and s.rest.rest == c
    with pytest.raises(ValueError):
        Seq(a)
