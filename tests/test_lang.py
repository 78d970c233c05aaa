"""Parser, pretty-printer, and syntax helper tests."""

from dataclasses import replace

import pytest

from whilep import GenConfig, gen_program
from whilep.lang import (
    And, Assign, BinOp, BoolLit, Cmp, Cons, Dispose, IntLit, Lookup, Not,
    Or, ParseError, Seq, Skip, Var, While, free_vars, parse, pretty,
    read_vars, seq_items, seq_of, stmt_vars, walk,
)


def test_parse_skip():
    assert parse("skip") == Skip()


def test_parse_cons_lookup_seq():
    prog = parse("x := cons(3, 4); y := [x]")
    assert prog == Seq(Cons("x", (IntLit(3), IntLit(4))), Lookup("y", Var("x")))


def test_parse_unclosed_bracket():
    with pytest.raises(ParseError):
        parse("x := [")


def test_parse_all_forms():
    src = ("skip; x := 1; x := cons(1, nil); y := [x]; [x] := y + 1; "
           "dispose(x); if x < 1 then { skip } else { x := 2 }; "
           "while not x = 3 do { x := x + 1 }")
    prog = parse(src)
    kinds = {type(s).__name__ for s in seq_items(prog)}
    assert kinds == {"Skip", "Assign", "Cons", "Lookup", "Mutate", "Dispose",
                     "If", "While"}


def test_seq_is_one_flat_node():
    prog = parse("skip; skip; x := 1")
    x1 = Assign("x", IntLit(1))
    assert prog.items == (Skip(), Skip(), x1)
    # the constructor splices nested sequences, whichever way they nest
    assert prog == Seq(Skip(), Skip(), x1) == Seq(Skip(), Seq(Skip(), x1)) \
        == Seq(Seq(Skip(), Skip()), x1)
    assert hash(prog) == hash(Seq(Skip(), Seq(Skip(), x1)))
    assert parse("skip; if true then { skip; skip } else { skip }").items[1] \
        .then_body == Seq(Skip(), Skip())
    with pytest.raises(ValueError):
        Seq(Skip())
    with pytest.raises(ValueError):
        Seq()


def test_seq_binary_view():
    # first and rest read the chain as a; (b; c)
    a, b, c = Skip(), Assign("x", IntLit(1)), Dispose(Var("x"))
    three = Seq(a, b, c)
    assert three.first == a and three.rest == Seq(b, c)
    assert three.rest.first == b and three.rest.rest == c


def test_walk_is_preorder_and_iterative():
    prog = parse("x := 1; if x < 1 then { y := 2; skip } else { "
                 "while x < 2 do { x := x + 1 } }; dispose(x)")
    assert [pretty(s) for s in walk(prog)][1:] == [
        "x := 1", "if x < 1 then { y := 2; skip } else { while x < 2 do "
        "{ x := x + 1 } }", "y := 2; skip", "y := 2", "skip",
        "while x < 2 do { x := x + 1 }", "x := x + 1", "dispose(x)"]
    chain = parse("; ".join(["x := x + 1"] * 50_000))
    assert sum(1 for _ in walk(chain)) == 50_001
    assert pretty(chain).count(";") == 49_999
    assert stmt_vars(chain) == read_vars(chain) == {"x"}


def test_generated_sequences_are_flat():
    for seed in range(100):
        prog = gen_program(replace(GenConfig(), seed=seed, max_stmts=20))
        for s in walk(prog):
            if isinstance(s, Seq):
                assert len(s.items) >= 2
                assert not any(isinstance(i, Seq) for i in s.items)


def test_precedence_and_associativity():
    assert parse("x := 1 + 2 * 3") == Assign(
        "x", BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3))))
    assert parse("x := 1 - 2 - 3") == Assign(
        "x", BinOp("-", BinOp("-", IntLit(1), IntLit(2)), IntLit(3)))
    assert parse("x := (1 + 2) * 3") == Assign(
        "x", BinOp("*", BinOp("+", IntLit(1), IntLit(2)), IntLit(3)))


def test_negative_literals():
    assert parse("x := -3") == Assign("x", IntLit(-3))
    assert parse("x := 1 - -2") == Assign("x", BinOp("-", IntLit(1), IntLit(-2)))


def test_bool_operator_precedence():
    prog = parse("if not x = 1 and y < 2 or true then { skip } else { skip }")
    cond = prog.cond
    assert cond == Or(And(Not(Cmp("=", Var("x"), IntLit(1))),
                          Cmp("<", Var("y"), IntLit(2))),
                      BoolLit(True))


def test_parenthesized_bool_vs_arith():
    # '(' after if could open either an arithmetic or a boolean expression
    prog = parse("if (x + 1) < 2 then { skip } else { skip }")
    assert prog.cond == Cmp("<", BinOp("+", Var("x"), IntLit(1)), IntLit(2))
    prog = parse("if (x < 1) and (2 <= y) then { skip } else { skip }")
    assert prog.cond == And(Cmp("<", Var("x"), IntLit(1)),
                            Cmp("<=", IntLit(2), Var("y")))


def test_comments_and_whitespace():
    src = """
    // leading comment
    x := 1;   // trailing comment
    y := x    // last line
    """
    assert parse(src) == Seq(Assign("x", IntLit(1)), Assign("y", Var("x")))


def test_keywords_are_not_identifiers():
    for bad in ("skip := 1", "x := cons", "while := 2"):
        with pytest.raises(ParseError):
            parse(bad)


def test_no_address_literals():
    # addresses are runtime entities; the grammar has no syntax for them
    with pytest.raises(ParseError):
        parse("x := addr(1, 1, 1)")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("skip skip")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("x :=\n  := 3")
    assert err.value.line == 2
    assert err.value.col == 3
    assert "2:3" in str(err.value)


def test_empty_program_rejected():
    with pytest.raises(ParseError):
        parse("   // nothing here\n")


def test_pretty_examples():
    assert pretty(Skip()) == "skip"
    assert pretty(Seq(Assign("x", IntLit(1)), Dispose(Var("x")))) == \
        "x := 1; dispose(x)"
    assert pretty(While(Cmp("<", Var("i"), IntLit(3)), Skip())) == \
        "while i < 3 do { skip }"


def test_pretty_if_and_mutate():
    src = "if x = nil then { [y] := 0 } else { y := cons(x) }"
    assert pretty(parse(src)) == src


def test_pretty_parenthesizes_minimally():
    assert pretty(parse("x := 1 + 2 * 3")) == "x := 1 + 2 * 3"
    assert pretty(parse("x := (1 + 2) * 3")) == "x := (1 + 2) * 3"
    assert pretty(parse("x := 1 - (2 - 3)")) == "x := 1 - (2 - 3)"


def test_free_vars_examples():
    assert free_vars(IntLit(7)) == frozenset()
    assert free_vars(BinOp("+", Var("x"), Var("y"))) == {"x", "y"}
    assert free_vars(Cmp("=", Var("x"), BinOp("+", Var("x"), IntLit(1)))) == {"x"}


def test_free_vars_subexpression_monotone():
    whole = BinOp("*", BinOp("+", Var("a"), IntLit(1)), Var("b"))
    assert free_vars(whole.lhs) <= free_vars(whole)
    assert free_vars(whole.rhs) <= free_vars(whole)
    cond = And(Cmp("<", Var("p"), Var("q")), Not(BoolLit(True)))
    assert free_vars(cond.lhs) <= free_vars(cond)
    assert free_vars(cond.rhs) <= free_vars(cond)


def test_stmt_vars_and_read_vars():
    prog = parse("x := y + 1; [x] := z; dispose(w)")
    assert stmt_vars(prog) == {"x", "y", "z", "w"}
    assert read_vars(prog) == {"y", "x", "z", "w"}
    assert read_vars(parse("x := 1")) == frozenset()


def test_seq_of_and_seq_items_inverse():
    items = [Skip(), Assign("x", IntLit(1)), Skip()]
    assert seq_items(seq_of(items)) == items
    assert seq_of(items) == Seq(*items)
    assert seq_of([Skip()]) == Skip()
    assert seq_items(Skip()) == [Skip()]


def test_round_trip_generated_programs():
    """parse(pretty(s)) == s across a wide generated corpus."""
    for seed in range(200):
        prog = gen_program(replace(GenConfig(), seed=seed, max_stmts=16))
        assert parse(pretty(prog)) == prog, f"seed {seed}"


def test_pretty_is_canonical():
    for seed in range(50):
        prog = gen_program(replace(GenConfig(), seed=seed))
        assert pretty(parse(pretty(prog))) == pretty(prog)
