"""Parser, pretty-printer, and syntax helper tests."""

import hashlib
import itertools
import random
import re
import time
from collections import Counter

import pytest

from whilep import GenConfig, gen_program
from whilep import lang
from whilep.harness import gen_aexp, gen_bexp
from whilep.lang import (
    And, Assign, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit, Lookup,
    Mutate, Not, Or, ParseError, Record, Seq, Skip, Var, While, children,
    free_vars, parse, pretty, pretty_aexp, pretty_bexp, seq_of,
    stmt_vars, walk, walk_paths,
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
    kinds = {type(s).__name__ for s in prog.items}
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
    rows = list(walk_paths(prog, lambda s: (s, children(s))))
    assert [node for _, node in rows] == list(walk(prog))
    assert [path for path, _ in rows] == [
        "root", "root.items[0]", "root.items[1]", "root.items[1].then",
        "root.items[1].then.items[0]", "root.items[1].then.items[1]",
        "root.items[1].else", "root.items[1].else.body", "root.items[2]"]
    chain = parse("; ".join(["x := x + 1"] * 50_000))
    assert sum(1 for _ in walk(chain)) == 50_001
    assert sum(1 for _ in walk_paths(chain, lambda s: (s, children(s)))) == 50_001
    assert pretty(chain).count(";") == 49_999
    assert stmt_vars(chain) == free_vars(chain) == {"x"}


def test_generated_sequences_are_flat():
    for seed in range(100):
        prog = gen_program(GenConfig(seed=seed, max_stmts=20))
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


def test_integer_literals_are_ascii_digits():
    """Other Unicode decimal digits are stray characters, not literals."""
    with pytest.raises(ParseError) as err:
        parse("x := \u0663\u0664 + 1")  # Arabic-Indic 3 and 4
    assert str(err.value) == "1:6: unexpected character '\u0663'"


def test_overlong_integer_literal_is_a_parse_error():
    """A literal over lang's fixed limit of 4,300 digits, Python's default
    int() limit, is a syntax error at the literal, a signed one at its
    sign, wherever it stands; one of exactly the limit's length parses."""
    limit = 4300
    digits = "9" * (limit + 1)
    message = f"integer literal has more than {limit} digits"
    for src, line, col in [
            (f"x := {digits}", 1, 6),
            (f"x := 1;\n  y := -{digits}", 2, 8),
            (f"x := cons(1, 2 * {digits})", 1, 18),
            (f"if ({digits} < x) then {{ skip }} else {{ skip }}", 1, 5),
            (f"while (x < 1) and (y < -{digits}) do {{ skip }}", 1, 24)]:
        with pytest.raises(ParseError) as err:
            parse(src)
        assert (err.value.message, err.value.line, err.value.col) == \
            (message, line, col), src
    assert parse("x := -" + "9" * limit) == Assign("x", IntLit(1 - 10 ** limit))


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("skip skip")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("x :=\n  := 3")
    assert err.value.line == 2
    assert err.value.col == 3
    assert "2:3" in str(err.value)


# Every kind of syntax error with the exact text, line and column that
# parse reports: stray characters, each expectation, end of input, and
# positions after comments, tabs and CR LF line ends.
SYNTAX_ERRORS = [
    ("x := @", "1:6: unexpected character '@'", 1, 6),
    ("x := 1;\n  y := \u00e9", "2:8: unexpected character '\u00e9'", 2, 8),
    ("skip;\x0cskip", "1:6: unexpected character '\\x0c'", 1, 6),
    ("x := 1 / 2", "1:8: unexpected character '/'", 1, 8),
    ("x : 1", "1:3: unexpected character ':'", 1, 3),
    ("if x > 1 then { skip } else { skip }", "1:6: unexpected character '>'", 1, 6),
    ("dispose x", "1:9: expected '(', found 'x'", 1, 9),
    ("if x < 1 { skip } else { skip }", "1:10: expected 'then', found '{'", 1, 10),
    ("skip; 3", "1:7: expected a statement, found '3'", 1, 7),
    ("x := 1; then", "1:9: expected a statement, found 'then'", 1, 9),
    ("x := ;", "1:6: expected an expression, found ';'", 1, 6),
    ("x := cons()", "1:11: expected an expression, found ')'", 1, 11),
    ("while x do { skip }", "1:9: expected '=', '<' or '<=', found 'do'", 1, 9),
    ("if x + 1 then { skip } else { skip }",
     "1:10: expected '=', '<' or '<=', found 'then'", 1, 10),
    ("skip skip", "1:6: unexpected trailing input 'skip'", 1, 6),
    ("x := 1 y := 2", "1:8: unexpected trailing input 'y'", 1, 8),
    ("x := addr(1, 1, 1)", "1:10: unexpected trailing input '('", 1, 10),
    ("x :=", "1:5: expected an expression, found 'end of input'", 1, 5),
    ("skip;", "1:6: expected a statement, found 'end of input'", 1, 6),
    ("x := [y", "1:8: expected ']', found 'end of input'", 1, 8),
    ("if x < 1 then { skip } else", "1:28: expected '{', found 'end of input'", 1, 28),
    ("while x <", "1:10: expected an expression, found 'end of input'", 1, 10),
    ("   // only a comment\n", "2:1: expected a statement, found 'end of input'", 2, 1),
    ("// first\nx := 1; // second\n\t\tdispose(\t)",
     "3:12: expected an expression, found ')'", 3, 12),
    ("x := 1;\r\ny := cons(1,\r\n\t2;", "3:3: expected ')', found ';'", 3, 3),
    ("x := 1;\r\n\ty := 2 @", "2:9: unexpected character '@'", 2, 9),
    ("skip;\rskip skip", "1:12: unexpected trailing input 'skip'", 1, 12),
    ("x :=\n  := 3", "2:3: expected an expression, found ':='", 2, 3),
    # a parenthesized guard is first tried as a comparison operand
    ("if (x < ) then { skip } else { skip }",
     "1:9: expected an expression, found ')'", 1, 9),
    ("if (x < 1) and (y <) then { skip } else { skip }",
     "1:20: expected an expression, found ')'", 1, 20),
    ("if (x + 1 then { skip } else { skip }",
     "1:11: expected '=', '<' or '<=', found 'then'", 1, 11),
    # the whole source is lexed first, so a stray character wins over an
    # earlier syntax error
    ("x := ;\ny := 1 @ 2", "2:8: unexpected character '@'", 2, 8),
]


@pytest.mark.parametrize("src, text, line, col", SYNTAX_ERRORS)
def test_syntax_error_contract(src, text, line, col):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (str(err.value), err.value.line, err.value.col) == (text, line, col)
    assert err.value.message == text.split(": ", 1)[1]


# sha256 over the outcome of every edited text in test_parse_outcomes_pinned
EDIT_OUTCOMES_DIGEST = "3c28499b6b6f205f24a920f034ede204c52d5d82907501b90a4198ff9b3c7515"

# what an edit inserts: stray characters, comment starts, line ends and
# every kind of token
_INSERTS = ("\u00e9", "\x0c", "/", "//", "\r", "\r\n", "\n", "\t", "@", ":", ">",
            ";", ",", "(", ")", "[", "]", "{", "}", ":=", "<=", "<", "=", "-",
            "+", "*", "0", "7", "x", "skip", "if", "then", "else", "while",
            "do", "not", "and", "or", "true", "nil", "cons", "dispose")


def _chain_text(n):
    names = ("p0", "p1", "p2", "p3")
    return "; ".join(
        f"{names[i % 4]} := cons({i % 10}, {names[(i - 1) % 4]})"
        if i % 2 == 0 else f"{names[i % 4]} := [{names[(i - 1) % 4]} + 1]"
        for i in range(n))


def _edit(text, rng):
    roll = rng.random()
    at = rng.randrange(len(text) + 1)
    if roll < 0.6:
        return text[:at] + rng.choice(_INSERTS) + text[at:]
    if roll < 0.85:
        return text[:at] + text[at + 1:]
    return text[:at]


def _edited_texts():
    """3,000 seeded edits of generated and chain programs."""
    rng = random.Random("parse-edits")
    for i in range(3_000):
        if i % 3:
            text = pretty(gen_program(GenConfig(seed=i, max_stmts=(12, 24)[i % 2])))
        else:
            text = _chain_text(rng.randint(1, 40))
        for _ in range(rng.choice((1, 1, 2))):
            text = _edit(text, rng)
        yield text


def test_parse_outcomes_pinned():
    """The tree or exact error of every edited text stays the same."""
    h = hashlib.sha256()
    for text in _edited_texts():
        try:
            outcome = pretty(parse(text))
        except ParseError as err:
            outcome = str(err)
        h.update(f"{outcome}\n".encode())
    assert h.hexdigest() == EDIT_OUTCOMES_DIGEST


def test_parser_records_the_walks_facts(monkeypatch):
    """The variables, loops and cons arities parse records for the tree
    it returns are the ones a walk of that tree finds, the loops by
    identity and in source preorder: on generated programs and on every
    edited text that parses. They are kept with the text parsed. A tree
    parsed before the last one is walked."""
    texts = [pretty(gen_program(GenConfig(seed=seed, max_stmts=n)))
             for seed in range(300) for n in (12, 40)]
    parsed = Counter()
    for text in itertools.chain(texts, _edited_texts()):
        try:
            tree = parse(text)
        except ParseError:
            continue
        source, recorded, variables, loops, lengths = lang._facts
        assert source is text and recorded is tree
        assert variables == lang._collect(tree, True), text
        walked = [node for node in walk(tree) if node[-1] is While]
        assert len(loops) == len(walked), text
        assert all(a is b for a, b in zip(loops, walked)), text
        assert lengths == {len(node.args) for node in walk(tree) if node[-1] is Cons}, text
        assert lang.program_facts(tree) == (variables, loops, lengths)
        assert stmt_vars(tree) is variables
        parsed["loops" if loops else "straight"] += 1
    assert parsed["loops"] > 500 and parsed["straight"] > 500, parsed

    walks, collect = [], lang._collect
    monkeypatch.setattr(lang, "_collect",
                        lambda root, writes: walks.append(root) or collect(root, writes))
    first = parse("a := cons(1, 2); while a < 1 do { b := [a] }")
    second = parse("c := 1; while c < 2 do { c := cons(c) }")
    assert stmt_vars(first) == {"a", "b"} and walks == [first]
    variables, loops, lengths = lang.program_facts(first)
    assert (variables, lengths) == ({"a", "b"}, {2}) and walks == [first, first]
    assert loops == (first.items[1],) and loops[0] is first.items[1]
    assert stmt_vars(second) == {"c"} and walks == [first, first]


def _guard_chain_seconds(n):
    """Best of three parses of n statements, each with two parenthesized
    guards that are first tried as comparison operands."""
    src = "; ".join(["if (x < 1) and (y < 2) then { x := x + 1 } else { skip }"] * n)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        parse(src)
        best = min(best, time.perf_counter() - start)
    return best


def test_parse_time_is_linear_with_backtracking():
    # linear parsing takes ~4x as long for 4x the statements; locating
    # each backtracked failure in the source would make it quadratic
    assert _guard_chain_seconds(4_000) < 8 * _guard_chain_seconds(1_000)


def test_nested_guard_parentheses_read_each_operand_once(monkeypatch):
    """Each '(' of a guard is first tried as a comparison operand, which
    fails at the innermost '<'; a parse raises a failed operand's error
    again rather than reading it again, so d parentheses cost 2d + 1
    operand reads, not a number growing with d squared. A guard that
    fails reports the error that reading each operand again would."""
    reads = []
    atom = lang._Parser.atom

    def counted(self):
        reads.append(self.pos)
        return atom(self)

    monkeypatch.setattr(lang._Parser, "atom", counted)
    counts = {}
    for d in (50, 100, 200):
        reads.clear()
        tree = parse("if " + "(" * d + "x < 1" + ")" * d + " then { skip } else { skip }")
        assert tree.cond == Cmp("<", Var("x"), IntLit(1))
        counts[d] = len(reads)
    assert counts == {50: 101, 100: 201, 200: 401}
    for inner, closing, error in (
            ("x < 1", 49, "1:109: expected ')', found 'then'"),
            ("x", 50, "1:55: expected '=', '<' or '<=', found ')'")):
        with pytest.raises(ParseError) as info:
            parse("if " + "(" * 50 + inner + ")" * closing + " then { skip } else { skip }")
        assert str(info.value) == error


def _nodes(tree):
    """Every statement and expression node of tree, repeats included."""
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        out.append(node)
        for name in node._fields:
            value = getattr(node, name)
            children = (value,) if isinstance(value, Record) else value
            if isinstance(children, tuple):
                todo += (child for child in children if isinstance(child, Record))
    return out


def test_atoms_are_shared_within_one_parse_only():
    src = "x := cons(1, y, nil); y := [x + 1]; z := y + 1 - -2 * -2"
    first, second = parse(src), parse(src)
    assert first == second
    assert not {id(n) for n in _nodes(first)} & {id(n) for n in _nodes(second)}
    cons, lookup, assign = first.items
    assert cons.args[0] is lookup.addr.rhs  # both read the token 1
    assert cons.args[1] is assign.expr.lhs.lhs  # both read y
    assert assign.expr.rhs.lhs is assign.expr.rhs.rhs == IntLit(-2)


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


def test_pretty_gives_interleaved_trees_their_own_texts():
    """pretty's memo holds the tree it printed last, matched by identity:
    interleaved trees, a subtree of the last one, an equal tree parsed
    again and a tree built by hand each get their own text."""
    a_src = "x := cons(1); y := [x]"
    b_src = "while i < 3 do { i := i + 1 }"
    a, b = parse(a_src), parse(b_src)
    assert [pretty(t) for t in (a, b, a, a, b)] == [a_src, b_src, a_src, a_src, b_src]
    assert pretty(a.items[1]) == "y := [x]"
    again = parse(a_src)
    assert again is not a and pretty(again) == a_src
    assert pretty(Seq(again.items[1], Skip())) == "y := [x]; skip"
    assert pretty(again) == a_src


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
    assert free_vars(prog) == {"y", "x", "z", "w"}
    assert free_vars(parse("x := 1")) == frozenset()


# the recursive folds that free_vars and stmt_vars replaced,
# kept as the reference for their one-walk versions

def _ref_free_vars(e):
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (BinOp, And, Or, Cmp)):
        return _ref_free_vars(e.lhs) | _ref_free_vars(e.rhs)
    if isinstance(e, Not):
        return _ref_free_vars(e.arg)
    return frozenset()


def _exprs(s):
    """Every expression and guard directly under a statement of s."""
    out = []
    for node in walk(s):
        if isinstance(node, Assign):
            out.append(node.expr)
        elif isinstance(node, Cons):
            out += node.args
        elif isinstance(node, (Lookup, Dispose)):
            out.append(node.addr)
        elif isinstance(node, Mutate):
            out += (node.target, node.value)
        elif isinstance(node, (If, While)):
            out.append(node.cond)
    return out


def _ref_reads(s):
    out = set()
    for e in _exprs(s):
        out |= _ref_free_vars(e)
    return frozenset(out)


def _ref_stmt_vars(s):
    return _ref_reads(s) | {node.var for node in walk(s)
                                if isinstance(node, (Assign, Cons, Lookup))}


GUARDS = [
    "true", "not false", "x = 1", "not x < y", "not not (x <= y + z)",
    "a = 1 and b < c", "a = 1 or not b < c", "not (a = b and c = d) or e <= f",
    "(a < 1 or b < 2) and not (c < 3 or d < 4 and e = nil)",
    "not (x * (y - z) = w) and (v = v or true)",
]


def test_variable_sets_match_the_recursive_folds():
    guards = [parse(f"if {g} then {{ skip }} else {{ skip }}").cond for g in GUARDS]
    for g in guards:
        assert free_vars(g) == _ref_free_vars(g), g
    assert free_vars(guards[-1]) == {"x", "y", "z", "w", "v"}
    for seed in range(2_000):
        prog = gen_program(GenConfig(seed=seed, max_stmts=(12, 40)[seed % 2]))
        assert free_vars(prog) == _ref_reads(prog), seed
        assert stmt_vars(prog) == _ref_stmt_vars(prog), seed
        for e in _exprs(prog):
            assert free_vars(e) == _ref_free_vars(e), seed


def test_free_vars_answers_small_expressions_as_the_walk_does():
    """On an atom, one operator or comparison over two atoms, larger
    expressions and guards, and statements, free_vars is the one walk."""
    atoms = (Var("x"), Var("y"), IntLit(0), IntLit(-3), lang.Nil(), BoolLit(True))
    samples = list(atoms)
    for lhs, rhs in itertools.product(atoms, atoms):
        samples += [BinOp("+", lhs, rhs), BinOp("*", lhs, rhs), Cmp("<", lhs, rhs),
                    And(Cmp("=", lhs, rhs), BoolLit(False))]
    rng = random.Random("free-vars")
    for _ in range(2_000):
        samples += [gen_aexp(rng, ("x", "y", "z"), rng.randint(0, 4)), gen_bexp(rng)]
    for seed in range(100):
        prog = gen_program(GenConfig(seed=seed))
        samples += [prog, *walk(prog), *_exprs(prog)]
    for x in samples:
        assert free_vars(x) == lang._collect(x, False), x
    assert free_vars(BinOp("-", Var("x"), Var("x"))) == {"x"}


def test_variable_sets_reject_an_unknown_node():
    """A node kind the walk does not know raises instead of adding
    nothing to the set."""
    class Probe(lang.Stmt):
        __slots__ = ()
        var: str

    with pytest.raises(TypeError):
        stmt_vars(Seq(Assign("x", Var("y")), Probe("z")))
    with pytest.raises(TypeError):
        free_vars(Not(Probe("z")))


# the two-step lexer, kept as the reference: lex whitespace, comments
# and tokens, drop the first two, append the end; its lexeme pattern is
# frozen here, so reordering lang's alternation leaves the reference as it is
_REF_LEXEME = r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|:=|<=|[;,()\[\]{}+\-*=<]"
_REF_TOKEN_RE = re.compile(rf"[ \t\r\n]+|//[^\n]*|({_REF_LEXEME}|.)")


def _ref_tokens(src):
    return list(filter(None, _REF_TOKEN_RE.findall(src))) + [""]


def _ref_offset(src, at):
    """Where token `at` of _ref_tokens(src) starts; len(src) for the end."""
    starts = (m.start(1) for m in _REF_TOKEN_RE.finditer(src) if m[1])
    return next(itertools.islice(starts, at, None), len(src))


LEX_CASES = [
    "", " ", "\t\r\n  ", "\r", "\n\n", "// only a comment", "//", "// a\n// b",
    "x := 1 // trailing comment, no newline", "x := 1 //", "x := 1 //\n",
    "/", "x := 1 / 2", "x/", "/x", "//x\n/", "// c\n@", "// c\n\u00e9 := 1",
    "x//y", "x := 1;\r y := ;", "x :=\r\n\t1", "x\ry", "\tskip;\t\tskip\t",
    "skip;\x0cskip", "\u00a0", ":=:=<=<", "::", "x := -1", "a1_b2 3c",
    "x := 1;\n// end\n", "   \n  // trailing\n  ",
    # operator prefixes and punctuation runs
    "<", "<=", "<==", "=<", ":", ":=:", "a<b", "1<=2", "x:=-1", "{}[](),;", "a/b//c",
]


@pytest.mark.parametrize("src", LEX_CASES)
def test_lexer_matches_the_two_step_lexer(src):
    """The scan's tokens, with the one "" that ends them, are the
    reference's."""
    assert lang._tokens(src) == _ref_tokens(src)


# the recursive descent, one call per precedence level, that precedence
# climbing replaced, kept as the reference

class _RefParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.atoms = {}

    def fail(self, expected):
        found = self.tokens[self.pos] or "end of input"
        raise lang._Failure(self.pos, f"expected {expected}, found {found!r}")

    def expect(self, text):
        if self.tokens[self.pos] != text:
            self.fail(repr(text))
        self.pos += 1

    def stmt(self):
        items = [self.simple_stmt()]
        while self.tokens[self.pos] == ";":
            self.pos += 1
            items.append(self.simple_stmt())
        return seq_of(items)

    def braced(self):
        self.expect("{")
        body = self.stmt()
        self.expect("}")
        return body

    def simple_stmt(self):
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        if tok.isidentifier() and tok not in lang.KEYWORDS:
            if tokens[pos + 1] != ":=":
                self.pos = pos + 1
                self.fail("':='")
            rhs = tokens[pos + 2]
            if rhs == "cons":
                self.pos = pos + 3
                self.expect("(")
                args = [self.aexp()]
                while tokens[self.pos] == ",":
                    self.pos += 1
                    args.append(self.aexp())
                self.expect(")")
                return Cons(tok, tuple(args))
            if rhs == "[":
                self.pos = pos + 3
                e = self.aexp()
                self.expect("]")
                return Lookup(tok, e)
            self.pos = pos + 2
            return Assign(tok, self.aexp())
        if tok == "[":
            self.pos = pos + 1
            target = self.aexp()
            self.expect("]")
            self.expect(":=")
            return Mutate(target, self.aexp())
        if tok not in ("skip", "dispose", "if", "while"):
            self.fail("a statement")
        self.pos = pos + 1
        if tok == "skip":
            return Skip()
        if tok == "dispose":
            self.expect("(")
            e = self.aexp()
            self.expect(")")
            return Dispose(e)
        cond = self.bexp()
        if tok == "if":
            self.expect("then")
            then_body = self.braced()
            self.expect("else")
            return If(cond, then_body, self.braced())
        self.expect("do")
        return While(cond, self.braced())

    def aexp(self):
        e = self.term()
        while (op := self.tokens[self.pos]) == "+" or op == "-":
            self.pos += 1
            e = BinOp(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.tokens[self.pos] == "*":
            self.pos += 1
            e = BinOp("*", e, self.factor())
        return e

    def factor(self):
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        atom = self.atoms.get(tok)
        if atom is None:
            if tok.isdecimal():
                atom = IntLit(int(tok))
            elif tok.isidentifier() and tok not in lang.KEYWORDS:
                atom = Var(tok)
            elif tok == "nil":
                atom = lang.Nil()
            elif tok == "-" and tokens[pos + 1].isdecimal():
                pos += 1
                tok = "-" + tokens[pos]
                atom = self.atoms.get(tok) or IntLit(int(tok))
            elif tok == "(":
                self.pos = pos + 1
                e = self.aexp()
                self.expect(")")
                return e
            else:
                self.fail("an expression")
            self.atoms[tok] = atom
        self.pos = pos + 1
        return atom

    def bexp(self):
        e = self.band()
        while self.tokens[self.pos] == "or":
            self.pos += 1
            e = Or(e, self.band())
        return e

    def band(self):
        e = self.bnot()
        while self.tokens[self.pos] == "and":
            self.pos += 1
            e = And(e, self.bnot())
        return e

    def bnot(self):
        if self.tokens[self.pos] == "not":
            self.pos += 1
            return Not(self.bnot())
        return self.batom()

    def batom(self):
        pos = self.pos
        tok = self.tokens[pos]
        if tok == "true" or tok == "false":
            self.pos = pos + 1
            return BoolLit(tok == "true")
        if tok == "(":
            try:
                return self.cmp()
            except lang._Failure:
                self.pos = pos + 1
            e = self.bexp()
            self.expect(")")
            return e
        return self.cmp()

    def cmp(self):
        lhs = self.aexp()
        op = self.tokens[self.pos]
        if op not in ("=", "<", "<="):
            self.fail("'=', '<' or '<='")
        self.pos += 1
        return Cmp(op, lhs, self.aexp())


def _ref_parse(src):
    """parse, with the reference lexer and parser."""
    tokens = _ref_tokens(src)
    try:
        stray = [tok for tok in set(tokens) if tok and not re.fullmatch(_REF_LEXEME, tok)]
        if stray:
            at = min(map(tokens.index, stray))
            raise lang._Failure(at, f"unexpected character {tokens[at]!r}")
        parser = _RefParser(tokens)
        s = parser.stmt()
        if tokens[parser.pos]:
            raise lang._Failure(parser.pos, f"unexpected trailing input {tokens[parser.pos]!r}")
        return s
    except lang._Failure as failure:
        offset = _ref_offset(src, failure.at)
        line = src.count("\n", 0, offset) + 1
        col = offset - src.rfind("\n", 0, offset)
        raise ParseError(failure.message, line, col) from None


def _parse_outcome(parse_fn, src):
    """The tree's repr and the shape of its atom sharing, or the error."""
    try:
        tree = parse_fn(src)
    except ParseError as err:
        return "error", str(err), err.line, err.col
    nodes = _nodes(tree)
    first = {}
    sharing = [first.setdefault(id(n), i) for i, n in enumerate(nodes)]
    return "tree", repr(tree), sharing


_TOKENS = ("x", "y", "p0", "0", "7", "12", "nil", "skip", "cons", "dispose",
           "if", "then", "else", "while", "do", "not", "and", "or", "true",
           "false", ":=", "<=", "=", "<", ";", ",", "(", ")", "[", "]", "{",
           "}", "+", "-", "*", "-", "@")


def test_parser_matches_the_reference():
    """Trees, with which nodes they share, and the exact error text agree
    with the reference on generated programs, on generated expressions
    and guards, on atoms and one-operator expressions in every position,
    and on random token strings."""
    rng = random.Random("parser-reference")
    texts = [pretty(gen_program(GenConfig(seed=seed, max_stmts=(12, 40)[seed % 2])))
             for seed in range(300)]
    names = ("x", "y", "p0")
    for _ in range(500):
        e = pretty_aexp(gen_aexp(rng, names, rng.randint(0, 4)))
        texts += [f"x := {e}", f"x := cons({e}, {e}, 1)", f"x := [{e}]; [{e}] := {e}",
                  f"dispose({e}); if {pretty_bexp(gen_bexp(rng))} then {{ skip }} "
                  f"else {{ x := {e} }}"]
    atoms = ("x", "3", "nil", "-2", "(y)", "x + 1", "")
    for a, op, b, after in itertools.product(atoms, ("+", "-", "*", ""), atoms,
                                             ("", " + 1", " * 2", " - -1", ")", ";")):
        texts.append(f"z := {a} {op} {b}{after}; y := {a}")
    for _ in range(3_000):
        texts.append(" ".join(rng.choice(_TOKENS) for _ in range(rng.randint(1, 14))))
    kinds = Counter()
    for text in texts:
        got, want = _parse_outcome(parse, text), _parse_outcome(_ref_parse, text)
        assert got == want, text
        kinds[got[0]] += 1
    assert kinds["tree"] > 2_500 and kinds["error"] > 2_500, kinds


# the recursive printers that the left-spine loops replaced, kept as
# the reference

def _ref_pretty_aexp(e, prec=0):
    if isinstance(e, BinOp):
        mine = {"+": 1, "-": 1, "*": 2}[e.op]
        text = f"{_ref_pretty_aexp(e.lhs, mine)} {e.op} {_ref_pretty_aexp(e.rhs, mine + 1)}"
        return f"({text})" if mine < prec else text
    return pretty_aexp(e)


def _ref_pretty_bexp(b, prec=0):
    if isinstance(b, Cmp):
        return f"{_ref_pretty_aexp(b.lhs)} {b.op} {_ref_pretty_aexp(b.rhs)}"
    if isinstance(b, Not):
        return f"not {_ref_pretty_bexp(b.arg, 3)}"
    if isinstance(b, (And, Or)):
        mine, word = (2, "and") if isinstance(b, And) else (1, "or")
        text = f"{_ref_pretty_bexp(b.lhs, mine)} {word} {_ref_pretty_bexp(b.rhs, mine + 1)}"
        return f"({text})" if mine < prec else text
    return pretty_bexp(b)


def _left_chain(rng, n, ops, operand):
    e = operand()
    for _ in range(n - 1):
        e = BinOp(rng.choice(ops), e, operand())
    return e


def test_printers_match_the_recursive_reference():
    """pretty_aexp and pretty_bexp agree with the recursive printers on
    generated expressions and guards, on left-deep chains that mix
    precedences, at every context precedence; a 3,000-term sum and a
    guard of 2,000 conjuncts print without the recursion limit."""
    rng = random.Random("printers")
    names = ("x", "y")
    for _ in range(3_000):
        e = gen_aexp(rng, names, rng.randint(0, 5))
        if rng.random() < 0.3:
            e = _left_chain(rng, rng.randint(2, 30), "+-*",
                            lambda: gen_aexp(rng, names, rng.randint(0, 2)))
        prec = rng.randint(0, 3)
        assert pretty_aexp(e, prec) == _ref_pretty_aexp(e, prec), e
        b = gen_bexp(rng)
        for _ in range(rng.choice((0, 0, 1, 5))):
            b = (And if rng.random() < 0.5 else Or)(
                b, gen_bexp(rng) if rng.random() < 0.8 else Not(b))
        prec = rng.randint(0, 4)
        assert pretty_bexp(b, prec) == _ref_pretty_bexp(b, prec), b
    total, guard = IntLit(1), Cmp("<", IntLit(0), IntLit(1))
    conj = guard
    for _ in range(2_999):
        total = BinOp("+", total, IntLit(1))
    for _ in range(1_999):
        conj = And(conj, guard)
    assert pretty_aexp(total) == " + ".join(["1"] * 3_000)
    assert pretty_bexp(conj) == " and ".join(["0 < 1"] * 2_000)


def test_seq_of_keeps_items():
    items = [Skip(), Assign("x", IntLit(1)), Skip()]
    assert seq_of(items).items == tuple(items)
    assert seq_of(items) == Seq(*items)
    assert seq_of([Skip()]) == Skip()


def test_round_trip_generated_programs():
    """parse(pretty(s)) == s across a wide generated corpus."""
    for seed in range(200):
        prog = gen_program(GenConfig(seed=seed, max_stmts=16))
        assert parse(pretty(prog)) == prog, f"seed {seed}"


def test_pretty_is_canonical():
    for seed in range(50):
        prog = gen_program(GenConfig(seed=seed))
        assert pretty(parse(pretty(prog))) == pretty(prog)
