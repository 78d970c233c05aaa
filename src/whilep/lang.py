"""Abstract syntax, parser, and printer for the pointer while-language.

Statements: skip, x := e, x := cons(e1, ..., en), x := [e], [e1] := e2,
dispose(e), s1; ...; sn, if b then { s1 } else { s2 }, while b do { s }.
Arithmetic expressions are +, -, * over integer literals, nil, and
variables; guards combine the comparisons =, < and <= with not/and/or.
Comments run from // to end of line.

Addresses exist only at runtime; the grammar has no address literals, so
`addr(2,1,1)` in a source file is a syntax error.

Whitespace is exactly space, tab, CR and LF. parse reports bad input as a
ParseError whose str is `line:col: message` (the CLI prefixes the file
name): line and column are 1-based, a tab counts as one column, and only
LF ends a line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice


# --- abstract syntax ---

@dataclass(frozen=True)
class AExp:
    pass


@dataclass(frozen=True)
class IntLit(AExp):
    value: int


@dataclass(frozen=True)
class Nil(AExp):
    pass


@dataclass(frozen=True)
class Var(AExp):
    name: str


@dataclass(frozen=True)
class BinOp(AExp):
    op: str  # '+', '-', '*'
    lhs: AExp
    rhs: AExp


@dataclass(frozen=True)
class BExp:
    pass


@dataclass(frozen=True)
class BoolLit(BExp):
    value: bool


@dataclass(frozen=True)
class Cmp(BExp):
    op: str  # '=', '<', '<='
    lhs: AExp
    rhs: AExp


@dataclass(frozen=True)
class Not(BExp):
    arg: BExp


@dataclass(frozen=True)
class And(BExp):
    lhs: BExp
    rhs: BExp


@dataclass(frozen=True)
class Or(BExp):
    lhs: BExp
    rhs: BExp


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Skip(Stmt):
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    var: str
    expr: AExp


@dataclass(frozen=True)
class Cons(Stmt):
    """x := cons(e1, ..., en); allocates a fresh n-cell block, n >= 1."""

    var: str
    args: tuple[AExp, ...]


@dataclass(frozen=True)
class Lookup(Stmt):
    var: str
    addr: AExp


@dataclass(frozen=True)
class Mutate(Stmt):
    target: AExp
    value: AExp


@dataclass(frozen=True)
class Dispose(Stmt):
    addr: AExp


@dataclass(frozen=True, init=False)
class Seq(Stmt):
    """Sequencing of two or more statements, none of them a Seq.

    Seq(*items) splices the items of any Seq argument, so that
    Seq(a, Seq(b, c)) == Seq(a, b, c) == parse("a; b; c").
    """

    items: tuple

    def __init__(self, *items: Stmt):
        flat = []
        for s in items:
            if isinstance(s, Seq):
                flat += s.items
            else:
                flat.append(s)
        if len(flat) < 2:
            raise ValueError("Seq takes at least two statements")
        object.__setattr__(self, "items", tuple(flat))

    # The binary view of the right-nested chain, for callers written
    # against it; rest builds a new Seq of the remaining items.

    @property
    def first(self) -> Stmt:
        return self.items[0]

    @property
    def rest(self) -> Stmt:
        if len(self.items) == 2:
            return self.items[1]
        rest = object.__new__(Seq)
        object.__setattr__(rest, "items", self.items[1:])
        return rest


@dataclass(frozen=True)
class If(Stmt):
    cond: BExp
    then_body: Stmt
    else_body: Stmt


@dataclass(frozen=True)
class While(Stmt):
    cond: BExp
    body: Stmt


def seq_of(stmts: list[Stmt]) -> Stmt:
    """The statement that runs a nonempty list in order."""
    return stmts[0] if len(stmts) == 1 else Seq(*stmts)


def walk(s: Stmt):
    """Every statement node of s in source preorder: a Seq before its
    items, an if before its then- and else-branch, a loop before its
    body. Iterative, so neither length nor nesting limits it."""
    todo = [s]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, Seq):
            todo += reversed(node.items)
        elif isinstance(node, If):
            todo += (node.else_body, node.then_body)
        elif isinstance(node, While):
            todo.append(node.body)


# --- free variables ---

def free_vars(e: AExp | BExp) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (BinOp, And, Or, Cmp)):
        return free_vars(e.lhs) | free_vars(e.rhs)
    if isinstance(e, Not):
        return free_vars(e.arg)
    return frozenset()


def read_vars(s: Stmt) -> frozenset[str]:
    """Variables whose value some expression of s, guards included, may
    consult."""
    exprs: list[AExp | BExp] = []
    for node in walk(s):
        if isinstance(node, Assign):
            exprs.append(node.expr)
        elif isinstance(node, Cons):
            exprs += node.args
        elif isinstance(node, (Lookup, Dispose)):
            exprs.append(node.addr)
        elif isinstance(node, Mutate):
            exprs += (node.target, node.value)
        elif isinstance(node, (If, While)):
            exprs.append(node.cond)
    out: set[str] = set()
    for e in exprs:
        out |= free_vars(e)
    return frozenset(out)


def stmt_vars(s: Stmt) -> frozenset[str]:
    """All variables mentioned by s, written or read."""
    out = set(read_vars(s))
    out.update(node.var for node in walk(s)
               if isinstance(node, (Assign, Cons, Lookup)))
    return frozenset(out)


# --- lexer: a token is its text ---

class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = {
    "skip", "cons", "dispose", "if", "then", "else", "while", "do",
    "not", "and", "or", "true", "false", "nil",
}

_LEXEME = r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|:=|<=|[;,()\[\]{}+\-*=<]"
_LEXEME_RE = re.compile(_LEXEME)
# Whitespace and comments match with group 1 empty; a character that
# starts no lexeme matches alone, as a stray.
_TOKEN_RE = re.compile(rf"[ \t\r\n]+|//[^\n]*|({_LEXEME}|.)")


def _is_ident(text: str) -> bool:
    return text.isidentifier() and text not in KEYWORDS


# --- parser (recursive descent with backtracking for '(' in guards) ---

class _Failure(Exception):
    """A syntax error at a token index; parse() locates it in the source."""

    def __init__(self, at: int, message: str):
        self.at = at
        self.message = message


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens  # the last is "", the end of input
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        found = self.tokens[self.pos] or "end of input"
        raise _Failure(self.pos, f"expected {expected}, found {found!r}")

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self.fail(repr(text))
        self.pos += 1

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    # statements

    def stmt(self) -> Stmt:
        items = [self.simple_stmt()]
        while self.at(";"):
            self.next()
            items.append(self.simple_stmt())
        return seq_of(items)

    def braced(self) -> Stmt:
        self.expect("{")
        body = self.stmt()
        self.expect("}")
        return body

    def simple_stmt(self) -> Stmt:
        tok = self.peek()
        if tok == "skip":
            self.next()
            return Skip()
        if tok == "dispose":
            self.next()
            self.expect("(")
            e = self.aexp()
            self.expect(")")
            return Dispose(e)
        if tok == "if":
            self.next()
            cond = self.bexp()
            self.expect("then")
            then_body = self.braced()
            self.expect("else")
            else_body = self.braced()
            return If(cond, then_body, else_body)
        if tok == "while":
            self.next()
            cond = self.bexp()
            self.expect("do")
            return While(cond, self.braced())
        if tok == "[":
            self.next()
            target = self.aexp()
            self.expect("]")
            self.expect(":=")
            return Mutate(target, self.aexp())
        if _is_ident(tok):
            self.next()
            self.expect(":=")
            if self.at("cons"):
                self.next()
                self.expect("(")
                args = [self.aexp()]
                while self.at(","):
                    self.next()
                    args.append(self.aexp())
                self.expect(")")
                return Cons(tok, tuple(args))
            if self.at("["):
                self.next()
                e = self.aexp()
                self.expect("]")
                return Lookup(tok, e)
            return Assign(tok, self.aexp())
        self.fail("a statement")

    # arithmetic expressions: * binds tighter than + and -, all left-associative

    def aexp(self) -> AExp:
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> AExp:
        e = self.factor()
        while self.at("*"):
            self.next()
            e = BinOp("*", e, self.factor())
        return e

    def factor(self) -> AExp:
        tok = self.next()  # put back below if it starts no expression
        if tok.isdecimal():
            return IntLit(int(tok))
        if tok == "-" and self.peek().isdecimal():  # signed integer literal only
            return IntLit(-int(self.next()))
        if tok == "nil":
            return Nil()
        if _is_ident(tok):
            return Var(tok)
        if tok == "(":
            e = self.aexp()
            self.expect(")")
            return e
        self.pos -= 1
        self.fail("an expression")

    # guards: not binds tighter than and, and tighter than or

    def bexp(self) -> BExp:
        e = self.band()
        while self.at("or"):
            self.next()
            e = Or(e, self.band())
        return e

    def band(self) -> BExp:
        e = self.bnot()
        while self.at("and"):
            self.next()
            e = And(e, self.bnot())
        return e

    def bnot(self) -> BExp:
        if self.at("not"):
            self.next()
            return Not(self.bnot())
        return self.batom()

    def batom(self) -> BExp:
        tok = self.peek()
        if tok == "true":
            self.next()
            return BoolLit(True)
        if tok == "false":
            self.next()
            return BoolLit(False)
        if tok == "(":
            # '(' may open a parenthesized guard or a comparison operand;
            # try the comparison first and backtrack if no operator follows.
            saved = self.pos
            try:
                return self.cmp()
            except _Failure:
                self.pos = saved
            self.next()
            e = self.bexp()
            self.expect(")")
            return e
        return self.cmp()

    def cmp(self) -> BExp:
        lhs = self.aexp()
        op = self.peek()
        if op not in ("=", "<", "<="):
            self.fail("'=', '<' or '<='")
        self.next()
        return Cmp(op, lhs, self.aexp())


def parse(src: str) -> Stmt:
    """Parse a program, raising ParseError with line/column on bad input.

    The whole source is lexed first, so a stray character is reported
    before any syntax error."""
    tokens = list(filter(None, _TOKEN_RE.findall(src)))
    try:
        stray = [tok for tok in set(tokens) if not _LEXEME_RE.fullmatch(tok)]
        if stray:
            at = min(map(tokens.index, stray))
            raise _Failure(at, f"unexpected character {tokens[at]!r}")
        tokens.append("")
        parser = _Parser(tokens)
        s = parser.stmt()
        if parser.peek():
            raise _Failure(parser.pos, f"unexpected trailing input {parser.peek()!r}")
        return s
    except _Failure as failure:
        # the offset of token failure.at, or the end of the source
        starts = (m.start() for m in _TOKEN_RE.finditer(src) if m.lastindex)
        offset = next(islice(starts, failure.at, None), len(src))
        line = src.count("\n", 0, offset) + 1
        col = offset - src.rfind("\n", 0, offset)
        raise ParseError(failure.message, line, col) from None


# --- printer; output is canonical and reparses to the same tree ---

_APREC = {"+": 1, "-": 1, "*": 2}


def pretty_aexp(e: AExp, prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Nil):
        return "nil"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        mine = _APREC[e.op]
        # left-associative: right operand at equal precedence needs parens
        text = f"{pretty_aexp(e.lhs, mine)} {e.op} {pretty_aexp(e.rhs, mine + 1)}"
        return f"({text})" if mine < prec else text
    raise TypeError(f"not an arithmetic expression: {e!r}")


_BPREC_OR, _BPREC_AND, _BPREC_NOT = 1, 2, 3


def pretty_bexp(b: BExp, prec: int = 0) -> str:
    if isinstance(b, BoolLit):
        return "true" if b.value else "false"
    if isinstance(b, Cmp):
        return f"{pretty_aexp(b.lhs)} {b.op} {pretty_aexp(b.rhs)}"
    if isinstance(b, Not):
        return f"not {pretty_bexp(b.arg, _BPREC_NOT)}"
    if isinstance(b, And):
        text = f"{pretty_bexp(b.lhs, _BPREC_AND)} and {pretty_bexp(b.rhs, _BPREC_AND + 1)}"
        return f"({text})" if _BPREC_AND < prec else text
    if isinstance(b, Or):
        text = f"{pretty_bexp(b.lhs, _BPREC_OR)} or {pretty_bexp(b.rhs, _BPREC_OR + 1)}"
        return f"({text})" if _BPREC_OR < prec else text
    raise TypeError(f"not a guard: {b!r}")


def pretty(s: Stmt) -> str:
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Assign):
        return f"{s.var} := {pretty_aexp(s.expr)}"
    if isinstance(s, Cons):
        return f"{s.var} := cons({', '.join(pretty_aexp(a) for a in s.args)})"
    if isinstance(s, Lookup):
        return f"{s.var} := [{pretty_aexp(s.addr)}]"
    if isinstance(s, Mutate):
        return f"[{pretty_aexp(s.target)}] := {pretty_aexp(s.value)}"
    if isinstance(s, Dispose):
        return f"dispose({pretty_aexp(s.addr)})"
    if isinstance(s, Seq):
        return "; ".join(map(pretty, s.items))
    if isinstance(s, If):
        return (f"if {pretty_bexp(s.cond)} then {{ {pretty(s.then_body)} }}"
                f" else {{ {pretty(s.else_body)} }}")
    if isinstance(s, While):
        return f"while {pretty_bexp(s.cond)} do {{ {pretty(s.body)} }}"
    raise TypeError(f"not a statement: {s!r}")
