"""Abstract syntax, parser, and printer for the pointer while-language.

Statements: skip, x := e, x := cons(e1, ..., en), x := [e], [e1] := e2,
dispose(e), s1; ...; sn, if b then { s1 } else { s2 }, while b do { s }.
Arithmetic expressions are +, -, * over integer literals, nil, and
variables; guards combine the comparisons =, < and <= with not/and/or.
Comments run from // to end of line.

Addresses exist only at runtime; the grammar has no address literals, so
`addr(2,1,1)` in a source file is a syntax error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple


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


def seq_items(s: Stmt) -> list[Stmt]:
    """The top-level statements of s."""
    return list(s.items) if isinstance(s, Seq) else [s]


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


def stmt_exprs(s: Stmt) -> list[AExp | BExp]:
    """Every expression occurrence in s, guards included, in source order."""
    out: list[AExp | BExp] = []
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


def read_vars(s: Stmt) -> frozenset[str]:
    """Variables whose value some expression of s may consult."""
    out: set[str] = set()
    for e in stmt_exprs(s):
        out |= free_vars(e)
    return frozenset(out)


def stmt_vars(s: Stmt) -> frozenset[str]:
    """All variables mentioned by s, written or read."""
    out = set(read_vars(s))
    out.update(node.var for node in walk(s)
               if isinstance(node, (Assign, Cons, Lookup)))
    return frozenset(out)


# --- lexer ---

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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|<=|[;,()\[\]{}+\-*=<])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # 'int', 'ident', keyword text, or operator text
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind == "int":
            tokens.append(Token("int", text, line, col))
        elif kind == "ident":
            tokens.append(Token(text if text in KEYWORDS else "ident", text, line, col))
        elif kind == "op":
            tokens.append(Token(text, text, line, col))
        # whitespace and comments update position only
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- parser (recursive descent with backtracking for '(' in guards) ---

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {kind!r}, found {got!r}", tok.line, tok.col)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

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
        if tok.kind == "skip":
            self.next()
            return Skip()
        if tok.kind == "dispose":
            self.next()
            self.expect("(")
            e = self.aexp()
            self.expect(")")
            return Dispose(e)
        if tok.kind == "if":
            self.next()
            cond = self.bexp()
            self.expect("then")
            then_body = self.braced()
            self.expect("else")
            else_body = self.braced()
            return If(cond, then_body, else_body)
        if tok.kind == "while":
            self.next()
            cond = self.bexp()
            self.expect("do")
            return While(cond, self.braced())
        if tok.kind == "[":
            self.next()
            target = self.aexp()
            self.expect("]")
            self.expect(":=")
            return Mutate(target, self.aexp())
        if tok.kind == "ident":
            name = self.next().text
            self.expect(":=")
            if self.at("cons"):
                self.next()
                self.expect("(")
                args = [self.aexp()]
                while self.at(","):
                    self.next()
                    args.append(self.aexp())
                self.expect(")")
                return Cons(name, tuple(args))
            if self.at("["):
                self.next()
                e = self.aexp()
                self.expect("]")
                return Lookup(name, e)
            return Assign(name, self.aexp())
        got = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected a statement, found {got!r}", tok.line, tok.col)

    # arithmetic expressions: * binds tighter than + and -, all left-associative

    def aexp(self) -> AExp:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> AExp:
        e = self.factor()
        while self.at("*"):
            self.next()
            e = BinOp("*", e, self.factor())
        return e

    def factor(self) -> AExp:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntLit(int(tok.text))
        if tok.kind == "-":  # signed integer literal only
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "int":
                self.next()
                self.next()
                return IntLit(-int(nxt.text))
        if tok.kind == "nil":
            self.next()
            return Nil()
        if tok.kind == "ident":
            self.next()
            return Var(tok.text)
        if tok.kind == "(":
            self.next()
            e = self.aexp()
            self.expect(")")
            return e
        got = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected an expression, found {got!r}", tok.line, tok.col)

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
        if tok.kind == "true":
            self.next()
            return BoolLit(True)
        if tok.kind == "false":
            self.next()
            return BoolLit(False)
        if tok.kind == "(":
            # '(' may open a parenthesized guard or a comparison operand;
            # try the comparison first and backtrack if no operator follows.
            saved = self.pos
            try:
                return self.cmp()
            except ParseError:
                self.pos = saved
            self.next()
            e = self.bexp()
            self.expect(")")
            return e
        return self.cmp()

    def cmp(self) -> BExp:
        lhs = self.aexp()
        tok = self.peek()
        if tok.kind not in ("=", "<", "<="):
            got = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected '=', '<' or '<=', found {got!r}", tok.line, tok.col)
        self.next()
        return Cmp(tok.kind, lhs, self.aexp())


def parse(src: str) -> Stmt:
    """Parse a program, raising ParseError with line/column on bad input."""
    parser = _Parser(_tokenize(src))
    s = parser.stmt()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return s


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
