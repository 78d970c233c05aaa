"""Abstract syntax, parser, and printer for the pointer while-language.

Statements: skip, x := e, x := cons(e1, ..., en), x := [e], [e1] := e2,
dispose(e), s1; ...; sn, if b then { s1 } else { s2 }, while b do { s }.
Arithmetic expressions are +, -, * over integer literals, nil, and
variables; guards combine the comparisons =, < and <= with not/and/or.
Comments run from // to end of line.

Addresses exist only at runtime; the grammar has no address literals, so
`addr(2,1,1)` in a source file is a syntax error.

Whitespace is exactly space, tab, CR and LF. The lexer is one findall
of one pattern, a lexeme, else a comment, else one stray character; it
skips the whitespace between them, and drops the comments only when the
source holds a '/'. The lexeme alternation tries the one-character
punctuation first, the largest class of tokens, then identifiers,
numbers, := and <=?; no two alternatives start with the same
character, so the order changes no token. parse checks the distinct
tokens for strays and, in the same loop, collects the variables: the
identifiers that are not keywords. It reports bad input as a
ParseError whose str is `line:col: message` (the CLI prefixes the file
name): line and column are 1-based, a tab counts as one column, and
only LF ends a line.

Trees are immutable Records (class-tagged tuples, equal by structure,
read through shared C field accessors), so one parse shares one IntLit,
Nil or Var node among all occurrences of a token text. Sharing holds
within one parse call only: two calls never return a common node.
Statements are read by recursive descent, with leaf statements and
statement lists built directly (see Record). Expressions are read by
precedence climbing: one loop reads +, - and * by binding power, and
one reads and and or, so an operand costs no call per precedence level.

The parser also records the facts the passes would otherwise walk the
tree for: its variables, its While nodes in source preorder (a loop's
slot is taken at its `while` token) and the arity of every cons. They
are kept for the tree the last parse returned only, a one-entry memo
matched by identity that keeps that tree and its source text alive until
the next parse. stmt_vars and program_facts read them for that tree, and
walk any other tree: a built one, a subtree, an older parse's.
last_parsed(src) gives that tree back for its own source, trailing
whitespace aside, so a reader of the same text need not parse it again;
a failed parse leaves the memo as it was. pretty keeps a like memo of
the tree it printed last: a residual printed, then certified, prints once.

free_vars, and stmt_vars when it walks, take one walk with an explicit
stack. A long sum or conjunction nests on the left, and the printers
follow that left spine in a loop, so its length is no limit.

A literal has at most MAX_LITERAL_DIGITS digits under any process limit
on int() and str() (PYTHONINTMAXSTRDIGITS): literal_value and pretty
convert a long one in parts every setting allows, so all processes read
it alike.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import islice

_FIELDS = namedtuple("Fields", [f"f{i}" for i in range(8)])


class Record(tuple):
    """The immutable base of nodes and results. A subclass declares
    __slots__ = () and at most 8 annotated fields, defaults last. A record
    is the tuple of its fields and then its class as a tag, so records of
    different classes are never equal. The constructor takes the fields
    only, as namedtuple's does; copy and pickle rebuild through it. Field
    i is read by _FIELDS.fi, namedtuple's C accessor, which classes share.

    Node classes are not subclassed, so the per-node hot paths use two
    idioms: they dispatch on the tag, `node[-1] is Cls`, instead of a
    chain of isinstance tests, and they build a record as
    `tuple.__new__(Cls, (*fields, Cls))`, which equals `Cls(*fields)`
    without the Python-level constructor call."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
        if any(name[0] == "_" for name in names):  # none shadows _cls, _new or _tag
            raise TypeError(f"{cls.__name__}: a field name starts with '_'")
        for i, name in enumerate(names):
            setattr(cls, name, vars(_FIELDS)[f"f{i}"])
        if "__new__" not in cls.__dict__:
            # namedtuple's own constructor is such a lambda
            fields = "".join(f"{name}, " for name in names)
            new = eval(f"lambda _cls, {fields}: _new(_cls, ({fields}_tag,))",
                       {"__builtins__": {}, "_new": tuple.__new__, "_tag": cls})
            new.__name__ = "__new__"
            new.__qualname__ = f"{cls.__qualname__}.__new__"
            new.__defaults__ = defaults
            cls.__new__ = new
        cls._fields = names

    def __getnewargs__(self):
        return self[:-1]

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"


# --- abstract syntax ---

class AExp(Record):
    __slots__ = ()


class IntLit(AExp):
    __slots__ = ()
    value: int


class Nil(AExp):
    __slots__ = ()


class Var(AExp):
    __slots__ = ()
    name: str


class BinOp(AExp):
    __slots__ = ()
    op: str  # '+', '-', '*'
    lhs: AExp
    rhs: AExp


class BExp(Record):
    __slots__ = ()


class BoolLit(BExp):
    __slots__ = ()
    value: bool


class Cmp(BExp):
    __slots__ = ()
    op: str  # '=', '<', '<='
    lhs: AExp
    rhs: AExp


class Not(BExp):
    __slots__ = ()
    arg: BExp


class And(BExp):
    __slots__ = ()
    lhs: BExp
    rhs: BExp


class Or(BExp):
    __slots__ = ()
    lhs: BExp
    rhs: BExp


class Stmt(Record):
    __slots__ = ()


class Skip(Stmt):
    __slots__ = ()


class Assign(Stmt):
    __slots__ = ()
    var: str
    expr: AExp


class Cons(Stmt):
    """x := cons(e1, ..., en); allocates a fresh n-cell block, n >= 1."""

    __slots__ = ()
    var: str
    args: tuple[AExp, ...]


class Lookup(Stmt):
    __slots__ = ()
    var: str
    addr: AExp


class Mutate(Stmt):
    __slots__ = ()
    target: AExp
    value: AExp


class Dispose(Stmt):
    __slots__ = ()
    addr: AExp


class Seq(Stmt):
    """Sequencing of two or more statements, none of them a Seq.

    Seq(*items) splices the items of any Seq argument, so that
    Seq(a, Seq(b, c)) == Seq(a, b, c) == parse("a; b; c").
    """

    __slots__ = ()
    items: tuple

    def __new__(cls, *items: Stmt):
        flat = []
        for s in items:
            if isinstance(s, Seq):
                flat += s.items
            else:
                flat.append(s)
        if len(flat) < 2:
            raise ValueError("Seq takes at least two statements")
        return tuple.__new__(cls, (tuple(flat), cls))

    def __getnewargs__(self):
        return self.items

    # The binary view of the right-nested chain, for callers written
    # against it; rest builds a new Seq of the remaining items.

    @property
    def first(self) -> Stmt:
        return self.items[0]

    @property
    def rest(self) -> Stmt:
        items = self.items
        return items[1] if len(items) == 2 else tuple.__new__(Seq, (items[1:], Seq))


class If(Stmt):
    __slots__ = ()
    cond: BExp
    then_body: Stmt
    else_body: Stmt


class While(Stmt):
    __slots__ = ()
    cond: BExp
    body: Stmt


def seq_of(stmts: list[Stmt]) -> Stmt:
    """The statement that runs a nonempty list in order."""
    return stmts[0] if len(stmts) == 1 else Seq(*stmts)


def children(s: Stmt) -> tuple:
    """The statements directly under s, in source order."""
    tag = s[-1]
    if tag is Seq:
        return s.items
    if tag is If:
        return (s.then_body, s.else_body)
    if tag is While:
        return (s.body,)
    return ()


def walk(s: Stmt):
    """Every statement node of s in source preorder: a Seq before its
    items, an if before its then- and else-branch, a loop before its
    body. Iterative, so neither length nor nesting limits it."""
    todo = [s]
    while todo:
        node = todo.pop()
        yield node
        todo += reversed(children(node))


def walk_paths(root, split):
    """(path, node) for every node of a tree that mirrors a statement,
    in source preorder; split(node) gives the node's statement and one
    subtree per child of it. The tool's one node address: "root", then
    .items[i] under a Seq, .then and .else under an if, .body under a
    loop. The analyze reports print it; check names a node by it."""
    todo = [("root", root)]
    while todo:
        path, node = todo.pop()
        yield path, node
        stmt, subtrees = split(node)
        if isinstance(stmt, Seq):
            labels = [f"items[{i}]" for i in range(len(stmt.items))]
        else:
            labels = {If: ("then", "else"), While: ("body",)}.get(type(stmt), ())
        todo += reversed([(f"{path}.{label}", subtree)
                          for label, subtree in zip(labels, subtrees)])


# --- variables ---

def _collect(root: Record, writes: bool) -> frozenset[str]:
    """The variables that root and the nodes under it read, and also
    those they write when writes is set: one iterative walk, dispatching
    on the class tag node[-1]."""
    out, todo = set(), [root]
    while todo:
        node = todo.pop()
        tag = node[-1]
        if tag is Var:
            out.add(node.name)
        elif tag is IntLit:
            continue
        elif tag is BinOp or tag is Cmp or tag is And or tag is Or:
            todo += (node.lhs, node.rhs)
        elif tag is Assign:
            if writes:
                out.add(node.var)
            todo.append(node.expr)
        elif tag is Lookup:
            if writes:
                out.add(node.var)
            todo.append(node.addr)
        elif tag is Cons:
            if writes:
                out.add(node.var)
            todo += node.args
        elif tag is Seq:
            todo += node.items
        elif tag is Mutate:
            todo += (node.target, node.value)
        elif tag is Dispose:
            todo.append(node.addr)
        elif tag is Not:
            todo.append(node.arg)
        elif tag is If:
            todo += (node.cond, node.then_body, node.else_body)
        elif tag is While:
            todo += (node.cond, node.body)
        elif not (tag is Nil or tag is BoolLit or tag is Skip):
            raise TypeError(f"not an expression or statement: {node!r}")
    return frozenset(out)


def free_vars(x: AExp | BExp | Stmt) -> frozenset[str]:
    """Variables whose value x may consult: those an expression mentions,
    or those some expression of a statement, guards included, mentions."""
    return _collect(x, False)


def stmt_vars(s: Stmt) -> frozenset[str]:
    """All variables mentioned by s, written or read: those its parser
    recorded when s is the tree parse returned last, else one walk."""
    _, tree, variables, _, _ = _facts
    return variables if tree is s else _collect(s, True)


def program_facts(s: Stmt) -> tuple[frozenset, tuple, frozenset]:
    """stmt_vars(s), the While nodes of s in source preorder and the
    block lengths its cons statements allocate: what its parser recorded
    when s is the tree parse returned last, else walked for."""
    _, tree, variables, loops, lengths = _facts
    if tree is s:
        return variables, loops, lengths
    loops, lengths = [], set()
    for node in walk(s):
        tag = node[-1]
        if tag is While:
            loops.append(node)
        elif tag is Cons:
            lengths.add(len(node.args))
    return _collect(s, True), tuple(loops), frozenset(lengths)


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

_LEXEME = r"[;,()\[\]{}+\-*=]|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|:=|<=?"
_LEXEME_RE = re.compile(_LEXEME)
# One match per token or comment: a lexeme, else a comment, else one
# character that starts neither (a stray). findall skips the whitespace
# between matches, and with no group in the pattern it yields each match.
_TOKEN_RE = re.compile(rf"{_LEXEME}|//[^\n]*|[^ \t\r\n]")


def _tokens(src: str) -> list[str]:
    """The tokens of src, then "" for the end of input."""
    tokens = _TOKEN_RE.findall(src)
    if "/" in src:  # only then can there be a comment
        tokens = [tok for tok in tokens if tok[:2] != "//"]
    tokens.append("")
    return tokens


_STMT_KEYWORDS = frozenset({"skip", "dispose", "if", "while"})
# binding powers: * binds tighter than + and -, and and tighter than or
_ARITH_POWER = {"+": 1, "-": 1, "*": 2}
_GUARD_POWER = {"or": 1, "and": 2}


# --- integer literals, read and printed in parts ---

MAX_LITERAL_DIGITS = 4_300  # Python's default digit limit, fixed
_PART_DIGITS = 500  # below the least limit Python allows (640)
_PART = 10 ** _PART_DIGITS


def literal_value(text: str) -> int:
    """The value of an integer literal, ASCII digits with an optional
    leading '-', read in parts under any digit limit; ValueError if it
    has more than MAX_LITERAL_DIGITS digits."""
    if len(text) <= _PART_DIGITS:  # int() reads it under any setting
        return int(text)
    digits = text.lstrip("-")
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ValueError(f"integer literal has more than {MAX_LITERAL_DIGITS} digits")
    n = 0
    for i in range(0, len(digits), _PART_DIGITS):
        part = digits[i:i + _PART_DIGITS]
        n = n * 10 ** len(part) + int(part)
    return -n if text[0] == "-" else n


def int_digits(n: int) -> str:
    """str(n) under any digit limit: a long n is split at a power of ten
    by divmod until each part is below _PART."""
    if -_PART < n < _PART:
        return str(n)
    if n < 0:
        return "-" + int_digits(-n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10 ** k)
    return int_digits(high) + int_digits(low).zfill(k)


# --- parser (precedence climbing, backtracking for '(' in guards) ---

class _Failure(Exception):
    """A syntax error at a token index; parse() locates it in the source."""

    def __init__(self, at: int, message: str):
        self.at = at
        self.message = message


class _Parser:
    def __init__(self, tokens: list[str], variables: frozenset[str]):
        self.tokens = tokens  # the last is "", the end of input
        self.pos = 0
        self.variables = variables  # the identifiers that are not keywords
        # token text -> its IntLit, Nil or Var node, shared by every
        # occurrence in this parse; "-7" keys the signed literal
        self.atoms: dict[str, AExp] = {}
        self.loops: list = []  # the While nodes, in source preorder
        self.lengths: set[int] = set()  # the arity of every cons

    def fail(self, expected: str):
        found = self.tokens[self.pos] or "end of input"
        raise _Failure(self.pos, f"expected {expected}, found {found!r}")

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self.fail(repr(text))
        self.pos += 1

    # statements

    def stmt(self) -> Stmt:
        tokens = self.tokens
        items = [self.simple_stmt()]
        while tokens[self.pos] == ";":
            self.pos += 1
            items.append(self.simple_stmt())
        # a simple statement is never a Seq, so nothing needs splicing
        return items[0] if len(items) == 1 else tuple.__new__(Seq, (tuple(items), Seq))

    def braced(self) -> Stmt:
        self.expect("{")
        body = self.stmt()
        self.expect("}")
        return body

    def simple_stmt(self) -> Stmt:
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        # most statements are x := ...; neither a variable nor ':=' is
        # the final "", so the two tokens after tok exist
        if tok in self.variables:
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
                self.lengths.add(len(args))
                return tuple.__new__(Cons, (tok, tuple(args), Cons))
            if rhs == "[":
                self.pos = pos + 3
                e = self.aexp()
                self.expect("]")
                return tuple.__new__(Lookup, (tok, e, Lookup))
            self.pos = pos + 2
            return tuple.__new__(Assign, (tok, self.aexp(), Assign))
        if tok == "[":
            self.pos = pos + 1
            target = self.aexp()
            self.expect("]")
            self.expect(":=")
            return tuple.__new__(Mutate, (target, self.aexp(), Mutate))
        if tok not in _STMT_KEYWORDS:
            self.fail("a statement")
        self.pos = pos + 1
        if tok == "skip":
            return tuple.__new__(Skip, (Skip,))
        if tok == "dispose":
            self.expect("(")
            e = self.aexp()
            self.expect(")")
            return tuple.__new__(Dispose, (e, Dispose))
        if tok == "while":  # its slot is taken here, so outer precedes inner
            slot = len(self.loops)
            self.loops.append(None)
        cond = self.bexp()
        if tok == "if":
            self.expect("then")
            then_body = self.braced()
            self.expect("else")
            return If(cond, then_body, self.braced())
        self.expect("do")
        loop = self.loops[slot] = While(cond, self.braced())
        return loop

    # arithmetic expressions by precedence climbing: the loop reads the
    # operators of at least min_power, left-associative, and hands the
    # operand after one to a nested climb when a tighter operator
    # follows it. An atom seen before is read from `atoms` in the loop.

    def aexp(self, lhs: AExp | None = None, min_power: int = 1) -> AExp:
        tokens, atoms, pos = self.tokens, self.atoms, self.pos
        if lhs is None:
            lhs = atoms.get(tokens[pos])
            if lhs is None:
                lhs = self.atom()
                pos = self.pos
            else:
                pos += 1
        while (op := tokens[pos]) in _ARITH_POWER and (power := _ARITH_POWER[op]) >= min_power:
            # an operator is not the final "", so a token follows it
            rhs = atoms.get(tokens[pos + 1])
            if rhs is None:
                self.pos = pos + 1
                rhs = self.atom()
                pos = self.pos
            else:
                pos += 2
            if (op2 := tokens[pos]) in _ARITH_POWER and _ARITH_POWER[op2] > power:
                self.pos = pos
                rhs = self.aexp(rhs, power + 1)
                pos = self.pos
            lhs = tuple.__new__(BinOp, (op, lhs, rhs, BinOp))
        self.pos = pos
        return lhs

    def atom(self) -> AExp:
        """The operand at pos, which `atoms` does not hold: a new atom,
        kept there from now on, or a parenthesized expression."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        if tok.isdecimal():
            atom = self.int_lit(pos, tok)
        elif tok in self.variables:
            atom = Var(tok)
        elif tok == "nil":
            atom = Nil()
        elif tok == "-" and tokens[pos + 1].isdecimal():
            # a signed integer literal, the only negative one
            pos += 1
            tok = "-" + tokens[pos]
            atom = self.atoms.get(tok) or self.int_lit(pos - 1, tok)
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

    def int_lit(self, pos: int, text: str) -> IntLit:
        try:
            return IntLit(literal_value(text))
        except ValueError as err:
            raise _Failure(pos, str(err)) from None

    # guards: not binds tighter than and, and tighter than or; and/or
    # are climbed as the arithmetic operators are

    def bexp(self, lhs: BExp | None = None, min_power: int = 1) -> BExp:
        tokens = self.tokens
        if lhs is None:
            lhs = self.bnot()
        while (power := _GUARD_POWER.get(op := tokens[self.pos], 0)) >= min_power:
            self.pos += 1
            rhs = self.bnot()
            if _GUARD_POWER.get(tokens[self.pos], 0) > power:
                rhs = self.bexp(rhs, power + 1)
            lhs = And(lhs, rhs) if op == "and" else Or(lhs, rhs)
        return lhs

    def bnot(self) -> BExp:
        if self.tokens[self.pos] == "not":
            self.pos += 1
            return Not(self.bnot())
        return self.batom()

    def batom(self) -> BExp:
        pos = self.pos
        tok = self.tokens[pos]
        if tok == "true" or tok == "false":
            self.pos = pos + 1
            return BoolLit(tok == "true")
        if tok == "(":
            # '(' may open a parenthesized guard or a comparison operand;
            # try the comparison first and backtrack if no operator follows.
            try:
                return self.cmp()
            except _Failure:
                self.pos = pos + 1
            e = self.bexp()
            self.expect(")")
            return e
        return self.cmp()

    def cmp(self) -> BExp:
        lhs = self.aexp()
        op = self.tokens[self.pos]
        if op not in ("=", "<", "<="):
            self.fail("'=', '<' or '<='")
        self.pos += 1
        return Cmp(op, lhs, self.aexp())


# the source parse read last, the tree it returned for it, and the facts
# its parser recorded: the variables, the While nodes in source preorder
# and the cons arities; before any parse, no tree
_facts = ("", None, frozenset(), (), frozenset())


def parse(src: str) -> Stmt:
    """Parse a program, raising ParseError with line/column on bad input.

    The whole source is scanned first, so a stray character is reported
    before any syntax error."""
    global _facts
    tokens = _tokens(src)
    try:
        names, stray = [], []
        for tok in set(tokens):
            if _LEXEME_RE.fullmatch(tok):
                if tok.isidentifier() and tok not in KEYWORDS:
                    names.append(tok)
            elif tok:
                stray.append(tok)
        if stray:
            at = min(map(tokens.index, stray))
            raise _Failure(at, f"unexpected character {tokens[at]!r}")
        variables = frozenset(names)
        parser = _Parser(tokens, variables)
        s = parser.stmt()
        if tokens[parser.pos]:
            raise _Failure(parser.pos, f"unexpected trailing input {tokens[parser.pos]!r}")
    except _Failure as failure:
        # the offset of token failure.at, and len(src) for the end of input
        starts = (m.start() for m in _TOKEN_RE.finditer(src) if m[0][:2] != "//")
        offset = next(islice(starts, failure.at, None), len(src))
        line = src.count("\n", 0, offset) + 1
        col = offset - src.rfind("\n", 0, offset)
        raise ParseError(failure.message, line, col) from None
    _facts = (src, s, variables, tuple(parser.loops), frozenset(parser.lengths))
    return s


def last_parsed(src: str) -> Stmt | None:
    """The tree parse returned last, if src is the source it read with
    its trailing whitespace removed, else None. That parse succeeded, and
    trailing whitespace adds no token, so parse(src) would return an
    equal tree; this is the same immutable one, with its recorded facts,
    shared with parse's caller."""
    source, tree = _facts[:2]
    return tree if source.rstrip(" \t\r\n") == src else None


# --- printer; output is canonical and reparses to the same tree ---

_APREC = {"+": 1, "-": 1, "*": 2}


def pretty_aexp(e: AExp, prec: int = 0) -> str:
    tag = e[-1]
    if tag is Var:
        return e.name
    if tag is IntLit:
        try:  # the common path pays no call
            return str(e.value)
        except ValueError:  # past the process's digit limit
            return int_digits(e.value)
    if tag is BinOp:
        # a long sum nests on the left: its left spine is followed in a
        # loop and printed back up, so its length is no limit;
        # left-associative, so a right operand at equal precedence needs
        # parens
        spine = []
        while e[-1] is BinOp:
            spine.append((e, _APREC[e[0]]))
            e = e[1]
        text = pretty_aexp(e)
        for i in range(len(spine) - 1, -1, -1):
            node, mine = spine[i]
            text = f"{text} {node[0]} {pretty_aexp(node[2], mine + 1)}"
            if mine < (spine[i - 1][1] if i else prec):
                text = f"({text})"
        return text
    if tag is Nil:
        return "nil"
    raise TypeError(f"not an arithmetic expression: {e!r}")


_BPREC_OR, _BPREC_AND, _BPREC_NOT = 1, 2, 3


def pretty_bexp(b: BExp, prec: int = 0) -> str:
    tag = b[-1]
    if tag is Cmp:
        return f"{pretty_aexp(b.lhs)} {b.op} {pretty_aexp(b.rhs)}"
    if tag is Not:
        return f"not {pretty_bexp(b.arg, _BPREC_NOT)}"
    if tag is And or tag is Or:
        # a long conjunction nests on the left, printed as pretty_aexp's sums
        spine = []
        while (tag := b[-1]) is And or tag is Or:
            spine.append((b, "and", _BPREC_AND) if tag is And else (b, "or", _BPREC_OR))
            b = b[0]
        text = pretty_bexp(b)
        for i in range(len(spine) - 1, -1, -1):
            node, word, mine = spine[i]
            text = f"{text} {word} {pretty_bexp(node[1], mine + 1)}"
            if mine < (spine[i - 1][2] if i else prec):
                text = f"({text})"
        return text
    if tag is BoolLit:
        return "true" if b.value else "false"
    raise TypeError(f"not a guard: {b!r}")


# the tree pretty printed last, matched by identity, and its text
_printed = (None, "")


def pretty(s: Stmt) -> str:
    global _printed
    tree, text = _printed  # one read: the pair is replaced, never edited
    if tree is not s:
        text = _pretty(s)
        _printed = (s, text)
    return text


def _pretty(s: Stmt) -> str:
    tag = s[-1]
    if tag is Assign:
        return f"{s.var} := {pretty_aexp(s.expr)}"
    if tag is Cons:
        return f"{s.var} := cons({', '.join(map(pretty_aexp, s.args))})"
    if tag is Lookup:
        return f"{s.var} := [{pretty_aexp(s.addr)}]"
    if tag is Mutate:
        return f"[{pretty_aexp(s.target)}] := {pretty_aexp(s.value)}"
    if tag is Seq:
        return "; ".join(map(_pretty, s.items))
    if tag is Skip:
        return "skip"
    if tag is Dispose:
        return f"dispose({pretty_aexp(s.addr)})"
    if tag is If:
        return (f"if {pretty_bexp(s.cond)} then {{ {_pretty(s.then_body)} }}"
                f" else {{ {_pretty(s.else_body)} }}")
    if tag is While:
        return f"while {pretty_bexp(s.cond)} do {{ {_pretty(s.body)} }}"
    raise TypeError(f"not a statement: {s!r}")
