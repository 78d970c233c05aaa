"""Checking and storing derivations of the dead-code rewrite.

A derivation node (liveness.Derivation, built by live_annotate) records
one rule application: the original statement, its residual, the
entry/exit (points-to, live) pairs, and one premise per child of the
statement. check() revalidates one in memory, in preorder, knowing only
the rules the optimizer builds: rule/statement shape (by the class
tag, like every per-node path), side conditions recomputed from the
node's own entry type (the leaf rule also reads the exit type, once it
is confirmed to be the transfer's), the rewrite itself, and how
premises compose. It names a bad node by its `analyze live` row path.

The rules are compositional: given the program, its entry type, its
exit live set and the instance cap, every judgment is forced except the
loop invariants and the loop-head live sets. A certificate document
therefore stores the cap and each fact once, as one JSON object:

  instance_cap  the instance cap K the analyses ran at: a derivation is
                a proof at one K
  program       the canonical program text
  entry         the entry points-to type
  exit_live     the exit live set
  loops         {pts, live} per loop in source preorder (then-branch
                before else-branch, outer loop before inner): the whl_d
                invariant and the loop-head live set
  residual      the canonical residual text

deserialize() reads the cap before any other field's value, and rejects
one that is missing or not an integer from 1 to MAX_INSTANCE_CAP, so a
document cannot make the rerun unbounded. It rejects a document that
repeats an object key, which JSON would resolve by keeping the last
value; with addresses read only in their repr spelling, every fact has
exactly one key. It rejects, in the entry type, the exit live set and
the loop annotations, a variable the program does not mention, an
address whose block length no cons of the program allocates and an
address whose instance is above the cap. The variables, the block
lengths and the loops that the annotations are matched to are the facts
parse recorded while reading the program (lang.program_facts), so the
program is not walked for them. When the program text is the source the
caller parsed last, trailing whitespace aside (lang.last_parsed), that
parse's tree and facts are taken, so a verdict that parsed the program
file reads the same text once. It reruns the analyses at the
cap from entry and exit, each loop starting from its annotation joined
with its entry (and, in points-to, with its allocations) and iterating
to closure, and rejects an annotation or residual that the rerun does
not reproduce, every loop invariant before any loop-head live set. A
coarser annotation that is still closed is reproduced: weakening is
expressed through the loop annotations and the entry type.
Serialization is deterministic, so equal derivations at one cap produce
byte-identical documents. deserialize walks the rerun's derivation for
its loop annotations only when the parse recorded a loop.
The analyze and test-soundness reports of the command line are written
by the same JSON writer (to_json), and the analyze reports share the
text form of points-to keys, types and live sets defined here. There, a
string list costs one join and each distinct address is spelled once.

The check-cert verdict is that rerun and a comparison of the rebuilt
program's text with the given one's; check() is not on that path. The
verdict trusts parse, with the facts it records and the memo that pairs
the source it read last with its own tree, and pretty, annotate with
transfer and join, live_annotate with leaf_live_pre, and the
loop-annotation and residual comparisons.
test_document_tamper_corpus_rejected, test_perturbed_seeds_still_reach_closure
and criterion 8 assert that check() accepts what the passes build.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .lang import (
    Assign, Cons, Dispose, If, Lookup, Mutate, ParseError, Record, Seq, Skip,
    While, children, free_vars, last_parsed, parse, pretty, program_facts,
    walk_paths,
)
from .memory import Address, parse_addr
from .liveness import Derivation, LiveType, leaf_live_pre, live_annotate
from .pointsto import (
    DEFAULT_CAP, MAX_INSTANCE_CAP, PointsTo, annotate, join, leq, transfer,
)


_RULE_FORM = {
    "skip": Skip, "ass_d1": Assign, "ass_d2": Assign,
    "con_d1": Cons, "con_d2": Cons, "lok_d1": Lookup, "lok_d2": Lookup,
    "mut_d1": Mutate, "mut_d2": Mutate, "dis_d": Dispose,
    "seq_d": Seq, "if_d": If, "whl_d": While,
}


class CheckResult(Record):
    __slots__ = ()
    ok: bool
    path: str = ""
    reason: str = ""


ACCEPT = CheckResult(True)


def check(d: Derivation, cap: int = DEFAULT_CAP) -> CheckResult:
    """Accept iff every node is a valid rule application. Nodes are
    checked in preorder, so the first invalid one is reported, by its
    row path in `whilep analyze live` (lang.walk_paths)."""
    todo = [d]
    while todo:
        node = todo.pop()
        reason = _invalid(node, cap)
        if reason is not None:
            # the nodes before it are valid, so the walk reaches it too
            path = next(path for path, n in walk_paths(
                d, lambda x: (x.judgment.stmt, x.premises)) if n is node)
            return CheckResult(False, path, reason)
        todo += reversed(node.premises)
    return ACCEPT


def _invalid(d: Derivation, cap: int) -> str | None:
    """Why d's own rule application is invalid, or None if it is valid;
    the premises are checked as nodes of their own."""
    j = d.judgment
    s, r = j.stmt, j.residual
    pre_p, pre_l = j.pre.pts, j.pre.live
    post_p, post_l = j.post.pts, j.post.live

    form = _RULE_FORM.get(d.rule)
    if form is None:
        return f"unknown rule {d.rule!r}"
    if s[-1] is not form:
        return f"{d.rule} does not apply to {pretty(s)!r}"
    arity = len(children(s))
    if len(d.premises) != arity:
        return f"{d.rule} takes {arity} premises, got {len(d.premises)}"

    if not arity:
        # a leaf rule: recompute the transfer, the live rule, the side
        # condition, and the rewrite from the node's own entry type; the
        # live rule reads the exit type only once it is the transfer's
        if post_p != transfer(s, pre_p, cap):
            return "exit points-to type does not match the transfer"
        live, rule, residual = leaf_live_pre(s, pre_p, post_p, post_l)
        if pre_l != live:
            return "entry live set does not match the live rule"
        if d.rule != rule:
            return f"side condition of {d.rule} does not hold"
        if r != residual:
            return f"residual does not match the {d.rule} rewrite"
        return None

    if d.rule == "seq_d":
        js = [premise.judgment for premise in d.premises]
        if tuple(pj.stmt for pj in js) != s.items:
            return "seq_d premises do not cover the items in order"
        if js[0].pre != j.pre:
            return "seq_d entry does not match the first premise"
        for i in range(1, len(js)):
            if js[i - 1].post != js[i].pre:
                return f"seq_d premises {i - 1} and {i} do not chain"
        if js[-1].post != j.post:
            return "seq_d exit does not match the last premise"
        if not isinstance(r, Seq) or r.items != tuple(pj.residual for pj in js):
            return "seq_d residual is not the premises' sequence"
        return None

    if d.rule == "if_d":
        tj, ej = d.premises[0].judgment, d.premises[1].judgment
        if tj.stmt != s.then_body or ej.stmt != s.else_body:
            return "if_d premises do not cover the branches"
        if tj.pre.pts != pre_p or ej.pre.pts != pre_p:
            return "if_d branches must start at the entry type"
        if post_p != join(tj.post.pts, ej.post.pts):
            return "if_d exit type is not the branch join"
        if tj.post.live != post_l or ej.post.live != post_l:
            return "if_d branches must end at the exit live set"
        if pre_l != free_vars(s.cond) | tj.pre.live | ej.pre.live:
            return "if_d entry live set is not guard + branch entries"
        if r != If(s.cond, tj.residual, ej.residual):
            return "if_d residual does not rebuild the branches"
        return None

    # the only rule left is whl_d
    bj = d.premises[0].judgment
    if bj.stmt != s.body:
        return "whl_d premise does not cover the body"
    if not leq(pre_p, post_p):
        return "whl_d entry type is not below the invariant"
    if bj.pre.pts != post_p:
        return "whl_d body must start at the invariant"
    if not leq(bj.post.pts, post_p):
        return "whl_d invariant is not closed under the body"
    if not pre_l >= free_vars(s.cond) | post_l:
        return "whl_d head live set misses the guard or exit"
    if bj.post.live != pre_l:
        return "whl_d body must end at the head live set"
    if not bj.pre.live <= pre_l:
        return "whl_d head live set is not closed under the body"
    if r != While(s.cond, bj.residual):
        return "whl_d residual does not rebuild the loop"
    return None


# --- document format ---

class FormatError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


_FIELDS = {"instance_cap", "program", "entry", "exit_live", "loops", "residual"}

_SPELLINGS_BOUND = 1 << 16


class _Spellings(dict):
    """repr of each address, each distinct one spelled once; emptied when
    full, so a sweep over more addresses costs no more than repr."""

    def __missing__(self, a: Address) -> str:
        if len(self) >= _SPELLINGS_BOUND:
            self.clear()
        text = self[a] = repr(a)
        return text


_SPELLINGS = _Spellings()
_spell = _SPELLINGS.__getitem__


def pts_to_doc(p: PointsTo) -> dict:
    """Each distinct image is sorted and spelled once, and its list shared."""
    lists, doc = {}, {}
    for key, image in p.env.items():
        items = lists.get(image)
        if items is None:
            items = lists[image] = list(map(_spell, sorted(image)))
        doc[key if type(key) is str else _spell(key)] = items
    return doc


def live_to_list(live: frozenset) -> list:
    """Variables by name, then addresses as triples."""
    names = sorted(k for k in live if isinstance(k, str))
    if len(names) < len(live):
        names += map(_spell, sorted(live.difference(names)))
    return names


def _read_keys(texts, addr) -> list:
    """The variable or address each text spells, else None; only a text
    that starts with 'addr(' is read as an address."""
    return [addr(t) if t.startswith("addr(") else t if t.isidentifier() else None
            for t in texts]


def _in_scope(keys, parts, path: str, scope: tuple) -> None:
    """FormatError unless every variable among keys, the union of parts,
    is one the program mentions and every address lies in a block of a
    length it allocates, at an instance no greater than the cap: the
    analyses enumerate the cells of a block, so a length read from the
    document would bound their work, and they keep no type above the
    cap, so they never fold one. Once one offends, the least offending
    key of the first part that holds one is named, whatever set order."""
    variables, lengths, cap = scope
    rest = keys - variables
    if not rest or (set(map(type, rest)) == {Address}
                    and lengths.issuperset(map(attrgetter("length"), rest))
                    and max(map(attrgetter("instance"), rest)) <= cap):
        return
    for part in parts:
        bad = [k for k in part
               if (k.length not in lengths or k.instance > cap
                   if isinstance(k, Address) else k not in variables)]
        if bad:
            break
    k = min(bad, key=lambda k: (isinstance(k, Address), k))  # names first
    if not isinstance(k, Address):
        raise FormatError(path, f"{k}: the program mentions no such variable")
    if k.length not in lengths:
        raise FormatError(path, f"{k!r}: no cons of the program "
                                f"allocates blocks of length {k.length}")
    raise FormatError(path, f"{k!r}: instance {k.instance} is "
                            f"above the instance cap {cap}")


def _loop_types(d: Derivation) -> list:
    """(invariant, head live set) of every whl_d node, in source preorder."""
    out, todo = [], [d]
    while todo:
        node = todo.pop()
        if node.rule == "whl_d":
            j = node.judgment
            out.append(LiveType(j.post.pts, j.pre.live))
        todo.extend(reversed(node.premises))
    return out


def serialize(d: Derivation, cap: int = DEFAULT_CAP) -> str:
    """The certificate document of d, whose analyses ran at cap."""
    j = d.judgment
    doc = {
        # first: a caller that just printed the residual prints it once
        "residual": pretty(j.residual),
        "instance_cap": cap,
        "program": pretty(j.stmt),
        "entry": pts_to_doc(j.pre.pts),
        "exit_live": live_to_list(j.post.live),
        "loops": [{"pts": pts_to_doc(t.pts), "live": live_to_list(t.live)}
                  for t in _loop_types(d)],
    }
    return to_json(doc)


def to_json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True) and a line end, for
    nested dicts, lists, strings and ints: the text of certificates and
    reports. json's indenting encoder is pure Python and leaves cycles."""
    return _json(value, "\n") + "\n"


def _json(value, newline: str) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        body = ",".join(f"{inner}{encode_basestring_ascii(k)}: "
                        f"{_json(value[k], inner)}" for k in sorted(value))
        return f"{{{body}{newline}}}" if body else "{}"
    if not value:
        return "[]"
    sep = "," + inner
    if set(map(type, value)) == {str}:
        # a string list, the bulk of a certificate, in one join
        body = sep.join(map(encode_basestring_ascii, value))
    else:
        body = sep.join(_json(v, inner) for v in value)
    return f"[{inner}{body}{newline}]"


def _pts_from_doc(doc, path: str, scope: tuple, addr) -> PointsTo:
    if (type(doc) is not dict or not set(map(type, doc.values())) <= {list}
            or not set(map(type, chain.from_iterable(doc.values()))) <= {str}):
        raise FormatError(path, "expected an object of string lists")
    keys = _read_keys(doc, addr)
    images = [frozenset(map(addr, items)) for items in doc.values()]
    cells = frozenset().union(*images)
    if None in keys or None in cells:
        # name the first bad key or image in document order
        for key, (text, items) in zip(keys, doc.items()):
            if key is None:
                raise FormatError(path, f"bad points-to key: {text!r}")
            item = next((item for item in items if addr(item) is None), None)
            if item is not None:
                raise FormatError(path, f"bad address in image of {text!r}: {item!r}")
    _in_scope(cells.union(keys), [keys, *images], path, scope)
    return PointsTo(dict(zip(keys, images)))


def _live_from_doc(doc, path: str, scope: tuple, addr) -> frozenset:
    if type(doc) is not list or not set(map(type, doc)) <= {str}:
        raise FormatError(path, "expected a list of strings")
    keys = _read_keys(doc, addr)
    if None in keys:
        raise FormatError(path, f"bad live-set entry: {doc[keys.index(None)]!r}")
    live = frozenset(keys)
    _in_scope(live, [live], path, scope)
    return live


def _loop_from_doc(doc, path: str, scope: tuple, addr) -> LiveType:
    if not isinstance(doc, dict) or set(doc) != {"pts", "live"}:
        raise FormatError(path, "expected an object with 'pts' and 'live'")
    return LiveType(_pts_from_doc(doc["pts"], f"{path}.pts", scope, addr),
                    _live_from_doc(doc["live"], f"{path}.live", scope, addr))


def _unique_keys(pairs: list) -> dict:
    """The object of pairs; FormatError if a key repeats, since JSON
    would keep only its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError("root", f"repeated key {key!r}")
            seen.add(key)
    return obj


def deserialize(text: str) -> Derivation:
    """The derivation a certificate document describes, rebuilt by the
    seeded rerun of the module docstring at the document's instance cap;
    FormatError if the rerun does not reproduce the document. check()
    accepts what it returns at that cap; whether that describes a given
    program is for the caller to compare. The program is the tree the
    last parse returned when the document's text is its source, trailing
    whitespace aside, and a parse of that text otherwise."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as err:
        # also an integer over the digit limit, or nesting too deep
        raise FormatError("root", f"not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise FormatError("root", "expected an object")
    if set(doc) | {"instance_cap"} != _FIELDS:
        extra = (set(doc) ^ _FIELDS) - {"instance_cap"}
        raise FormatError("root", f"wrong field set (difference: {sorted(extra)})")
    cap = doc.get("instance_cap")
    if type(cap) is not int or not 1 <= cap <= MAX_INSTANCE_CAP:
        raise FormatError("root.instance_cap", "expected the cap the certificate "
                          f"was written at, an integer from 1 to {MAX_INSTANCE_CAP}")
    if not isinstance(doc["program"], str):
        raise FormatError("root.program", "expected program source text")
    try:
        program = last_parsed(doc["program"]) or parse(doc["program"])
    except ParseError as err:
        raise FormatError("root.program", f"unparsable program: {err}") from None
    # the scope: the variables the program mentions, the block lengths
    # its cons statements allocate and the cap, as its parse recorded them
    variables, stmts, lengths = program_facts(program)
    scope = (variables, lengths, cap)
    # each distinct address spelling is read once; the memo dies with
    # the call, so a rejected document's strings are not kept
    addr = functools.cache(parse_addr)
    entry = _pts_from_doc(doc["entry"], "root.entry", scope, addr)
    exit_live = _live_from_doc(doc["exit_live"], "root.exit_live", scope, addr)
    if not isinstance(doc["loops"], list):
        raise FormatError("root.loops", "expected a list")
    loops = [_loop_from_doc(t, f"root.loops[{i}]", scope, addr)
             for i, t in enumerate(doc["loops"])]
    if not isinstance(doc["residual"], str):
        raise FormatError("root.residual", "expected program source text")
    if len(stmts) != len(loops):
        raise FormatError("root.loops", f"the program has {len(stmts)} loops, "
                                        f"got {len(loops)} annotations")

    ann = annotate(program, entry, cap, {id(w): t.pts for w, t in zip(stmts, loops)})
    d = live_annotate(ann, exit_live, {id(w): t.live for w, t in zip(stmts, loops)})
    # the live pass reads the invariants: a points-to fault can also
    # change an earlier loop's live set, so every invariant comes first
    types = list(zip(_loop_types(d), loops)) if stmts else []
    for i, (got, want) in enumerate(types):
        if got.pts != want.pts:
            raise FormatError(f"root.loops[{i}].pts", "invariant does not contain "
                              "the loop entry or is not closed under the body")
    for i, (got, want) in enumerate(types):
        if got.live != want.live:
            raise FormatError(f"root.loops[{i}].live", "head live set does not "
                              "contain guard and exit or is not closed under the body")
    if pretty(d.judgment.residual) != doc["residual"]:
        raise FormatError("root.residual", "does not match the rebuilt residual")
    return d
