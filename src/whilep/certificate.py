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
text form of points-to keys, types and live sets defined here.

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
from json.encoder import encode_basestring_ascii

from .lang import (
    Assign, Cons, Dispose, If, Lookup, Mutate, ParseError, Record, Seq, Skip,
    While, children, free_vars, last_parsed, parse, pretty, program_facts,
    walk_paths,
)
from .memory import Address, parse_addr
from .liveness import Derivation, LiveType, leaf_live_pre, live_annotate
from .pointsto import (
    MAX_INSTANCE_CAP, PointsTo, WidenConfig, annotate, join, leq, transfer,
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


def check(d: Derivation, cfg: WidenConfig = WidenConfig()) -> CheckResult:
    """Accept iff every node is a valid rule application. Nodes are
    checked in preorder, so the first invalid one is reported, by its
    row path in `whilep analyze live` (lang.walk_paths)."""
    todo = [d]
    while todo:
        node = todo.pop()
        reason = _invalid(node, cfg)
        if reason is not None:
            # the nodes before it are valid, so the walk reaches it too
            path = next(path for path, n in walk_paths(
                d, lambda x: (x.judgment.stmt, x.premises)) if n is node)
            return CheckResult(False, path, reason)
        todo += reversed(node.premises)
    return ACCEPT


def _invalid(d: Derivation, cfg: WidenConfig) -> str | None:
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
        if post_p != transfer(s, pre_p, cfg):
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


def _key_to_str(key) -> str:
    """A variable's name or an address's repr."""
    return key if isinstance(key, str) else repr(key)


def _key_from_str(text: str, addr):
    """Inverse of _key_to_str, reading addresses with addr; None when
    text is neither shape."""
    return addr(text) or (text if text.isidentifier() else None)


def _key_sort_key(key):
    """Variables by name, then addresses as triples."""
    if isinstance(key, str):
        return (0, key, 0, 0, 0)
    return (1, "", key.length, key.instance, key.index)


def pts_to_doc(p: PointsTo) -> dict:
    return {_key_to_str(key): [repr(a) for a in sorted(image)]
            for key, image in p.env.items()}


def live_to_list(live: frozenset) -> list:
    return [_key_to_str(k) for k in sorted(live, key=_key_sort_key)]


def _in_scope(keys, path: str, scope: tuple) -> None:
    """FormatError unless every variable among keys is one the program
    mentions and every address lies in a block of a length it allocates,
    at an instance no greater than the cap: the analyses enumerate the
    cells of a block, so a length read from the document would bound
    their work, and they keep no type above the cap, so they never fold
    one. The least offending key is named, so the message does not
    depend on set order; keys are sorted only once one offends."""
    variables, lengths, cap = scope
    bad = [k for k in keys
           if (k.length not in lengths or k.instance > cap
               if isinstance(k, Address) else k not in variables)]
    if not bad:
        return
    k = min(bad, key=_key_sort_key)
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


def serialize(d: Derivation, cfg: WidenConfig = WidenConfig()) -> str:
    """The certificate document of d, built at cfg's instance cap."""
    j = d.judgment
    doc = {
        "instance_cap": cfg.instance_cap,
        "program": pretty(j.stmt),
        "entry": pts_to_doc(j.pre.pts),
        "exit_live": live_to_list(j.post.live),
        "loops": [{"pts": pts_to_doc(t.pts), "live": live_to_list(t.live)}
                  for t in _loop_types(d)],
        "residual": pretty(j.residual),
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
    body = ",".join(inner + _json(v, inner) for v in value)
    return f"[{body}{newline}]" if body else "[]"


def _pts_from_doc(doc, path: str, scope: tuple, addr) -> PointsTo:
    if not isinstance(doc, dict) or not all(
            isinstance(v, list) and all(isinstance(a, str) for a in v)
            for v in doc.values()):
        raise FormatError(path, "expected an object of string lists")
    env = {}
    for text, items in doc.items():
        key = _key_from_str(text, addr)
        if key is None:
            raise FormatError(path, f"bad points-to key: {text!r}")
        image = frozenset(map(addr, items))
        if None in image:
            item = next(item for item in items if addr(item) is None)
            raise FormatError(path, f"bad address in image of {text!r}: {item!r}")
        env[key] = image
    _in_scope(env, path, scope)
    for image in env.values():
        _in_scope(image, path, scope)
    return PointsTo(env)


def _live_from_doc(doc, path: str, scope: tuple, addr) -> frozenset:
    if not isinstance(doc, list) or not all(isinstance(k, str) for k in doc):
        raise FormatError(path, "expected a list of strings")
    live = frozenset(_key_from_str(text, addr) for text in doc)
    if None in live:
        text = next(text for text in doc if _key_from_str(text, addr) is None)
        raise FormatError(path, f"bad live-set entry: {text!r}")
    _in_scope(live, path, scope)
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
    cfg = WidenConfig(cap)
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

    ann = annotate(program, entry, cfg, {id(w): t.pts for w, t in zip(stmts, loops)})
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
