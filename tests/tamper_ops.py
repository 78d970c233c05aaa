"""Single-field certificate mutations that a sound checker must reject.

Every operator below provably invalidates a valid derivation: it either
breaks a leaf equality the checker recomputes (transfer, live rule,
rewrite), a composite linkage equality (sequencing, branch joins, loop
head sets), an arity or rule/statement form constraint, or a side
condition. Mutations that can leave a derivation valid (for example
removing a member of a loop head's exit live set, which the loop rule
only bounds from below) are deliberately not used.
"""

from whilep import Derivation
from whilep.lang import Assign, IntLit, Skip
from whilep.liveness import LiveType
from whilep.memory import Address
from whilep.pointsto import PointsTo

JUNK_ADDR = Address(9, 1, 1)
JUNK_VAR = "zz"

_COMPLEMENT = {"ass_d1": "ass_d2", "ass_d2": "ass_d1",
               "con_d1": "con_d2", "con_d2": "con_d1",
               "lok_d1": "lok_d2", "lok_d2": "lok_d1",
               "mut_d1": "mut_d2", "mut_d2": "mut_d1"}

_MISFORM = {"skip": "dis_d", "ass_d1": "lok_d1", "ass_d2": "lok_d2",
            "con_d1": "skip", "con_d2": "mut_d2", "lok_d1": "ass_d1",
            "lok_d2": "ass_d2", "mut_d1": "dis_d", "mut_d2": "dis_d",
            "dis_d": "skip", "seq_d": "if_d", "if_d": "whl_d",
            "whl_d": "seq_d"}


def replace(node, **changes):
    """node with the named fields changed, the others kept."""
    return type(node)(**dict(zip(node._fields, node), **changes))


def walk(d: Derivation, addr=()):
    yield addr, d
    for i, premise in enumerate(d.premises):
        yield from walk(premise, addr + (i,))


def rebuild(d: Derivation, addr, fn):
    if not addr:
        return fn(d)
    premises = list(d.premises)
    premises[addr[0]] = rebuild(premises[addr[0]], addr[1:], fn)
    return replace(d, premises=tuple(premises))


def _with_judgment(node, **changes):
    return replace(node, judgment=replace(node.judgment, **changes))


def _junk_pts(p: PointsTo) -> PointsTo:
    env = dict(p.env)
    if env:
        key = next(iter(sorted(env, key=repr)))
        env[key] = env[key] | {JUNK_ADDR}
    else:
        env[JUNK_VAR] = frozenset({JUNK_ADDR})
    return PointsTo(env)


def _junk_type(t: LiveType, field: str) -> LiveType:
    if field == "pts":
        return LiveType(_junk_pts(t.pts), t.live)
    return LiveType(t.pts, t.live | {JUNK_VAR})


def complement_rule(node):
    twin = _COMPLEMENT.get(node.rule)
    return replace(node, rule=twin) if twin else None


def misform_rule(node):
    return replace(node, rule=_MISFORM[node.rule])


def wrong_residual(node):
    bogus = Skip()
    if node.judgment.residual == bogus:
        bogus = Assign(JUNK_VAR, IntLit(1))
    return _with_judgment(node, residual=bogus)


def junk_pre_pts(node):
    return _with_judgment(node, pre=_junk_type(node.judgment.pre, "pts"))


def junk_post_pts(node):
    return _with_judgment(node, post=_junk_type(node.judgment.post, "pts"))


def junk_pre_live(node):
    return _with_judgment(node, pre=_junk_type(node.judgment.pre, "live"))


def junk_post_live(node):
    return _with_judgment(node, post=_junk_type(node.judgment.post, "live"))


def drop_live_pre(node):
    if node.premises or not node.judgment.pre.live:
        return None
    smaller = node.judgment.pre.live - {min(node.judgment.pre.live, key=repr)}
    return _with_judgment(node, pre=LiveType(node.judgment.pre.pts, smaller))


def drop_premise(node):
    if not node.premises:
        return None
    return replace(node, premises=node.premises[:-1])


def swap_stmt(node):
    if node.premises:
        return None
    return _with_judgment(node, stmt=Assign(JUNK_VAR, IntLit(0)))


OPERATORS = (complement_rule, misform_rule, wrong_residual, junk_pre_pts,
             junk_post_pts, junk_pre_live, junk_post_live, drop_live_pre,
             drop_premise, swap_stmt)


def mutants(derivation: Derivation):
    """Yield (description, mutated derivation) pairs, one field edit each."""
    for addr, node in walk(derivation):
        for op in OPERATORS:
            mutated = op(node)
            if mutated is not None and mutated != node:
                label = f"{op.__name__}@{'.'.join(map(str, addr)) or 'root'}"
                yield label, rebuild(derivation, addr, lambda _n: mutated)
