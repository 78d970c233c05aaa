"""Deliberately unsound variants of the analyses, installed in-process.

Each mutant replaces one module attribute with a wrong version of it.
annotate and abs_eval look transfer, _shifts and _variants up in
pointsto at each call, and live_annotate looks leaf_live_pre up in
liveness, so a patch there reaches every pass the soundness suite runs.
A mutant lists the differential check that kills it and the first trial
seed, counting from 0, at which that check fails; the healthy analyses
pass at that seed.
"""

from __future__ import annotations

from typing import NamedTuple

from whilep import liveness, pointsto
from whilep.lang import Cons, Mutate, free_vars
from whilep.memory import Address
from whilep.pointsto import PointsTo, abs_eval, addr_part, cons_block

_transfer = pointsto.transfer
_leaf_live_pre = liveness.leaf_live_pre


class Mutant(NamedTuple):
    module: object
    name: str
    replacement: object
    check: str
    first_kill: int


def _weak_drop(s, p, cap):
    """A weak heap write stores only the new value: the written cells'
    old images are dropped."""
    if isinstance(s, Mutate):
        targets = addr_part(abs_eval(s.target, p))
        if len(targets) != 1 or next(iter(targets)).instance >= cap:
            stored = addr_part(abs_eval(s.value, p))
            return PointsTo(p.env | dict.fromkeys(targets, stored))
    return _transfer(s, p, cap)


def _cons_drop(s, p, cap):
    """A cons writes its arguments' images over its cells' old images,
    though a capped cell stands for earlier instances too."""
    q = _transfer(s, p, cap)
    if not isinstance(s, Cons):
        return q
    images = [addr_part(abs_eval(a, p)) for a in s.args]
    _, cells = cons_block(p, len(s.args), cap)
    return PointsTo(q.env | {a: images[a.index - 1] for a in cells})


def _shift_noop(addrs, k):
    """Address plus a known offset stays where it was."""
    return addrs


def _variants_first(addrs):
    """An unknown offset yields only the first cell of each block."""
    return frozenset(Address(a.length, a.instance, 1) for a in addrs)


def _lookup_no_cells(s, pre, post_p, post):
    """lok_d2 keeps the address's variables live but not the cells the
    lookup may read."""
    live, rule, residual = _leaf_live_pre(s, pre, post_p, post)
    if rule == "lok_d2":
        live = (post - {s.var}) | free_vars(s.addr)
    return live, rule, residual


MUTANTS = {
    "weak_drop": Mutant(pointsto, "transfer", _weak_drop, "t1", 248),
    "cons_drop": Mutant(pointsto, "transfer", _cons_drop, "t1", 31),
    "shift_noop": Mutant(pointsto, "_shifts", _shift_noop, "t1", 100),
    "variants_first": Mutant(pointsto, "_variants", _variants_first, "lemma1", 807),
    "lookup_no_cells": Mutant(liveness, "leaf_live_pre", _lookup_no_cells, "t4", 65),
}


def install(monkeypatch, name: str) -> Mutant:
    """Patch the named mutant in through monkeypatch; returns it."""
    mutant = MUTANTS[name]
    monkeypatch.setattr(mutant.module, mutant.name, mutant.replacement)
    return mutant
