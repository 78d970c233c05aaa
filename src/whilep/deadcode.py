"""Dead-code elimination driven by the two analyses.

optimize() annotates a program with points-to types from the bottom type,
then runs liveness backwards from the caller's final live set; that one
pass (liveness.live_annotate) also rewrites every node: assignments and
lookups into dead variables, and heap writes whose every possible
target is dead, become skip; a cons keeps its allocation, so the
residual allocates every block the original does, but the arguments of
its dead cells are zeroed. dispose is never removed and guards are never
rewritten. The derivation it returns, built only from the optimizer's
rules, carries the residual and every node's points-to and live
judgments; both `whilep analyze` reports are read from it, and the
certificate checker accepts it. Its residual is the only one the
package emits, so a certificate covers every residual.
"""

from __future__ import annotations

from .lang import Record, Stmt, stmt_vars
from .liveness import Derivation, live_annotate
from .pointsto import DEFAULT_CAP, annotate, bottom


class OptResult(Record):
    __slots__ = ()
    derivation: Derivation

    @property
    def optimized(self) -> Stmt:
        return self.derivation.judgment.residual


def optimize(s: Stmt, final_live, cap: int = DEFAULT_CAP) -> OptResult:
    """Analyze from the bottom type, then eliminate dead code.

    final_live lists what the caller observes after the program ends;
    ValueError("unknown variable: NAME"), naming the least one, if it
    mentions a variable the program does not.
    """
    variables = stmt_vars(s)
    final_live = frozenset(final_live)
    stray = {x for x in final_live if isinstance(x, str)} - variables
    if stray:
        raise ValueError(f"unknown variable: {min(stray)}")
    ann = annotate(s, bottom(variables), cap)
    return OptResult(live_annotate(ann, final_live))
