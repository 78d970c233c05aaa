"""Random programs, random states, and differential soundness suites.

gen_program grows seed-reproducible programs that exercise every
statement form, with loops biased toward counter-bounded shapes and an
occasional conditional re-allocation pattern (two possible blocks behind
one variable) so that weak heap updates actually happen. gen_state
builds a state satisfying a given points-to type.

run_soundness_suite replays the analyses' guarantees against the
interpreter: preservation of the points-to model (t1), of the
live-restricted model (t2), similarity preservation on twin states (t3),
and original-versus-optimized similarity (t4), plus the abstract
evaluation guarantee on single expressions (lemma1). Twin states only
rerandomize storage the programs can never consult (dead variables no
expression reads; dead cells when the program is lookup-free): anything
looser would let a dead evaluation abort one run and not the other,
which no analysis in this package claims to prevent.
"""

from __future__ import annotations

import random

from .deadcode import optimize
from .interp import EvalError, Final, OutOfFuel, eval_aexp, execute
from .lang import (
    AExp, And, Assign, BExp, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit,
    Lookup, Mutate, Nil, Not, Or, Record, Skip, Stmt, Var, While, free_vars,
    seq_of, stmt_vars, walk,
)
from .memory import NIL, Address, ProgState
from .liveness import live_annotate, models_live, similar_states
from .pointsto import (
    DEFAULT_CAP, PointsTo, abs_eval, annotate, bottom, cap_address, models,
)


class GenConfig(Record):
    __slots__ = ()
    seed: int = 0
    max_stmts: int = 12


# the shape of generated programs and values
_NAMES = ("v1", "v2", "v3", "v4")  # every variable a generated program may use
_INT_RANGE = (-3, 9)
_CONS_MAX_ARITY = 3
_LOOP_BOUND_BIAS = 0.85  # share of generated loops that are counter-bounded


def gen_aexp(rng: random.Random, names, depth: int = 2) -> AExp:
    if depth <= 0 or rng.random() < 0.55:
        roll = rng.random()
        if roll < 0.45:
            return IntLit(rng.randint(*_INT_RANGE))
        if roll < 0.92:
            return Var(rng.choice(names))
        return Nil()
    op = rng.choice(("+", "+", "-", "*"))
    return BinOp(op, gen_aexp(rng, names, depth - 1),
                 gen_aexp(rng, names, depth - 1))


def gen_bexp(rng: random.Random) -> BExp:
    roll = rng.random()
    if roll < 0.05:
        return BoolLit(rng.random() < 0.5)
    lhs = Var(rng.choice(_NAMES)) if rng.random() < 0.7 else gen_aexp(rng, _NAMES, 1)
    cmp = Cmp(rng.choice(("=", "<", "<=")), lhs, gen_aexp(rng, _NAMES, 1))
    if roll < 0.75:
        return cmp
    if roll < 0.85:
        return Not(cmp)
    other = Cmp(rng.choice(("=", "<", "<=")), Var(rng.choice(_NAMES)),
                gen_aexp(rng, _NAMES, 1))
    return And(cmp, other) if roll < 0.95 else Or(cmp, other)


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.ptrs: set[str] = set()  # variables likely holding addresses

    def block(self, budget: int, protected: frozenset) -> list[Stmt]:
        items: list[Stmt] = []
        while budget > 0:
            made, cost = self.stmt(budget, protected)
            items.extend(made)
            budget -= cost
        return items

    def ptr_expr(self) -> AExp:
        rng = self.rng
        if self.ptrs and rng.random() < 0.9:
            base = Var(rng.choice(sorted(self.ptrs)))
            roll = rng.random()
            if roll < 0.72:
                return base
            if roll < 0.88:
                return BinOp("+", base, IntLit(1))
            if roll < 0.94:
                return BinOp("+", base, IntLit(2))
            return BinOp("-", base, IntLit(1))
        return gen_aexp(rng, _NAMES, 1)

    def cons_arg(self) -> AExp:
        roll = self.rng.random()
        if roll < 0.5:
            return IntLit(self.rng.randint(*_INT_RANGE))
        if roll < 0.85:
            return Var(self.rng.choice(_NAMES))
        return self.calc_expr(1)

    def calc_expr(self, depth: int = 2) -> AExp:
        """Arithmetic biased toward integer-valued data, so that generated
        assignments usually evaluate rather than abort."""
        rng = self.rng
        if depth <= 0 or rng.random() < 0.5:
            plain = [x for x in _NAMES if x not in self.ptrs]
            if plain and rng.random() < 0.5:
                return Var(rng.choice(plain))
            return IntLit(rng.randint(*_INT_RANGE))
        op = rng.choice(("+", "+", "-", "*"))
        return BinOp(op, self.calc_expr(depth - 1), self.calc_expr(depth - 1))

    def stmt(self, budget: int, protected: frozenset):
        """One generation step: ([statements], units consumed)."""
        rng = self.rng
        roll = rng.random()
        writable = [x for x in _NAMES if x not in protected]
        if budget >= 3 and roll < 0.08:
            then_budget = rng.randint(1, budget - 2)
            else_budget = rng.randint(1, budget - 1 - then_budget)
            cond = gen_bexp(rng)
            before = set(self.ptrs)
            then_body = seq_of(self.block(then_budget, protected))
            after_then = self.ptrs
            self.ptrs = before
            else_body = seq_of(self.block(else_budget, protected))
            self.ptrs = after_then & self.ptrs  # pointer on both paths only
            return [If(cond, then_body, else_body)], 1 + then_budget + else_budget
        if budget >= 5 and roll < 0.18 and writable:
            if rng.random() < _LOOP_BOUND_BIAS:
                counter = rng.choice(writable)
                self.ptrs.discard(counter)
                bound = rng.randint(1, 4)
                body_budget = rng.randint(1, budget - 4)
                before = set(self.ptrs)
                body = self.block(body_budget, protected | {counter})
                self.ptrs &= before  # body may not run at all
                body.append(Assign(counter, BinOp("+", Var(counter), IntLit(1))))
                loop = While(Cmp("<", Var(counter), IntLit(bound)), seq_of(body))
                return [Assign(counter, IntLit(0)), loop], 3 + body_budget
            body_budget = rng.randint(1, budget - 1)
            cond = gen_bexp(rng)
            before = set(self.ptrs)
            loop = While(cond, seq_of(self.block(body_budget, protected)))
            self.ptrs &= before
            return [loop], 1 + body_budget
        if budget >= 4 and roll < 0.24 and writable:
            # conditional re-allocation: x may point at either block, so a
            # later write through x is a weak update
            x = rng.choice(writable)
            arity = rng.randint(1, _CONS_MAX_ARITY)
            first = Cons(x, tuple(self.cons_arg() for _ in range(arity)))
            again = Cons(x, tuple(self.cons_arg() for _ in range(arity)))
            branch = If(gen_bexp(rng), again, Skip())
            write = Mutate(self.ptr_expr() if rng.random() < 0.3 else Var(x),
                           self.cons_arg())
            self.ptrs.add(x)
            return [first, branch, write], 4
        return [self.leaf(writable)], 1

    def leaf(self, writable) -> Stmt:
        rng = self.rng
        roll = rng.random()
        target = rng.choice(writable) if writable else None
        if roll < 0.26 and target:
            if self.ptrs and rng.random() < 0.2:
                expr = Var(rng.choice(sorted(self.ptrs)))  # pointer copy
            else:
                expr = self.calc_expr(2)
            if free_vars(expr) & self.ptrs:
                self.ptrs.add(target)
            else:
                self.ptrs.discard(target)
            return Assign(target, expr)
        if roll < 0.48 and target:
            arity = rng.randint(1, _CONS_MAX_ARITY)
            self.ptrs.add(target)
            return Cons(target, tuple(self.cons_arg() for _ in range(arity)))
        if roll < 0.64 and target and self.ptrs:
            self.ptrs.discard(target)  # cell contents may be anything
            return Lookup(target, self.ptr_expr())
        if roll < 0.84 and self.ptrs:
            value = Var(rng.choice(_NAMES)) if rng.random() < 0.4 \
                else self.calc_expr(1)
            return Mutate(self.ptr_expr(), value)
        if roll < 0.88 and self.ptrs:
            return Dispose(self.ptr_expr())
        if roll < 0.94:
            return Skip()
        if target:
            return Assign(target, gen_aexp(rng, _NAMES, 1))
        return Skip()


def gen_program(config: GenConfig) -> Stmt:
    """Seed-reproducible random program; equal configs give equal trees."""
    gen = _Gen(random.Random(f"prog:{config.seed}"))
    return seq_of(gen.block(max(1, config.max_stmts), frozenset()))


# --- states ---

def _synthetic_ptype(rng: random.Random, variables, cap: int) -> PointsTo:
    """A small nontrivial points-to type over the given variables."""
    env: dict = {x: frozenset() for x in variables}
    blocks = {(rng.randint(1, 3), rng.randint(1, cap))
              for _ in range(rng.randint(1, 3))}
    cells = [Address(n, u, j) for (n, u) in sorted(blocks) for j in range(1, n + 1)]
    for cell in cells:
        env[cell] = frozenset()
    for x in variables:
        if rng.random() < 0.5:
            env[x] = frozenset(rng.sample(cells, rng.randint(1, min(2, len(cells)))))
    for cell in cells:
        if rng.random() < 0.3:
            env[cell] = frozenset((rng.choice(cells),))
    return PointsTo(env)


def _random_value(rng: random.Random, image: frozenset):
    roll = rng.random()
    if image and roll < 0.45:
        return rng.choice(sorted(image))
    if roll < 0.85:
        return rng.randint(*_INT_RANGE)
    return NIL


def _gen_state(rng: random.Random, p: PointsTo) -> ProgState:
    # draw in sorted order so a seed reproduces across processes
    stack = {x: _random_value(rng, p.image(x))
             for x in sorted(p.variables())}
    heap = {}
    for a in sorted(p.tracked()):
        if rng.random() < 0.9:
            heap[a] = _random_value(rng, p.image(a))
    return ProgState(stack, heap)


def gen_state(config: GenConfig, p: PointsTo) -> ProgState:
    """A state satisfying the points-to model relation for p."""
    return _gen_state(random.Random(f"state:{config.seed}"), p)


def _junk_value(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return rng.randint(*_INT_RANGE)
    if roll < 0.7:
        return NIL
    length = rng.randint(1, 3)
    return Address(length, rng.randint(1, 4), rng.randint(1, length))


def make_similar_state(rng: random.Random, st: ProgState,
                       program: Stmt, entry_live: frozenset,
                       cap: int) -> ProgState:
    """A twin similar to st at (entry type, entry_live), rerandomized only
    where the program provably never looks: dead variables outside its
    read set, and dead cells when it contains no lookup."""
    return _similar_state(rng, st, free_vars(program), _has_lookup(program),
                          entry_live, cap)


def _has_lookup(program: Stmt) -> bool:
    return any(isinstance(node, Lookup) for node in walk(program))


def _similar_state(rng: random.Random, st: ProgState, reads: frozenset,
                   has_lookup: bool, entry_live: frozenset,
                   cap: int) -> ProgState:
    """make_similar_state for a program with the given read set and with
    or without a lookup."""
    twin = st.copy()
    for x in twin.stack:
        if x not in entry_live and x not in reads:
            twin.stack[x] = _junk_value(rng)
    if not has_lookup:
        for a in twin.heap:
            if cap_address(a, cap) not in entry_live:
                twin.heap[a] = _junk_value(rng)
    return twin


# --- differential suites ---

ALL_CHECKS = ("t1", "t2", "t3", "t4", "lemma1")
SUITE_FUEL = 1500


def _lemma1_trial(rng: random.Random, cap: int) -> bool:
    p = _synthetic_ptype(rng, _NAMES, cap)
    st = _gen_state(rng, p)
    e = gen_aexp(rng, _NAMES, rng.randint(1, 3))
    abstract = abs_eval(e, p)
    try:
        value = eval_aexp(e, st.stack)
    except EvalError:
        return True  # both shapes permit failure
    if isinstance(abstract, int):
        return isinstance(value, int) and value == abstract
    if isinstance(value, Address):
        return cap_address(value, cap) in abstract
    return True


def run_soundness_suite(n_trials: int, gen_cfg: GenConfig = GenConfig(),
                        checks=ALL_CHECKS, cap: int = DEFAULT_CAP,
                        fuel: int = SUITE_FUEL) -> dict:
    """Run the requested differential checks over n_trials fresh seeds.

    Aborting or fuel-starved reference runs are counted as skipped, never
    as passes. The report carries reproduction seeds for every failure.
    A trial draws its entry type, state and exit live set from the stream
    suite:{seed}, and lemma1, t3 and t4 draw their own inputs from
    suite:{seed}:{check}, so a check's counts and failing seeds do not
    depend on which other checks run. An empty selection or a name
    outside ALL_CHECKS is a ValueError, raised before any trial.
    """
    checks = tuple(checks)
    if not checks:
        raise ValueError("no check selected")
    for name in checks:
        if name not in ALL_CHECKS:
            raise ValueError(f"unknown check: {name}")
    report: dict = {"trials": n_trials, "fuel": fuel, "checks": {}}
    for name in checks:
        entry = {"pass": 0, "skip": 0, "fail": 0, "failing_seeds": []}
        if name == "t4":
            entry["corrected"] = 0
        report["checks"][name] = entry

    def record(name: str, ok: bool, seed: int):
        entry = report["checks"][name]
        if ok:
            entry["pass"] += 1
        else:
            entry["fail"] += 1
            if len(entry["failing_seeds"]) < 20:
                entry["failing_seeds"].append(seed)

    for trial in range(n_trials):
        seed = gen_cfg.seed + trial
        if "lemma1" in checks:
            rng = random.Random(f"suite:{seed}:lemma1")
            record("lemma1", _lemma1_trial(rng, cap), seed)

        if all(c == "lemma1" for c in checks):
            continue
        rng = random.Random(f"suite:{seed}")
        program = gen_program(GenConfig(seed, gen_cfg.max_stmts))
        variables = sorted(stmt_vars(program))
        # what the twins of t3 and t4 may rerandomize
        reads, has_lookup = free_vars(program), _has_lookup(program)
        base = bottom(variables)
        entry_p = _synthetic_ptype(rng, variables, cap) if rng.random() < 0.35 else base
        ann = annotate(program, entry_p, cap)
        st = _gen_state(rng, entry_p)
        outcome = execute(program, st, fuel)

        if "t1" in checks:
            if isinstance(outcome, Final):
                record("t1", models(outcome.state, ann.post, cap), seed)
            else:
                report["checks"]["t1"]["skip"] += 1

        final_live = frozenset(x for x in variables if rng.random() < 0.5)
        live = None
        if "t2" in checks or "t3" in checks or ("t4" in checks and entry_p is base):
            live = live_annotate(ann, final_live)

        if "t2" in checks:
            if isinstance(outcome, Final):
                ok = models_live(st, entry_p, live.judgment.pre.live, cap) and \
                    models_live(outcome.state, ann.post, final_live, cap)
                record("t2", ok, seed)
            else:
                report["checks"]["t2"]["skip"] += 1

        if "t3" in checks:
            if isinstance(outcome, Final):
                twin = _similar_state(random.Random(f"suite:{seed}:t3"), st, reads,
                                      has_lookup, live.judgment.pre.live, cap)
                ok = similar_states(st, twin, entry_p, live.judgment.pre.live, cap)
                twin_outcome = execute(program, twin, fuel)
                ok = ok and isinstance(twin_outcome, Final) and similar_states(
                    outcome.state, twin_outcome.state, ann.post, final_live, cap)
                record("t3", ok, seed)
            else:
                report["checks"]["t3"]["skip"] += 1

        if "t4" in checks:
            # from the bottom type the trial's derivation is optimize's
            if entry_p is base:
                rng4, j, st4, orig4 = None, live.judgment, st, outcome
            else:
                rng4 = random.Random(f"suite:{seed}:t4")
                j = optimize(program, final_live, cap).derivation.judgment
                st4 = _gen_state(rng4, base)
                orig4 = execute(program, st4, fuel)
            if isinstance(orig4, OutOfFuel):  # no twin or residual run is read
                report["checks"]["t4"]["skip"] += 1
                continue
            twin = _similar_state(rng4 or random.Random(f"suite:{seed}:t4"), st4,
                                  reads, has_lookup, j.pre.live, cap)
            opt_outcome = execute(j.residual, twin, fuel)
            if isinstance(orig4, Final):
                ok = similar_states(st4, twin, base, j.pre.live, cap) \
                    and isinstance(opt_outcome, Final) \
                    and similar_states(orig4.state, opt_outcome.state,
                                       j.post.pts, j.post.live, cap)
                record("t4", ok, seed)
            else:
                # nothing to compare, but an optimized run that now finishes
                # is the abort-removal effect worth counting
                report["checks"]["t4"]["skip"] += 1
                if isinstance(opt_outcome, Final):
                    report["checks"]["t4"]["corrected"] += 1

    return report
