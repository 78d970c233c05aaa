"""The benchmark's four workloads: seeded inputs, one op each, output checks.

Every workload drives ``whilep`` only through the public functions the
command-line tool calls, in the same order:

* optimize path (``whilep optimize --cert``): parse, optimize, pretty,
  serialize;
* verdict path (``whilep check-cert``): parse, deserialize, root-statement
  equality, check;
* ``whilep run``: execute;
* ``whilep test-soundness``: run_soundness_suite.

A workload is a list of *rounds*; a round is a fixed list of ops, and the
timed phase always runs whole rounds, so every run sees the same mix of
op kinds whatever its length.  An op returns an ``OpResult`` or raises
``CheckFailed`` when an output is wrong.  Inputs depend on the seed only.

No timed op may fail.  Inputs that hit a documented defect of whilep are
kept out of the rounds and shown instead: a generated input is screened
when the run first reaches it, untimed (screening a whole run's inputs
while setting up would take seconds, more on some seeds than others),
and one that hits a defect below is replaced by the next input of its
kind and listed in ``Workload.excluded``;
fixed inputs known to fail are ``Workload.probes``, run once after the
timed phase.  The run reports both, so a defect stays visible until it is
fixed.  Any other wrong outcome of a screened input keeps it in the
rounds, where it fails the run.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import signal
import time
from dataclasses import dataclass, field

ALL_CHECKS = ("t1", "t2", "t3", "t4", "lemma1")

# the fuel `whilep test-soundness` and the corpus runs use
SUITE_FUEL = 1500

# per-op time limit in seconds: several times the slowest op seen at the
# baseline, so that only a hang reaches it
OP_LIMIT_S = {"corpus": 15.0, "long_program": 15.0, "alloc_run": 15.0,
              "soundness": 5.0}

# time limit of one screened run of a generated input; the slowest
# generated input that finishes takes under 0.7 s
SCREEN_LIMIT_S = 2.0

# the documented defects screening and probes look for
RUNAWAY = ("never finishes: a loop multiplies a growing integer by itself and"
           " the interpreter bounds steps but not integer size")
DEAD_ARG_ABORT = ("residual aborts where the original finishes: a kept cons"
                  " still evaluates the arguments of its dead cells (ROADMAP item 4)")
# outcomes of a probe that show its defect is still there
PROBE_DEFECTS = frozenset({"RecursionError", "timeout", "MemoryError"})


class OpTimeout(BaseException):
    """Raised by SIGALRM when a call runs past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the body once `seconds` have passed."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class CheckFailed(Exception):
    """An op produced a wrong output."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class OpResult:
    optimize_s: float | None = None
    verdict_s: float | None = None
    cert_bytes: int | None = None
    kept: int = 0
    leaves: int = 0
    checks: set = field(default_factory=set)


@dataclass
class Op:
    label: str
    run: object  # callable(W) -> OpResult
    # callable(W) -> the documented defect the op would hit, or None
    defect: object = None
    seed: int | None = None  # the generator seed of the op's input


@dataclass
class Workload:
    W: object
    rounds: list                                  # lists of Op
    # per position in a round (the last serves the positions after it), an
    # iterator of the ops that replace one that hits a documented defect
    spares: list = field(default_factory=list)
    excluded: list = field(default_factory=list)  # (label, defect) pairs
    probes: list = field(default_factory=list)    # Op known to fail
    screened: int = 0                             # rounds screened so far

    def prepare(self, n: int) -> None:
        """Screen the first n rounds (the rounds repeat after the last)."""
        while self.screened < min(n, len(self.rounds)):
            ops = self.rounds[self.screened]
            for k, op in enumerate(ops):
                while op.defect is not None and (defect := op.defect(self.W)):
                    self.excluded.append((f"{op.label} seed {op.seed}", defect))
                    op = next(self.spares[min(k, len(self.spares) - 1)])
                ops[k] = op
            self.screened += 1

    def round(self, i: int) -> list:
        """The ops of round i, screened."""
        self.prepare(i + 1)
        return self.rounds[i % len(self.rounds)]


# --- shared paths ---

def _leaves(W, stmt):
    """Leaf statements in source order; iterative, so depth is no limit."""
    out, todo = [], [stmt]
    while todo:
        s = todo.pop()
        if isinstance(s, W.Seq):
            todo += [s.rest, s.first]
        elif isinstance(s, W.If):
            todo += [s.else_body, s.then_body]
        elif isinstance(s, W.While):
            todo.append(s.body)
        else:
            out.append(s)
    return out


def certified_paths(W, text: str, live: frozenset) -> tuple:
    """Run the optimize path and the verdict path on one program text and
    check the certificate.  Returns (OpResult, program, optimize result)."""
    t0 = time.perf_counter()
    program = W.parse(text)
    result = W.optimize(program, live)
    W.pretty(result.optimized)
    cert = W.serialize(result.derivation)
    t1 = time.perf_counter()
    checked = W.parse(text)
    derivation = W.deserialize(cert)
    if derivation.judgment.stmt != checked:
        raise CheckFailed("certificate root differs from the program")
    verdict = W.check(derivation)
    t2 = time.perf_counter()
    if not verdict.ok:
        raise CheckFailed(f"certificate rejected at {verdict.path}: {verdict.reason}")
    if derivation != result.derivation:
        raise CheckFailed("certificate does not round-trip")
    # the rewrite keeps the tree shape, so leaves pair up in order
    pairs = [(s, r) for s, r in zip(_leaves(W, program), _leaves(W, result.optimized))
             if not isinstance(s, W.Skip)]
    res = OpResult(optimize_s=t1 - t0, verdict_s=t2 - t1, cert_bytes=len(cert),
                   kept=sum(1 for s, r in pairs if s == r), leaves=len(pairs),
                   checks={"cert_accepted", "cert_round_trip", "cert_root"})
    return res, program, result


# --- screening for documented defects ---

def _has_var(W, e) -> bool:
    if isinstance(e, W.Var):
        return True
    return isinstance(e, W.BinOp) and (_has_var(W, e.lhs) or _has_var(W, e.rhs))


def _nonlinear(W, e) -> bool:
    """Whether e multiplies two terms that both read a variable."""
    if not isinstance(e, W.BinOp):
        return False
    return (e.op == "*" and _has_var(W, e.lhs) and _has_var(W, e.rhs)) \
        or _nonlinear(W, e.lhs) or _nonlinear(W, e.rhs)


def may_run_away(W, stmt) -> bool:
    """Whether a loop body computes a product of two variable terms, the
    only way a value can grow faster than exponentially in the steps run;
    without one, a run at suite fuel keeps its integers small."""
    todo = [(stmt, False)]
    while todo:
        s, in_loop = todo.pop()
        if isinstance(s, W.Seq):
            todo += [(s.first, in_loop), (s.rest, in_loop)]
        elif isinstance(s, W.If):
            todo += [(s.then_body, in_loop), (s.else_body, in_loop)]
        elif isinstance(s, W.While):
            todo.append((s.body, True))
        elif in_loop and any(_nonlinear(W, e) for e in _exprs(W, s)):
            return True
    return False


def _exprs(W, leaf) -> list:
    if isinstance(leaf, W.Assign):
        return [leaf.expr]
    if isinstance(leaf, W.Cons):
        return list(leaf.args)
    if isinstance(leaf, W.Mutate):
        return [leaf.target, leaf.value]
    return []


def runs_away(W, program, run) -> bool:
    """Whether run() on a program that may run away does not finish within
    SCREEN_LIMIT_S or the memory cap."""
    if not may_run_away(W, program):
        return False
    try:
        with time_limit(SCREEN_LIMIT_S):
            run()
    except (OpTimeout, MemoryError):
        return True
    except Exception:  # any other failure is not this defect
        pass
    return False


def _zero_dead_cons_args(W, derivation):
    """The derivation's residual with the arguments of every kept cons that
    fill dead cells replaced by 0, the way ROADMAP item 4 would emit it."""
    j = derivation.judgment
    sub = [_zero_dead_cons_args(W, d) for d in derivation.premises]
    if derivation.rule == "seq_d":
        return W.Seq(*sub)
    if derivation.rule == "if_d":
        return W.If(j.stmt.cond, *sub)
    if derivation.rule == "whl_d":
        return W.While(j.stmt.cond, *sub)
    if derivation.rule == "csq_d":
        return sub[0]
    if derivation.rule == "con_d2":
        _, cells = W.pointsto.cons_block(j.pre.pts, len(j.stmt.args),
                                         W.WidenConfig().instance_cap)
        live = {a.index for a in cells if a in j.post.live}
        return W.Cons(j.stmt.var, tuple(arg if i + 1 in live else W.IntLit(0)
                                        for i, arg in enumerate(j.stmt.args)))
    return j.residual


# --- corpus: seeded gen_program batch ---

# one round: two programs of about 12 statements and one of about 40, so
# the median op lies inside the small programs' latencies and the tail
# inside the large ones', never on the boundary between the two
CORPUS_ROUND = (12, 12, 40)


def corpus(W, seed: int, tiny: bool) -> Workload:
    """Seeded gen_program programs of about 12 and 40 statements, each run
    through both paths, then the original and the residual executed from
    one gen_state; live variables must agree when the original finishes.
    Program n of round slot j has GenConfig seed seed * 1_000_003 + 3n + j;
    one that hits a documented defect is replaced by the slot's next."""
    n_rounds = 4 if tiny else 200
    slots = [_programs(W, seed, j, size) for j, size in enumerate(CORPUS_ROUND)]
    rounds = [[next(slot) for slot in slots] for _ in range(n_rounds)]
    return Workload(W, rounds, spares=slots)


def _programs(W, seed, j, size):
    n = 0
    while True:
        cfg = W.GenConfig(seed=seed * 1_000_003 + n * len(CORPUS_ROUND) + j,
                          max_stmts=size)
        n += 1
        program = W.gen_program(cfg)
        variables = sorted(W.stmt_vars(program))
        rng = random.Random(f"live:{cfg.seed}")
        live = frozenset(x for x in variables if rng.random() < 0.5)
        state = W.gen_state(cfg, W.bottom(variables))
        yield Op(f"gen{size}", _corpus_op(W.pretty(program), live, state),
                 lambda W, p=program, l=live, s=state: _corpus_defect(W, p, l, s),
                 cfg.seed)


def _corpus_defect(W, program, live, state):
    """The documented defect the op on this program would hit, or None."""
    if runs_away(W, program, lambda: W.execute(program, state, SUITE_FUEL)):
        return RUNAWAY
    original = W.execute(program, state, SUITE_FUEL)
    if not isinstance(original, W.Final):
        return None
    result = W.optimize(program, live)
    if not isinstance(W.execute(result.optimized, state, SUITE_FUEL), W.Aborted):
        return None
    patched = _zero_dead_cons_args(W, result.derivation)
    retry = W.execute(patched, state, SUITE_FUEL)
    if patched != result.optimized and isinstance(retry, W.Final) \
            and all(original.state.stack[x] == retry.state.stack[x] for x in live):
        return DEAD_ARG_ABORT
    return None


def _corpus_op(text, live, state):
    def run(W):
        res, program, result = certified_paths(W, text, live)
        original = W.execute(program, state, SUITE_FUEL)
        if isinstance(original, W.Final):
            residual = W.execute(result.optimized, state, SUITE_FUEL)
            if not isinstance(residual, W.Final):
                raise CheckFailed(f"residual ends {type(residual).__name__}"
                                  " where the original finishes")
            differ = [x for x in sorted(live)
                      if original.state.stack[x] != residual.state.stack[x]]
            if differ:
                raise CheckFailed(f"live variable {differ[0]} differs after the residual")
            res.checks.add("residual_agrees")
        return res
    return run


# --- long_program: large straight-line and nested programs ---

CHAIN_VARS = ("p0", "p1", "p2", "p3")


def chain_text(n: int, rng: random.Random) -> str:
    """n statements alternating an allocation that links the previous block
    with a lookup of that link, over four variables."""
    out = []
    for i in range(n):
        x, prev = CHAIN_VARS[i % 4], CHAIN_VARS[(i - 1) % 4]
        if i % 2 == 0:
            link = prev if i else "0"
            out.append(f"{x} := cons({rng.randint(0, 9)}, {link})")
        else:
            out.append(f"{x} := [{prev} + 1]")
    return "; ".join(out)


def nested_text(depth: int, rng: random.Random) -> str:
    """depth nested counter loops around an allocation, a write through it
    and a lookup."""
    names = [f"c{i}" for i in range(depth)]
    body = (f"x := cons({names[-1]}, {rng.randint(0, 9)}); [x + 1] := {names[0]}; "
            f"y := [x]")
    for name in reversed(names):
        body = (f"{name} := 0; while {name} < 2 do {{ {body}; "
                f"{name} := {name} + 1 }}")
    return body


def long_program(W, seed: int, tiny: bool) -> Workload:
    """Chains of 50 to 200 statements and a five-deep nested allocating
    loop through both paths.  The 600- and 2,000-statement chains exceed
    the recursion limit at the baseline (ROADMAP item 2); they are probes."""
    rng = random.Random(f"long:{seed}")
    scale = 10 if tiny else 1
    chain_live = frozenset({CHAIN_VARS[0]})
    programs = [(f"chain{n}", chain_text(n // scale, rng), chain_live)
                for n in (50, 100, 150, 200)]
    programs.append(("nested5", nested_text(5, rng), frozenset({"y"})))
    probes = [Op(f"chain{n}", _long_op(chain_text(n, rng), chain_live))
              for n in (600, 2000)]
    return Workload(W, [[Op(label, _long_op(text, live)) for label, text, live in programs]],
                    probes=probes)


def _long_op(text, live):
    def run(W):
        return certified_paths(W, text, live)[0]
    return run


# --- alloc_run: interpreter only, hand-written expected outcomes ---

LIVE_BLOCKS = 3000
CHURN_BLOCKS, CHURN_ROUNDS, CHURN_FIRST, CHURN_SECOND = 1000, 600, 300, 700
FUEL_OUT_FUEL = 7000


def _addr(length, instance, index):
    return f"addr({length},{instance},{index})"


def alloc_run(W, seed: int, tiny: bool) -> Workload:
    """Three programs executed by the interpreter, each compared with its
    expected final state written out below."""
    rng = random.Random(f"alloc:{seed}")
    scale = 10 if tiny else 1
    c1, c2, c3 = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)

    n = LIVE_BLOCKS // scale
    live_src = (f"i := 0; p := 0; while i < {n} do "
                f"{{ p := cons(i + {c1}, p); i := i + 1 }}")
    live_stack = {"i": str(n), "p": _addr(2, n, 1)}
    live_heap = {}
    for u in range(1, n + 1):  # block u holds (u - 1 + c1, link to u - 1)
        live_heap[_addr(2, u, 1)] = str(u - 1 + c1)
        live_heap[_addr(2, u, 2)] = _addr(2, u - 1, 1) if u > 1 else "0"

    k, m = CHURN_BLOCKS // scale, CHURN_ROUNDS // scale
    a, b = CHURN_FIRST // scale, CHURN_SECOND // scale
    churn_src = (
        f"i := 0; while i < {k} do {{ x := cons(i, i + 1); "
        f"if i = {a} then {{ m := x }} else {{ skip }}; "
        f"if i = {b} then {{ m2 := x }} else {{ skip }}; i := i + 1 }}; "
        f"j := 0; while j < {m} do {{ dispose(m); dispose(m + 1); "
        f"dispose(m2); dispose(m2 + 1); m2 := cons(j, {c2}); "
        f"m := cons({c2}, j); j := j + 1 }}")
    # both blocks are freed each round and m2 is allocated first, so it
    # takes the least free instance a + 1 and m takes b + 1
    churn_stack = {"i": str(k), "j": str(m), "x": _addr(2, k, 1),
                   "m": _addr(2, b + 1, 1), "m2": _addr(2, a + 1, 1)}
    churn_heap = {}
    for u in range(1, k + 1):
        churn_heap[_addr(2, u, 1)] = str(u - 1)
        churn_heap[_addr(2, u, 2)] = str(u)
    churn_heap[_addr(2, a + 1, 1)] = str(m - 1)
    churn_heap[_addr(2, a + 1, 2)] = str(c2)
    churn_heap[_addr(2, b + 1, 1)] = str(c2)
    churn_heap[_addr(2, b + 1, 2)] = str(m - 1)

    # the shape of gen_program seed 57: the guard compares an address with
    # an integer, which is always true, so the loop allocates forever
    fuel_src = (f"v1 := cons({c3} - v3); while 35 < v1 do {{ v2 := [v1]; "
                f"v2 := 6; v1 := cons(v4, 5); [v1] := v2 }}; [-3] := 7; skip")

    ops = []
    for label, src, fuel, expected in (
            ("live_blocks", live_src, W.DEFAULT_FUEL, (live_stack, live_heap)),
            ("churn", churn_src, W.DEFAULT_FUEL, (churn_stack, churn_heap)),
            ("fuel_out", fuel_src, FUEL_OUT_FUEL // scale, None)):
        program = W.parse(src)
        state = W.zero_state(W.stmt_vars(program))
        ops.append(Op(label, _alloc_op(program, state, fuel, expected)))
    return Workload(W, [ops])


def _alloc_op(program, state, fuel, expected):
    def run(W):
        outcome = W.execute(program, state, fuel)
        if expected is None:
            if not isinstance(outcome, W.OutOfFuel):
                raise CheckFailed(f"expected out of fuel, got {type(outcome).__name__}")
        else:
            if not isinstance(outcome, W.Final):
                raise CheckFailed(f"expected a final state, got {type(outcome).__name__}")
            stack = {x: W.format_value(v) for x, v in outcome.state.stack.items()}
            heap = {repr(a): W.format_value(v) for a, v in outcome.state.heap.items()}
            if (stack, heap) != expected:
                raise CheckFailed("final state differs from the expected one")
        return OpResult(checks={"alloc_expected"})
    return run


# --- soundness: the differential suite, one trial per op ---

# one round: the trials `whilep test-soundness --trials 3000` runs (trial
# seeds 0 to 2,999), the same for every seed, which only orders them.  A
# run's throughput is dominated by rare slow trials (allocating loops run
# to the fuel limit: a fifth of the time in one trial of 700), so a range
# that changed with the seed would change throughput by a fifth; the run
# measures whole rounds, so every run times this same set.
SOUNDNESS_TRIALS = 3000


def soundness(W, seed: int, tiny: bool) -> Workload:
    """run_soundness_suite with all five checks, one trial seed per op, over
    a fixed range of trial seeds in an order drawn from the seed.  A trial
    whose program runs away is replaced by the next seed after the range."""
    n = 8 if tiny else SOUNDNESS_TRIALS
    order = list(range(n))
    random.Random(f"soundness:{seed}").shuffle(order)
    spares = (_trial(k) for k in itertools.count(n))
    return Workload(W, [[_trial(k) for k in order]], spares=[spares])


def _trial(trial_seed):
    op = Op("trial", _soundness_op(trial_seed), seed=trial_seed)
    op.defect = lambda W: RUNAWAY if runs_away(
        W, W.gen_program(W.GenConfig(seed=trial_seed)), lambda: op.run(W)) else None
    return op


def _soundness_op(trial_seed):
    def run(W):
        report = W.run_soundness_suite(1, W.GenConfig(seed=trial_seed),
                                       checks=ALL_CHECKS, fuel=SUITE_FUEL)
        failing = sorted(name for name, entry in report["checks"].items()
                         if entry["fail"])
        if failing:
            raise CheckFailed(f"soundness checks fail: {', '.join(failing)}")
        return OpResult(checks={"soundness_zero_fail"})
    return run


WORKLOADS = {
    "corpus": corpus,
    "long_program": long_program,
    "alloc_run": alloc_run,
    "soundness": soundness,
}

# percentile reported as op_ms.tail, fixed per workload so that runs that
# complete different numbers of ops measure the same thing.  Where rounds
# mix op kinds of very different cost it lies at the middle of the slowest
# kind's share of the sorted latencies (long_program: the 200-statement
# chain, four to seven samples a run; alloc_run: the live-blocks loop,
# about twenty).  Where the latencies have a sparse far tail (corpus: the
# largest 40-statement programs; soundness: allocating loops run to the
# fuel limit) it stays below that tail, which changes with the seed's
# programs, and leaves dozens of samples above it.
TAIL_Q = {"corpus": 90.0, "long_program": 90.0, "alloc_run": 83.0,
          "soundness": 95.0}

# output checks each workload must have run at least once
CHECKS = {
    "corpus": {"cert_accepted", "cert_round_trip", "cert_root", "residual_agrees"},
    "long_program": {"cert_accepted", "cert_round_trip", "cert_root"},
    "alloc_run": {"alloc_expected"},
    "soundness": {"soundness_zero_fail"},
}
