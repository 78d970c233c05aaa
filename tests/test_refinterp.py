"""execute against the reference interpreter of tests/refinterp.py."""

import random

from whilep import GenConfig, gen_program, gen_state
from whilep.deadcode import optimize
from whilep.interp import execute
from whilep.lang import parse, stmt_vars
from whilep.pointsto import bottom

import refinterp
from test_memory import _gapped_ptype

FUELS = (0, 1, 2, 5, 40, 1500)


def _alloc_shapes(rng):
    """Small versions of the benchmark's allocation programs: a loop that
    keeps its blocks live, cons/dispose churn that reuses freed instances,
    and a loop that allocates until the fuel runs out."""
    for n in (0, 1, 3, 7):
        c = rng.randint(1, 9)
        yield (f"i := 0; p := 0; while i < {n} do "
               f"{{ p := cons(i + {c}, p); i := i + 1 }}")
    for k, m, a, b in ((4, 3, 1, 2), (6, 5, 0, 4), (9, 4, 3, 7)):
        c = rng.randint(1, 9)
        yield (f"i := 0; while i < {k} do {{ x := cons(i, i + 1); "
               f"if i = {a} then {{ m := x }} else {{ skip }}; "
               f"if i = {b} then {{ m2 := x }} else {{ skip }}; i := i + 1 }}; "
               f"j := 0; while j < {m} do {{ dispose(m); dispose(m + 1); "
               f"dispose(m2); dispose(m2 + 1); m2 := cons(j, {c}); "
               f"m := cons({c}, j); j := j + 1 }}")
    for c in (1, 4):
        yield (f"v1 := cons({c} - v3); while 35 < v1 do {{ v2 := [v1]; "
               f"v2 := 6; v1 := cons(v4, 5); [v1] := v2 }}; [-3] := 7; skip")


def _cases():
    """Generated programs and their optimize residuals, the programs t4
    runs, each from two states: one from the bottom type and one with
    instance gaps. A residual keeps a seeded half of the variables live."""
    rng, live_rng = random.Random("refinterp"), random.Random("refinterp:live")
    cases = []
    for size, seeds in ((12, range(700)), (40, range(300))):
        for seed in seeds:
            cfg = GenConfig(seed, size)
            program = gen_program(cfg)
            variables = sorted(stmt_vars(program))
            states = (gen_state(cfg, bottom(variables)),
                      gen_state(cfg, _gapped_ptype(rng, variables)))
            live = frozenset(x for x in variables if live_rng.random() < 0.5)
            residual = optimize(program, live).optimized
            cases += [(s, state) for s in (program, residual) for state in states]
    for src in _alloc_shapes(rng):
        program = parse(src)
        variables = sorted(stmt_vars(program))
        cases.append((program, gen_state(GenConfig(0), bottom(variables))))
    return cases


def _typed(values: dict) -> dict:
    """The map with each value paired with its type, so an address built
    as a plain tuple differs from an Address."""
    return {k: (type(v), v) for k, v in values.items()}


def test_execute_matches_the_reference_interpreter():
    """Over 4,000+ (program, state) pairs, each at six fuels: execute and
    the reference reach the same outcome class and, for a final state,
    the same stack and heap."""
    cases = _cases()
    kinds = {}
    for program, state in cases:
        for fuel in FUELS:
            got = execute(program, state, fuel)
            want = refinterp.run(program, state, fuel)
            kind = type(got).__name__
            assert kind == want[0], (program, state, fuel)
            if kind == "Final":
                assert _typed(got.state.stack) == _typed(want[1]), (program, fuel)
                assert _typed(got.state.heap) == _typed(want[2]), (program, fuel)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert len(cases) >= 4000
    # every outcome class is well represented
    assert min(kinds.values()) >= 500, kinds


def test_reference_on_examples():
    """The reference itself, on outcomes worked out by hand."""
    def ref(src, fuel=100, **stack):
        program = parse(src)
        state = gen_state(GenConfig(0), bottom(sorted(stmt_vars(program))))
        state.stack.update(stack)
        return refinterp.run(program, state, fuel)

    out = ref("x := cons(1, 2); y := x + 1; z := [y]; dispose(x); w := cons(5)",
              x=0, y=0, z=0, w=0)
    assert out[0] == "Final" and out[1]["z"] == 2
    assert repr(out[1]["w"]) == "addr(1,1,1)" and len(out[2]) == 2
    assert ref("x := cons(1); y := x + 1", x=0, y=0) == ("Aborted",)
    assert ref("x := nil + 1", x=0) == ("Aborted",)
    # one unit before each sequence item but the last, and per iteration
    assert ref("skip; skip; skip", fuel=1) == ("OutOfFuel",)
    assert ref("skip; skip; skip", fuel=2)[0] == "Final"
    assert ref("i := 0; while i < 2 do { i := i + 1 }", fuel=3) == ("OutOfFuel",)
    assert ref("i := 0; while i < 2 do { i := i + 1 }", fuel=4, i=0)[0] == "Final"
