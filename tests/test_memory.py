"""Address model, value order, state container and allocation index tests."""

import copy
import itertools
import pickle
import random
import time
from decimal import Decimal

import pytest

from whilep import GenConfig, gen_program, gen_state, interp
from whilep.interp import execute
from whilep.lang import pretty, stmt_vars
from whilep.memory import (
    NIL, Address, Blocks, NilValue, ProgState, addr_shift, format_value,
    fresh_instance, parse_addr, value_lt,
)
from whilep.pointsto import PointsTo


def scan_instance(heap, length):
    """Reference allocation: scan the whole heap for the least free
    instance of the given length."""
    used = {a.instance for a in heap if a.length == length}
    u = 1
    while u in used:
        u += 1
    return u


def blocks_of(cells):
    return Blocks(dict.fromkeys(cells, 0))


def alloc(blocks, length):
    """What a cons does: take an instance, then write its cells."""
    u = fresh_instance(blocks, length)
    for i in range(1, length + 1):
        blocks.heap[Address(length, u, i)] = 0
    return u


def test_address_validation():
    Address(1, 1, 1)
    Address(3, 7, 2)
    cases = [((0, 1, 1), "block length must be >= 1, got 0"),
             ((2, 0, 1), "instance must be >= 1, got 0"),
             ((2, 1, 0), "index must be in 1..2, got 0"),
             ((2, 1, 3), "index must be in 1..2, got 3")]
    for bad, message in cases:
        with pytest.raises(ValueError) as err:
            Address(*bad)
        assert str(err.value) == message


def test_address_copy_and_pickle_keep_the_type():
    a = Address(3, 7, 2)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)),
              copy.deepcopy({a: a})[a]):
        assert b == a and type(b) is Address
        assert (b.length, b.instance, b.index) == (3, 7, 2)
        assert repr(b) == "addr(3,7,2)"


def test_address_order_and_hash_follow_the_triple():
    triples = [(n, u, i) for n in (1, 2, 3) for u in (1, 2, 10)
               for i in range(1, n + 1)]
    random.Random(15).shuffle(triples)
    addrs = [Address(*t) for t in triples]
    assert [(a.length, a.instance, a.index) for a in sorted(addrs)] == sorted(triples)
    for a, b in itertools.product(addrs, repeat=2):
        assert (a < b) == ((a.length, a.instance, a.index) < (b.length, b.instance, b.index))
        assert value_lt(a, b) == (a < b)
    for t in triples:
        assert hash(Address(*t)) == hash(Address(*t))
        assert Address(*t) == Address(*t)
    assert len(set(addrs) | {Address(*t) for t in triples}) == len(triples)


def test_address_repr_and_parse():
    a = Address(2, 5, 1)
    assert repr(a) == "addr(2,5,1)"
    assert parse_addr("addr(2,5,1)") == a
    assert parse_addr("addr(2,5,9)") is None  # index out of the block
    assert parse_addr("x") is None
    assert parse_addr("addr(2,5)") is None
    assert parse_addr("addr(\u0662,1,1)") is None  # only ASCII digits
    # no leading zeros: an accepted text is the repr of its address
    for text in ("addr(01,1,1)", "addr(1,01,1)", "addr(1,1,01)", "addr(0,1,1)"):
        assert parse_addr(text) is None, text
    for text in ("addr(1,1,1)", "addr(10,20,10)"):
        assert repr(parse_addr(text)) == text


def test_nil_is_a_distinct_value():
    assert NIL == NilValue()
    assert NIL != 0
    assert NIL != Address(1, 1, 1)
    assert len({NIL, NilValue()}) == 1
    assert format_value(NIL) == "nil"


def test_format_value():
    assert format_value(7) == "7"
    assert format_value(-2) == "-2"
    assert format_value(Address(3, 1, 2)) == "addr(3,1,2)"


def test_format_value_prints_every_int(default_digit_limit):
    """An int with more digits than str() converts prints all of them,
    signed, with the zeros inside it; Decimal, which has no digit limit,
    gives the expected text."""
    rng = random.Random(41)
    values = [10 ** 500 - 1, 10 ** 500, 10 ** 4300 - 1, 10 ** 4300, 10 ** 4400 + 7,
              2 ** (2 ** 14), 3 ** 20_000, 10 ** 9000 + 10 ** 4000]
    values += [rng.getrandbits(rng.randint(10_000, 70_000)) for _ in range(20)]
    with default_digit_limit():
        for n in values + [-n for n in values]:
            assert format_value(n) == format(Decimal(n), "f"), n.bit_length()
        with pytest.raises(ValueError):
            str(10 ** 4300)  # the limit format_value goes around


def test_fresh_instance_examples():
    assert fresh_instance(blocks_of(()), 2) == 1
    assert fresh_instance(blocks_of({Address(2, 1, 1)}), 2) == 2
    assert fresh_instance(blocks_of({Address(2, 1, 1)}), 3) == 1
    blocks = blocks_of({Address(2, 1, 1), Address(2, 3, 2)})
    assert len(blocks) == 2
    assert [alloc(blocks, 2) for _ in range(3)] == [2, 4, 5]
    assert len(blocks) == 8


def test_fresh_instance_least_free_property():
    """Brute-force the defining property on random small allocation sets."""
    rng = random.Random(11)
    for _ in range(200):
        allocated = {Address(n, u, i)
                     for n in (1, 2, 3) for u in (1, 2, 3, 4)
                     for i in range(1, n + 1) if rng.random() < 0.4}
        for length in (1, 2, 3):
            blocks = blocks_of(allocated)
            assert len(blocks) == len(allocated)
            u = fresh_instance(blocks, length)
            taken = {a.instance for a in allocated if a.length == length}
            assert u not in taken
            assert all(v in taken for v in range(1, u))


def test_fresh_instance_monotone_in_allocation():
    rng = random.Random(12)
    for _ in range(200):
        small = {Address(2, u, i) for u in (1, 2, 3)
                 for i in (1, 2) if rng.random() < 0.4}
        extra = {Address(2, u, i) for u in (4, 5)
                 for i in (1, 2) if rng.random() < 0.4}
        assert fresh_instance(blocks_of(small), 2) <= \
            fresh_instance(blocks_of(small | extra), 2)


def test_fresh_instance_matches_scan_under_churn():
    """Interleaved allocations and disposals, from heaps with instance
    gaps, pick the instance the heap scan picks every time."""
    rng = random.Random(13)
    for _ in range(150):
        heap = {Address(n, u, i): 0 for n in (1, 2, 3)
                for u in rng.sample(range(1, 12), 4)
                for i in range(1, n + 1) if rng.random() < 0.7}
        blocks = Blocks(heap)
        for _ in range(60):
            if heap and rng.random() < 0.45:
                blocks.dispose(rng.choice(sorted(heap)))
            else:
                length = rng.randint(1, 3)
                want = scan_instance(heap, length)
                assert alloc(blocks, length) == want
            assert len(blocks) == len(heap)


def test_partial_dispose_keeps_block_used():
    blocks = blocks_of(())
    assert alloc(blocks, 2) == 1
    blocks.dispose(Address(2, 1, 1))
    assert alloc(blocks, 2) == 2
    blocks.dispose(Address(2, 1, 2))
    assert alloc(blocks, 2) == 1


def test_freed_instance_below_cursor_is_reused_first():
    blocks = blocks_of(())
    assert [alloc(blocks, 1) for _ in range(4)] == [1, 2, 3, 4]
    blocks.dispose(Address(1, 3, 1))
    blocks.dispose(Address(1, 2, 1))
    assert [alloc(blocks, 1) for _ in range(3)] == [2, 3, 5]
    # a block freed above the cursor is found by the cursor, once
    blocks = blocks_of({Address(1, 3, 1)})
    assert alloc(blocks, 1) == 1
    blocks.dispose(Address(1, 3, 1))
    assert [alloc(blocks, 1) for _ in range(3)] == [2, 3, 4]
    # disposals before the first allocation are read from the heap
    blocks = blocks_of({Address(1, 1, 1), Address(1, 2, 1)})
    blocks.dispose(Address(1, 1, 1))
    assert [alloc(blocks, 1) for _ in range(2)] == [1, 3]


def test_huge_instance_in_heap_stays_cheap():
    far = Address(2, 1_000_000_000, 1)
    blocks = blocks_of({far})
    start = time.perf_counter()
    assert [alloc(blocks, 2) for _ in range(3)] == [1, 2, 3]
    blocks.dispose(far)
    assert alloc(blocks, 2) == 4
    assert time.perf_counter() - start < 0.5


def _gapped_ptype(rng, variables):
    """A points-to type whose blocks leave instance gaps, every variable
    free to point at any of their cells."""
    cells = [Address(n, u, i) for n in (1, 2, 3)
             for u in sorted(rng.sample(range(1, 8), 3))
             for i in range(1, n + 1)]
    env = {x: frozenset(rng.sample(cells, 3)) for x in variables}
    env.update((a, frozenset(rng.sample(cells, 1))) for a in cells)
    return PointsTo(env)


def test_index_matches_heap_scan_on_generated_programs(monkeypatch):
    """Differential: generated programs with dispose, run from heaps with
    instance gaps, make the same allocations and end identically under
    the index and under the heap scan."""
    rng = random.Random(14)
    cases = []
    for seed in range(2000):
        cfg = GenConfig(seed=seed)
        program = gen_program(cfg)
        if "dispose" not in pretty(program):
            continue
        state = gen_state(cfg, _gapped_ptype(rng, sorted(stmt_vars(program))))
        cases.append((program, state))

    def run_all(allocate):
        outcomes, taken, gap_fills = [], [], 0

        def traced(blocks, length):
            nonlocal gap_fills
            u = allocate(blocks, length)
            taken.append((length, u))
            gap_fills += any(a.length == length and a.instance > u
                             for a in blocks.heap)
            return u

        monkeypatch.setattr(interp, "fresh_instance", traced)
        for program, state in cases:
            outcomes.append(execute(program, state, 3000))
            taken.append(None)
        return outcomes, taken, gap_fills

    indexed = run_all(fresh_instance)
    scanned = run_all(lambda blocks, length: scan_instance(blocks.heap, length))
    assert indexed == scanned
    outcomes, taken, gap_fills = scanned
    # coverage: allocations below a block in use, and blocks taken twice
    # in one run (disposed in between)
    reuses, run = 0, []
    for block in taken:
        if block is None:
            reuses += len(run) - len(set(run))
            run = []
        else:
            run.append(block)
    assert len(cases) >= 250
    assert sum(isinstance(out, interp.Final) for out in outcomes) >= 30
    assert gap_fills >= 300 and reuses >= 10


def test_addr_shift_examples():
    a = Address(3, 1, 1)
    assert addr_shift(a, 2) == Address(3, 1, 3)
    assert addr_shift(a, 0) == a
    assert addr_shift(Address(3, 1, 2), 5) is None
    assert addr_shift(a, -1) is None


def test_addr_shift_inverse():
    for n in (1, 2, 3, 4):
        for i in range(1, n + 1):
            a = Address(n, 2, i)
            for k in range(-4, 5):
                shifted = addr_shift(a, k)
                if shifted is not None:
                    assert addr_shift(shifted, -k) == a


def test_value_lt_examples():
    assert value_lt(1, 2)
    assert not value_lt(NIL, NIL)
    assert value_lt(NIL, Address(2, 1, 1))


def test_value_lt_rejects_booleans():
    for v1, v2 in ((True, 0), (0, False), (NIL, True), (False, Address(1, 1, 1))):
        with pytest.raises(TypeError, match="booleans are not values"):
            value_lt(v1, v2)


def test_value_lt_strict_total_order():
    sample = [-3, 0, 5, NIL, Address(1, 1, 1), Address(1, 2, 1),
              Address(2, 1, 1), Address(2, 1, 2), Address(3, 1, 1)]
    for v in sample:
        assert not value_lt(v, v)
        for w in sample:
            if v is not w:
                assert value_lt(v, w) != value_lt(w, v) or v == w
            for u in sample:
                if value_lt(v, w) and value_lt(w, u):
                    assert value_lt(v, u)
    # trichotomy
    for v in sample:
        for w in sample:
            assert value_lt(v, w) or value_lt(w, v) or v == w


def test_value_lt_rejects_bool():
    with pytest.raises(TypeError):
        value_lt(True, 1)


def test_state_copy_is_deep_enough():
    st = ProgState({"x": 1}, {Address(1, 1, 1): NIL})
    other = st.copy()
    other.stack["x"] = 2
    other.heap[Address(1, 1, 1)] = 5
    assert st.stack["x"] == 1
    assert st.heap[Address(1, 1, 1)] == NIL
