"""Points-to lattice, abstract evaluation, transfer, and instance-cap tests."""

import itertools
import random
import sys

import pytest
from test_certificate import chain_src

from whilep import GenConfig, gen_program, pointsto
from whilep.harness import _gen_state, _synthetic_ptype
from whilep.interp import Final, execute
from whilep.lang import (
    Assign, BinOp, Cons, If, IntLit, Lookup, Mutate, Seq, Var, While, parse,
    stmt_vars, walk,
)
from whilep.memory import Address, ProgState, addr_shift
from whilep.pointsto import (
    AnnStmt, PointsTo, DEFAULT_CAP, _shifts, abs_eval, addr_part, annotate,
    bottom, cap_address, cons_block, join, leq, models, transfer,
)

CAP = DEFAULT_CAP
A111 = Address(1, 1, 1)
A121 = Address(1, 2, 1)


def pts(env):
    return PointsTo({k: frozenset(v) for k, v in env.items()})


def test_bottom():
    assert bottom({"x"}) == pts({"x": []})
    assert bottom({"x", "y"}) == pts({"x": [], "y": []})
    assert bottom(set()) == pts({})


def test_leq_examples():
    p = pts({"x": [A111], "y": []})
    assert leq(bottom({"x", "y"}), p)
    assert leq(pts({"x": [A111]}), pts({"x": [A111, A121]}))
    assert not leq(pts({"x": [A111], A111: []}), pts({"x": [A111]}))


def test_join_examples():
    p = pts({"x": [A111], A111: []})
    assert join(p, bottom({"x"})) == pts({"x": [A111], A111: []})
    assert join(pts({"x": [A111]}), pts({"x": [A121]})) == \
        pts({"x": [A111, A121]})
    assert join(pts({"x": [], A111: [A121]}), pts({"x": [A111]})) == \
        pts({"x": [A111], A111: [A121]})


def test_join_is_least_upper_bound():
    """Brute-force LUB over every candidate type on a two-key universe."""
    p1 = pts({"x": [], A111: [A121]})
    p2 = pts({"x": [A111]})
    j = join(p1, p2)
    addrs = [A111, A121]
    candidates = []
    for keys in [("x",), ("x", A111), ("x", A121), ("x", A111, A121)]:
        images = itertools.product(
            *[[frozenset(s) for r in range(3) for s in itertools.combinations(addrs, r)]
              for _ in keys])
        for img in images:
            candidates.append(PointsTo(dict(zip(keys, img))))
    uppers = [c for c in candidates if leq(p1, c) and leq(p2, c)]
    assert any(c == j for c in uppers)
    for c in uppers:
        assert leq(j, c)


def test_lattice_laws():
    rng = random.Random(3)
    for _ in range(60):
        p = _synthetic_ptype(rng, ["x", "y"], 3)
        q = _synthetic_ptype(rng, ["x", "y"], 3)
        r = _synthetic_ptype(rng, ["x", "y"], 3)
        assert join(p, q) == join(q, p)
        assert join(p, join(q, r)) == join(join(p, q), r)
        assert join(p, p) == p
        assert leq(p, join(p, q))
        assert leq(q, join(p, q))
        assert leq(p, p)


def exact(e, p):
    """abs_eval's result on e, asserted to be a plain exact int."""
    v = abs_eval(e, p)
    assert type(v) is int, v
    return v


def test_abs_eval_examples():
    assert exact(IntLit(7), bottom({"x"})) == 7
    p = pts({"x": [Address(3, 1, 1)]})
    assert abs_eval(BinOp("+", Var("x"), IntLit(1)), p) == \
        frozenset({Address(3, 1, 2)})
    q = pts({"x": [Address(3, 1, 1)], "y": [Address(2, 1, 1)]})
    got = abs_eval(BinOp("+", Var("x"), Var("y")), q)
    assert got == frozenset({
        Address(3, 1, 1), Address(3, 1, 2), Address(3, 1, 3),
        Address(2, 1, 1), Address(2, 1, 2)})


def test_abs_eval_arithmetic_closures():
    assert exact(BinOp("+", IntLit(2), IntLit(3)), pts({})) == 5
    assert exact(BinOp("*", IntLit(2), IntLit(3)), pts({})) == 6
    assert exact(BinOp("-", IntLit(2), IntLit(3)), pts({})) == -1
    p = pts({"x": [Address(2, 1, 1)], "y": []})
    # multiplication can never produce an address
    assert abs_eval(BinOp("*", Var("x"), Var("y")), p) == frozenset()
    # subtracting an unknown keeps only the left side's block variants
    assert abs_eval(BinOp("-", Var("x"), Var("y")), p) == \
        frozenset({Address(2, 1, 1), Address(2, 1, 2)})
    # out-of-block shifts are dropped
    assert abs_eval(BinOp("+", Var("x"), IntLit(5)), p) == frozenset()
    assert addr_part(5) == frozenset()


def test_shifts_agree_with_addr_shift():
    """_shifts builds its addresses without Address's checks; each is the
    checked shift, and a real Address."""
    for n, u, k in itertools.product(range(1, 4), range(1, 5), range(-4, 5)):
        for i in range(1, n + 1):
            a = Address(n, u, i)
            got = _shifts(frozenset({a}), k)
            assert got == {addr_shift(a, k)} - {None}, (a, k)
            assert all(type(b) is Address for b in got)


def test_transfer_skip_identity():
    p = pts({"x": [A111], A111: []})
    assert transfer(parse("skip"), p, CAP) == p


def test_transfer_is_the_leaf_step_only():
    for src in ("skip; skip", "if x < 1 then { skip } else { skip }",
                "while x < 1 do { skip }"):
        with pytest.raises(TypeError, match="not a leaf statement"):
            transfer(parse(src), bottom({"x"}), CAP)


def test_transfer_cons_from_bottom():
    got = transfer(parse("x := cons(5)"), bottom({"x"}), CAP)
    assert got == pts({"x": [A111], A111: []})


def test_transfer_weak_update():
    p = pts({"p": [A111, A121], "q": [Address(2, 1, 1)],
             A111: [], A121: [], Address(2, 1, 1): []})
    got = transfer(parse("[p] := q"), p, CAP)
    assert got.image(A111) == {Address(2, 1, 1)}
    assert got.image(A121) == {Address(2, 1, 1)}
    assert got.image("p") == {A111, A121}
    assert got.image("q") == {Address(2, 1, 1)}


def test_transfer_strong_update():
    p = pts({"p": [A111], "q": [A121], A111: [A111], A121: []})
    got = transfer(parse("[p] := q"), p, CAP)
    assert got.image(A111) == {A121}  # old image replaced, not unioned


def test_no_strong_update_on_summary():
    summary = Address(1, CAP, 1)
    p = pts({"p": [summary], "q": [A121], summary: [A111], A121: []})
    got = transfer(parse("[p] := q"), p, CAP)
    assert got.image(summary) == {A111, A121}  # summary cells only widen


def test_no_op_leaves_share_their_entry_type():
    """A leaf that changes no image returns its entry type itself: an
    assign of an equal image, a lookup, a cons whose cells already hold
    its arguments' images, a strong write and a weak write."""
    a131 = Address(1, 3, 1)
    cases = [
        ("x := y", pts({"x": [A111], "y": [A111], A111: []})),
        ("x := [y]", pts({"x": [A121], "y": [A111], A111: [A121], A121: []})),
        ("x := cons(y)", pts({"x": [A111, A121, a131], "y": [a131],
                              A111: [a131], A121: [a131], a131: [a131]})),
        ("[p] := q", pts({"p": [A111], "q": [A121], A111: [A121], A121: []})),
        ("[p] := q", pts({"p": [A111, A121], "q": [A121],
                          A111: [A111, A121], A121: [A121]})),
    ]
    for src, p in cases:
        assert transfer(parse(src), p, CAP) is p, src


def test_weak_write_keeps_the_images_it_contains():
    """A weak write rewrites only the cells whose image grows; a cell that
    already holds the stored image keeps its image object."""
    p = pts({"p": [A111, A121], "q": [A121], A111: [], A121: [A121]})
    got = transfer(parse("[p] := q"), p, CAP)
    assert got.image(A111) == {A121}
    assert got.env[A121] is p.env[A121]
    assert list(got.env) == list(p.env)


def test_join_returns_its_first_type_when_the_second_adds_nothing():
    """join(p, q) is p whenever leq(q, p), and a new type otherwise, on
    pairs of synthetic types and their joins."""
    rng = random.Random(41)
    variables = ["x", "y", "z"]
    shared = 0
    for _ in range(300):
        p = _synthetic_ptype(rng, variables, 3)
        q = _synthetic_ptype(rng, variables, 3)
        j = join(p, q)
        assert (j is p) == leq(q, p)
        shared += j is p
        assert join(j, q) is j and join(j, p) is j and join(p, p) is p
        assert join(p, bottom(variables)) is p
    assert 0 < shared < 300


@pytest.mark.parametrize("n", [200, 2000])
def test_chain_annotation_shares_its_exit_types(n):
    """Once the chain's types stop growing, its leaves share one exit type:
    the annotation holds at most 5 distinct exit-type objects, not one per
    statement."""
    prog = parse(chain_src(n))
    ann = annotate(prog, bottom(stmt_vars(prog)), CAP)
    todo, posts, nodes = [ann], set(), 0
    while todo:
        node = todo.pop()
        todo.extend(node.children)
        posts.add(id(node.post))
        nodes += 1
    assert nodes == n + 1
    assert len(posts) <= 5, len(posts)


def test_annotate_sequence():
    ann = annotate(parse("x := cons(5); dispose(x)"), bottom({"x"}), CAP)
    p1 = pts({"x": [A111], A111: []})
    cons_node, dispose_node = ann.children
    assert (cons_node.pre, cons_node.post) == (bottom({"x"}), p1)
    assert (dispose_node.pre, dispose_node.post) == (p1, p1)
    assert ann.post == p1


def test_annotate_while_integer_loop():
    ann = annotate(parse("while x < 3 do { x := x + 1 }"), bottom({"x"}), CAP)
    assert ann.post == bottom({"x"})  # a loop's exit type is its invariant


def _max_instance(ann):
    """Largest instance of an address on any node of ann, as a key or in
    an image; 0 when there is none."""
    todo, instances = [ann], []
    while todo:
        node = todo.pop()
        todo.extend(node.children)
        for p in (node.pre, node.post):
            for key, image in p.env.items():
                instances.extend(a.instance for a in image)
                if isinstance(key, Address):
                    instances.append(key.instance)
    return max(instances, default=0)


def test_annotate_while_allocating_loop_caps():
    src = "i := 0; while i < 9 do { x := cons(x); i := i + 1 }"
    ann = annotate(parse(src), bottom({"i", "x"}), CAP)
    assert ann.post.tracked()  # the loop allocates
    assert _max_instance(ann) == CAP


def test_annotate_never_exceeds_cap():
    """From the bottom type and from synthetic entry types within the cap,
    no annotated node holds an address above the cap."""
    rng = random.Random(23)
    for cap in (1, 2, 3):
        for seed in range(60):
            prog = gen_program(GenConfig(seed=seed, max_stmts=(12, 30)[seed % 2]))
            variables = sorted(stmt_vars(prog))
            for entry in (bottom(variables), _synthetic_ptype(rng, variables, cap)):
                assert _max_instance(annotate(prog, entry, cap)) <= cap, (cap, seed)


def _may_write(s, p, cap):
    """The keys leaf s may change from entry type p."""
    if isinstance(s, Cons):
        return {s.var} | cons_block(p, len(s.args), cap)[1]
    if isinstance(s, (Assign, Lookup)):
        return {s.var}
    if isinstance(s, Mutate):
        return addr_part(abs_eval(s.target, p))
    return set()


def test_leaf_exit_changes_only_the_keys_the_leaf_writes():
    """Frame property of the leaf step: a leaf's exit type keeps every key
    of its entry type and differs from it only on the leaf's variable,
    the cells cons_block returns for a cons and the targets of a heap
    write."""
    rng = random.Random(37)
    changed_by_kind = {Assign: 0, Cons: 0, Lookup: 0, Mutate: 0}
    for seed in range(600):
        cap = 1 + seed % 3
        prog = gen_program(GenConfig(seed=seed, max_stmts=(12, 30)[seed // 3 % 2]))
        variables = sorted(stmt_vars(prog))
        for entry in (bottom(variables), _synthetic_ptype(rng, variables, cap)):
            todo = [annotate(prog, entry, cap)]
            while todo:
                node = todo.pop()
                todo.extend(node.children)
                if isinstance(node.stmt, (Seq, If, While)):
                    continue
                pre, post = node.pre.env, node.post.env
                assert pre.keys() <= post.keys(), (seed, node.stmt)
                changed = {k for k, image in post.items() if pre.get(k) != image}
                assert changed <= _may_write(node.stmt, node.pre, cap), \
                    (seed, node.stmt)
                if changed:
                    changed_by_kind[type(node.stmt)] += 1
    assert min(changed_by_kind.values()) >= 100, changed_by_kind


def test_annotate_determinism():
    for seed in range(30):
        prog = gen_program(GenConfig(seed=seed))
        base = bottom(stmt_vars(prog))
        assert annotate(prog, base, CAP) == annotate(prog, base, CAP)


def test_models_examples():
    p = pts({"x": [A111], A111: []})
    assert models(ProgState({"x": 0}, {}), p, CAP)
    assert models(ProgState({"x": A111}, {A111: 5}), p, CAP)
    assert not models(ProgState({"x": A111}, {}), pts({"x": []}), CAP)
    # untracked heap cells violate the domain clause
    assert not models(ProgState({"x": 0}, {A121: 1}), p, CAP)
    # address content must be in the cell's image
    assert not models(ProgState({"x": A111}, {A111: A111}), p, CAP)


def test_leq_preserves_models():
    rng = random.Random(7)
    for _ in range(80):
        q = _synthetic_ptype(rng, ["x", "y"], 3)
        st = _gen_state(rng, q)
        assert models(st, q, CAP)
        bigger = join(q, _synthetic_ptype(rng, ["x", "y"], 3))
        assert leq(q, bigger)
        assert models(st, bigger, CAP)


def test_cap_address():
    assert cap_address(Address(2, 5, 1), 3) == Address(2, 3, 1)
    assert cap_address(Address(2, 2, 1), 3) == Address(2, 2, 1)


def _mutate_corner(prog, p_ann, q_ann, cap):
    """Does any mutation see no targets under p but a unique strong-update
    target under q? Transfer is not monotone across that boundary."""
    if isinstance(p_ann.stmt, Mutate):
        tp = addr_part(abs_eval(p_ann.stmt.target, p_ann.pre))
        tq = addr_part(abs_eval(q_ann.stmt.target, q_ann.pre))
        if not tp and len(tq) == 1 and next(iter(tq)).instance < cap:
            return True
    return any(_mutate_corner(prog, pc, qc, cap)
               for pc, qc in zip(p_ann.children, q_ann.children))


def test_transfer_monotone_outside_strong_update_corner():
    rng = random.Random(23)
    for seed in range(250):
        prog = gen_program(GenConfig(seed=seed))
        variables = sorted(stmt_vars(prog))
        q = _synthetic_ptype(rng, variables, 3)
        p = PointsTo({k: frozenset(a for a in img if rng.random() < 0.5)
                      for k, img in q.env.items()})
        assert leq(p, q)
        ap = annotate(prog, p, CAP)
        aq = annotate(prog, q, CAP)
        if not leq(ap.post, aq.post):
            assert _mutate_corner(prog, ap, aq, CAP), \
                f"non-monotone without the known corner at seed {seed}"


def test_transfer_nonmonotone_corner_witness():
    """Strong updates make transfer non-monotone in exactly one situation:
    the smaller type sees no mutation targets (identity) while the larger
    type sees a unique non-summary target (destructive overwrite)."""
    prog = parse("[t] := s")
    p = pts({"t": [], "s": [A121], A111: [A111], A121: []})
    q = pts({"t": [A111], "s": [A121], A111: [A111], A121: []})
    assert leq(p, q)
    post_p = transfer(prog, p, CAP)
    post_q = transfer(prog, q, CAP)
    assert post_p.image(A111) == {A111}
    assert post_q.image(A111) == {A121}
    assert not leq(post_p, post_q)
    assert _mutate_corner(prog, annotate(prog, p, CAP),
                          annotate(prog, q, CAP), CAP)


def test_loop_invariant_validity():
    """Every loop invariant contains its entry and is closed under the body."""
    checked = 0
    for seed in range(150):
        prog = gen_program(GenConfig(seed=seed, max_stmts=14))
        ann = annotate(prog, bottom(stmt_vars(prog)), CAP)
        stack = [ann]
        while stack:
            node = stack.pop()
            if isinstance(node.stmt, While):
                inv = node.post
                assert leq(node.pre, inv)
                assert leq(annotate(node.stmt.body, inv, CAP).post, inv)
                checked += 1
            stack.extend(node.children)
    assert checked >= 30


def _kleene(s, p, cap):
    """Reference analysis: plain Kleene iteration, each loop from its entry
    alone, with no allocation start and no seed."""
    if isinstance(s, Seq):
        children, q = [], p
        for item in s.items:
            children.append(_kleene(item, q, cap))
            q = children[-1].post
        return AnnStmt(s, p, q, tuple(children))
    if isinstance(s, If):
        then_ann, else_ann = _kleene(s.then_body, p, cap), _kleene(s.else_body, p, cap)
        return AnnStmt(s, p, join(then_ann.post, else_ann.post), (then_ann, else_ann))
    if isinstance(s, While):
        inv = p
        while True:
            body = _kleene(s.body, inv, cap)
            grown = join(inv, body.post)
            if grown == inv:
                return AnnStmt(s, p, inv, (body,))
            inv = grown
    return AnnStmt(s, p, transfer(s, p, cap))


def test_allocation_start_reaches_the_kleene_fixpoint():
    """Starting each loop at its allocations lies below the least fixpoint:
    every node's types equal plain Kleene iteration from the entry."""
    allocating_loops = 0
    for seed, size, cap in itertools.product(range(200), (12, 40), (1, 2, 3)):
        prog = gen_program(GenConfig(seed=seed, max_stmts=size))
        variables = sorted(stmt_vars(prog))
        rng = random.Random(f"{seed}:{size}:{cap}")
        for entry in (bottom(variables), _synthetic_ptype(rng, variables, cap)):
            assert annotate(prog, entry, cap) == _kleene(prog, entry, cap), (seed, size, cap)
        allocating_loops += cap == 1 and any(
            isinstance(node, While) and any(isinstance(n, Cons) for n in walk(node.body))
            for node in walk(prog))
    assert allocating_loops >= 150, allocating_loops


def test_executions_land_inside_exit_type():
    """Executed programs stay inside their computed exit type."""
    rng = random.Random(29)
    passed = 0
    for seed in range(300):
        cfg = GenConfig(seed=seed)
        prog = gen_program(cfg)
        base = bottom(stmt_vars(prog))
        st = _gen_state(rng, base)
        out = execute(prog, st, 1500)
        if isinstance(out, Final):
            assert models(out.state, annotate(prog, base, CAP).post, CAP), \
                f"seed {seed}"
            passed += 1
    assert passed >= 50


def _scan_cons_block(p, length, cap):
    """cons_block before its memo: every call scans p for the used
    instances of the length."""
    used = set()
    for k in p.env:
        if type(k) is Address and k[0] == length:
            used.add(k[1])
    v = 1
    while v in used:
        v += 1
    return v, frozenset(Address(length, min(i, cap), j)
                        for i in range(1, v + 1) for j in range(1, length + 1))


def _partial_blocks(rng):
    """An entry type that tracks some cells of some blocks, as a
    certificate's entry may: a block whose head cell is untracked can
    still be in use."""
    cells = [Address(n, u, i) for n in (1, 2, 3) for u in (1, 2, 3, 4)
             for i in range(1, n + 1)]
    tracked = rng.sample(cells, rng.randint(0, len(cells)))
    return PointsTo({"x": frozenset(tracked[:1]), **{a: frozenset() for a in tracked}})


def test_cons_block_memo_answers_as_the_scan():
    """On calls that alternate types, lengths and caps, each repeated,
    cons_block returns what a scan of the type returns."""
    rng = random.Random(25)
    types = [_partial_blocks(rng) for _ in range(200)]
    for seed, size, cap in itertools.product(range(200), (12, 40), (1, 2, 3)):
        prog = gen_program(GenConfig(seed=seed, max_stmts=size))
        ann = annotate(prog, bottom(stmt_vars(prog)), cap)
        todo = [ann]
        while todo:
            node = todo.pop()
            types.append(node.pre)
            todo += node.children
    calls = 0
    for i, p in enumerate(types):
        q = types[rng.randrange(i + 1)]
        for t, length, cap in ((p, 2, 3), (p, 1, 3), (p, 1, 1), (q, 1, 1), (p, 1, 1),
                               (p, rng.randint(1, 3), rng.randint(1, 3))):
            want = _scan_cons_block(t, length, cap)
            assert cons_block(t, length, cap) == want, (i, length, cap)
            assert cons_block(t, length, cap) == want, (i, length, cap)
            calls += 2
    assert len(types) > 20_000 and calls > 10 * len(types)


def test_cons_block_repeats_its_answer():
    """A repeated call returns the identical (v, cells) tuple."""
    p = pts({"x": [Address(2, 1, 1)], Address(2, 1, 1): [], Address(2, 1, 2): []})
    first = cons_block(p, 2, 3)
    assert first == (2, frozenset(Address(2, u, i) for u in (1, 2) for i in (1, 2)))
    assert cons_block(p, 2, 3) is first


def test_annotate_scans_a_chain_a_few_times(monkeypatch):
    """Along a straight chain the type saturates into one object, so a
    cons under the previous cons's type reuses its block: one annotate of
    100 conses scans the type (and builds its block) at most 10 times."""
    scans, block_cells = [], pointsto.block_cells

    def counted(*args):
        if sys._getframe(1).f_code is pointsto.cons_block.__code__:
            scans.append(args)
        return block_cells(*args)

    monkeypatch.setattr(pointsto, "block_cells", counted)
    prog = parse(chain_src(200))
    annotate(prog, bottom(stmt_vars(prog)), CAP)
    assert 1 <= len(scans) <= 10, len(scans)
