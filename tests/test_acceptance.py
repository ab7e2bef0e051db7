"""Acceptance gate: one test per shipping criterion, each printing a
single PASS line with its measured numbers.  Budgets and tolerances are
pinned in the constants below."""

import gc
import time
from random import Random

import pytest

from girkit.cli import _build_config, _front_end, export_json
from girkit.core import (
    DependencyViolation, HARD, NameSupply, OverlapViolation, RW,
    RuntimeConfig, SideConditionFailed, initial_store,
)
from girkit.graphir import erase, initial_state, synthesize
from girkit.interp import canonical_value, eval_graph, separation_probe
from girkit.mnf import check_mnf, to_mnf
from girkit.optimize import RULES, optimize
from girkit.schedule import (
    SGraph, SNode, emit, flatten_config, schedule, synthetic_graph,
)
from girkit.testkit import (
    GenConfig, _fresh_store_for, brute_deps, gen_well_typed, make_corrupted,
    opportunity, run_three,
)
from girkit.typecheck import infer_direct

CORPUS_SIZE = 1_000
CORPUS_DEPTH = 6
TRANSLATION_BUDGET_S = 10.0
OPT_PROGRAMS_PER_RULE = 500
CORRUPTED_GRAPHS = 20
SEPARATION_PAIRS = 100
BIG_N = 100_000
SMALL_N = 10_000
SCHED_DEPTH = 8
SCHED_BUDGET_S = 60.0
SCHED_RATIO_LIMIT = 15.0
SCHED_ROUNDS = 5


@pytest.fixture(scope="session")
def corpus():
    """Seed-fixed corpus of well-typed closed programs."""
    return [gen_well_typed(GenConfig(seed=s, max_depth=CORPUS_DEPTH))
            for s in range(CORPUS_SIZE)]


def _prepared(t, regime=HARD):
    store = _fresh_store_for(t)
    g = to_mnf(t, store.supply)
    st, z = initial_state(store, regime=regime)
    return store, g, st, z


def test_criterion_1_translation_preserves_typing(corpus):
    t0 = time.perf_counter()
    for t in corpus:
        store = _fresh_store_for(t)
        direct = infer_direct(store.typing(), t)
        g = to_mnf(t, store.supply)
        translated = check_mnf(store.typing(), g)
        assert translated.qt == direct.qt
        assert translated.eff == direct.eff
    elapsed = time.perf_counter() - t0
    assert elapsed < TRANSLATION_BUDGET_S
    print(f"\nPASS criterion 1: normalization preserved the full typing on "
          f"{len(corpus)}/{len(corpus)} programs in {elapsed:.2f}s "
          f"(budget {TRANSLATION_BUDGET_S:.0f}s)")


def test_criterion_2_synthesis_slice_matches_the_oracle(corpus):
    checked = 0
    for t in corpus:
        for regime in (HARD, RW):
            store, g, st, _ = _prepared(t, regime)
            _, slice_ = synthesize(st, g)
            assert slice_ == brute_deps(st, g)
            checked += 1
    print(f"\nPASS criterion 2: synthesized dependency slice equaled the "
          f"effect-restriction oracle on {checked}/{checked} "
          f"(program, regime) cases")


def test_criterion_3_annotation_roundtrip_is_byte_exact(corpus):
    for t in corpus:
        store, g, st, _ = _prepared(t)
        g2, slice_ = synthesize(st, g)
        # stripping annotations recovers the input graph byte-for-byte
        assert export_json(erase(g2)) == export_json(g)
        # re-annotating the stripped graph under the same last-use map
        # reproduces the annotated graph and slice byte-for-byte
        g3, slice3 = synthesize(st, erase(g2))
        assert export_json(g3) == export_json(g2) and slice3 == slice_
    print(f"\nPASS criterion 3: strip/annotate roundtrip byte-exact on "
          f"{len(corpus)}/{len(corpus)} programs")


def test_criterion_4_dependency_safety(corpus):
    for t in corpus:
        for regime in (HARD, RW):
            store, g, st, z = _prepared(t, regime)
            g2, slice_ = synthesize(st, g)
            eval_graph(RuntimeConfig(store.copy(), z, g2, slice_))
            # reaching here means no DependencyViolation was raised
    caught = 0
    for k in range(CORRUPTED_GRAPHS):
        t = corpus[k]
        cfg, node = make_corrupted(t, pick=k % 3)
        with pytest.raises(DependencyViolation) as exc:
            eval_graph(cfg)
        assert exc.value.payload["node"] == node
        caught += 1
    print(f"\nPASS criterion 4: zero dependency violations across "
          f"{len(corpus)} programs x 2 regimes; {caught}/{CORRUPTED_GRAPHS} "
          f"corrupted graphs each raised one violation at the corrupted "
          f"node")


def test_criterion_5_three_semantics_agree(corpus):
    for t in corpus:
        values, _ = run_three(t)
        assert len(set(values.values())) == 1, values
    print(f"\nPASS criterion 5: term, store, and graph evaluation agreed "
          f"on canonical values for {len(corpus)}/{len(corpus)} programs")


@pytest.mark.parametrize("rule", sorted(RULES))
def test_criterion_6_optimizer_soundness(rule):
    fired_total = 0
    for seed in range(OPT_PROGRAMS_PER_RULE):
        store, g = opportunity(rule, GenConfig(seed=seed, max_depth=4))
        st, z = initial_state(store)
        g2, slice_ = synthesize(st, g)
        before = eval_graph(RuntimeConfig(store.copy(), z, g2, slice_))
        got, reports = optimize(st, g2, [rule], fuel=4, supply=store.supply)
        assert any(r.fired for r in reports), (rule, seed)
        fired_total += sum(r.fired for r in reports)
        after = eval_graph(RuntimeConfig(store.copy(), z, got, slice_))
        assert (canonical_value(before.store, before.value)
                == canonical_value(after.store, after.value)), (rule, seed)
    print(f"\nPASS criterion 6 [{rule}]: result preserved on "
          f"{OPT_PROGRAMS_PER_RULE}/{OPT_PROGRAMS_PER_RULE} programs "
          f"({fired_total} rewrites)")


def test_criterion_6_negative_side_conditions():
    """One blocked rewrite per rule premise: the rule must refuse."""
    from girkit.core import (
        Cell, GLet, GName, NApp, NAssign, NCst, NDeref, NLam, NRef, PURE,
        QualifiedType, RwEffect, TY_INT,
    )

    def synth(store, g):
        st, _ = initial_state(store)
        return st, synthesize(st, g)[0]

    blocked = []

    # discard: the candidate performs a write
    store = initial_store()
    sup = store.supply
    r = store.alloc(Cell(0), "r")
    c, x, k = sup.var("c"), sup.var("x"), sup.var("k")
    st, g2 = synth(store, GLet(c, NCst(1), GLet(x, NAssign(r, c),
                                                GLet(k, NCst(7),
                                                     GName(k)))))
    with pytest.raises(SideConditionFailed):
        RULES["dce"](st, g2, (1,), sup)
    blocked.append("dce/write")

    # discard: the candidate is used by the result
    store = initial_store()
    sup = store.supply
    a = sup.var("a")
    st, g2 = synth(store, GLet(a, NCst(1), GName(a)))
    _, reports = optimize(st, g2, ["dce"], supply=sup)
    assert not any(r.fired for r in reports)
    blocked.append("dce/used")

    # reorder: flat effects overlap on one cell
    store = initial_store()
    sup = store.supply
    r = store.alloc(Cell(0), "r")
    a, b = sup.var("a"), sup.var("b")
    st, g2 = synth(store, GLet(a, NDeref(r), GLet(b, NDeref(r), GName(b))))
    with pytest.raises(SideConditionFailed):
        RULES["comm"](st, g2, (), sup)
    blocked.append("comm/overlap")

    # reorder: the second binding consumes the first
    store = initial_store()
    sup = store.supply
    a, b = sup.var("a"), sup.var("b")
    st, g2 = synth(store, GLet(a, NCst(1), GLet(b, NRef(store.w, a),
                                                GName(b))))
    with pytest.raises(SideConditionFailed):
        RULES["comm"](st, g2, (), sup)
    blocked.append("comm/data")

    # hoist: the binding mentions the parameter
    store = initial_store()
    sup = store.supply
    f, p, h, q = sup.var("f"), sup.var("p"), sup.var("h"), sup.var("q")
    inner = NLam(q, QualifiedType(TY_INT), PURE, GName(p), None)
    lam = NLam(p, QualifiedType(TY_INT), PURE, GLet(h, inner, GName(p)),
               None)
    st, g2 = synth(store, GLet(f, lam, GName(f)))
    with pytest.raises(SideConditionFailed):
        RULES["hoist"](st, g2, (), sup)
    blocked.append("hoist/param")

    # hoist: the binding has an effect
    store = initial_store()
    sup = store.supply
    r = store.alloc(Cell(0), "r")
    c0, f, p, h = sup.var("c0"), sup.var("f"), sup.var("p"), sup.var("h")
    lam = NLam(p, QualifiedType(TY_INT), RwEffect.write(frozenset({r})),
               GLet(h, NAssign(r, c0), GName(h)), None)
    st, g2 = synth(store, GLet(c0, NCst(1), GLet(f, lam, GName(f))))
    with pytest.raises(SideConditionFailed):
        RULES["hoist"](st, g2, (1,), sup)
    blocked.append("hoist/impure")

    # inline: the argument is effectful
    from girkit.core import App, Deref, Lam, Let, Nm
    store = initial_store()
    sup = store.supply
    r = store.alloc(Cell(0), "r")
    p, y = sup.var("p"), sup.var("y")
    t = Let(y, App(Lam(p, QualifiedType(TY_INT), PURE, Nm(p)),
                   Deref(Nm(r))), Nm(y))
    st, g2 = synth(store, to_mnf(t, sup))
    _, reports = optimize(st, g2, ["inline"], supply=sup)
    assert not any(r.fired for r in reports)
    blocked.append("inline/impure-arg")

    # inline: the callee is a parameter, not a locally bound lambda
    store, t, _ = _front_end(
        "fun (g: ((x: Int^{}) =>{rd{} wr{}} Int^{})^{}) =>{rd{} wr{}} g 1")
    st, g2 = synth(store, to_mnf(t, store.supply))
    _, reports = optimize(st, g2, ["inline"], supply=store.supply,
                          log_misses=True)
    assert not any(r.fired for r in reports)
    assert any("is not locally bound to a lambda" in r.reason
               for r in reports)
    blocked.append("inline/unbound-fn")

    # inline: the argument is a parameter, not a locally bound value
    store = initial_store()
    sup = store.supply
    f, p, h, q, y = (sup.var(n) for n in ("f", "p", "h", "q", "y"))
    ident = NLam(p, QualifiedType(TY_INT), PURE, GName(p), None)
    caller = NLam(q, QualifiedType(TY_INT), PURE,
                  GLet(y, NApp(f, q), GName(y)), None)
    st, g2 = synth(store, GLet(f, ident, GLet(h, caller, GName(h))))
    with pytest.raises(SideConditionFailed, match="is not locally bound"):
        RULES["inline"](st, g2, (1, 0), sup)
    blocked.append("inline/unbound-arg")

    # dedup: the duplicates are allocations
    store = initial_store()
    sup = store.supply
    c, x, y = sup.var("c"), sup.var("x"), sup.var("y")
    st, g2 = synth(store, GLet(c, NCst(0),
                               GLet(x, NRef(store.w, c),
                                    GLet(y, NRef(store.w, c), GName(y)))))
    with pytest.raises(SideConditionFailed):
        RULES["cse"](st, g2, (1,), sup)
    blocked.append("cse/alloc")

    # dedup: a write intervenes between the duplicate reads
    store = initial_store()
    sup = store.supply
    r = store.alloc(Cell(0), "r")
    c, a, w_, b = sup.var("c"), sup.var("a"), sup.var("wr"), sup.var("b")
    st, g2 = synth(store, GLet(c, NCst(9),
                               GLet(a, NDeref(r),
                                    GLet(w_, NAssign(r, c),
                                         GLet(b, NDeref(r), GName(b))))))
    _, reports = optimize(st, g2, ["cse"], supply=sup)
    assert not any(r.fired for r in reports)
    blocked.append("cse/intervening-write")

    print(f"\nPASS criterion 6 [negative]: all {len(blocked)} blocked "
          f"premises refused to fire ({', '.join(blocked)})")


def test_criterion_7_scheduling_behaviors():
    waw = "let r = ref(w, 0) in let a = r := 1 in let b = r := 2 in !r"
    # (a) with skippable write-ordering deps, the overwritten first write
    # is dead and disappears; hard ordering keeps it
    assert emit(schedule(flatten_config(_build_config(waw, RW)))) == (
        "let c_7 = 0 in\n"
        "let r_6 = ref(w, c_7) in\n"
        "let c_15 = 2 in\n"
        "let s_14 = r_6 := c_15 in\n"
        "let d_17 = !r_6 in\n"
        "d_17")
    assert emit(schedule(flatten_config(_build_config(waw, HARD)))) == (
        "let c_7 = 0 in\n"
        "let r_6 = ref(w, c_7) in\n"
        "let c_11 = 1 in\n"
        "let s_10 = r_6 := c_11 in\n"
        "let c_15 = 2 in\n"
        "let s_14 = r_6 := c_15 in\n"
        "let d_17 = !r_6 in\n"
        "d_17")

    # (b) frequency-driven motion: a parameter-independent pure node
    # leaves the lambda body...
    sup = NameSupply(1)
    N, fact, f, x = sup.var("N"), sup.var("fact"), sup.var("f"), sup.var("x")
    a, call, r = sup.var("a"), sup.var("call"), sup.var("r")
    nodes = {
        N: SNode(N, "cst", lit=20),
        fact: SNode(fact, "op:factorial", (N,)),
        r: SNode(r, "op:add", (x, fact)),
        f: SNode(f, "lam", params=(x,), body_res=(r,)),
        a: SNode(a, "cst", lit=3),
        call: SNode(call, "app", (f, a)),
    }
    assert emit(schedule(SGraph(nodes, call), freq=True)) == (
        "let N_1 = 20 in\n"
        "let fact_2 = factorial(N_1) in\n"
        "let a_5 = 3 in\n"
        "let f_3 = fun (x_4: Int^{}) =>{rd{} wr{}} (\n"
        "  let r_7 = add(x_4, fact_2) in\n"
        "  r_7\n"
        ") in\n"
        "let call_6 = f_3 a_5 in\n"
        "call_6")

    # ...and a branch-only chain sinks into its (cold) branch
    sup = NameSupply(1)
    p, c0 = sup.var("p"), sup.var("c0")
    heavy, tres = sup.var("heavy"), sup.var("tres")
    eres, cnd = sup.var("eres"), sup.var("cnd")
    nodes = {
        p: SNode(p, "cst", lit=True),
        c0: SNode(c0, "cst", lit=7),
        heavy: SNode(heavy, "op:heavy", (c0,)),
        tres: SNode(tres, "op:use", (heavy,)),
        eres: SNode(eres, "cst", lit=0),
        cnd: SNode(cnd, "cond", (p,), body_res=(tres, eres)),
    }
    assert emit(schedule(SGraph(nodes, cnd), freq=True)) == (
        "let p_1 = true in\n"
        "let cnd_6 = if p_1 then (\n"
        "  let c0_2 = 7 in\n"
        "  let heavy_3 = heavy(c0_2) in\n"
        "  let tres_4 = use(heavy_3) in\n"
        "  tres_4\n"
        ") else (\n"
        "  let eres_5 = 0 in\n"
        "  eres_5\n"
        ") in\n"
        "cnd_6")

    # (c) compact traversal refuses to fold a read past a later write of
    # the same cell, even when the read's only consumer sits after it
    refusal = ("let x = ref(w, 1) in "
               "let f = fun (p: Int^{}) =>{rd{x} wr{}} !x in "
               "let y = !x in let u = x := 2 in f y")
    assert emit(schedule(flatten_config(_build_config(refusal, RW)),
                         compact=True)) == (
        "let r_8 = ref(w, 1) in\n"
        "let d_14 = !r_8 in\n"
        "let s_17 = r_8 := 2 in\n"
        "let f_10 = fun (p_2: Int^{}) =>{rd{r_8} wr{}} (\n"
        "  !r_8\n"
        ") in\n"
        "f_10 d_14")

    # ...but fuses a pure matrix multiply-accumulate into one leaf
    sup = NameSupply(1)
    A, B, C = sup.var("A"), sup.var("B"), sup.var("C")
    mm, X = sup.var("mm"), sup.var("X")
    nodes = {n: SNode(n, "op:tensor") for n in (A, B, C)}
    nodes[mm] = SNode(mm, "op:matmul", (A, B))
    nodes[X] = SNode(X, "op:add", (C, mm))
    assert emit(schedule(SGraph(nodes, X), compact=True,
                         matchers=("gemm",))) == \
        "gemm(tensor(), tensor(), tensor(), 1.0, 1.0)"

    print("\nPASS criterion 7: dead-write removal, both code-motion "
          "directions, the inlining refusal, and the fused-kernel golden "
          "all matched exactly")


def test_criterion_8_scheduling_scales():
    # the sizes are timed interleaved (small, big, small, big, ...) so that
    # a slow phase of a shared machine slows both; each keeps its best time
    # of SCHED_ROUNDS
    graphs = [synthetic_graph(n, SCHED_DEPTH, seed=0)
              for n in (SMALL_N, BIG_N)]
    best = [float("inf")] * len(graphs)
    gc_was_on = gc.isenabled()
    try:
        gc.disable()
        for sg in graphs:
            schedule(sg)  # warm up code paths
        for _ in range(SCHED_ROUNDS):
            for i, sg in enumerate(graphs):
                t0 = time.perf_counter()
                schedule(sg)
                best[i] = min(best[i], time.perf_counter() - t0)
    finally:
        if gc_was_on:
            gc.enable()
    t_small, t_big = best
    ratio = t_big / t_small
    assert t_big < SCHED_BUDGET_S
    assert ratio <= SCHED_RATIO_LIMIT
    print(f"\nPASS criterion 8: scheduled {BIG_N} nodes in {t_big:.2f}s "
          f"(budget {SCHED_BUDGET_S:.0f}s); T({BIG_N})/T({SMALL_N}) = "
          f"{ratio:.1f} (limit {SCHED_RATIO_LIMIT:.0f})")


def reaching_graph(n, depth, seed):
    """A random graph of about `n` nodes, with lambda scopes nested up to
    `depth` deep, whose result reaches every node: each node uses up to
    three recent nodes of its own scope, its parameter or nodes of the
    enclosing scopes, and each scope ends in joins of the nodes that
    nothing in it uses yet."""
    rng, sup, nodes = Random(seed), NameSupply(1), {}

    def block(budget, d, param, env):
        made, unused = [], {}     # unused: an ordered set
        while budget > 0:
            if d < depth and budget > 40 and rng.random() < 0.02:
                sub = rng.randint(20, min(budget - 1, 400))
                x = sup.var("x")
                res = block(sub - 1, d + 1, x, env + made[-3:])
                sym = sup.var("f")
                nodes[sym] = SNode(sym, "lam", params=(x,), body_res=(res,))
                budget -= sub
            else:
                pool = made[-6:] + env[-3:] + ([param] if param else [])
                args = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
                sym = sup.var("n")
                nodes[sym] = SNode(sym, "op:gen", tuple(args))
                for a in args:
                    unused.pop(a, None)
                budget -= 1
            made.append(sym)
            unused[sym] = None
        pending = list(unused)
        while len(pending) > 1 or not pending:
            sym = sup.var("j")
            nodes[sym] = SNode(sym, "op:join", tuple(pending[-4:]) or (param,))
            pending[-4:] = [sym]
        return pending[0]

    return SGraph(nodes, block(n, 0, None, []))


def test_scheduling_walk_scales():
    """Criterion 8's graph reaches one leaf from its result, so it times
    set-up; this graph's result reaches every node, so the walk, the
    placement and the trees grow with it. Timed as criterion 8 is, but
    in CPU time, which a shared machine's other work does not inflate."""
    graphs = [reaching_graph(n, SCHED_DEPTH, seed=0)
              for n in (SMALL_N, BIG_N)]
    for sg in graphs:
        seen, todo = {sg.result}, [sg.result]
        while todo:
            node = sg.nodes[todo.pop()]
            for m in node.args + node.body_res:
                if m in sg.nodes and m not in seen:
                    seen.add(m)
                    todo.append(m)
        assert len(seen) == len(sg.nodes)
    best = [float("inf")] * len(graphs)
    gc_was_on = gc.isenabled()
    try:
        gc.disable()
        for sg in graphs:
            schedule(sg, freq=True, compact=True)  # warm up code paths
        for _ in range(SCHED_ROUNDS):
            for i, sg in enumerate(graphs):
                t0 = time.process_time()
                schedule(sg, freq=True, compact=True)
                best[i] = min(best[i], time.process_time() - t0)
    finally:
        if gc_was_on:
            gc.enable()
    t_small, t_big = best
    ratio = t_big / t_small
    assert ratio <= SCHED_RATIO_LIMIT
    print(f"\nPASS scheduling walk: {len(graphs[1].nodes)} reached nodes in "
          f"{t_big:.2f}s; T({BIG_N})/T({SMALL_N}) = {ratio:.1f} "
          f"(limit {SCHED_RATIO_LIMIT:.0f})")


def test_criterion_9_separation_is_preserved():
    checked = 0
    seed = 0
    while checked < SEPARATION_PAIRS:
        store = initial_store()
        t1 = gen_well_typed(GenConfig(seed=2 * seed, max_depth=4), store)
        t2 = gen_well_typed(GenConfig(seed=2 * seed + 1, max_depth=4),
                            store)
        seed += 1
        try:
            rep = separation_probe(t1, t2, store)
        except OverlapViolation:
            continue  # not a disjoint pair; draw again
        assert rep.disjoint and rep.failure is None
        assert len(rep.history) == rep.steps + 1
        checked += 1
    print(f"\nPASS criterion 9: qualifiers stayed disjoint at every "
          f"interleaved step for {checked}/{SEPARATION_PAIRS} pairs")
