"""Scheduling graphs back into scoped trees: dead-write elimination,
frequency-driven code motion, compact traversal, instruction matchers,
and the synthetic benchmark plumbing."""

import gc
import hashlib
import itertools
import time
from random import Random

import pytest

from girkit.cli import _build_config, parse
from girkit.core import (
    CyclicDependency, HARD, NameSupply, RW, UnboundName, initial_store,
)
from girkit.interp import canonical_value, eval_graph, eval_store
from girkit.schedule import (
    NORMAL, SGraph, SNode, _Deps, emit, flatten_config, schedule,
    synthetic_graph, time_schedule,
)
from girkit.testkit import GenConfig, gen_well_typed, _fresh_store_for
from girkit.mnf import to_mnf
from girkit.graphir import synthesize_config


def emitted(src, regime=RW, **opts):
    return emit(schedule(flatten_config(_build_config(src, regime)), **opts))


def run_text(text):
    store = initial_store()
    r = eval_store(store, parse(text, store))
    return canonical_value(r.store, r.value)


WAW_SRC = "let r = ref(w, 0) in let a = r := 1 in let b = r := 2 in !r"

RW_AFTER_WRITE_SRC = (
    "let x = ref(w, 1) in "
    "let f = fun (p: Int^{}) =>{rd{x} wr{}} !x in "
    "let y = !x in let u = x := 2 in f y")


class TestFlatten:
    def test_alias_bindings_are_spliced(self):
        cfg = _build_config("let x = ref(w, 0) in let y = x in !y", HARD)
        sg = flatten_config(cfg)
        ops = [n.op for n in sg.nodes.values()]
        assert ops.count("ref") == 1 and "alias" not in ops
        deref = [n for n in sg.nodes.values() if n.op == "deref"][0]
        ref = [n for n in sg.nodes.values() if n.op == "ref"][0]
        assert deref.args == (ref.sym,)  # the alias resolved away

    def test_effectful_lambda_body_nodes_are_pinned_to_the_parameter(self):
        cfg = _build_config(RW_AFTER_WRITE_SRC, RW)
        sg = flatten_config(cfg)
        lam = [n for n in sg.nodes.values() if n.op == "lam"][0]
        body = sg.nodes[lam.body_res[0]]
        assert body.op == "deref"
        assert lam.params[0] in body.hard


class TestEstimateFreq:
    def _graph(self):
        sup = NameSupply(1)
        a, r, f, x = sup.var("a"), sup.var("r"), sup.var("f"), sup.var("x")
        p, t, e, c = sup.var("p"), sup.var("t"), sup.var("e"), sup.var("c")
        nodes = {
            a: SNode(a, "cst", lit=1),
            r: SNode(r, "op:gen", (a, x)),
            f: SNode(f, "lam", params=(x,), body_res=(r,)),
            p: SNode(p, "cst", lit=True),
            t: SNode(t, "cst", lit=1),
            e: SNode(e, "cst", lit=2),
            c: SNode(c, "cond", (p,), body_res=(t, e)),
        }
        return nodes, (a, r, f, x, p, t, e, c)

    @staticmethod
    def _freqs(sg, n):
        """The scheduler's per-dependency frequencies of node n, by name;
        an absent dependency runs at NORMAL."""
        dv = _Deps(sg)
        freq = dv.freq[dv.index_of(n)]
        return {m: freq.get(dv.index_of(m), NORMAL) for m in sg.nodes}

    def test_lambda_results_run_hot(self):
        nodes, (a, r, f, *_rest) = self._graph()
        assert self._freqs(SGraph(nodes, f), f)[r] == 100.0

    def test_conditional_branch_results_run_cold(self):
        nodes, (*_h, p, t, e, c) = self._graph()
        freqs = self._freqs(SGraph(nodes, c), c)
        assert freqs[t] == 0.5 and freqs[e] == 0.5

    def test_ordinary_data_dependencies_are_neutral(self):
        nodes, (a, r, *_rest) = self._graph()
        assert self._freqs(SGraph(nodes, r), r)[a] == 1.0


class TestDeadWrites:
    def test_overwritten_write_disappears_with_soft_deps(self):
        out = emitted(WAW_SRC, RW)
        assert out.count(":=") == 1 and "= 1 in" not in out
        assert run_text(out) == ("cst", "Int", 2)

    def test_hard_regime_keeps_the_write_chain(self):
        out = emitted(WAW_SRC, HARD)
        assert out.count(":=") == 2
        assert out.index("= 1 in") < out.index("= 2 in")
        assert run_text(out) == ("cst", "Int", 2)

    def test_trailing_write_is_dead_code(self):
        src = "let r = ref(w, 5) in let u = r := 9 in !r"
        # the final read happens before nothing else: under soft deps the
        # later write can still not be dropped (it precedes the read), but
        # a write after the last read can
        src = "let r = ref(w, 5) in let y = !r in let u = r := 9 in y"
        out = emitted(src, RW)
        assert ":=" not in out
        assert run_text(out) == ("cst", "Int", 5)


@pytest.mark.xfail(strict=True, reason="scheduling follows no edge from "
                   "the result to the last write of its cell")
def test_returned_cell_keeps_its_last_write():
    src = "let r = ref(w, 1) in let u = r := 5 in r"
    for regime in (HARD, RW):
        assert run_text(emitted(src, regime)) == (
            "ref", ("cst", "Int", 5)), regime


@pytest.mark.xfail(strict=True, reason="scheduling drops the write inside "
                   "the lambda body, so the final read sees the first value")
def test_lambda_body_keeps_its_write():
    src = ("let r = ref(w, 1) in "
           "let f = fun (p: Int^{}) =>{rd{} wr{r}} (let u = r := p in 0) in "
           "let v = f 7 in !r")
    assert run_text(src) == ("cst", "Int", 7)
    for regime in (HARD, RW):
        for opts in ({}, {"freq": True, "compact": True}):
            assert run_text(emitted(src, regime, **opts)) == (
                "cst", "Int", 7), (regime, opts)


class TestFrequencyMotion:
    def _cond_graph(self):
        sup = NameSupply(1)
        p, c0 = sup.var("p"), sup.var("c0")
        heavy, tres, eres, cnd = (sup.var("heavy"), sup.var("tres"),
                                  sup.var("eres"), sup.var("cnd"))
        nodes = {
            p: SNode(p, "cst", lit=True),
            c0: SNode(c0, "cst", lit=7),
            heavy: SNode(heavy, "op:heavy", (c0,)),
            tres: SNode(tres, "op:use", (heavy,)),
            eres: SNode(eres, "cst", lit=0),
            cnd: SNode(cnd, "cond", (p,), body_res=(tres, eres)),
        }
        return SGraph(nodes, cnd)

    def test_branch_only_node_sinks_into_its_branch(self):
        out = emit(schedule(self._cond_graph(), freq=True))
        then_block = out.split("then (")[1].split(") else")[0]
        assert "heavy(" in then_block

    def test_without_frequencies_the_node_stays_outside(self):
        out = emit(schedule(self._cond_graph(), freq=False))
        before_cond = out.split("if ")[0]
        assert "heavy(" in before_cond

    def test_parameter_independent_node_leaves_the_lambda(self):
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
        for freq in (False, True):
            out = emit(schedule(SGraph(nodes, call), freq=freq))
            before_lam = out.split("fun ")[0]
            assert "factorial(" in before_lam

    def test_a_read_before_a_write_stays_there_when_only_a_branch_uses_it(
            self):
        """The write's soft edge makes the read hot, so the read stays
        outside the branch and before the write, though the walk reaches
        it only through the branch's (cold) result."""
        sup = NameSupply(1)
        c1, x, d, c2, s, u, z, p, k = (sup.var(t) for t in "cxdcsuzpk")
        nodes = {
            c1: SNode(c1, "cst", lit=1),
            x: SNode(x, "op:cell", (c1,)),
            d: SNode(d, "deref", (x,)),
            c2: SNode(c2, "cst", lit=2),
            s: SNode(s, "assign", (x, c2), soft=(d,)),
            u: SNode(u, "op:inc", (d,)),
            z: SNode(z, "cst", lit=0),
            p: SNode(p, "cst", lit=True),
            k: SNode(k, "cond", (p,), hard=(s,), body_res=(u, z)),
        }
        assert emit(schedule(SGraph(nodes, k), freq=True)) == (
            "let c_1 = 1 in\n"
            "let x_2 = cell(c_1) in\n"
            "let d_3 = !x_2 in\n"
            "let c_4 = 2 in\n"
            "let s_5 = x_2 := c_4 in\n"
            "let p_8 = true in\n"
            "let k_9 = if p_8 then (\n"
            "  let u_6 = inc(d_3) in\n"
            "  u_6\n"
            ") else (\n"
            "  let z_7 = 0 in\n"
            "  z_7\n"
            ") in\n"
            "k_9")


class TestCompactTraversal:
    def test_single_use_chain_collapses_to_one_expression(self):
        assert emitted("!ref(w, 5)", HARD, compact=True) == "!ref(w, 5)"

    def test_read_is_not_inlined_past_a_write(self):
        out = emitted(RW_AFTER_WRITE_SRC, RW, compact=True)
        # the pre-write read must stay a named binding before the write;
        # folding it into the call site would observe the wrong value
        read_line = [l for l in out.splitlines() if l.startswith("let d")][0]
        assert out.index(read_line) < out.index(":= 2")
        assert run_text(out) == ("cst", "Int", 2)

    def test_cond_predicate_stays_a_named_leaf(self):
        # the emitter prints the predicate by name, so folding a single-use
        # predicate into its only consumer would leave the `if` unbound
        sup = NameSupply(1)
        a, p, t, e, cnd = (sup.var("a"), sup.var("p"), sup.var("t"),
                           sup.var("e"), sup.var("cnd"))
        nodes = {
            a: SNode(a, "cst", lit=3),
            p: SNode(p, "op:positive", (a,)),
            t: SNode(t, "cst", lit=1),
            e: SNode(e, "cst", lit=2),
            cnd: SNode(cnd, "cond", (p,), body_res=(t, e)),
        }
        out = emit(schedule(SGraph(nodes, cnd), compact=True))
        head = out.split(" = if ")[0]
        assert f"let {p.pretty()} = positive(3) in" in head
        assert f"if {p.pretty()} then" in out

    def test_matmul_add_fuses_into_one_leaf(self):
        sup = NameSupply(1)
        A, B, C = sup.var("A"), sup.var("B"), sup.var("C")
        mm, X = sup.var("mm"), sup.var("X")
        nodes = {n: SNode(n, "op:tensor") for n in (A, B, C)}
        nodes[mm] = SNode(mm, "op:matmul", (A, B))
        nodes[X] = SNode(X, "op:add", (C, mm))
        out = emit(schedule(SGraph(nodes, X), compact=True,
                            matchers=("gemm",)))
        assert out == "gemm(tensor(), tensor(), tensor(), 1.0, 1.0)"

    @pytest.mark.parametrize("matchers", [(), ("gemm",)],
                             ids=["plain", "gemm"])
    def test_long_single_use_chain_inlines_at_the_default_limit(
            self, matchers):
        # every step of the chain is folded into one tail expression; the
        # compaction, matchers and printer must not recurse per node
        sup = NameSupply(1)
        prev = sup.var("c")
        nodes = {prev: SNode(prev, "cst", lit=1)}
        for _ in range(5000):
            n = sup.var("n")
            nodes[n] = SNode(n, "op:neg", (prev,))
            prev = n
        out = emit(schedule(SGraph(nodes, prev), compact=True,
                            matchers=matchers))
        assert out.count("neg(") == 5000
        assert out == "neg(" * 5000 + "1" + ")" * 5000

    def test_integer_multiply_add_fuses(self):
        sup = NameSupply(1)
        a, b, c = sup.var("a"), sup.var("b"), sup.var("c")
        mul, add = sup.var("mul"), sup.var("add")
        nodes = {n: SNode(n, "cst", lit=i) for i, n in enumerate((a, b, c))}
        nodes[mul] = SNode(mul, "op:imul", (b, c))
        nodes[add] = SNode(add, "op:iadd", (a, mul))
        out = emit(schedule(SGraph(nodes, add), compact=True,
                            matchers=("addmul",)))
        assert "muladd(" in out and "iadd(" not in out


class TestSemanticPreservation:
    @pytest.mark.parametrize("opts", [
        {}, {"freq": True}, {"compact": True},
        {"freq": True, "compact": True},
    ])
    def test_emitted_text_evaluates_like_the_graph(self, opts):
        for seed in range(12):
            t = gen_well_typed(GenConfig(seed=seed, max_depth=5))
            for regime in (HARD, RW):
                s = _fresh_store_for(t)
                cfg = synthesize_config(s, to_mnf(t, s.supply),
                                        regime=regime)
                r = eval_graph(cfg)
                want = canonical_value(r.store, r.value)
                out = emit(schedule(flatten_config(cfg), **opts))
                assert run_text(out) == want, (seed, regime)

    def test_a_lambda_returning_an_outer_parameter_stays_in_its_scope(self):
        """The inner lambda's body is only the outer parameter, so no node
        of it pins it there: its result must."""
        src = ("(fun (x: Int^{}) =>{rd{} wr{}} fun (y: Int^{}) =>{rd{} "
               "wr{}} x) 1 2")
        for opts in ({}, {"freq": True, "compact": True}):
            out = emitted(src, **opts)
            assert run_text(out) == run_text(src) == ("cst", "Int", 1)

    def test_reparse_and_reschedule_is_a_fixpoint(self):
        out1 = emitted(RW_AFTER_WRITE_SRC, RW)
        out2 = emit(schedule(flatten_config(_build_config(out1, RW))))
        out3 = emit(schedule(flatten_config(_build_config(out2, RW))))
        assert out3 == out2


# sha256 of the scheduler's output on the graphs and options below; a change
# to the scheduler must reproduce it byte for byte
SCHEDULE_PIN = (
    "f9493858c28566caecb3a5574e40167dc8db2714e642a7e3f027bfd1e71c0c7b")


def test_schedule_output_is_pinned():
    from benchmark import gen
    digest = hashlib.sha256()
    for s in range(3):
        # sched_graph has lam/loop/cond scopes, effect chains and
        # matmul/add pairs; synthetic_graph has deep lambda nesting
        for sg in (gen.sched_graph(Random(s), 3000, shared_predicates=s > 0),
                   synthetic_graph(2000, 8, s)):
            for freq, compact, matchers in itertools.product(
                    (False, True), (False, True),
                    ((), ("gemm",), ("addmul",))):
                block = schedule(sg, freq=freq, compact=compact,
                                 matchers=matchers)
                digest.update(emit(block).encode())
                digest.update(b"\0")
    assert digest.hexdigest() == SCHEDULE_PIN


def nested_lambdas(n, free=False):
    """A graph of `n` nested lambdas, each the body result of the one
    before and each using its parent's parameter; the innermost returns
    a node using its own parameter and, if `free`, a node that needs no
    parameter. Returns the graph, the lambdas, their parameters and the
    innermost result."""
    sup = NameSupply(1)
    fs = [sup.var("f") for _ in range(n)]
    xs = [sup.var("x") for _ in range(n)]
    leaf = sup.var("n")
    nodes = {}
    if free:
        g = sup.var("g")
        nodes[g] = SNode(g, "op:gen")
    nodes[leaf] = SNode(leaf, "op:gen", (xs[-1], g) if free else (xs[-1],))
    for i, f in enumerate(fs):
        nodes[f] = SNode(f, "lam", (xs[i - 1],) if i else (),
                         params=(xs[i],),
                         body_res=(fs[i + 1] if i + 1 < n else leaf,))
    return SGraph(nodes, fs[0]), fs, xs, leaf


def nested_text(fs, xs, innermost, top=()):
    """The text `emit` prints for `nested_lambdas`' graph: the `top`
    lines, each lambda's header, the `innermost` lines in the innermost
    body, then each lambda's close and name."""
    n = len(fs)
    pad = ["  " * i for i in range(n + 1)]
    want = list(top)
    want += [f"{pad[i]}let {f.pretty()} = fun ({xs[i].pretty()}: "
             "Int^{}) =>{rd{} wr{}} (" for i, f in enumerate(fs)]
    want += [pad[n] + line for line in innermost]
    for i in reversed(range(n)):
        want += [f"{pad[i]}) in", pad[i] + fs[i].pretty()]
    return "\n".join(want)


# sha256 of the output of the `sched` benchmark op (`benchmark/workloads.py`
# `sched_op`) on one graph of the workload's size
SCHED_OP_PIN = (
    "e50eb018d4dfd75615871d1f0dd5a57a8cfa8a19e0e168147affa570e4e99138")


def test_schedule_output_is_pinned_at_the_workload_size():
    from benchmark import gen
    sg = gen.sched_graph(Random(0), 20000)
    block = schedule(sg, freq=True, compact=True, matchers=("gemm",))
    assert hashlib.sha256(emit(block).encode()).hexdigest() == SCHED_OP_PIN


class TestSyntheticGraphs:
    def test_generator_is_seeded_and_sized(self):
        sg = synthetic_graph(300, 6, seed=3)
        sg2 = synthetic_graph(300, 6, seed=3)
        assert len(sg.nodes) == 300
        assert emit(schedule(sg)) == emit(schedule(sg2))

    def test_nesting_depth_is_bounded(self):
        sg = synthetic_graph(2000, 4, seed=1)

        def depth(block, d=0):
            from girkit.schedule import Scope
            best = d
            for t in block.trees:
                if isinstance(t, Scope):
                    from girkit.schedule import Block
                    best = max(best, depth(Block(t.children, t.result),
                                           d + 1))
            return best

        assert depth(schedule(sg)) <= 4

    def test_timer_reports_a_positive_duration(self):
        assert time_schedule(500, depth=4, seed=0, repeat=2) > 0.0

    @pytest.mark.parametrize(
        "compact,freq", [(False, False), (True, False), (False, True),
                         (True, True)],
        ids=["False", "True", "False-freq", "True-freq"])
    def test_deeply_nested_scopes_schedule_and_emit(self, compact, freq):
        """2,000 lambdas, each the body result of the one before and each
        using its parent's parameter, so that none can leave its parent:
        scheduling and emission nest them all at the default recursion
        limit, which one frame per scope would exceed twice over."""
        sg, fs, xs, leaf = nested_lambdas(2000)
        gen = f"gen({xs[-1].pretty()})"
        innermost = ([gen] if compact
                     else [f"let {leaf.pretty()} = {gen} in", leaf.pretty()])
        assert emit(schedule(sg, compact=compact, freq=freq)) == \
            nested_text(fs, xs, innermost)

    @pytest.mark.parametrize("freq", [False, True])
    def test_a_parameter_free_node_leaves_every_scope(self, freq):
        """A node that needs no parameter, used only by the innermost of
        500 nested lambdas, is placed at the top, before them all."""
        sg, fs, xs, leaf = nested_lambdas(500, free=True)
        g = sg.nodes[leaf].args[1]
        innermost = [f"let {leaf.pretty()} = "
                     f"gen({xs[-1].pretty()}, {g.pretty()}) in",
                     leaf.pretty()]
        assert emit(schedule(sg, freq=freq)) == nested_text(
            fs, xs, innermost, top=[f"let {g.pretty()} = gen() in"])

    def test_scheduling_is_linear_in_nesting_depth(self):
        """`schedule` of 20,000 nested lambdas takes at most 2 s in each
        mode, and at most 15 times as long as 2,000 of them: each block
        walks only what it can still place. The sizes are timed
        interleaved, best of 5, in CPU time (which a shared machine's
        other work does not inflate), with the collector off. `emit` is
        not timed: its text indents two spaces per level, so its size
        grows with the square of the depth (192.5M characters at
        8,000)."""
        small, big = (nested_lambdas(n)[0] for n in (2000, 20000))
        gc_was_on = gc.isenabled()
        try:
            gc.disable()
            for opts in ({}, {"freq": True}, {"compact": True}):
                best = [float("inf")] * 2
                for _ in range(5):
                    for i, sg in enumerate((small, big)):
                        t0 = time.process_time()
                        schedule(sg, **opts)
                        best[i] = min(best[i], time.process_time() - t0)
                assert best[1] <= 2.0, (opts, best)
                assert best[1] / best[0] <= 15, (opts, best)
        finally:
            if gc_was_on:
                gc.enable()

    def test_cyclic_dependencies_are_reported(self):
        sup = NameSupply(1)
        a, b = sup.var("a"), sup.var("b")
        nodes = {a: SNode(a, "op:gen", (b,)), b: SNode(b, "op:gen", (a,))}
        with pytest.raises(CyclicDependency):
            schedule(SGraph(nodes, a))

    @pytest.mark.parametrize("opts", [{}, {"freq": True},
                                      {"compact": True}])
    def test_a_result_needing_an_unbound_parameter_is_reported(self, opts):
        """`f = lam x. a`, `a = op:gen(x)` and the result `b = op:gen(a)`:
        no binder encloses the top block, so `b` can be placed nowhere.
        The schedule used to be the bare name `b`, bound by nothing."""
        sup = NameSupply(1)
        f, x, a, b = sup.var("f"), sup.var("x"), sup.var("a"), sup.var("b")
        nodes = {f: SNode(f, "lam", params=(x,), body_res=(a,)),
                 a: SNode(a, "op:gen", (x,)),
                 b: SNode(b, "op:gen", (a,))}
        with pytest.raises(UnboundName) as e:
            schedule(SGraph(nodes, b), **opts)
        assert e.value.code == "E001" and e.value.payload == {"name": x}
        # bound where it is needed, the same nodes schedule
        inner = SNode(f, "lam", params=(x,), body_res=(b,))
        closed = {f: inner, a: nodes[a], b: nodes[b]}
        text = emit(schedule(SGraph(closed, f), **opts))
        assert text.endswith(f.pretty()) and text.count("gen(") == 2
