"""Graph rewrites: one positive and one per-premise negative for each
rule, plus fixpoint-driver behavior and soundness spot checks."""

import gc
import hashlib
import importlib
import pickle
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from girkit.core import (
    App, Cell, Cst, Deref, GLet, GName, GirError, HARD, Lam, Let, NApp,
    NAssign,
    NCst, NDeref, NLam, NRef, Nm, PURE, QualifiedType,
    RW, RuntimeConfig, RwEffect, SideConditionFailed, TY_ALLOC, TY_INT,
    TypingContext, graph_free_names, graph_to_text, initial_store, spine,
    term_to_text,
)
from girkit.cli import _front_end, main
from girkit.graphir import (
    erase, initial_state, resynthesize, synthesize, synthesize_config,
)
from girkit.interp import canonical_value, eval_graph
from girkit.mnf import check_binding, to_mnf
from girkit.optimize import RULES, _capability_reach, optimize, walk
from girkit.testkit import GenConfig, fuzz, gen_well_typed, opportunity
from girkit.typecheck import Typing
from test_graphir import cell_chain

rw_dce = RULES["dce"]
rw_comm = RULES["comm"]
rw_hoist = RULES["hoist"]
rw_inline = RULES["inline"]
rw_cse = RULES["cse"]


def synth(store, g, regime=HARD):
    st, z = initial_state(store, regime=regime)
    g2, slice_ = synthesize(st, g)
    return st, z, g2, slice_


def node_ops(g):
    out = []
    while isinstance(g, GLet):
        out.append(type(g.binding).__name__)
        g = g.body
    return out


def spine_positions(g):
    """Each binder's index in its own let spine, nested scopes included."""
    out, todo = {}, [g]
    while todo:
        u, i = todo.pop(), 0
        while isinstance(u, GLet):
            out[u.var] = i
            if isinstance(u.binding, GLet):
                todo.append(u.binding)
            elif isinstance(u.binding, NLam):
                todo.append(u.binding.body)
            u, i = u.body, i + 1
    return out


class TestDce:
    def test_unused_pure_binding_is_removed(self):
        store = initial_store()
        sup = store.supply
        x, y = sup.var("x"), sup.var("y")
        st, _, g2, _ = synth(store, GLet(x, NCst(41), GLet(y, NCst(1),
                                                           GName(y))))
        got = rw_dce(st, g2, (), sup)
        assert graph_to_text(erase(got)) == f"let {y.pretty()} = 1 in {y.pretty()}"

    def test_unused_allocation_is_removed(self):
        store = initial_store()
        sup = store.supply
        c, x, k = sup.var("c"), sup.var("x"), sup.var("k")
        g = GLet(c, NCst(0),
                 GLet(x, NRef(store.w, c), GLet(k, NCst(7), GName(k))))
        st, _, g2, _ = synth(store, g)
        got = rw_dce(st, g2, (1,), sup)
        assert node_ops(got) == ["NCst", "NCst"]

    def test_writes_are_never_dead_at_a_site(self):
        store = initial_store()
        sup = store.supply
        r = store.alloc(Cell(0), "r")
        c, x, k = sup.var("c"), sup.var("x"), sup.var("k")
        g = GLet(c, NCst(1),
                 GLet(x, NAssign(r, c), GLet(k, NCst(7), GName(k))))
        st, _, g2, _ = synth(store, g)
        with pytest.raises(SideConditionFailed):
            rw_dce(st, g2, (1,), sup)

    def test_capability_reach_goes_by_location(self):
        # a variable aliasing w is typed Alloc too; bound before w, it
        # must not stand in for the capability
        store = initial_store()
        w, a = store.w, store.supply.var("a")
        ctx = (TypingContext().bind(a, QualifiedType(TY_ALLOC, frozenset({w})))
               .bind(w, QualifiedType(TY_ALLOC)).with_phi(frozenset({a, w})))
        assert _capability_reach(ctx) == frozenset({w})


class TestComm:
    def test_writes_to_disjoint_cells_swap(self):
        store = initial_store()
        sup = store.supply
        r1, r2 = store.alloc(Cell(0), "r1"), store.alloc(Cell(0), "r2")
        c, a, b = sup.var("c"), sup.var("a"), sup.var("b")
        g = GLet(c, NCst(1),
                 GLet(a, NAssign(r1, c), GLet(b, NAssign(r2, c), GName(b))))
        st, _, g2, _ = synth(store, g)
        got = erase(rw_comm(st, g2, (1,), sup))
        vars_in_order = []
        u = got
        while isinstance(u, GLet):
            vars_in_order.append(u.var)
            u = u.body
        assert vars_in_order == [c, b, a]

    def test_reads_of_one_cell_overlap_in_the_flat_view(self):
        store = initial_store()
        sup = store.supply
        r = store.alloc(Cell(0), "r")
        a, b = sup.var("a"), sup.var("b")
        st, _, g2, _ = synth(store,
                             GLet(a, NDeref(r), GLet(b, NDeref(r),
                                                     GName(b))))
        with pytest.raises(SideConditionFailed):
            rw_comm(st, g2, (), sup)

    def test_data_dependence_blocks_the_swap(self):
        store = initial_store()
        sup = store.supply
        a, b = sup.var("a"), sup.var("b")
        st, _, g2, _ = synth(store,
                             GLet(a, NCst(1), GLet(b, NRef(store.w, a),
                                                   GName(b))))
        with pytest.raises(SideConditionFailed):
            rw_comm(st, g2, (), sup)


class TestHoist:
    def test_pure_parameter_independent_binding_moves_out(self):
        store = initial_store()
        sup = store.supply
        f, p, h = sup.var("f"), sup.var("p"), sup.var("h")
        lam = NLam(p, QualifiedType(TY_INT), PURE,
                   GLet(h, NCst(5), GName(h)), None)
        st, _, g2, _ = synth(store, GLet(f, lam, GName(f)))
        got = erase(rw_hoist(st, g2, (), sup))
        assert got.var == h and isinstance(got.binding, NCst)
        assert isinstance(got.body.binding, NLam)

    def test_parameter_dependent_binding_stays_inside(self):
        store = initial_store()
        sup = store.supply
        f, p, h, q = sup.var("f"), sup.var("p"), sup.var("h"), sup.var("q")
        inner = NLam(q, QualifiedType(TY_INT), PURE, GName(p), None)
        lam = NLam(p, QualifiedType(TY_INT), PURE,
                   GLet(h, inner, GName(p)), None)
        st, _, g2, _ = synth(store, GLet(f, lam, GName(f)))
        with pytest.raises(SideConditionFailed):
            rw_hoist(st, g2, (), sup)

    def test_tracked_binding_stays_inside(self, tmp_path):
        # hoisting the alias s of r0 would leave a body that writes s under
        # a latent effect naming r0 (an EffectEscape)
        path = tmp_path / "prog.gir"
        path.write_text("let r0 = ref(w, 6) in "
                        "let f = fun (p: Int^{}) =>{rd{} wr{r0}} r0 := p in "
                        "let u = f 5 in !r0")
        assert main(["opt", str(path), "--passes", "hoist"]) == 0

    def test_effectful_binding_stays_inside(self):
        store = initial_store()
        sup = store.supply
        r = store.alloc(Cell(0), "r")
        c0, f, p, h = sup.var("c0"), sup.var("f"), sup.var("p"), sup.var("h")
        lam = NLam(p, QualifiedType(TY_INT), RwEffect.write(frozenset({r})),
                   GLet(h, NAssign(r, c0), GName(h)), None)
        st, _, g2, _ = synth(store, GLet(c0, NCst(1), GLet(f, lam,
                                                           GName(f))))
        with pytest.raises(SideConditionFailed):
            rw_hoist(st, g2, (1,), sup)


class TestInline:
    def test_known_callee_application_is_expanded(self):
        store = initial_store()
        sup = store.supply
        p, y = sup.var("p"), sup.var("y")
        t = Let(y, App(Lam(p, QualifiedType(TY_INT), PURE, Nm(p)), Cst(5)),
                Nm(y))
        st, _, g2, _ = synth(store, to_mnf(t, sup))
        got, reports = optimize(st, g2, ["inline"], supply=sup)
        assert any(r.fired for r in reports)
        assert "NApp" not in node_ops_deep(got)

    def test_effectful_argument_blocks_inlining(self):
        store = initial_store()
        sup = store.supply
        r = store.alloc(Cell(0), "r")
        p, y = sup.var("p"), sup.var("y")
        t = Let(y, App(Lam(p, QualifiedType(TY_INT), PURE, Nm(p)),
                       Deref(Nm(r))), Nm(y))
        st, _, g2, _ = synth(store, to_mnf(t, sup))
        got, reports = optimize(st, g2, ["inline"], supply=sup)
        assert not any(r.fired for r in reports)


class TestCse:
    def test_duplicate_read_collapses_onto_the_first(self):
        store = initial_store()
        sup = store.supply
        r = store.alloc(Cell(0), "r")
        a, b = sup.var("a"), sup.var("b")
        st, _, g2, _ = synth(store, GLet(a, NDeref(r),
                                         GLet(b, NDeref(r), GName(b))))
        got = erase(rw_cse(st, g2, (), sup))
        assert got == GLet(a, NDeref(r), GName(a), None)

    def test_allocations_are_never_merged(self):
        store = initial_store()
        sup = store.supply
        c, x, y = sup.var("c"), sup.var("x"), sup.var("y")
        g = GLet(c, NCst(0), GLet(x, NRef(store.w, c),
                                  GLet(y, NRef(store.w, c), GName(y))))
        st, _, g2, _ = synth(store, g)
        with pytest.raises(SideConditionFailed):
            rw_cse(st, g2, (1,), sup)

    def test_bool_and_int_constants_are_never_identified(self):
        # 0 == False in Python; the identity check must not conflate them
        store = initial_store()
        sup = store.supply
        a, b = sup.var("a"), sup.var("b")
        st, _, g2, _ = synth(store, GLet(a, NCst(0),
                                         GLet(b, NCst(False), GName(b))))
        with pytest.raises(SideConditionFailed):
            rw_cse(st, g2, (), sup)

    def test_intervening_write_blocks_the_merge(self):
        store = initial_store()
        sup = store.supply
        r = store.alloc(Cell(0), "r")
        c, a, w_, b = sup.var("c"), sup.var("a"), sup.var("wr"), sup.var("b")
        g = GLet(c, NCst(9),
                 GLet(a, NDeref(r),
                      GLet(w_, NAssign(r, c),
                           GLet(b, NDeref(r), GName(b)))))
        st, _, g2, _ = synth(store, g)
        _, reports = optimize(st, g2, ["cse"], supply=sup)
        assert not any(r.fired for r in reports)

    def test_bindings_of_two_node_types_fail_before_erasing(
            self, monkeypatch):
        # a nested block beside a read: no erasure can make them equal
        store = initial_store()
        sup = store.supply
        r = store.alloc(Cell(0), "r")
        a, c, b = sup.var("a"), sup.var("c"), sup.var("b")
        g = GLet(a, GLet(c, NDeref(r), GName(c)),
                 GLet(b, NDeref(r), GName(b)))
        st, _, g2, _ = synth(store, g)
        erased = []
        opt = importlib.import_module("girkit.optimize")
        monkeypatch.setattr(opt, "erase",
                            lambda t: erased.append(t) or erase(t))
        with pytest.raises(SideConditionFailed,
                           match="^bindings are not identical$"):
            rw_cse(st, g2, (), sup)
        assert erased == []


def node_ops_deep(g):
    out = []

    def go(u):
        if isinstance(u, GLet):
            go(u.binding)
            go(u.body)
        elif isinstance(u, NLam):
            go(u.body)
        elif not isinstance(u, GName):
            out.append(type(u).__name__)

    go(g)
    return out


class TestDriver:
    def test_dead_pure_chains_vanish_at_fixpoint(self):
        store = initial_store()
        sup = store.supply
        a, f, h, k = sup.var("a"), sup.var("f"), sup.var("h"), sup.var("k")
        p1, p2 = sup.var("p1"), sup.var("p2")
        # a <- f <- h, a pure chain unused by the result: removing h
        # frees f, which frees a
        lam_f = NLam(p1, QualifiedType(TY_INT), PURE, GName(a), None)
        lam_h = NLam(p2, QualifiedType(TY_INT), PURE, GName(f), None)
        g = GLet(a, NCst(1),
                 GLet(f, lam_f,
                      GLet(h, lam_h, GLet(k, NCst(7), GName(k)))))
        st, _, g2, _ = synth(store, g)
        got, reports = optimize(st, g2, ["dce"], supply=sup)
        assert node_ops(got) == ["NCst"]
        assert sum(r.fired for r in reports) == 3

    def test_empty_pass_list_is_the_identity(self):
        store = initial_store()
        sup = store.supply
        a = sup.var("a")
        st, _, g2, _ = synth(store, GLet(a, NCst(1), GName(a)))
        got, reports = optimize(st, g2, [], supply=sup)
        assert graph_to_text(got) == graph_to_text(g2) and reports == []

    def test_fixpoint_is_idempotent(self):
        store, g = opportunity("dce", GenConfig(seed=4, max_depth=4))
        st, _, g2, _ = synth(store, g)
        once, _ = optimize(st, g2, ["dce", "cse"], supply=store.supply)
        twice, again = optimize(st, once, ["dce", "cse"], supply=store.supply)
        assert graph_to_text(twice) == graph_to_text(once)
        assert not any(r.fired for r in again)

    def test_rewrites_land_in_the_synthesis_image(self):
        store, g = opportunity("inline", GenConfig(seed=9, max_depth=4))
        st, _, g2, _ = synth(store, g)
        got, _ = optimize(st, g2, ["inline", "dce"], supply=store.supply)
        back, _ = synthesize(st, erase(got))
        assert graph_to_text(back) == graph_to_text(got)

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_each_rule_preserves_the_result(self, rule):
        for seed in range(5):
            store, g = opportunity(rule, GenConfig(seed=seed, max_depth=4))
            st, z, g2, slice_ = synth(store, g)
            before = eval_graph(RuntimeConfig(store.copy(), z, g2, slice_))
            got, reports = optimize(st, g2, [rule], fuel=8,
                                    supply=store.supply)
            assert any(r.fired for r in reports)
            after = eval_graph(RuntimeConfig(store.copy(), z, got, slice_))
            assert (canonical_value(before.store, before.value)
                    == canonical_value(after.store, after.value))


class TestDeepSites:
    """A site's `rebuild` puts the lets before it back in one loop, so a
    fire far down a spine nests no Python frame per let: in a lambda body
    through the driver, and on the top spine through a path-form call."""

    @staticmethod
    def aliases(store, n, first):
        """`let x1 = first in … let xn = x(n-1) in let d = 7 in xn`: only
        `d` is dead."""
        sup = store.supply
        xs = [sup.var(f"x{i}") for i in range(1, n + 1)]
        g = GLet(sup.var("d"), NCst(7), GName(xs[-1]))
        for prev, x in reversed(list(zip([first] + xs, xs))):
            g = GLet(x, GName(prev), g)
        return g

    def test_a_fire_deep_in_a_lambda_body(self):
        n = 1_500
        assert sys.getrecursionlimit() < n
        store = initial_store()
        sup = store.supply
        p, f = sup.var("p"), sup.var("f")
        body = self.aliases(store, n, p)
        g = GLet(f, NLam(p, QualifiedType(TY_INT), PURE, body), GName(f))
        st, _ = initial_state(store)
        got, reports = optimize(st, g, ["dce"], supply=sup)
        assert [(r.site, r.fired) for r in reports] == [((0,) + (1,) * n,
                                                          True)]
        kept = got.binding.body
        assert node_ops(kept) == ["GName"] * n
        assert spine(kept)[1] == GName(spine(body)[0][n - 1].var)

    def test_a_path_form_fire_deep_in_the_top_spine(self):
        n = 1_500
        store = initial_store()
        sup = store.supply
        x0 = sup.var("x0")
        g = GLet(x0, NCst(1), self.aliases(store, n - 1, x0))
        st, _ = initial_state(store)
        got = rw_dce(st, g, (1,) * n, sup)
        assert node_ops(got) == ["NCst"] + ["GName"] * (n - 1)
        assert spine(got)[1] == spine(g)[1]

    def test_a_comm_sweep_over_a_long_lambda_body(self):
        """Every adjacent pair of constants commutes, and a swapped pair
        is not tried again, so the sweep swaps the body's 1,200 lets pair
        by pair, down to the last pair."""
        n = 1_200
        store = initial_store()
        sup = store.supply
        p, f = sup.var("p"), sup.var("f")
        cs = [sup.var(f"c{i}") for i in range(n)]
        body = GName(cs[-1])
        for i in reversed(range(n)):
            body = GLet(cs[i], NCst(i), body)
        g = GLet(f, NLam(p, QualifiedType(TY_INT), PURE, body), GName(f))
        st, _ = initial_state(store)
        got, reports = optimize(st, g, ["comm"], fuel=10 ** 6, supply=sup)
        assert [r.site for r in reports if r.fired] == [
            (0,) + (1,) * k for k in range(0, n, 2)]
        pairs = [(cs[i + 1], cs[i]) for i in range(0, n, 2)]
        assert [u.var for u in spine(got.binding.body)[0]] == [
            c for pair in pairs for c in pair]


class TestComposedRules:
    def test_all_rules_together_keep_names_in_scope(self):
        # on each seed inlining once followed a callee into a nested block
        # and copied a body naming that block's locals out of their scope
        for seed in (152, 1086, 1156, 1181, 1267, 1355):
            summary = fuzz(count=1, seed=seed, check="optimizer")
            assert summary.failures == 0, (seed, summary.details)


@pytest.fixture
def check_binding_calls(monkeypatch):
    """Counts the `check_binding` calls made through the modules that type
    bindings; a module that does not import it is patched all the same,
    so a call it comes to make is counted too."""
    calls = [0]

    def counting(ctx, b):
        calls[0] += 1
        return check_binding(ctx, b)

    for module in ("mnf", "graphir", "optimize"):
        monkeypatch.setattr(importlib.import_module(f"girkit.{module}"),
                            "check_binding", counting, raising=False)
    return calls


class TestWalkCost:
    def test_check_binding_calls_grow_linearly(self, check_binding_calls):
        """A fired rewrite types at most the bindings from its site on, so
        four times the lets make at most about four times the calls
        (re-walking from the root for every site makes about sixteen)."""
        calls = check_binding_calls

        def checks(lets):
            store, t, _ = _front_end(cell_chain(lets))
            cfg = synthesize_config(store, to_mnf(t, store.supply))
            st, _ = initial_state(cfg.store, cfg.z)
            calls[0] = 0
            optimize(st, cfg.graph, ["dce"], supply=store.supply)
            return calls[0]

        small, large = checks(50), checks(200)
        assert large / small <= 5


class TestTypingsFromSynthesis:
    # three dead bindings (d1, d2 and the dead lambda k) and an
    # application of a known lambda to a discardable argument
    PROGRAM = "\n".join([
        "let r0 = ref(w, 1) in",
        "let f = fun (p: Int^{}) =>{rd{} wr{}} (let q = p in q) in",
        "let d1 = 5 in",
        "let a = 3 in",
        "let d2 = 6 in",
        "let k = fun (s: Int^{}) =>{rd{} wr{}} s in",
        "let v = f a in",
        "let u = r0 := v in",
        "!r0"])

    def program(self):
        store, t, _ = _front_end(self.PROGRAM)
        cfg = synthesize_config(store, to_mnf(t, store.supply))
        st, _ = initial_state(cfg.store, cfg.z)
        return store, st, cfg.graph

    @pytest.mark.parametrize("passes", [["dce"], ["inline", "dce"],
                                        sorted(RULES)])
    def test_one_typing_per_fired_rewrite(self, passes, check_binding_calls):
        """The walk and the rules read the typings synthesis recorded, so
        the optimizer types the program once up front and once per fired
        rewrite, and no more."""
        calls = check_binding_calls
        store, st, g = self.program()
        calls[0] = 0
        synthesize(st, erase(g))
        one = calls[0]
        calls[0] = 0
        _, reports = optimize(st, g, passes, supply=store.supply)
        fired = [r.rule for r in reports if r.fired]
        assert fired.count("dce") >= 3
        assert "inline" in fired or "inline" not in passes
        assert calls[0] <= (len(fired) + 1) * one

    def test_rules_read_the_recorded_typings(self):
        """Every rule at every site of a path-form call agrees with the
        driver on what fires."""
        store, st, g = self.program()
        _, reports = optimize(st, g, sorted(RULES), fuel=1,
                              supply=store.supply, log_misses=True)
        for r in reports:
            store2, st2, g2 = self.program()
            try:
                RULES[r.rule](st2, g2, r.site, store2.supply)
                fired = True
            except SideConditionFailed:
                fired = False
            assert fired == r.fired, r

    def test_no_typing_is_left_in_a_reference_cycle(self):
        """Typings and contexts die with the last reference to them, not
        at the next cyclic collection."""
        store, st, g = self.program()
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            optimize(st, g, sorted(RULES), supply=store.supply)
            gc.collect()
            left = [type(o).__name__ for o in gc.garbage
                    if isinstance(o, (Typing, TypingContext))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []


class TestCommSweep:
    # six writes to distinct cells commute pairwise, and `d` is dead
    PROGRAM = "\n".join(
        [f"let r{i} = ref(w, {i}) in" for i in range(6)]
        + ["let d = 42 in"]
        + [f"let u{i} = r{i} := {10 + i} in" for i in range(6)]
        + ["!r0"])

    def optimized(self, passes):
        store, t, _ = _front_end(self.PROGRAM)
        cfg = synthesize_config(store, to_mnf(t, store.supply))
        st, _ = initial_state(cfg.store, cfg.z)
        return optimize(st, cfg.graph, passes, fuel=50,
                        supply=store.supply)

    def test_comm_does_not_starve_the_other_rules(self):
        _, reports = self.optimized(sorted(RULES))
        fired = [r.rule for r in reports if r.fired]
        assert "dce" in fired
        assert len(fired) < 50

    def test_no_binding_moves_twice(self, monkeypatch):
        moves = Counter()
        comm = RULES["comm"]

        def recorded(st, g, site, supply):
            g2 = comm(st, g, site, supply)
            before, after = spine_positions(g), spine_positions(g2)
            moves.update(x for x in before if after[x] != before[x])
            return g2

        monkeypatch.setitem(RULES, "comm", recorded)
        _, reports = self.optimized(["comm"])
        assert any(r.fired for r in reports)
        assert max(moves.values()) == 1


def occurring(g):
    """The binders of `g` and the names that occur in it."""
    out, todo = set(graph_free_names(g)), [g]
    while todo:
        u = todo.pop()
        if isinstance(u, GLet):
            out.add(u.var)
            todo += (u.binding, u.body)
        elif isinstance(u, NLam):
            out.add(u.param)
            todo.append(u.body)
    return out


def assert_frames_agree(record, fresh, g):
    """Each binder's recorded typing, entry context and entry Δ equal the
    ones synthesis from scratch gives, modulo binders that occur nowhere
    in `g`: such a binder may stand in a recorded context (its map and
    φ) and as a key of a recorded Δ, and nowhere else."""
    alive = occurring(g)
    for v, f in fresh.items():
        r = record[v]
        assert r.typing == f.typing, v
        ghosts = set(r.ctx.env) - set(f.ctx.env)
        assert not ghosts & alive, (v, ghosts & alive)
        assert set(f.ctx.env) <= set(r.ctx.env), v
        assert {k: t for k, t in r.ctx.env.items() if k not in ghosts} == \
            dict(f.ctx.env.items()), v
        assert set(r.ctx.phi) - ghosts == set(f.ctx.phi), v
        d, e = r.last_use, f.last_use
        assert d.default == e.default, v
        for mine, theirs in ((d.hard, e.hard), (d.soft, e.soft)):
            kept = {k: t for k, t in mine.items() if k not in ghosts}
            assert kept == dict(theirs.items()), v
        targets = set(d.hard.values()).union(*d.soft.values())
        assert not targets & (ghosts - set(d.hard)), v


class TestIncrementalSynthesis:
    """After a fired rewrite, synthesis restarts at the first binder the
    rewrite changed and stops where the state converges with the last
    synthesis; what it returns must be what synthesis from scratch
    gives, and what it records must be too, modulo binders that occur
    nowhere."""

    class Oracle:
        def __init__(self):
            self.checked, self.record = 0, None

        def final(self, st, got):
            """The optimized program against synthesis from scratch: the
            annotated graph exactly, and every binder's frame."""
            fresh = {}
            assert got == resynthesize(st, erase(got), fresh)
            assert_frames_agree(self.record, fresh, got)

    @pytest.fixture
    def oracle(self, monkeypatch):
        """Checks every re-synthesis against synthesis from scratch in
        the same entry state: the annotated graph exactly, and each
        binder's typing, entry context and entry Δ modulo binders that
        occur nowhere. Counts the re-syntheses checked."""
        opt = importlib.import_module("girkit.optimize")
        resynthesize, oracle = opt.resynthesize, self.Oracle()

        def compared(st, g, record, old=None):
            got = resynthesize(st, g, record, old)
            oracle.record = record
            if old is None:  # synthesis from scratch
                return got
            fresh = {}
            resynthesize(st, g, fresh)
            assert got == synthesize(st, erase(g))[0]
            assert_frames_agree(record, fresh, got)
            oracle.checked += 1
            return got

        monkeypatch.setattr(opt, "resynthesize", compared)
        return oracle

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_equals_synthesis_from_scratch(self, oracle, regime):
        programs = [_front_end(TestCommSweep.PROGRAM)[:2]]
        for seed in range(150):
            store = initial_store()
            programs.append(
                (store, gen_well_typed(GenConfig(seed=seed, max_depth=6),
                                       store)))
        for store, t in programs:
            st, _ = initial_state(store, regime=regime)
            got, _ = optimize(st, to_mnf(t, store.supply), sorted(RULES),
                              supply=store.supply)
            oracle.final(st, got)
        assert oracle.checked > 300  # 415 fired rewrites, each rule among them

    def test_a_swap_types_only_the_swapped_pair(self, check_binding_calls,
                                                 monkeypatch):
        """A swap leaves the state after the pair as it was, and the pair
        keeps its recorded typings (weakening and strengthening), so a
        fired swap types no binding at all, whatever the program's size.
        Each cell is written right after it is allocated, so the sweep's
        first swaps sit at the top whatever the program's size."""
        opt = importlib.import_module("girkit.optimize")
        calls, per_swap = check_binding_calls, []
        resynthesize = opt.resynthesize

        def counted(st, g, record, old=None):
            before = calls[0]
            got = resynthesize(st, g, record, old)
            if old is not None:
                per_swap.append(calls[0] - before)
            return got

        monkeypatch.setattr(opt, "resynthesize", counted)

        def swaps(n):
            src = "\n".join(
                [f"let r{i} = ref(w, {i}) in let u{i} = r{i} := {i} in"
                 for i in range(n)] + ["!r0"])
            store, t, _ = _front_end(src)
            st, _ = initial_state(store)
            per_swap.clear()
            optimize(st, to_mnf(t, store.supply), ["comm"], fuel=30,
                     supply=store.supply)
            return list(per_swap)

        small = swaps(50)
        assert small == [0] * 30
        assert swaps(200) == small

    def test_the_walk_resumes_as_a_walk_from_the_root(self):
        """The driver fires the rules at the very sites a walk from the
        root after every fire would, and logs the same misses with the
        same reasons, on the programs that need a passed site re-tried
        and on testkit seeds, with the rules in two orders."""
        assert walks_agree()
        for seed in range(60):
            text = term_to_text(gen_well_typed(
                GenConfig(seed=seed, max_depth=6), initial_store()))
            for passes in (sorted(RULES), sorted(RULES, reverse=True)):
                out = []
                for driver in (optimize, walk_from_the_root):
                    store, t, _ = _front_end(text)
                    st, _ = initial_state(store)
                    got, reports = reported(driver, st,
                                            to_mnf(t, store.supply), passes,
                                            store.supply)
                    out.append((graph_to_text(erase(got)), reports))
                assert out[0] == out[1], (seed, passes)

    # Deletions the generator rarely makes. A dead let is deleted by
    # re-threading the state of each let below it (see `resynthesize`);
    # the oracle checks the record it leaves against synthesis from
    # scratch.
    DELETIONS = (
        # a dead allocation followed by more: Δ(w) names it (hard[w] in
        # the hard regime, soft[w] in the read/write one), in the hard
        # regime until the next allocation
        """let r = ref(w, 0) in
        let d = ref(w, 1) in
        let s = ref(w, 2) in
        let u = s := 3 in
        let f = fun (p: Int^{}) =>{rd{s} wr{}} !s in
        let t = ref(w, 4) in
        let y = f 0 in
        let v = (let a = !r in let b = !t in b) in
        !s""",
        # a dead alias of the allocation capability
        """let r = ref(w, 0) in
        let a = w in
        let s = ref(w, 1) in
        let u = r := 2 in
        !s""",
        # a dead closure that captures a cell, and a live one below whose
        # body observes an alias of it (an observation that is not closed)
        """let r = ref(w, 0) in
        let a = r in
        let f = fun (p: Int^{}) =>{rd{r} wr{}} !r in
        let u = r := 1 in
        let s = ref(w, 2) in
        let g = fun (p: Int^{}) =>{rd{s} wr{a}} (let x = !s in a := x) in
        let v = g 3 in
        !r""",
        # a dead binding inside a lambda body that observes an alias
        """let r = ref(w, 0) in
        let a = r in
        let f = fun (p: Int^{}) =>{rd{a} wr{a}}
            (let d = p in let x = !a in let u = a := p in x) in
        let y = f 5 in
        !r""",
        # a dead binding inside a nested block
        """let r = ref(w, 0) in
        let y = (let d = ref(w, 1) in let x = !r in x) in
        let u = r := y in
        !r""",
    )

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_deletions_equal_synthesis_from_scratch(self, oracle, regime):
        for src in self.DELETIONS:
            for passes in (["dce"], sorted(RULES)):
                store, t, _ = _front_end(src)
                st, _ = initial_state(store, regime=regime)
                before = oracle.checked
                got, reports = optimize(st, to_mnf(t, store.supply), passes,
                                        supply=store.supply)
                oracle.final(st, got)
                fired = sum(r.fired and r.rule == "dce" for r in reports)
                assert fired and oracle.checked - before >= fired, src

    def test_a_deletion_types_no_binding_again(self, check_binding_calls,
                                               monkeypatch):
        """A top-level `dce` leaves every typing below the deleted let as
        it was, so its `check_binding` calls per fire do not grow with the
        program."""
        opt = importlib.import_module("girkit.optimize")
        calls, per_fire = check_binding_calls, []
        resynthesize = opt.resynthesize

        def counted(st, g, record, old=None):
            before = calls[0]
            got = resynthesize(st, g, record, old)
            if old is not None:
                per_fire.append(calls[0] - before)
            return got

        monkeypatch.setattr(opt, "resynthesize", counted)

        def deletions(n, regime):
            src = "\n".join(
                ["let r = ref(w, 0) in"]
                + [f"let d{i} = ref(w, {i}) in let u{i} = r := {i} in"
                   for i in range(n // 2)] + ["!r"])
            store, t, _ = _front_end(src)
            st, _ = initial_state(store, regime=regime)
            per_fire.clear()
            optimize(st, to_mnf(t, store.supply), ["dce"],
                     supply=store.supply)
            assert len(per_fire) == n // 2
            return set(per_fire)

        for regime in (HARD, RW):
            assert deletions(200, regime) == deletions(50, regime)

    def test_a_rewrite_above_a_deletion_converges(self, monkeypatch):
        """A deletion leaves the frames below the point where its
        re-threading stopped holding the deleted binder, which occurs
        nowhere. A later rewrite above that point that changes a typing
        (the dead `d` inside `y`'s block) still converges with them a few
        lets below, so it types no more bindings under many lets than
        under a few."""
        graphir = importlib.import_module("girkit.graphir")
        opt = importlib.import_module("girkit.optimize")
        typings, per_fire = [0], []
        synth_binding, resynth = graphir._synth_binding, opt.resynthesize

        def counted(*args):
            typings[0] += 1
            return synth_binding(*args)

        def fired(st, g, record, old=None):
            before = typings[0]
            got = resynth(st, g, record, old)
            if old is not None:
                per_fire.append(typings[0] - before)
            return got

        monkeypatch.setattr(graphir, "_synth_binding", counted)
        monkeypatch.setattr(opt, "resynthesize", fired)

        def typed(n):
            src = "\n".join(
                ["let r = ref(w, 0) in let e = ref(w, 1) in",
                 "let y = (let d = ref(w, 2) in let x = !r in x) in",
                 "let s = ref(w, 3) in"]
                + [f"let u{i} = s := y in" for i in range(n)] + ["!s"])
            store, t, _ = _front_end(src)
            st, _ = initial_state(store)
            per_fire.clear()
            got, reports = optimize(st, to_mnf(t, store.supply), ["dce"],
                                    supply=store.supply)
            assert [r.site for r in reports] == [(1,), (1, 0)]
            assert got == synthesize(st, erase(got))[0]
            return list(per_fire)

        few = typed(10)
        assert typed(200) == few

    def test_a_deep_swap_composes_no_more_than_a_shallow_one(self,
                                                             monkeypatch):
        """The lets above a swapped pair keep their recorded results once
        the output and typing below them are as recorded, so a swap under
        many lets composes no more lets than one under a few."""
        graphir = importlib.import_module("girkit.graphir")
        compositions = [0]
        let_typing = graphir.let_typing

        def counted(*args):
            compositions[0] += 1
            return let_typing(*args)

        monkeypatch.setattr(graphir, "let_typing", counted)

        def swap(depth):
            # only the last write and the allocation after it commute
            src = "\n".join(
                ["let v = 7 in let r = ref(w, v) in"]
                + [f"let u{i} = r := v in" for i in range(depth)]
                + ["let s = ref(w, v) in let x = !s in !r"])
            store, t, _ = _front_end(src)
            st, _ = initial_state(store)
            g, record = to_mnf(t, store.supply), {}
            g = graphir.resynthesize(st, g, record)
            g2 = rw_comm(st, g, (1,) * (depth + 1), store.supply)
            compositions[0] = 0
            got = graphir.resynthesize(st, g2, record, g)
            composed = compositions[0]
            assert got == synthesize(st, erase(g2))[0]
            return composed

        shallow, deep = swap(2), swap(100)
        assert 0 < deep <= shallow


class TestFirePerCost:
    """A fired rewrite costs what it changed: on the benchmark's `chain`
    program, all five passes with unbounded fuel make, per fire, as many
    rule attempts, typings (`_synth_binding` calls), threaded lets
    (`bind_let` calls, one per let typed or re-threaded) and composed
    frames (`_ascend`'s, the prefix frames a re-synthesis or a move of
    the walk back touches) at 2,000 lets as at 200. Re-walking from the
    root after each fire, or re-threading to the end of the spine after a
    deletion, makes them grow with the program."""

    def test_work_per_fire_is_flat(self, monkeypatch):
        graphir = importlib.import_module("girkit.graphir")
        counts = Counter()

        def counting(key, fn, weight=lambda *args: 1):
            def counted(*args, **kwargs):
                counts[key] += weight(*args)
                return fn(*args, **kwargs)
            return counted

        for rule, fn in list(RULES.items()):
            monkeypatch.setitem(RULES, rule, counting("attempts", fn))
        monkeypatch.setattr(graphir, "_synth_binding", counting(
            "typings", graphir._synth_binding))
        monkeypatch.setattr(graphir, "bind_let", counting(
            "threaded", graphir.bind_let))
        monkeypatch.setattr(graphir, "_ascend", counting(
            "frames", graphir._ascend, lambda frames, *rest: len(frames)))

        per_fire = {}
        for n, (store, g) in chain_programs((200, 2000)).items():
            st, _ = initial_state(store)
            counts.clear()
            _, reports = optimize(st, g, sorted(RULES), fuel=10 ** 9,
                                  supply=store.supply)
            fired = sum(r.fired for r in reports)
            assert fired > n // 2
            per_fire[n] = {k: v / fired for k, v in counts.items()}
        assert set(per_fire[2000]) == {"attempts", "typings", "threaded",
                                       "frames"}
        for key, small in per_fire[200].items():
            assert per_fire[2000][key] <= 1.5 * small, (key, per_fire)

    def test_reports_grow_with_the_program_not_its_depth(self):
        """A report keeps its site's depth and relative path, not the
        path, so the reports of all five passes take memory linear in
        the program: at most 15 times as much at 2,000 lets as at 200. A
        report's size is that of its copy, rebuilt under tracing."""
        size = {}
        for n, (store, g) in chain_programs((200, 2000)).items():
            st, _ = initial_state(store)
            _, reports = optimize(st, g, sorted(RULES), fuel=10 ** 9,
                                  supply=store.supply)
            data = pickle.dumps(reports)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                copy = pickle.loads(data)
                size[n] = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert [r.site for r in copy] == [r.site for r in reports]
        assert size[2000] <= 15 * size[200], size


def chain_programs(sizes) -> dict:
    """The benchmark's `chain` program (seed 0, 4 cells) of each number
    of lets in `sizes`, parsed and in MNF, with its store."""
    from benchmark.gen import chain_program
    from test_higher_order import with_deep_recursion
    programs = {}

    def front_ends():  # the parser recurses once per let
        for n in sizes:
            text = chain_program(random.Random(0), n, 4, False).text
            store, t, _ = _front_end(text)
            programs[n] = store, to_mnf(t, store.supply)

    with_deep_recursion(front_ends)
    return programs


def walk_from_the_root(st, g, passes, fuel, supply):
    """The driver the incremental one must agree with: after each fired
    rewrite it synthesizes the whole program from scratch and walks
    again from the root. Returns the program and the reports, each miss
    of each walk among them."""
    record, reports = {}, []
    g = resynthesize(st, g, record)

    def fire(rule, skip):
        for site in walk(g, record):
            if site.focus.var in skip:
                continue
            if rule == "comm":
                skip.add(site.focus.var)
            try:
                g2 = RULES[rule](st, g, site, supply)
            except SideConditionFailed as e:
                reports.append((rule, site.path, False, str(e)))
                continue
            reports.append((rule, site.path, True, ""))
            return site, g2
        return None, None

    changed = True
    while changed and fuel > 0:
        changed = False
        for rule in passes:
            while rule != "comm" and fuel > 0:
                site, g2 = fire(rule, ())
                if site is None:
                    break
                record = {}
                g, fuel, changed = resynthesize(st, g2, record), fuel - 1, True
    tried = set()
    while "comm" in passes and fuel > 0:
        site, g2 = fire("comm", tried)
        if site is None:
            break
        tried.add(site.focus.body.var)
        record = {}
        g, fuel = resynthesize(st, g2, record), fuel - 1
    return g, reports


def reported(driver, st, g, passes, supply, fuel=50):
    """The program `driver` makes and its reports, misses included."""
    if driver is optimize:
        got, reports = optimize(st, g, passes, fuel, supply=supply,
                                log_misses=True)
        return got, [(r.rule, r.site, r.fired, r.reason) for r in reports]
    return driver(st, g, passes, fuel, supply)


# Programs where a fire makes a rule hold at a site the walk has passed.
WALKS = {
    # dce of `d` puts the reads `a` and `b` side by side: `cse` at the
    # let before the fired site holds now
    "let before": ("""let r = ref(w, 1) in
        let a = !r in
        let d = 5 in
        let b = !r in
        let u = r := a in
        let v = r := b in
        !r""", ["cse", "dce"]),
    # dce inside `f`'s body leaves a hoistable first binding: `hoist` at
    # the enclosing let holds now
    "enclosing": ("""let f = fun (p: Int^{}) =>{rd{} wr{}}
            (let d = p in let k = 5 in k) in
        let y = f 1 in
        y""", ["hoist", "dce"]),
    # dce inside the callee drops its only mention of `c`, which is out
    # of scope at `y`: `inline` at `y`, below the fired site, holds now,
    # though `f`'s typing is as it was
    "callee": ("""let f = (let c = 5 in
            let l = fun (p: Int^{}) =>{rd{} wr{}} (let u = c in p) in
            l) in
        let z = 1 in
        let y = f z in
        y""", ["inline", "dce"]),
}


def walks_agree(regimes=(HARD, RW)):
    """Whether the driver fires what the walk from the root fires, and
    makes the same program, on `WALKS` in each regime."""
    for src, passes in WALKS.values():
        for regime in regimes:
            out = []
            for driver in (optimize, walk_from_the_root):
                store, t, _ = _front_end(src)
                st, _ = initial_state(store, regime=regime)
                got, reports = reported(driver, st, to_mnf(t, store.supply),
                                        passes, store.supply)
                out.append((graph_to_text(erase(got)), reports))
            if out[0] != out[1]:
                return False
    return True


def _pinned_corpus_digest():
    """What `TestCommands.test_opt_output_is_pinned` digests: `gir opt`
    with every pass on testkit seeds 0..49 in both regimes."""
    digest = hashlib.sha256()
    for seed in range(50):
        text = term_to_text(gen_well_typed(GenConfig(seed=seed, max_depth=6),
                                           initial_store()))
        for regime in (HARD, RW):
            store, t, _ = _front_end(text)
            st, _ = initial_state(store, regime=regime)
            got, reports = optimize(st, to_mnf(t, store.supply),
                                    sorted(RULES), fuel=50,
                                    supply=store.supply)
            digest.update(repr([(r.rule, r.site, r.fired) for r in reports]
                               + [graph_to_text(erase(got))]).encode())
    return digest.hexdigest()


class TestExactnessMutants:
    """Each argument that makes the incremental driver exact is killed
    when broken: a mutant applied by monkeypatch makes the pinned corpus
    come out otherwise, the `TestIncrementalSynthesis` oracle fail, or
    the composed-rules fuzz find a miscompilation."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return _pinned_corpus_digest()

    def killed(self, pinned, monkeypatch):
        try:
            if _pinned_corpus_digest() != pinned:
                return "pinned corpus"
            oracle = TestIncrementalSynthesis.Oracle()
            opt = importlib.import_module("girkit.optimize")
            resynth = opt.resynthesize

            def compared(st, g, record, old=None):
                got = resynth(st, g, record, old)
                oracle.record = record
                if old is not None:
                    fresh = {}
                    resynthesize(st, g, fresh)
                    assert got == synthesize(st, erase(g))[0]
                    assert_frames_agree(record, fresh, got)
                return got

            monkeypatch.setattr(opt, "resynthesize", compared)
            for regime in (HARD, RW):
                for src in TestIncrementalSynthesis.DELETIONS:
                    store, t, _ = _front_end(src)
                    st, _ = initial_state(store, regime=regime)
                    got, _ = optimize(st, to_mnf(t, store.supply),
                                      sorted(RULES), supply=store.supply)
                    oracle.final(st, got)
        except (AssertionError, GirError):  # GirError: synthesis's own check
            return "oracle"
        if not walks_agree():
            return "walk oracle"
        if fuzz(count=150, seed=0, check="optimizer").failures:
            return "fuzz"
        return None

    def test_unmutated_driver_survives(self, pinned, monkeypatch):
        assert self.killed(pinned, monkeypatch) is None

    def test_resume_without_the_enclosing_lets(self, pinned, monkeypatch):
        opt = importlib.import_module("girkit.optimize")
        fire = opt._Cursor.fire

        def mutant(cursor, rule, site, new):
            enclosing = opt._on_path(None, cursor.cur, site.rel)[0]
            return fire(cursor, rule, site, new) - set(enclosing)

        monkeypatch.setattr(opt._Cursor, "fire", mutant)
        assert self.killed(pinned, monkeypatch)

    def test_resume_without_the_let_before(self, pinned, monkeypatch):
        opt = importlib.import_module("girkit.optimize")
        fire = opt._Cursor.fire

        def mutant(cursor, rule, site, new):
            prev = cursor.above[-1].var if cursor.above else None
            before = opt._on_path(prev, cursor.cur, site.rel)[1]
            cleared = fire(cursor, rule, site, new)
            if before and (not site.rel or site.rel[-1]):
                cleared.discard(before[-1])
            return cleared

        monkeypatch.setattr(opt._Cursor, "fire", mutant)
        assert self.killed(pinned, monkeypatch)

    def test_resume_without_the_callee_readers(self, pinned, monkeypatch):
        opt = importlib.import_module("girkit.optimize")
        monkeypatch.setattr(opt, "_inline_reads", lambda record, focus: [])
        assert self.killed(pinned, monkeypatch)

    @pytest.mark.parametrize("rule", ["inline", "cse"])
    def test_a_census_the_rule_does_not_update(self, pinned, monkeypatch,
                                               rule):
        opt = importlib.import_module("girkit.optimize")
        recount = opt._recount
        monkeypatch.setattr(
            opt, "_recount",
            lambda uses, r, focus, record:
            [] if r == rule else recount(uses, r, focus, record))
        assert self.killed(pinned, monkeypatch)

    def test_gone_mode_that_stops_at_once(self, pinned, monkeypatch):
        graphir = importlib.import_module("girkit.graphir")
        monkeypatch.setattr(graphir, "_gone", lambda f, regime: (f.var, set()))
        assert self.killed(pinned, monkeypatch)

    def test_gone_mode_that_chases_no_binder(self, pinned, monkeypatch):
        graphir = importlib.import_module("girkit.graphir")
        gone = graphir._gone
        monkeypatch.setattr(graphir, "_gone",
                            lambda f, regime: (object(), gone(f, regime)[1]))
        assert self.killed(pinned, monkeypatch)
