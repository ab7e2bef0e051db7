"""Dependency synthesis, checking, and erasure on graph terms."""

import gc
import importlib
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from girkit.cli import _front_end
from girkit.core import (
    Cell, Cst, DepMap, DepMismatch, EMPTY_DEP, GLet, GName, HARD, Let,
    NAssign, NCst, NDeref, NLam, Nm, PURE, QualifiedType, RW, RefTy,
    RwEffect, Span, TY_INT, TypingContext, dep_add_hard, dep_last_use,
    graph_to_text, initial_store, saturate,
)
from girkit.graphir import (
    check_deps, erase, initial_state, resynthesize, synthesize,
    synthesize_config,
)
from girkit.mnf import check_binding, check_mnf, to_mnf
from girkit.testkit import GenConfig, brute_deps, gen_well_typed
from girkit.typecheck import (
    Typing, bind_let, infer_direct, lam_body_ctx, let_binder_qt, name_typing,
)


def two_write_graph():
    """let c = 1 in let a = (x := c) in let b = (x := c) in b, over a
    store holding the cell x."""
    store = initial_store()
    x = store.alloc(Cell(0), "x")
    sup = store.supply
    c, a, b = sup.var("c"), sup.var("a"), sup.var("b")
    g = GLet(c, NCst(1),
             GLet(a, NAssign(x, c),
                  GLet(b, NAssign(x, c), GName(b))))
    return store, x, (c, a, b), g


def spine(g):
    out = []
    while isinstance(g, GLet):
        out.append(g)
        g = g.body
    return out


class TestSynthesize:
    def test_read_gets_a_hard_entry_in_both_regimes(self):
        store = initial_store()
        x = store.alloc(Cell(0), "x")
        a = store.supply.var("a")
        g = GLet(a, NDeref(x), GName(a))
        for regime in (HARD, RW):
            st_, z = initial_state(store, regime=regime)
            g2, _ = synthesize(st_, g)
            assert g2.dep == DepMap.make({x: z})

    def test_second_write_depends_on_the_first(self):
        store, x, (c, a, b), g = two_write_graph()
        # hard regime: the write chain is a hard must-run-after edge
        st_, z = initial_state(store, regime=HARD)
        g2, _ = synthesize(st_, g)
        dep_b = spine(g2)[2].dep
        assert dep_b == DepMap.make({x: a})
        # read/write regime: a preceding write is only a soft (skippable)
        # predecessor of the next write
        st_, z = initial_state(store, regime=RW)
        g2, _ = synthesize(st_, g)
        dep_b = spine(g2)[2].dep
        assert dep_b == DepMap.make({}, {x: {a}})

    def test_pure_node_gets_the_empty_annotation(self):
        store, x, (c, a, b), g = two_write_graph()
        st_, _ = initial_state(store, regime=HARD)
        g2, _ = synthesize(st_, g)
        assert spine(g2)[0].dep == EMPTY_DEP

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_returned_slice_is_the_effect_restriction(self, seed):
        store = initial_store()
        t = gen_well_typed(GenConfig(seed=seed, max_depth=4), store)
        g = to_mnf(t, store.supply)
        for regime in (HARD, RW):
            st_, _ = initial_state(store, regime=regime)
            _, got = synthesize(st_, g)
            assert got == brute_deps(st_, g)

    def test_deterministic_across_runs(self):
        store = initial_store()
        t = gen_well_typed(GenConfig(seed=5, max_depth=4), store)
        g = to_mnf(t, store.supply)
        st_, _ = initial_state(store)
        a = synthesize(st_, g)
        b = synthesize(st_, g)
        assert graph_to_text(a[0]) == graph_to_text(b[0]) and a[1] == b[1]


class TestCheckDeps:
    def test_synthesized_annotations_always_check(self):
        for seed in range(8):
            store = initial_store()
            t = gen_well_typed(GenConfig(seed=seed, max_depth=4), store)
            g = to_mnf(t, store.supply)
            for regime in (HARD, RW):
                st_, _ = initial_state(store, regime=regime)
                g2, _ = synthesize(st_, g)
                check_deps(st_, g2)  # must not raise

    def test_stale_hard_target_is_rejected(self):
        store, x, (c, a, b), g = two_write_graph()
        st_, z = initial_state(store, regime=HARD)
        g2, _ = synthesize(st_, g)
        lets = spine(g2)
        # rewrite b's annotation to skip past a, pointing back at the start
        bad = GLet(lets[0].var, lets[0].binding,
                   GLet(lets[1].var, lets[1].binding,
                        GLet(lets[2].var, lets[2].binding,
                             GName(b), DepMap.make({x: z})),
                        lets[1].dep),
                   lets[0].dep)
        with pytest.raises(DepMismatch):
            check_deps(st_, bad)

    def test_empty_annotation_on_a_pure_node_checks(self):
        store = initial_store()
        a = store.supply.var("a")
        g = GLet(a, NCst(1), GName(a), None)
        st_, _ = initial_state(store)
        check_deps(st_, g)  # must not raise

    def test_every_annotation_position_is_checked(self):
        """A ghost key at any let's `dep` or lambda's `body_dep`, nested
        blocks and lambda bodies included, is reported at that let's
        binder or that lambda's parameter; a missing one checks."""
        kinds = {"top": 0, "block": 0, "lambda": 0}
        for seed in range(40):
            store = initial_store()
            t = gen_well_typed(GenConfig(seed=seed, max_depth=6), store)
            g = to_mnf(t, store.supply)
            ghost = store.supply.var("ghost")
            for regime in (HARD, RW):
                st_, z = initial_state(store, regime=regime)
                g2, _ = synthesize(st_, g)
                _, sites = reannotate(g2, -1, None)
                for k, (owner, kind) in enumerate(sites):
                    bad, _ = reannotate(g2, k, lambda d: dep_add_hard(
                        d if d is not None else EMPTY_DEP, ghost, z))
                    with pytest.raises(DepMismatch) as e:
                        check_deps(st_, bad)
                    assert e.value.payload["node"] == owner
                    check_deps(st_, reannotate(g2, k, lambda d: None)[0])
                    kinds[kind] += 1
        assert all(kinds.values()), kinds


def reannotate(g, k, edit):
    """Apply `edit` to the k-th annotation position of `g`: each let's
    `dep` before its binding's, a lambda's `body_dep` before its body's.
    Returns the graph and every position as (owner, kind): the owner is
    the let's binder or the lambda's parameter, the kind says whether the
    position is on the top-level spine, in a nested block or in a lambda
    body."""
    sites = []

    def visit(dep, owner, kind):
        sites.append((owner, kind))
        return edit(dep) if len(sites) - 1 == k else dep

    def term(u, kind):
        if not isinstance(u, GLet):
            return u
        dep = visit(u.dep, u.var, kind)
        b = u.binding
        if isinstance(b, GLet):
            b = term(b, "lambda" if kind == "lambda" else "block")
        elif isinstance(b, NLam):
            body_dep = visit(b.body_dep, b.param, "lambda")
            b = NLam(b.param, b.param_qt, b.latent, term(b.body, "lambda"),
                     body_dep)
        return GLet(u.var, b, term(u.body, kind), dep)

    return term(g, "top"), sites


class TestErase:
    def test_erasure_inverts_synthesis(self):
        store = initial_store()
        t = gen_well_typed(GenConfig(seed=3, max_depth=4), store)
        g = to_mnf(t, store.supply)
        st_, _ = initial_state(store)
        g2, slice_ = synthesize(st_, g)
        assert graph_to_text(erase(g2)) == graph_to_text(g)
        # and re-synthesizing the erasure under the same state reproduces
        # the annotated graph and slice exactly
        g3, slice3 = synthesize(st_, erase(g2))
        assert graph_to_text(g3) == graph_to_text(g2) and slice3 == slice_

    def test_erase_is_idempotent(self):
        store, _, _, g = two_write_graph()
        st_, _ = initial_state(store)
        g2, _ = synthesize(st_, g)
        once = erase(g2)
        assert graph_to_text(erase(once)) == graph_to_text(once)


def cell_chain(lets, cells=4):
    """A straight-line source program of `lets` lets: `cells` cells, then
    alternating writes and reads in a cell rotation, ending in `!r0`."""
    lines = [f"let r{c} = ref(w, {c}) in" for c in range(cells)]
    for i in range(lets - cells):
        c = i % cells
        lines.append(f"let u{i} = r{c} := {i} in" if i % 2 == 0
                     else f"let x{i} = !r{c} in")
    return "\n".join(lines + ["!r0"])


class TestSynthesisCost:
    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_context_lookups_grow_linearly(self, regime, monkeypatch):
        """Each binding costs lookups for its own footprint only, so four
        times the lets make about four times the lookups (a quadratic
        synthesis makes about sixteen)."""
        lookup = TypingContext.lookup
        calls = [0]

        def counting(ctx, n):
            calls[0] += 1
            return lookup(ctx, n)

        def lookups(lets):
            store, t, _ = _front_end(cell_chain(lets))
            g = to_mnf(t, store.supply)
            calls[0] = 0
            synthesize_config(store, g, regime)
            return calls[0]

        monkeypatch.setattr(TypingContext, "lookup", counting)
        small, large = lookups(100), lookups(400)
        assert large / small <= 5


def all_lets(g) -> list:
    """Every let of a graph term, in nested blocks and lambda bodies too."""
    out, todo = [], [g]
    while todo:
        for u in spine(todo.pop()):
            out.append(u)
            if isinstance(u.binding, GLet):
                todo.append(u.binding)
            elif isinstance(u.binding, NLam):
                todo.append(u.binding.body)
    return out


def scopes(g) -> int:
    """The nested blocks and lambda bodies of a graph term."""
    return sum(isinstance(u.binding, (GLet, NLam)) for u in all_lets(g))


class TestSynthesisWork:
    """Synthesis does per let only what its rule reads. These tests count
    calls, not time: each pins one piece of work that a let skips."""

    graphir = importlib.import_module("girkit.graphir")

    def chain(self):
        store, t, _ = _front_end(cell_chain(100))
        return store, to_mnf(t, store.supply)

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_a_walk_per_scope_and_none_per_alias(self, regime, monkeypatch):
        """An alias binding is typed by the name rule, so `_synth` walks
        the whole program and each nested block and lambda body once."""
        synth, entered = self.graphir._synth, []

        def counting(ctx, delta, g, *args, **kwargs):
            entered.append(g)
            return synth(ctx, delta, g, *args, **kwargs)

        store, g = self.chain()
        monkeypatch.setattr(self.graphir, "_synth", counting)
        synthesize_config(store, g, regime)
        assert not any(isinstance(u, GName) for u in entered)
        assert len(entered) == 1 + scopes(g) > 100

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_the_ascent_saturates_no_unchanged_typing(self, regime,
                                                      monkeypatch):
        """A let whose typing is its body's takes its footprint from the
        let below, or from its binding, or has none at all (pure)."""
        let_typing, footprint = self.graphir.let_typing, self.graphir.footprint
        last, kept, again = [None], [0], []

        def noting(var, bound, body, *rest):
            typing = let_typing(var, bound, body, *rest)
            last[0] = typing is body
            kept[0] += typing is body
            return typing

        def counting(e, ctx, regime):
            if sys._getframe(1).f_code.co_name == "_ascend" and last[0]:
                again.append(e)
            return footprint(e, ctx, regime)

        store, g = self.chain()
        monkeypatch.setattr(self.graphir, "let_typing", noting)
        monkeypatch.setattr(self.graphir, "footprint", counting)
        synthesize_config(store, g, regime)
        assert again == [] and kept[0] > 100

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_an_equal_result_is_the_input(self, regime, monkeypatch):
        """`dep_rewire`, `dep_update` and `dep_restrict_names` build no map
        equal to one they were handed."""
        seen = []

        def watched(name):
            f = getattr(self.graphir, name)

            def call(*args):
                out = f(*args)
                maps = [d for d in args if isinstance(d, DepMap)]
                if any(out == d for d in maps):
                    seen.append((name, any(out is d for d in maps)))
                return out
            monkeypatch.setattr(self.graphir, name, call)

        for name in ("dep_rewire", "dep_update", "dep_restrict_names"):
            watched(name)
        two = two_write_graph()
        for store, g in (self.chain(), (two[0], two[-1])):
            synthesize_config(store, g, regime)
        assert all(same for _, same in seen)
        assert {name for name, _ in seen} >= {"dep_update"}

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_no_state_is_built_for_an_own_binder_tail(self, regime,
                                                      monkeypatch):
        """Only a continuation reads the context and Δ after a let, so
        `bind_let` and `dep_last_use` each run once per let that has one,
        and never for a let whose body is its own binder's name."""
        extended = {"bind_let": [], "dep_last_use": []}
        for name, calls in extended.items():
            def call(state, var, *rest, f=getattr(self.graphir, name),
                     calls=calls):
                calls.append(var)
                return f(state, var, *rest)
            monkeypatch.setattr(self.graphir, name, call)
        store, g = self.chain()
        synthesize_config(store, g, regime)
        lets = all_lets(g)
        continued = sorted(u.var for u in lets if u.body != GName(u.var))
        assert sorted(extended["bind_let"]) == continued
        assert sorted(extended["dep_last_use"]) == continued
        assert len(lets) - len(continued) > 100

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_a_rebound_binder_saturates_again(self, regime):
        """The ascent reuses the footprint of the let below only under a
        fresh binder (weakening). Here `let v = c in let a = v in let k =
        5 in let u = v := k in let v = v in let x = !a in x` binds `v`
        again, after `a`'s qualifier named it, so the body of that let
        reaches the new `v` through `a`, and Δ has moved `v`'s entry."""
        store = initial_store()
        c = store.alloc(Cell(0), "c")
        v, a, k, u, x = (store.supply.var(n) for n in "vakux")
        g = GLet(v, GName(c), GLet(a, GName(v), GLet(k, NCst(5), GLet(
            u, NAssign(v, k), GLet(v, GName(v), GLet(x, NDeref(a),
                                                      GName(x)))))))
        st_, _ = initial_state(store, regime=regime)
        assert synthesize(st_, g)[1] == brute_deps(st_, g) != EMPTY_DEP


class TestNameRule:
    """The name rule has one definition, `typecheck.name_typing`: a name
    in direct style, a graph's alias binding and its spine's tail all
    fail through it alike."""

    def context(self):
        store = initial_store()
        r = store.alloc(Cell(0), "r")
        x = store.supply.var("x")
        ctx = store.typing().bind(x, QualifiedType(TY_INT, frozenset({r})))
        return store, x, ctx

    def raised(self, run) -> tuple:
        with pytest.raises(Exception) as info:
            run()
        e = info.value
        return type(e).__name__, str(e), e.span, e.payload

    def test_an_unbound_name(self):
        store, _, ctx = self.context()
        y = store.supply.var("y")
        span = Span(3, 7)
        assert self.raised(lambda: infer_direct(ctx, Nm(y, span=span))) == (
            "UnboundName", f"unbound name {y!r}", None, {"name": y})

    def test_an_unobservable_name(self):
        _, x, ctx = self.context()
        span = Span(3, 7)
        ctx = ctx.with_phi(frozenset())
        assert self.raised(lambda: infer_direct(ctx, Nm(x, span=span))) == (
            "QualifierEscape", f"name {x!r} not observable", span,
            {"qual": frozenset({x}), "phi": ctx.phi})

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_an_unobservable_tail_and_alias(self, regime):
        store, x, ctx = self.context()
        y = store.supply.var("y")
        st_, _ = initial_state(store, regime=regime)
        st_.ctx = ctx.with_phi(frozenset())
        want = ("QualifierEscape", f"name {x!r} not observable", None)
        for g in (GLet(y, NCst(1), GName(x)), GLet(y, GName(x), GName(y))):
            assert self.raised(lambda: synthesize(st_, g))[:3] == want


class TestLambdaBodyTypedOnce:
    # three lambdas, each nested in the body of the one before
    PROGRAM = ("let f = fun (a: Int^{}) =>{rd{} wr{}} ("
               "let g = fun (b: Int^{}) =>{rd{} wr{}} ("
               "let h = fun (c: Int^{}) =>{rd{} wr{}} c in h b) in g a) "
               "in f 1")

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_synthesis_and_checking_type_bodies_in_their_own_walk(
            self, regime, monkeypatch):
        """A lambda body is typed by the traversal that synthesizes or
        checks it, not once more through `check_mnf` for every lambda
        around it."""
        mnf = importlib.import_module("girkit.mnf")
        calls = [0]

        def counting(ctx, g):
            calls[0] += 1
            return check_mnf(ctx, g)

        store, t, _ = _front_end(self.PROGRAM)
        g = to_mnf(t, store.supply)
        monkeypatch.setattr(mnf, "check_mnf", counting)
        cfg = synthesize_config(store, g, regime)
        st_, _ = initial_state(cfg.store, cfg.z, regime)
        check_deps(st_, cfg.graph)
        assert calls[0] == 0

    def test_synthesis_records_each_binding_typing(self):
        store, t, _ = _front_end(self.PROGRAM)
        g = to_mnf(t, store.supply)
        st_, _ = initial_state(store)
        record = {}
        resynthesize(st_, g, record)
        want = {}
        todo = [(st_.ctx, g)]
        while todo:
            ctx, u = todo.pop()
            while isinstance(u, GLet):
                tb = check_binding(ctx, u.binding)
                want[u.var] = (ctx.env, ctx.phi, tb)
                if isinstance(u.binding, GLet):
                    todo.append((ctx, u.binding))
                elif isinstance(u.binding, NLam):
                    todo.append((lam_body_ctx(ctx, u.binding, tb.qt.qual),
                                 u.binding.body))
                ctx = bind_let(ctx, u.var, tb)
                u = u.body
        got = {v: (f.ctx.env, f.ctx.phi, f.typing)
               for v, f in record.items()}
        assert got == want and len(want) > 9


class TestCarriedObservation:
    """`bind_let` hands each let body the saturated observation; it must
    always equal a fresh saturation of the body context's phi."""

    # `a` aliases the cell `r`, so the lambda body's observation {a, p} is
    # not closed: its saturation adds `r`
    OPEN_PROGRAM = """
        let r = ref(w, 1) in
        let a = r in
        let f = fun (p: Int^{}) =>{rd{a} wr{a}}
            (let x = !a in let u = a := p in let y = !a in y) in
        let b = f 2 in
        !r"""

    def test_every_let_context_carries_its_saturation(self, monkeypatch):
        contexts = []

        def checked(ctx, var, bound, sat=None):
            ctx2 = bind_let(ctx, var, bound, sat)
            assert ctx2.phi_star == saturate(ctx2.phi, ctx2)
            contexts.append(ctx2)
            return ctx2

        for module in ("typecheck", "mnf", "graphir", "testkit"):
            monkeypatch.setattr(importlib.import_module(f"girkit.{module}"),
                                "bind_let", checked)
        programs = [_front_end(self.OPEN_PROGRAM)[:2]]
        for seed in range(200):
            store = initial_store()
            programs.append(
                (store, gen_well_typed(GenConfig(seed=seed, max_depth=6),
                                       store)))
        for store, t in programs:
            ctx = store.typing()
            infer_direct(ctx, t)
            g = to_mnf(t, store.supply)
            check_mnf(ctx, g)
            for regime in (HARD, RW):
                st_, _ = initial_state(store, regime=regime)
                g2, _ = synthesize(st_, g)
                check_deps(st_, g2)
        assert len(contexts) > 1000
        assert any(c.phi_star != c.phi for c in contexts)

    def test_rebinding_a_name_recomputes_the_saturation(self):
        store = initial_store()
        cell = store.alloc(Cell(0), "c")
        x = store.supply.var("x")
        ctx = store.typing()
        ctx = (ctx.bind(x, QualifiedType(RefTy(TY_INT), frozenset({cell})))
               .with_phi(frozenset({x})))
        assert ctx.phi_star == {x, cell}
        # x rebound to an untracked Int: it no longer reaches the cell
        ctx2 = bind_let(ctx, x, Typing(QualifiedType(TY_INT), PURE))
        assert ctx2.phi_star == saturate(ctx2.phi, ctx2) == {x}


def tail_frames(record) -> list:
    """The recorded frames of the lets whose body is their own binder."""
    return [f for f in record.values() if f.result[0].body == GName(f.var)]


def probed(g, supply):
    """`g` with an alias let `let q = x in q` put after each let `let x =
    b in x` that ends a block, lambda bodies included, so that synthesis
    builds the state after `x` as `q`'s entry state. Returns the graph
    and the (x, q) pairs."""
    pairs = []

    def go(g):
        lets = spine(g)
        tail = lets[-1].body
        if tail == GName(lets[-1].var):
            q = supply.var("q")
            pairs.append((lets[-1].var, q))
            tail = GLet(q, tail, GName(q))
        for u in reversed(lets):
            b = u.binding
            if isinstance(b, GLet):
                b = go(b)
            elif isinstance(b, NLam) and isinstance(b.body, GLet):
                b = NLam(b.param, b.param_qt, b.latent, go(b.body))
            tail = GLet(u.var, b, tail)
        return tail

    return go(g), pairs


class TestOwnBinderTail:
    """A let whose body is its own binder's name builds no context and no
    Δ after it: synthesis types the tail by the name rule at the type
    `bind_let` would bind the binder at. That typing must be the one
    `bind_let` followed by `name_typing` gives, and the state the full
    path would build must stay derivable from the let's frame."""

    # `a` aliases the cell `r`, so the lambda body's observation {a, p} is
    # not closed, and the body's last let binds another alias of it
    OPEN_PROGRAM = """
        let r = ref(w, 1) in
        let a = r in
        let f = fun (p: Int^{}) =>{rd{a} wr{}}
            (let v = !a in let x = a in x) in
        let b = f 2 in
        let y = (let c = a in c) in
        !y"""

    def open_program(self):
        store, t, _ = _front_end(self.OPEN_PROGRAM)
        return store, to_mnf(t, store.supply)

    def rebound(self):
        """`let k = 5 in let u = c := k in let y = (let c = c in c) in let
        f = fun (p: Int^{}) => (let p = 7 in p) in let z = !y in z`: a
        nested block's last let binds the cell `c` again, at its own
        type, and a lambda body's binds the parameter `p` again, at `Int`.
        Each binder is a let binder once, so the record keeps each
        frame."""
        store = initial_store()
        c = store.alloc(Cell(0), "c")
        k, u, y, f, p, z = (store.supply.var(n) for n in "kuyfpz")
        lam = NLam(p, QualifiedType(TY_INT), PURE, GLet(p, NCst(7), GName(p)))
        g = GLet(k, NCst(5), GLet(u, NAssign(c, k), GLet(
            y, GLet(c, GName(c), GName(c)),
            GLet(f, lam, GLet(z, NDeref(y), GName(z))))))
        return store, g

    def programs(self):
        store, t, _ = _front_end(cell_chain(40))
        return [self.open_program(), self.rebound(),
                (store, to_mnf(t, store.supply))]

    def tails(self, store, g, regime):
        st_, _ = initial_state(store, regime=regime)
        record = {}
        g2, slice_ = synthesize(st_, g)
        assert resynthesize(st_, g, record) == g2
        assert slice_ == brute_deps(st_, g)
        return tail_frames(record)

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_the_tail_is_typed_as_in_the_extended_context(self, regime):
        for store, g in self.programs():
            for f in self.tails(store, g, regime):
                full = name_typing(bind_let(f.ctx, f.var, f.typing, f.qual),
                                   f.var)
                assert f.body == (EMPTY_DEP, full), f.var

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_an_open_observation_changes_the_bound_qualifier(self, regime):
        """The lambda body's last let `x = a` binds `x` at `a`'s overlap
        with φ* = {a, r, p}, not at `a`'s own qualifier."""
        tails = self.tails(*self.open_program(), regime)
        assert any(f.ctx.phi_star != f.ctx.phi
                   and let_binder_qt(f.ctx, f.typing, f.qual) != f.typing.qt
                   for f in tails)

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_a_rebound_tail_binder(self, regime):
        tails = self.tails(*self.rebound(), regime)
        assert sum(f.var in f.ctx for f in tails) == 2

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_a_block_exit_state_is_its_last_frame_extended(self, regime):
        """The Δ and context after a block's last let, which no rule
        reads, are that let's frame extended by `dep_last_use` and
        `bind_let`: the full path builds the same as the entry state of
        an alias let put after it, and the typing stays as it was."""
        for store, g in self.programs():
            st_, _ = initial_state(store, regime=regime)
            record, full = {}, {}
            resynthesize(st_, g, record)
            g_probed, pairs = probed(g, store.supply)
            resynthesize(st_, g_probed, full)
            for x, q in pairs:
                f = record[x]
                assert full[q].last_use == dep_last_use(
                    f.last_use, f.var, f.foot, regime)
                assert full[q].ctx == bind_let(f.ctx, f.var, f.typing,
                                               f.qual)
            assert pairs and len(pairs) == len(tail_frames(record))
            assert check_mnf(st_.ctx, g_probed) == check_mnf(st_.ctx, g)


def constant_spine(lets):
    """A hand-built spine of `lets` constant lets ending in the last."""
    store = initial_store()
    names = [store.supply.var("x") for _ in range(lets)]
    g = GName(names[-1])
    for i, x in reversed(list(enumerate(names))):
        g = GLet(x, NCst(i), g)
    return store, g


def lambda_spine(lets):
    """`constant_spine`, but every fourth let binds
    `fun (p: Int^{}) => let y = p in y` instead of a constant."""
    store = initial_store()
    names = [store.supply.var("x") for _ in range(lets)]
    g = GName(names[-1])
    for i, x in reversed(list(enumerate(names))):
        if i % 4:
            g = GLet(x, NCst(i), g)
        else:
            p, y = store.supply.var("p"), store.supply.var("y")
            lam = NLam(p, QualifiedType(TY_INT), PURE,
                       GLet(y, GName(p), GName(y)), None)
            g = GLet(x, lam, g)
    return store, g


def synthesize_and_check(store, g, regime):
    st_, _ = initial_state(store, regime=regime)
    g2, slice_ = synthesize(st_, g)
    assert check_deps(st_, g2).qt.ty == TY_INT
    assert slice_ == EMPTY_DEP


class TestLongSpine:
    # contexts and Δ are persistent, so a spine's synthesis holds O(1) of
    # them per binder: 20,000 lets run in linear memory (copied per let,
    # they took about 25 GB)
    LETS = 20000

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_synthesis_walks_a_spine_past_the_recursion_limit(self, regime):
        assert self.LETS > sys.getrecursionlimit()
        synthesize_and_check(*constant_spine(self.LETS), regime)


def traced_peak(run) -> int:
    """The peak of the memory that `run()` allocates, traced."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def let_chain(lets):
    """A direct-style chain of `lets` constant lets ending in the last."""
    store = initial_store()
    names = [store.supply.var("x") for _ in range(lets)]
    t = Nm(names[-1])
    for i, x in reversed(list(enumerate(names))):
        t = Let(x, Cst(i), t)
    return store, t


class TestLinearMemory:
    """Each binder costs O(1) context and Δ memory, so ten times the lets
    take about ten times the peak; copies per let took about a hundred
    times (×4 per doubling)."""

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_synthesis_peak_grows_linearly(self, regime):
        small, large = (constant_spine(n) for n in (2000, 20000))
        peaks = [traced_peak(lambda p=p: synthesize_and_check(*p, regime))
                 for p in (small, large)]
        assert peaks[1] / peaks[0] <= 15

    def test_inference_peak_grows_linearly(self):
        peaks = []
        for n in (2000, 20000):
            store, t = let_chain(n)
            peaks.append(traced_peak(
                lambda: infer_direct(store.typing(), t)))
        assert peaks[1] / peaks[0] <= 15

    def test_synthesis_time_grows_linearly(self):
        times = {2000: [], 20000: []}
        for _ in range(5):  # the best of five, the sizes alternating
            for n, best in times.items():
                store, g = constant_spine(n)
                # collections, of what the suite left alive and of what
                # the run's own growth makes, would tax the larger run
                gc.collect()
                gc.disable()
                try:
                    start = time.process_time()
                    synthesize_and_check(store, g, HARD)
                    best.append(time.process_time() - start)
                finally:
                    gc.enable()
        assert min(times[20000]) / min(times[2000]) <= 15

    def test_synthesis_time_grows_linearly_with_lambdas(self):
        """A lambda body's φ* is saturated from the closure's qualifier;
        listing every let binder of the spine there made 20,000 lets
        take ×733 the time of 2,000."""
        times = {2000: [], 20000: []}
        for _ in range(5):  # the best of five, the sizes alternating
            for n, best in times.items():
                store, g = lambda_spine(n)
                # collections, of what the suite left alive and of what
                # the run's own growth makes, would tax the larger run
                gc.collect()
                gc.disable()
                try:
                    start = time.process_time()
                    synthesize_and_check(store, g, HARD)
                    best.append(time.process_time() - start)
                finally:
                    gc.enable()
        assert min(times[20000]) / min(times[2000]) <= 15


class TestResynthesis:
    """`resynthesize` takes a recorded result only where the whole entry
    state, context and Δ, is the one recorded: here the Δ entering the
    shared node `let y = 5 in y` is unchanged, but the context is not."""

    def check(self, store, old, rewrite):
        st_, _ = initial_state(store)
        record = {}
        g = resynthesize(st_, old, record)
        new = rewrite(g)
        got = resynthesize(st_, new, record, g)
        fresh = {}
        resynthesize(st_, new, fresh)
        assert got == synthesize(st_, erase(new))[0]
        for v, f in fresh.items():
            assert (record[v].ctx.env, record[v].ctx.phi, record[v].last_use
                    ) == (f.ctx.env, f.ctx.phi, f.last_use), v

    def test_a_retyped_binder_changes_the_context(self):
        store = initial_store()
        x, y = store.supply.var("x"), store.supply.var("y")
        old = GLet(x, NCst(1), GLet(y, NCst(5), GName(y)))
        self.check(store, old, lambda g: GLet(x, NCst(True), g.body))

    def test_a_narrower_latent_effect_changes_the_observation(self):
        store = initial_store()
        r = store.alloc(Cell(0), "r")
        f, p, y = (store.supply.var(n) for n in "fpy")
        body = GLet(y, NCst(5), GName(y))
        old = GLet(f, NLam(p, QualifiedType(TY_INT),
                           RwEffect.read(frozenset({r})), body, None),
                   GName(f))

        def narrowed(g):
            lam = g.binding
            return GLet(f, NLam(p, lam.param_qt, PURE, lam.body, None),
                        g.body)

        self.check(store, old, narrowed)
