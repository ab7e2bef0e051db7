"""The three executable semantics and their agreement."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from girkit.core import (
    App, Assign, Cell, Cst, DepMap, Deref, DependencyViolation,
    FuelExhausted, GLet, GName, Lam, Let, Name, NCst, Nm, OverlapViolation,
    PURE, QualifiedType, RefNew, RuntimeConfig, SavedCst, TY_INT,
    initial_store, ty_to_text,
)
from girkit.cli import parse
from girkit.graphir import synthesize_config
from girkit.interp import (
    canonical_value, eval_direct, eval_graph, eval_store, separation_probe,
)
from girkit.mnf import to_mnf
from girkit.testkit import GenConfig, gen_well_typed, make_corrupted, run_three


def ref_and_read(store, init=5):
    return Deref(RefNew(Nm(store.w), Cst(init)))


class TestEvalDirect:
    def test_allocate_then_read(self):
        store = initial_store()
        r = eval_direct(store.copy(), ref_and_read(store))
        assert r.value == Cst(5)
        assert len(r.store.entries) == 2  # capability + the fresh cell

    def test_values_do_not_step(self):
        store = initial_store()
        r = eval_direct(store.copy(), Cst(7))
        assert r.value == Cst(7) and r.steps == 0

    def test_assign_then_read_sees_the_write(self):
        store = initial_store()
        sup = store.supply
        x, u = sup.var("x"), sup.var("u")
        t = Let(x, RefNew(Nm(store.w), Cst(1)),
                Let(u, Assign(Nm(x), Cst(2)), Deref(Nm(x))))
        assert eval_direct(store.copy(), t).value == Cst(2)

    def test_fuel_runs_out_on_long_programs(self):
        store = initial_store()
        with pytest.raises(FuelExhausted):
            eval_direct(store.copy(), ref_and_read(store), fuel=1)


class TestEvalStore:
    def test_constants_commit_to_the_store(self):
        store = initial_store()
        r = eval_store(store.copy(), Cst(42))
        assert isinstance(r.value, Name) and r.value.is_loc
        assert r.store[r.value] == SavedCst(42)

    def test_beta_resolves_through_locations(self):
        store = initial_store()
        p = store.supply.var("p")
        t = App(Lam(p, QualifiedType(TY_INT), PURE, Nm(p)), Cst(9))
        r = eval_store(store.copy(), t)
        assert canonical_value(r.store, r.value) == ("cst", "Int", 9)

    def test_store_and_direct_agree_canonically(self):
        store = initial_store()
        t = ref_and_read(store)
        rd = eval_direct(store.copy(), t)
        rs = eval_store(store.copy(), t)
        assert (canonical_value(rd.store, rd.value)
                == canonical_value(rs.store, rs.value))

    def test_store_only_adds_introduction_steps_on_pure_terms(self):
        store = initial_store()
        x = store.supply.var("x")
        t = Let(x, Cst(1), Nm(x))
        rd = eval_direct(store.copy(), t)
        rs = eval_store(store.copy(), t)
        assert rd.steps == 1       # just the let
        assert rs.steps == 2       # constant introduction, then the let


class TestEvalGraph:
    def test_pure_graph_returns_the_stored_constant(self):
        store = initial_store()
        g = to_mnf(Cst(1), store.supply)
        cfg = synthesize_config(store, g)
        r = eval_graph(cfg)
        assert isinstance(r.value, Name)
        assert canonical_value(r.store, r.value) == ("cst", "Int", 1)

    def test_corrupted_annotation_is_caught_at_its_node(self):
        t = gen_well_typed(GenConfig(seed=2, max_depth=5))
        cfg, node = make_corrupted(t)
        with pytest.raises(DependencyViolation) as exc:
            eval_graph(cfg)
        assert exc.value.payload["node"] == node

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_three_semantics_agree(self, seed):
        t = gen_well_typed(GenConfig(seed=seed, max_depth=4))
        values, _ = run_three(t)
        assert len(set(values.values())) == 1


class TestCongruence:
    """Each semantics steps inside an application's function, a `ref`'s
    capability and an assignment's reference before it reduces the
    redex; the values and step counts below pin all three."""

    @pytest.mark.parametrize("src, value, steps", [
        ("let f = fun (p: Int^{}) =>{rd{} wr{}} p in (let g = f in g) 3",
         ("cst", "Int", 3), (3, 5, 8)),
        ("ref((let c = w in c), 1)", ("ref", ("cst", "Int", 1)), (2, 3, 5)),
        ("let r = ref(w, 0) in let u = (let s = r in s) := 5 in !r",
         ("cst", "Int", 5), (6, 9, 15)),
    ], ids=["app-function", "ref-capability", "assign-reference"])
    def test_value_and_steps(self, src, value, steps):
        got = []
        for semantics in (eval_direct, eval_store, "graph"):
            store = initial_store()
            t = parse(src, store)
            if semantics == "graph":
                r = eval_graph(synthesize_config(store,
                                                 to_mnf(t, store.supply)),
                               trace=True)
                # each entry is (rule, (graph, top-level annotation))
                assert len(r.trace) == r.steps
                for rule, (g, top) in r.trace:
                    assert isinstance(rule, str)
                    assert isinstance(g, (GLet, GName))
                    assert isinstance(top, DepMap)
                assert r.trace[-1][1][0] == GName(r.value)
            else:
                r = semantics(store, t, trace=True)
                last = r.value if semantics is eval_direct else Nm(r.value)
                assert len(r.trace) == r.steps and r.trace[-1][1] == last
            assert canonical_value(r.store, r.value) == value
            got.append(r.steps)
        assert tuple(got) == steps

    def test_a_context_deeper_than_the_stack_steps(self):
        """`let x1 = (let x2 = (… let xn = 7 in xn …) in x2) in x1`, and
        its graph of nested blocks: every step walks the evaluation
        context n lets deep, past what one Python frame per level would
        reach at the default limit."""
        n = 1_100
        store = initial_store()
        xs = [store.supply.var(f"x{i}") for i in range(1, n + 1)]
        t, g = Cst(7), NCst(7)
        for x in reversed(xs):
            t, g = Let(x, t, Nm(x)), GLet(x, g, GName(x))
        assert sys.getrecursionlimit() < n
        cfg = RuntimeConfig(store, store.supply.var("z"), g)
        for r, steps in ((eval_direct(store, t), n),
                         (eval_store(store, t), n + 1),
                         (eval_graph(cfg), n)):
            assert canonical_value(r.store, r.value) == ("cst", "Int", 7)
            assert r.steps == steps


class TestStoreTyping:
    CLOSURE = "let f = fun (p: Int^{}) =>{rd{} wr{}} p in f"

    def _stored(self, semantics, src):
        store = initial_store()
        t = parse(src, store)
        if semantics == "store":
            return eval_store(store, t).store
        return eval_graph(synthesize_config(store, to_mnf(t, store.supply))
                          ).store

    @pytest.mark.parametrize("semantics", ["store", "graph"])
    def test_saved_closure_raises_instead_of_guessing_its_result(
            self, semantics):
        # the closure returns Int; the store alone cannot tell
        store = self._stored(semantics, self.CLOSURE)
        with pytest.raises(TypeError, match="closure at f"):
            store.typing()

    @pytest.mark.parametrize("semantics", ["store", "graph"])
    def test_cell_of_a_saved_constant_types_at_its_base(self, semantics):
        store = self._stored(semantics, "let x = ref(w, true) in x")
        ctx = store.typing()
        assert {ty_to_text(qt.ty) for qt in ctx.env.values()} \
            >= {"Ref[Bool]", "Bool"}


class TestCanonicalValue:
    def test_references_resolve_to_their_content(self):
        store = initial_store()
        loc = store.alloc(Cell(3), "x")
        assert canonical_value(store, loc) == ("ref", ("cst", "Int", 3))


class TestSeparationProbe:
    def test_independent_allocations_stay_disjoint(self):
        store = initial_store()

        def prog(k):
            sup = store.supply
            r, u = sup.var("r"), sup.var("u")
            return Let(r, RefNew(Nm(store.w), Cst(k)),
                       Let(u, Assign(Nm(r), Cst(k + 1)), Deref(Nm(r))))

        rep = separation_probe(prog(1), prog(10), store)
        assert rep.disjoint and rep.failure is None
        assert rep.steps > 0 and len(rep.history) == rep.steps + 1

    def test_aliased_references_are_rejected_up_front(self):
        store = initial_store()
        loc = store.alloc(Cell(0), "x")
        with pytest.raises(OverlapViolation):
            separation_probe(Nm(loc), Nm(loc), store)

    def test_pure_terms_are_trivially_disjoint(self):
        store = initial_store()
        rep = separation_probe(Cst(1), Cst(2), store)
        assert rep.disjoint

    def test_stepping_substitutes_into_lambda_annotations(self):
        # substituting the cell for x must reach f's latent effect, or the
        # re-inferred closure captures a name no longer observable
        store = initial_store()
        t1 = parse("let x = ref(w, 0) in "
                   "let f = fun (p: Int^{}) =>{rd{x} wr{}} !x in f 1", store)
        t2 = parse("let y = ref(w, 5) in !y", store)
        rep = separation_probe(t1, t2, store)
        assert rep.disjoint and rep.failure is None

    def test_generated_pairs_stay_disjoint_at_depth_6(self):
        checked = 0
        for seed in range(300):
            store = initial_store()
            t1 = gen_well_typed(GenConfig(seed=2 * seed, max_depth=6), store)
            t2 = gen_well_typed(GenConfig(seed=2 * seed + 1, max_depth=6),
                                store)
            try:
                rep = separation_probe(t1, t2, store)
            except OverlapViolation:
                continue  # not a disjoint pair
            assert rep.disjoint and rep.failure is None, seed
            checked += 1
        assert checked > 0
