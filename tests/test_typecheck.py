"""Direct-style type inference: qualified types, effects, subtyping."""

import pytest
from hypothesis import given, settings, strategies as st

from girkit.core import (
    App, Assign, Cell, Cst, Deref, EMPTY_QUAL, EffectEscape, FunTy, Lam, Let, Nm,
    OverlapViolation, PURE, QualifiedType, QualifierEscape,
    RefNew, RefTy, RwEffect, TY_BOOL, TY_INT, TY_UNIT,
    TypeMismatch, TypingContext, NameSupply, UnboundName, initial_store,
)
from girkit.typecheck import Typing, check_subtype, infer_direct, ty_subtype
from girkit.testkit import GenConfig, gen_well_typed


def q(*names):
    return frozenset(names)


@pytest.fixture
def sup():
    return NameSupply()


def ref_ctx(*names):
    """[n: Ref Int^∅ ...] with phi covering all of them."""
    ctx = TypingContext()
    for n in names:
        ctx = ctx.bind(n, QualifiedType(RefTy(TY_INT)))
    return ctx.with_phi(q(*names))


class TestInferBasics:
    def test_integer_constant_is_untracked_and_pure(self):
        t = infer_direct(TypingContext(), Cst(42))
        assert t == Typing(QualifiedType(TY_INT, EMPTY_QUAL), PURE)

    def test_reference_variable_tracks_itself(self, sup):
        x = sup.var("x")
        t = infer_direct(ref_ctx(x), Nm(x))
        assert t == Typing(QualifiedType(RefTy(TY_INT), q(x)), PURE)

    def test_deref_reads_the_reference(self, sup):
        x = sup.var("x")
        t = infer_direct(ref_ctx(x), Deref(Nm(x)))
        assert t == Typing(QualifiedType(TY_INT, EMPTY_QUAL),
                           RwEffect.read(q(x)))

    def test_allocation_reads_the_capability(self):
        store = initial_store()
        t = infer_direct(store.typing(), RefNew(Nm(store.w), Cst(0)))
        assert t == Typing(QualifiedType(RefTy(TY_INT), EMPTY_QUAL),
                           RwEffect.read(q(store.w)))

    def test_assignment_writes_the_reference(self, sup):
        x = sup.var("x")
        t = infer_direct(ref_ctx(x), Assign(Nm(x), Cst(1)))
        assert t == Typing(QualifiedType(TY_UNIT, EMPTY_QUAL),
                           RwEffect.write(q(x)))

    def test_let_substitutes_the_bound_qualifier_away(self, sup):
        x, y = sup.var("x"), sup.var("y")
        t = infer_direct(ref_ctx(x), Let(y, Nm(x), Deref(Nm(y))))
        assert t.qt == QualifiedType(TY_INT, EMPTY_QUAL)
        assert t.eff.flat == q(x)  # y is gone from the visible effect


class TestInferRejections:
    def test_unobservable_variable_is_rejected(self, sup):
        x = sup.var("x")
        ctx = ref_ctx(x).with_phi(EMPTY_QUAL)
        with pytest.raises(QualifierEscape):
            infer_direct(ctx, Nm(x))

    def test_applying_a_non_function_is_rejected(self):
        with pytest.raises(TypeMismatch):
            infer_direct(TypingContext(), App(Cst(1), Cst(2)))

    def test_latent_must_cover_the_body_effect(self, sup):
        x, p = sup.var("x"), sup.var("p")
        lam = Lam(p, QualifiedType(TY_INT), PURE, Deref(Nm(x)))
        with pytest.raises(EffectEscape):
            infer_direct(ref_ctx(x), lam)

    def test_tracked_argument_needs_declared_overlap(self, sup):
        x, p = sup.var("x"), sup.var("p")
        # the function's domain admits no overlap, but the argument
        # aliases x, which the closure also captures
        lam = Lam(p, QualifiedType(RefTy(TY_INT), EMPTY_QUAL),
                  RwEffect.read(q(x)), Deref(Nm(x)))
        with pytest.raises(OverlapViolation):
            infer_direct(ref_ctx(x), App(lam, Nm(x)))

    def test_stored_values_must_be_untracked(self, sup):
        store = initial_store()
        y = store.supply.var("y")
        t = Let(y, RefNew(Nm(store.w), Cst(0)),
                RefNew(Nm(store.w), Nm(y)))
        with pytest.raises(TypeMismatch):
            infer_direct(store.typing(), t)


class TestSubtyping:
    def test_widening_qualifier_and_effect(self, sup):
        x = sup.var("x")
        ctx = ref_ctx(x)
        lhs = (QualifiedType(TY_INT, EMPTY_QUAL), PURE)
        rhs = (QualifiedType(TY_INT, q(x)), RwEffect.read(q(x)))
        assert check_subtype(ctx, lhs, rhs)
        assert not check_subtype(ctx, rhs, lhs)

    def test_unbound_qualifier_member_is_rejected(self, sup):
        x, y = sup.var("x"), sup.var("y")
        ctx = ref_ctx(x)
        store = initial_store()
        loc = store.alloc(Cell(0), "c")
        ok = (QualifiedType(TY_INT, q(x)), PURE)
        for stray in (y, loc):
            bad = [(QualifiedType(TY_INT, q(x, stray)), PURE),
                   (QualifiedType(TY_INT, q(x)), RwEffect.read(q(stray)))]
            for b in bad:
                with pytest.raises(UnboundName):
                    check_subtype(ctx, b, ok)
                with pytest.raises(UnboundName):
                    check_subtype(ctx, ok, b)

    def test_reference_payloads_are_invariant(self):
        ctx = TypingContext()
        assert not ty_subtype(ctx, RefTy(TY_INT), RefTy(TY_BOOL))
        assert ty_subtype(ctx, RefTy(TY_INT), RefTy(TY_INT))

    def test_functions_flip_the_domain(self, sup):
        x, p1, p2 = sup.var("x"), sup.var("p1"), sup.var("p2")
        ctx = ref_ctx(x)
        dom_wide = QualifiedType(RefTy(TY_INT), q(x))
        dom_narrow = QualifiedType(RefTy(TY_INT), EMPTY_QUAL)
        res = QualifiedType(TY_INT, EMPTY_QUAL)
        wide = FunTy(p1, dom_wide, PURE, res)
        narrow = FunTy(p2, dom_narrow, PURE, res)
        assert ty_subtype(ctx, wide, narrow)      # wider domain accepted
        assert not ty_subtype(ctx, narrow, wide)  # flipped direction fails

    def test_latent_effects_are_covariant(self, sup):
        x, p1, p2 = sup.var("x"), sup.var("p1"), sup.var("p2")
        ctx = ref_ctx(x)
        dom = QualifiedType(TY_INT, EMPTY_QUAL)
        res = QualifiedType(TY_UNIT, EMPTY_QUAL)
        quiet = FunTy(p1, dom, PURE, res)
        noisy = FunTy(p2, dom, RwEffect.write(q(x)), res)
        assert ty_subtype(ctx, quiet, noisy)
        assert not ty_subtype(ctx, noisy, quiet)


class TestInferProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_results_stay_observable(self, seed):
        store = initial_store()
        t = gen_well_typed(GenConfig(seed=seed, max_depth=4), store)
        ctx = store.typing()
        typing = infer_direct(ctx, t)
        assert typing.qt.qual <= ctx.phi
        assert typing.eff.flat <= ctx.phi

    def test_value_tightening(self, sup):
        # a closure capturing x re-checks under exactly its own qualifier
        x, p = sup.var("x"), sup.var("p")
        ctx = ref_ctx(x)
        lam = Lam(p, QualifiedType(TY_INT), RwEffect.read(q(x)),
                  Deref(Nm(x)))
        t1 = infer_direct(ctx, lam)
        t2 = infer_direct(ctx.with_phi(t1.qt.qual), lam)
        assert t2 == t1 and t2.eff == PURE

    def test_weakening_preserves_the_typing(self, sup):
        x, extra = sup.var("x"), sup.var("extra")
        ctx = ref_ctx(x)
        t = Deref(Nm(x))
        before = infer_direct(ctx, t)
        wider = (ctx.bind(extra, QualifiedType(RefTy(TY_INT)))
                 .with_phi(ctx.phi | {extra}))
        assert infer_direct(wider, t) == before
