"""Qualifier algebra, dependency-map algebra, name plumbing, typing
contexts, and the operator table."""

import dataclasses
import json
import pickle
from typing import get_args

from hypothesis import given, settings, strategies as st

from girkit.cli import export_dot, export_json, import_json
from girkit.core import (
    App, Cell, Cst, DepMap, EMPTY_DEP, EMPTY_QUAL, GLet, GName, GraphNode,
    HARD, JsonSchemaError, Lam, Let, Name, NameSupply, NApp, NCst, NLam,
    NODE_OPERATOR, Nm, OMEGA, OPERATORS, PURE, QualifiedType, RW, RwEffect,
    SavedCst, Span, TERM_OPERATOR, Term, TypingContext, TY_ALLOC, TY_BOOL,
    TY_INT, RefTy, UNIT_V, UnboundName, alpha_equal_terms, const_key,
    dep_dom_subst, dep_last_use, dep_restrict, dep_rewire, dep_submap,
    dep_update, footprint, graph_free_names,
    initial_store, node_operands, overlap, rename_graph, rename_qual,
    saturate, subst_qual, subst_term, term_children, term_free_names,
    term_operands, term_with_child,
)
from girkit.mnf import embed
from girkit.schedule import flatten

import pytest


def q(*names):
    return frozenset(names)


def fresh_names(n, text="n"):
    sup = NameSupply()
    return [sup.var(f"{text}{i}") for i in range(n)]


def chain_ctx(pairs):
    """Context [n: Ref Int^{q}] for each (name, qual) pair, phi = all."""
    ctx = TypingContext()
    names = []
    for n, qual in pairs:
        ctx = ctx.bind(n, QualifiedType(RefTy(TY_INT), qual))
        names.append(n)
    return ctx.with_phi(q(*names))


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

class TestName:
    def test_equality_ignores_display_text(self):
        sup = NameSupply()
        a = sup.var("a")
        assert a == Name(a.kind, a.id, "other_text")
        assert hash(a) == hash(Name(a.kind, a.id, "other_text"))

    def test_var_and_loc_namespaces_are_disjoint(self):
        v = Name(0, 7, "n")
        l = Name(1, 7, "n")
        assert v != l

    def test_ordering_is_total_and_deterministic(self):
        names = fresh_names(5)
        assert sorted(reversed(names)) == names

    def test_names_survive_pickling(self):
        n = NameSupply().var("a")
        n2 = pickle.loads(pickle.dumps(n))
        assert n2 == n and hash(n2) == hash(n)

    def test_hash_equality_and_order_are_ints(self):
        """No Python-level dunder slows a set, dict or sort of names."""
        for dunder in ("__hash__", "__eq__", "__lt__"):
            assert getattr(Name, dunder) is getattr(int, dunder), dunder

    def test_every_name_is_truthy(self):
        assert Name(0, 0, "x") and Name(1, 0, "l")
        assert all(fresh_names(3))

    def test_str_and_format_print_the_repr(self):
        for n in (Name(0, 0, "x"), Name(1, 12, "w"), Name(0, 3, "")):
            assert str(n) == f"{n}" == "%s" % n == repr(n)
        assert repr(Name(1, 12, "w")) == "w#l12"

    def test_pickling_keeps_the_text(self):
        n = pickle.loads(pickle.dumps(Name(1, 4, "cell")))
        assert (n.kind, n.id, n.text) == (1, 4, "cell")
        assert n.is_loc and n.pretty() == "cell_4"

    def test_order_is_id_then_kind(self):
        assert Name(0, 3, "a") < Name(1, 3, "a") < Name(0, 4, "a")
        assert sorted([Name(0, 4, "c"), Name(1, 3, "b"),
                       Name(0, 3, "a")]) == [Name(0, 3, "a"),
                                             Name(1, 3, "b"),
                                             Name(0, 4, "c")]

    def test_a_var_and_a_loc_with_one_id_are_two_keys(self):
        d = {Name(0, 5, "n"): "var", Name(1, 5, "n"): "loc"}
        assert len(d) == 2 and d[Name(1, 5, "other")] == "loc"

    def test_a_name_is_immutable(self):
        sup = NameSupply()
        n, m = sup.var("x"), sup.var("x")
        with pytest.raises(AttributeError):
            n.text = "y"
        with pytest.raises(AttributeError):
            del n.text
        assert n.text == m.text == "x"

    def test_names_share_a_dict_within_their_supply(self):
        """A supply's names with one text, and their `fresh_like` copies
        in any supply, share one attribute dict; another supply, or a name
        built directly, has its own."""
        sup, other = NameSupply(), NameSupply()
        a, b, c = sup.var("t"), sup.loc("t"), sup.var("u")
        assert vars(a) is vars(b) and vars(a) is not vars(c)
        assert vars(other.fresh_like(a)) is vars(a)
        assert vars(other.var("t")) is not vars(a)
        assert vars(Name(0, 9, "t")) is not vars(Name(0, 9, "t"))
        texts = [f"u{i}" for i in range(5000)]  # unique, as in `chain`
        names = [sup.var(t) for t in texts]
        assert [n.text for n in names] == texts
        assert (a.text, b.text, c.text) == ("t", "t", "u")

    def test_a_name_is_no_constant(self):
        with pytest.raises(TypeError):
            const_key(Name(0, 1, "x"))


# ---------------------------------------------------------------------------
# Typing contexts
# ---------------------------------------------------------------------------

class TestTypingContext:
    def test_binding_in_a_child_leaves_parent_and_sibling_unchanged(self):
        x, y, z = fresh_names(3)
        parent = chain_ctx([(x, EMPTY_QUAL)])
        before = dict(parent.env)
        child = parent.bind(y, QualifiedType(RefTy(TY_INT), q(x)))
        sibling = parent.bind(z, QualifiedType(TY_INT))
        assert parent.env == before and y not in parent and z not in parent
        assert y in child and z not in child
        assert z in sibling and y not in sibling
        assert list(child.env) == [x, y] and child.phi == parent.phi

    def test_with_phi_shares_the_map(self):
        x, y = fresh_names(2)
        ctx = chain_ctx([(x, EMPTY_QUAL), (y, q(x))])
        assert ctx.with_phi(q(y)).env is ctx.env
        assert ctx.with_phi(q(y)).phi_star == q(x, y)

    def test_extensions_share_the_parent_and_stay_isolated(self):
        """A child and a sibling each extend the parent by one binder;
        reading any one of the three, in any order, sees its own map,
        observation and saturation."""
        x, y, z, u = fresh_names(4)
        parent = chain_ctx([(x, EMPTY_QUAL)])
        child = parent.bind(y, QualifiedType(RefTy(TY_INT), q(x)), let=True)
        grandchild = child.bind(u, QualifiedType(TY_INT), let=True)
        sibling = parent.bind(z, QualifiedType(TY_INT), let=True)
        for _ in range(2):
            for ctx, names in ((grandchild, [x, y, u]), (parent, [x]),
                               (sibling, [x, z]), (child, [x, y])):
                assert list(ctx.env) == names
                assert ctx.phi == frozenset(names) == ctx.phi_star
                assert saturate(ctx.phi, ctx) == frozenset(names)
        assert u not in child and z not in child.phi and y not in sibling

    def test_a_rebound_name_shadows_and_saturates_afresh(self):
        x, y, a, z = fresh_names(4)
        ref = QualifiedType(RefTy(TY_INT))
        ctx = chain_ctx([(x, EMPTY_QUAL)]).bind(y, ref, let=True)
        ctx = ctx.bind(a, QualifiedType(RefTy(TY_INT), q(y)), let=True)
        ctx = ctx.bind(z, ref)
        assert saturate(q(a), ctx) == q(a, y)
        # y rebound to reach z: a's saturation, recorded when y reached
        # nothing, no longer holds
        ctx2 = ctx.bind(y, QualifiedType(RefTy(TY_INT), q(z)), let=True)
        assert ctx2.lookup(y).qual == q(z) and ctx.lookup(y) == ref
        fresh = TypingContext(dict(ctx2.env), ctx2.phi)
        assert saturate(q(a), ctx2) == saturate(q(a), fresh) == q(a, y, z)
        assert ctx2.phi_star == saturate(ctx2.phi, fresh)
        assert saturate(q(a), ctx) == q(a, y)

    def test_equality_is_content_equality(self):
        x, y, z = fresh_names(3)
        qt = QualifiedType(TY_INT)
        one = chain_ctx([(x, EMPTY_QUAL)]).bind(y, qt, let=True)
        two = chain_ctx([(x, EMPTY_QUAL)]).bind(y, qt, let=True)
        assert one == two and one.env == two.env and one.phi == two.phi
        assert one != two.bind(z, qt, let=True)
        assert one != chain_ctx([(x, EMPTY_QUAL)]).bind(y, qt)
        d1 = dep_last_use(EMPTY_DEP, y,
                          footprint(RwEffect.read(q(x)), one, HARD), HARD)
        d2 = dep_last_use(DepMap.make({x: z}), y,
                          footprint(RwEffect.read(q(x)), two, HARD), HARD)
        assert d1 == d2 == DepMap.make({x: y, y: y})
        assert d1 != dep_last_use(d1, z, footprint(PURE, one, HARD), HARD)

    def test_store_typing_lists_locations_in_allocation_order(self):
        store = initial_store()
        saved = store.alloc(SavedCst(True), "s")
        cell = store.alloc(Cell(3), "r")
        ctx = store.typing()
        assert list(ctx.env) == [store.w, saved, cell]
        assert ctx.phi == frozenset(store.entries) == ctx.phi_star
        assert [ctx.lookup(n).ty for n in ctx.env] \
            == [TY_ALLOC, TY_BOOL, RefTy(TY_INT)]


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

class TestSaturate:
    def test_reaches_through_one_level(self):
        x, y = fresh_names(2)
        ctx = chain_ctx([(x, EMPTY_QUAL), (y, q(x))])
        assert saturate(q(y), ctx) == q(x, y)

    def test_empty_is_a_fixed_point(self):
        x, y = fresh_names(2)
        ctx = chain_ctx([(x, EMPTY_QUAL), (y, q(x))])
        assert saturate(EMPTY_QUAL, ctx) == EMPTY_QUAL

    def test_closes_a_three_step_chain(self):
        c, b, a = fresh_names(3)
        ctx = chain_ctx([(c, EMPTY_QUAL), (b, q(c)), (a, q(b))])
        assert saturate(q(a), ctx) == q(a, b, c)

    def test_unbound_member_is_rejected(self):
        x, ghost = fresh_names(2)
        ctx = chain_ctx([(x, EMPTY_QUAL)])
        with pytest.raises(UnboundName):
            saturate(q(ghost), ctx)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_extensive_idempotent(self, data):
        names = fresh_names(5)
        pairs = []
        for i, n in enumerate(names):
            earlier = names[:i]
            sub = data.draw(st.sets(st.sampled_from(earlier))
                            if earlier else st.just(set()))
            pairs.append((n, q(*sub)))
        ctx = chain_ctx(pairs)
        small = q(*data.draw(st.sets(st.sampled_from(names))))
        big = small | q(*data.draw(st.sets(st.sampled_from(names))))
        assert saturate(small, ctx) <= saturate(big, ctx)     # monotone
        assert small <= saturate(small, ctx)                  # extensive
        assert saturate(saturate(small, ctx), ctx) == saturate(small, ctx)


# ---------------------------------------------------------------------------
# Qualifier substitution and overlap
# ---------------------------------------------------------------------------

class TestSubstQual:
    def test_member_is_replaced_by_the_whole_set(self):
        x, z, a, b = fresh_names(4)
        assert subst_qual(q(x, z), x, q(a, b)) == q(a, b, z)

    def test_nonmember_is_untouched(self):
        x, z, a = fresh_names(3)
        assert subst_qual(q(z), x, q(a)) == q(z)

    def test_effect_substitution_is_componentwise(self):
        x, loc = fresh_names(2)
        e = RwEffect(reads=q(x), writes=q(x))
        assert e.subst(x, q(loc)) == RwEffect(reads=q(loc), writes=q(loc))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_both_arguments(self, data):
        names = fresh_names(6)
        x = names[0]
        qs = q(*data.draw(st.sets(st.sampled_from(names))))
        qb = qs | q(*data.draw(st.sets(st.sampled_from(names))))
        ps = q(*data.draw(st.sets(st.sampled_from(names))))
        pb = ps | q(*data.draw(st.sets(st.sampled_from(names))))
        assert subst_qual(qs, x, ps) <= subst_qual(qb, x, pb)


class TestRenameQual:
    def test_members_are_renamed_and_the_rest_kept(self):
        x, y, z = fresh_names(3)
        assert rename_qual(q(x, z), {x: y}) == q(y, z)

    def test_an_untouched_qualifier_is_returned_itself(self):
        x, y, z = fresh_names(3)
        qual = q(z)
        assert rename_qual(qual, {x: y}) is qual


class TestOverlap:
    def test_intersects_saturations(self):
        x, y = fresh_names(2)
        ctx = chain_ctx([(x, EMPTY_QUAL), (y, q(x))])
        assert overlap(q(x), q(y), ctx) == q(x)

    def test_self_overlap_is_saturation(self):
        x, y = fresh_names(2)
        ctx = chain_ctx([(x, EMPTY_QUAL), (y, q(x))])
        assert overlap(q(y), q(y), ctx) == saturate(q(y), ctx)

    def test_disjoint_reach_sets_do_not_overlap(self):
        a, b = fresh_names(2)
        ctx = chain_ctx([(a, EMPTY_QUAL), (b, EMPTY_QUAL)])
        assert overlap(q(a), q(b), ctx) == EMPTY_QUAL


# ---------------------------------------------------------------------------
# Dependency maps
# ---------------------------------------------------------------------------

class TestDepMapNormalForm:
    def test_empty_soft_sets_are_dropped(self):
        a, b = fresh_names(2)
        assert DepMap.make({a: b}, {a: set()}) == DepMap.make({a: b}, {})

    def test_soft_may_repeat_the_hard_target(self):
        # the redundant entry must survive: a later update can override
        # the hard target, and dropping it would break associativity
        a, b = fresh_names(2)
        d = DepMap.make({a: b}, {a: {b}})
        assert d.soft == {a: frozenset({b})}


class TestDepUpdate:
    def test_hard_entries_are_right_biased(self):
        a, b, c = fresh_names(3)
        d = dep_update(DepMap.make({a: b}), DepMap.make({a: c}))
        assert d == DepMap.make({a: c})

    def test_empty_is_the_identity(self):
        a, b, c = fresh_names(3)
        d = DepMap.make({a: b}, {c: {a}})
        assert dep_update(d, EMPTY_DEP) == d
        assert dep_update(EMPTY_DEP, d) == d

    def test_soft_entries_union_per_key(self):
        a, b, c = fresh_names(3)
        d = dep_update(DepMap.make({}, {a: {b}}), DepMap.make({}, {a: {c}}))
        assert d == DepMap.make({}, {a: {b, c}})

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_associative(self, data):
        names = fresh_names(4)

        def any_dep():
            hard = data.draw(st.dictionaries(
                st.sampled_from(names), st.sampled_from(names), max_size=3))
            soft = data.draw(st.dictionaries(
                st.sampled_from(names),
                st.sets(st.sampled_from(names), min_size=1, max_size=2),
                max_size=2))
            return DepMap.make(hard, soft)

        d1, d2, d3 = any_dep(), any_dep(), any_dep()
        assert (dep_update(dep_update(d1, d2), d3)
                == dep_update(d1, dep_update(d2, d3)))


class TestDepRestrict:
    def test_read_keeps_the_read_names_hard_entry(self):
        x, u, z = fresh_names(3)
        ctx = chain_ctx([(x, EMPTY_QUAL), (u, EMPTY_QUAL)])
        d = DepMap.make({x: z, u: z})
        got = dep_restrict(d, footprint(RwEffect.read(q(x)), ctx, RW), RW)
        assert got == DepMap.make({x: z})

    def test_pure_effect_restricts_to_nothing(self):
        x, z = fresh_names(2)
        ctx = chain_ctx([(x, EMPTY_QUAL)])
        d = DepMap.make({x: z}, {x: {z}})
        assert dep_restrict(d, footprint(PURE, ctx, RW), RW) == EMPTY_DEP
        assert dep_restrict(d, footprint(PURE, ctx, HARD),
                            HARD) == EMPTY_DEP

    def test_write_routes_hard_and_soft_into_soft(self):
        x, a, b = fresh_names(3)
        ctx = chain_ctx([(x, EMPTY_QUAL)])
        d = DepMap.make({x: a}, {x: {b}})
        got = dep_restrict(d, footprint(RwEffect.write(q(x)), ctx, RW), RW)
        assert got == DepMap.make({}, {x: {a, b}})

    def test_hard_regime_uses_the_flat_footprint(self):
        x, a = fresh_names(2)
        ctx = chain_ctx([(x, EMPTY_QUAL)])
        d = DepMap.make({x: a}, {x: {a}})
        got = dep_restrict(d, footprint(RwEffect.write(q(x)), ctx, HARD),
                           HARD)
        assert got == DepMap.make({x: a})


class TestDepRewire:
    def test_targets_are_rerouted_through_the_second_map(self):
        a, b, c, x, y = fresh_names(5)
        d1 = DepMap.make({a: b, c: x, y: x})
        d2 = DepMap.make({c: a, y: b})
        assert dep_rewire(d1, x, d2) == DepMap.make({a: b, c: a, y: b})

    def test_noop_when_nothing_targets_the_pivot(self):
        a, b, x = fresh_names(3)
        d = DepMap.make({a: b})
        assert dep_rewire(d, x, DepMap.make({a: a})) == d

    def test_entry_dropped_when_the_second_map_is_silent(self):
        c, x = fresh_names(2)
        assert dep_rewire(DepMap.make({c: x}), x, EMPTY_DEP) == EMPTY_DEP


class TestDepDomSubst:
    def test_domain_member_replaced(self):
        x, z, loc = fresh_names(3)
        assert (dep_dom_subst(DepMap.make({x: z}), q(loc), x)
                == DepMap.make({loc: z}))

    def test_absent_pivot_is_a_noop(self):
        a, b, x, loc = fresh_names(4)
        d = DepMap.make({a: b})
        assert dep_dom_subst(d, q(loc), x) == d

    def test_fan_out_to_every_member(self):
        x, z, a, b, l1, l2 = fresh_names(6)
        got = dep_dom_subst(DepMap.make({x: z, a: b}), q(l1, l2), x)
        assert got == DepMap.make({l1: z, l2: z, a: b})


class TestDepLastUse:
    def test_write_retargets_hard_and_resets_soft(self):
        r, x, old = fresh_names(3)
        ctx = chain_ctx([(r, EMPTY_QUAL)])
        d = DepMap.make({}, {r: {old}})
        got = dep_last_use(d, x, footprint(RwEffect.write(q(r)), ctx, RW),
                           RW)
        assert got == DepMap.make({r: x, x: x})

    def test_pure_only_registers_the_new_node(self):
        r, x, z = fresh_names(3)
        ctx = chain_ctx([(r, EMPTY_QUAL)])
        d = DepMap.make({r: z})
        got = dep_last_use(d, x, footprint(PURE, ctx, RW), RW)
        assert got == DepMap.make({r: z, x: x})

    def test_read_appends_to_the_soft_set(self):
        r, x, a = fresh_names(3)
        ctx = chain_ctx([(r, EMPTY_QUAL)])
        d = DepMap.make({}, {r: {a}})
        got = dep_last_use(d, x, footprint(RwEffect.read(q(r)), ctx, RW),
                           RW)
        assert got.soft[r] == frozenset({a, x})

    def test_hard_regime_points_every_used_name_at_the_node(self):
        r, x, z = fresh_names(3)
        ctx = chain_ctx([(r, EMPTY_QUAL)])
        d = DepMap.make({r: z})
        got = dep_last_use(d, x, footprint(RwEffect.read(q(r)), ctx, HARD),
                           HARD)
        assert got == DepMap.make({r: x, x: x})


class TestDepSubmap:
    def test_reflexive_and_empty_bottom(self):
        a, b = fresh_names(2)
        d = DepMap.make({a: b}, {b: {a}})
        assert dep_submap(d, d)
        assert dep_submap(EMPTY_DEP, d)
        assert not dep_submap(d, EMPTY_DEP)

    def test_soft_entry_covered_by_hard_target(self):
        a, b = fresh_names(2)
        assert dep_submap(DepMap.make({}, {a: {b}}), DepMap.make({a: b}))


# ---------------------------------------------------------------------------
# Syntax: constants, renaming and substitution
# ---------------------------------------------------------------------------

class TestNCst:
    def test_bool_constants_differ_from_int_constants(self):
        assert NCst(0) != NCst(False)
        assert NCst(1) != NCst(True)
        assert len({NCst(0), NCst(False), NCst(1), NCst(True)}) == 4

    def test_equal_constants_hash_alike(self):
        for v in (0, 7, True, False):
            assert NCst(v) == NCst(v)
            assert hash(NCst(v)) == hash(NCst(v))

    def test_source_constants_compare_by_the_same_key(self):
        """`Cst` and `NCst` both compare and hash by `const_key`, so a
        source 1 is no source true either, and a span does not count."""
        assert Cst(1) != Cst(True) and Cst(0) != Cst(False)
        assert len({Cst(0), Cst(False)}) == 2
        assert Cst(1, Span(0, 1)) == Cst(1)
        assert hash(Cst(1, Span(0, 1))) == hash(Cst(1))
        assert Cst(1) != NCst(1)
        x = NameSupply().var("x")
        assert Let(x, Cst(1), Nm(x)) != Let(x, Cst(True), Nm(x))
        assert not alpha_equal_terms(Let(x, Cst(1), Nm(x)),
                                     Let(x, Cst(True), Nm(x)))
        assert [const_key(v) for v in (UNIT_V, OMEGA, True, 1)] == [
            ("Unit",), ("Alloc",), ("Bool", True), ("Int", 1)]


def _binders(g):
    """Every let variable and lambda parameter, outside-in."""
    if isinstance(g, GLet):
        return [g.var] + _binders(g.binding) + _binders(g.body)
    if isinstance(g, NLam):
        return [g.param] + _binders(g.body)
    return []


def _annotations(g):
    if isinstance(g, GLet):
        return [g.dep] + _annotations(g.binding) + _annotations(g.body)
    if isinstance(g, NLam):
        return [g.body_dep] + _annotations(g.body)
    return []


class TestRenameGraph:
    def _graph(self):
        """let a = (let y = 1 in y) in
           let f = fun (p: Int^{}) => (let u = h p in u) in
           let b = f a in b     -- h is free; every binding annotated"""
        sup = NameSupply()
        h, a, y, f, p, u, b = (sup.var(t) for t in "hayfpub")
        d = DepMap.make({h: h})
        lam = NLam(p, QualifiedType(TY_INT), PURE,
                   GLet(u, NApp(h, p), GName(u), d), d)
        g = GLet(a, GLet(y, NCst(1), GName(y), d),
                 GLet(f, lam, GLet(b, NApp(f, a), GName(b), d), d), d)
        return sup, h, g

    def test_fresh_renames_every_binder_and_its_uses(self):
        sup, h, g = self._graph()
        h2 = sup.var("h2")
        g2 = rename_graph(g, {h: h2}, fresh=sup, dep=lambda d: None)
        old, new = _binders(g), _binders(g2)
        assert len(new) == len(old) == len(set(new))
        assert not set(new) & set(old)
        assert graph_free_names(g2) == {h2}
        assert all(d is None for d in _annotations(g2))
        a2, y2, f2, p2, u2, b2 = new
        assert g2.binding == GLet(y2, NCst(1), GName(y2))
        lam2 = g2.body.binding
        assert lam2.body == GLet(u2, NApp(h2, p2), GName(u2))
        assert g2.body.body == GLet(b2, NApp(f2, a2), GName(b2))

    def test_default_keeps_binders_and_annotations(self):
        sup, h, g = self._graph()
        h2 = sup.var("h2")
        g2 = rename_graph(g, {h: h2})
        assert _binders(g2) == _binders(g)
        assert _annotations(g2) == _annotations(g)
        assert graph_free_names(g2) == {h2}

    def test_a_binder_shadows_the_mapping(self):
        sup = NameSupply()
        x, y, loc = sup.var("x"), sup.var("y"), sup.var("l")
        g = GLet(y, NApp(x, x), GLet(x, NCst(1), GName(x)))
        g2 = rename_graph(g, {x: loc})
        assert g2 == GLet(y, NApp(loc, loc), GLet(x, NCst(1), GName(x)))


class TestSubstTerm:
    def test_a_let_of_the_variable_keeps_its_body(self):
        x, y = fresh_names(2)
        t = Let(x, Nm(x), App(Nm(x), Nm(y)))
        assert subst_term(t, x, Cst(2)) == Let(x, Cst(2),
                                               App(Nm(x), Nm(y)))

    def test_a_lambda_binding_the_variable_is_untouched(self):
        x, y = fresh_names(2)
        lam = Lam(x, QualifiedType(TY_INT), PURE, Nm(x))
        assert subst_term(lam, x, Cst(2)) is lam
        assert subst_term(App(lam, Nm(x)), x, Cst(2)) == App(lam, Cst(2))

    def test_free_occurrences_are_replaced(self):
        x, y = fresh_names(2)
        t = Let(y, Nm(x), App(Nm(y), Nm(x)))
        assert subst_term(t, x, Cst(3)) == Let(y, Cst(3),
                                               App(Nm(y), Cst(3)))


class TestOperatorTable:
    def test_each_operator_class_is_registered_with_its_operand_fields(self):
        assert [o.op for o in OPERATORS] == ["app", "ref", "deref", "assign"]
        assert len(TERM_OPERATOR) == len(NODE_OPERATOR) == len(OPERATORS)
        for o in OPERATORS:
            assert TERM_OPERATOR[o.term] is o and NODE_OPERATOR[o.node] is o
            for cls in (o.term, o.node):
                assert o.fields == tuple(f.name for f in dataclasses.fields(cls)
                                         if f.name != "span")

    def test_every_other_form_is_an_explicit_case(self):
        terms, nodes = set(get_args(Term)), set(get_args(GraphNode))
        assert terms - set(TERM_OPERATOR) == {Cst, Nm, Lam, Let}
        assert nodes - set(NODE_OPERATOR) == {NCst, NLam}
        assert set(TERM_OPERATOR) <= terms
        assert set(NODE_OPERATOR) <= nodes

    def test_unknown_forms_raise_type_error(self):
        x, y = fresh_names(2)
        walkers = (term_operands, node_operands, term_free_names,
                   term_children, lambda t: term_with_child(t, 0, Nm(y)),
                   graph_free_names, embed,
                   lambda t: subst_term(t, x, Nm(y)),
                   lambda t: rename_graph(t, {x: y}),
                   lambda t: subst_term(t, x, Cst(1)),
                   lambda t: alpha_equal_terms(t, t))
        for walk in walkers:
            with pytest.raises(TypeError):
                walk(x)

    def test_each_side_rejects_the_other_sides_operators(self):
        x, a, b = fresh_names(3)
        term, node = App(Nm(a), Nm(b)), NApp(a, b)
        graph_walkers = (graph_free_names, embed,
                         lambda g: rename_graph(g, {a: b}),
                         lambda g: flatten(GLet(x, g, GName(x))))
        for walk in graph_walkers:
            with pytest.raises(TypeError):
                walk(term)
        with pytest.raises(JsonSchemaError):
            export_json(GLet(x, term, GName(x)))
        term_walkers = (term_free_names, lambda t: subst_term(t, a, Nm(b)),
                        lambda t: subst_term(t, a, Cst(1)),
                        lambda t: alpha_equal_terms(t, t))
        for walk in term_walkers:
            with pytest.raises(TypeError):
                walk(node)

    LABELS = {"app": "a_0 b_1", "ref": "ref(a_0, b_1)", "deref": "!a_0",
              "assign": "a_0 := b_1"}

    def test_one_node_per_operator_through_every_walker(self):
        sup = NameSupply()
        a, b, x, c = sup.var("a"), sup.var("b"), sup.var("x"), sup.var("c")
        for o in OPERATORS:
            args = (a, b)[:len(o.fields)]
            node = o.node(*args)
            term = o.term(*map(Nm, args))
            assert node_operands(node) == args
            assert term_operands(term) == tuple(map(Nm, args))
            assert graph_free_names(node) == frozenset(args)
            assert term_free_names(term) == frozenset(args)
            assert rename_graph(node, {a: c}) == o.node(c, *args[1:])
            rest = term_operands(term)[1:]
            assert term_children(term) == list(term_operands(term))
            assert term_with_child(term, 0, Nm(c)) == o.term(Nm(c), *rest)
            assert subst_term(term, a, Nm(c)) == o.term(Nm(c), *rest)
            assert subst_term(term, a, Cst(1)) == o.term(Cst(1), *rest)
            assert alpha_equal_terms(term, term)
            assert embed(node) == term
            g = GLet(x, node, GName(x))
            doc = export_json(g)
            entry = json.loads(doc)["graph"]["nodes"][0]
            assert entry["op"] == o.op and len(entry["args"]) == len(args)
            assert import_json(doc)[0] == g
            dot = export_dot(g)
            assert f'"x_2" [label="x_2 := {self.LABELS[o.op]}"];' in dot
            assert [l.strip() for l in dot.splitlines() if "->" in l] == [
                f'"x_2" -> "{n.pretty()}";' for n in args]

    def test_a_name_binding_keeps_its_dot_edge(self):
        sup = NameSupply()
        a, x = sup.var("a"), sup.var("x")
        dot = export_dot(GLet(x, GName(a), GName(x)))
        assert '"x_1" [label="x_1 := a_0"];' in dot
        assert '"x_1" -> "a_0";' in dot
