"""Dependency synthesis for the graph IR: annotate MNF terms with hard
(and, in the read/write regime, soft) dependency maps driven by the
last-use coeffect Δ; plus erasure. Synthesis is a function of the types
and effects, so it also checks annotations: one already on the input is
correct exactly when it is a sub-map of the slice synthesized at its
position, and the one traversal compares them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DepMap, DepMismatch, EMPTY_DEP, GLet, GName, GraphTerm, HARD, Name,
    NLam, Nm, RuntimeConfig, Store, TypingContext, dep_last_use,
    dep_restrict, dep_restrict_names, dep_rewire, dep_submap, dep_update,
    graph_free_names, points_to, saturate,
)
from .mnf import check_binding
from .typecheck import Typing, bind_let, check_lam, infer_direct, let_typing


@dataclass
class SynthState:
    """Context plus the last-use coeffect Δ (and the dependency regime)."""

    ctx: TypingContext
    last_use: DepMap
    regime: str = HARD


def synthesize(st: SynthState, g: GraphTerm,
               typings: dict | None = None) -> tuple[GraphTerm, DepMap]:
    """Annotate every binding of a well-typed MNF term with its dependency
    map and return the whole term's dependency slice. Given a dict
    `typings`, also record there the `Typing` of each let binder's binding,
    nested blocks and lambda bodies included (binders are unique).

    The slice always equals the last-use map restricted to the term's
    saturated effect; in the hard regime the rule-by-rule composition is
    checked to coincide with it exactly, in the read/write regime the
    composition is a sub-map refinement (internal writes can downgrade an
    external hard dependency to a soft one, which the restriction view
    over-approximates). A composition that breaks either relation raises
    DepMismatch.

    An annotation already on the input, a let's `dep` or a lambda's
    `body_dep`, is checked against the slice synthesized at its position
    (DepMismatch naming the let's binder or the lambda's parameter if it
    is not a sub-map of that slice), then replaced."""
    g2, out, slice_, _typing = _synth(st.ctx, st.last_use, g, st.regime,
                                      typings)
    return g2, slice_


def _synth(ctx, delta, g, regime, typings):
    """Returns (annotated, composed-output, slice, typing)."""
    if isinstance(g, GName):
        typing = infer_direct(ctx, Nm(g.name))
        return g, EMPTY_DEP, EMPTY_DEP, typing
    if isinstance(g, GLet):
        b2, d1, tb = _synth_binding(ctx, delta, g.binding, regime, typings)
        if g.dep is not None:
            required = dep_restrict(delta, tb.eff, ctx, regime)
            if not dep_submap(g.dep, required):
                raise DepMismatch(
                    f"annotation {g.dep!r} on {g.var!r} exceeds required "
                    f"slice {required!r}",
                    node=g.var, annotated=g.dep, required=required)
        if typings is not None:
            typings[g.var] = tb
        ctx2 = bind_let(ctx, g.var, tb)
        delta2 = dep_last_use(delta, g.var, tb.eff, ctx, regime)
        body2, d2, _slice2, t2 = _synth(ctx2, delta2, g.body, regime,
                                        typings)
        reroute = dep_restrict_names(delta, saturate(tb.qt.qual, ctx))
        out = dep_update(d1, dep_rewire(d2, g.var, reroute))
        typing = let_typing(g.var, tb, t2)
        slice_ = dep_restrict(delta, typing.eff, ctx, regime)
        if not (out == slice_ if regime == HARD
                else dep_submap(out, slice_)):
            raise DepMismatch(
                f"{regime}-regime composition {out!r} does not fit the "
                f"slice {slice_!r}", node=g.var, annotated=out,
                required=slice_)
        return GLet(g.var, b2, body2, d1), out, slice_, typing
    raise TypeError(g)


def _synth_binding(ctx, delta, b, regime, typings):
    """Returns (annotated-binding, binding-dep, typing)."""
    if isinstance(b, (GName, GLet)):
        b2, out, _slice, typing = _synth(ctx, delta, b, regime, typings)
        return b2, out, typing
    if isinstance(b, NLam):
        body = []

        def synth_body(ctx2, g):
            # every last use in the body points at the parameter
            body2, body_out, slice_, tbody = _synth(
                ctx2, points_to(ctx2.env, b.param), g, regime, typings)
            if b.body_dep is not None and not dep_submap(b.body_dep, slice_):
                raise DepMismatch(
                    f"latent annotation {b.body_dep!r} exceeds required "
                    f"{slice_!r}", node=b.param, annotated=b.body_dep,
                    required=slice_)
            body.extend((body2, body_out))
            return tbody

        # the lambda rule checks capture and latent before the body
        typing = check_lam(ctx, b, graph_free_names(b), synth_body)
        annotated = NLam(b.param, b.param_qt, b.latent, *body)
        return annotated, EMPTY_DEP, typing
    # plain graph nodes: dependency = Δ restricted to the node's effect
    typing = check_binding(ctx, b)
    d = dep_restrict(delta, typing.eff, ctx, regime)
    return b, d, typing


def check_deps(st: SynthState, g: GraphTerm) -> Typing:
    """Verify every annotation is a sub-map of the slice its rule demands
    (a missing one always checks): synthesize `g`, which compares each
    annotation it carries with the slice synthesized at its position.
    Returns the term's typing."""
    return _synth(st.ctx, st.last_use, g, st.regime, None)[3]


def erase(g):
    """Drop every dependency annotation, preserving structure."""
    if isinstance(g, GName):
        return g
    if isinstance(g, GLet):
        return GLet(g.var, erase(g.binding), erase(g.body), None)
    if isinstance(g, NLam):
        return NLam(g.param, g.param_qt, g.latent, erase(g.body), None)
    return g


def initial_state(store: Store, z: Name | None = None,
                  regime: str = HARD) -> tuple[SynthState, Name]:
    """Synthesis state for a whole program: the store typing with every
    location's last use pointing at the start variable z."""
    ctx = store.typing()
    if z is None:
        z = store.supply.var("z")
    delta = points_to(ctx.env, z)
    return SynthState(ctx, delta, regime), z


def synthesize_config(store: Store, g: GraphTerm,
                      regime: str = HARD) -> RuntimeConfig:
    st, z = initial_state(store, regime=regime)
    g2, slice_ = synthesize(st, g)
    return RuntimeConfig(store, z, g2, slice_)
