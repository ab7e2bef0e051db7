"""Dependency synthesis for the graph IR: annotate MNF terms with hard
(and, in the read/write regime, soft) dependency maps driven by the
last-use coeffect Δ; plus erasure. Synthesis is a function of the types
and effects, so it also checks annotations: one already on the input is
correct exactly when it is a sub-map of the slice synthesized at its
position, and the one traversal compares them. For the same reason a
let node entered in the same context and Δ as before synthesizes as
before, so after a local rewrite synthesis resumes where the rewrite
begins and stops where its state converges with the last synthesis; a
let above that point whose body came out as before keeps its result;
and after a deleted let whose binder occurs nowhere, every typing below
stays as it was (strengthening), so the lets below only have their
context and Δ re-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    DepMap, DepMismatch, EMPTY_DEP, GLet, GName, GraphTerm, HARD, Name,
    NLam, Nm, RuntimeConfig, Store, TypingContext, dep_last_use,
    dep_restrict, dep_restrict_names, dep_rewire, dep_submap, dep_update,
    footprint, graph_free_names, points_to, rename_graph, saturate, spine,
)
from .mnf import check_binding
from .typecheck import (
    Typing, bind_let, check_lam, infer_direct, lam_body_ctx, let_typing,
)


@dataclass
class SynthState:
    """Context plus the last-use coeffect Δ (and the dependency regime)."""

    ctx: TypingContext
    last_use: DepMap
    regime: str = HARD


class Frame(NamedTuple):
    """One let binder as synthesis met it: the context and last-use map Δ
    the let was entered in, its binding annotated, that binding's
    dependency map and typing, the binding's effect footprint and
    qualifier saturated in that context (`core.footprint`), `body`, the
    (composed output, typing) of the let's body, and `result`, what
    synthesis made of the whole let from there: (annotated let, composed
    output, slice, typing). The descent keeps the fields before `body` as
    a plain tuple. Contexts and Δ are persistent, so a frame holds O(1)
    of them."""

    var: Name
    ctx: TypingContext
    last_use: DepMap
    binding: object
    dep: DepMap
    typing: Typing
    foot: object
    qual: frozenset
    body: tuple
    result: tuple


def synthesize(st: SynthState, g: GraphTerm) -> tuple[GraphTerm, DepMap]:
    """Annotate every binding of a well-typed MNF term with its dependency
    map and return the whole term's dependency slice. Each let spine is
    one loop down its binders and one back up, so only lambda bodies and
    nested blocks recurse. Contexts and Δ are persistent, so the frames
    the descent keeps for the ascent cost O(1) each: a spine of n lets
    synthesizes in O(n) memory.

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
    g2, _out, slice_, _typing = _synth(st.ctx, st.last_use, g, st.regime,
                                       None)
    return g2, slice_


def resynthesize(st: SynthState, g: GraphTerm, record: dict,
                 old: GraphTerm | None = None) -> GraphTerm:
    """Annotate `g` as `synthesize` would after dropping its annotations,
    and record the `Frame` of each let binder in `record`, nested blocks
    and lambda bodies included (binders are unique). `record` is empty or
    holds what the last re-synthesis under `st` left. Given `old`, the
    well-typed graph that re-synthesis annotated and `g` was rewritten
    from, only what the rewrite changed is synthesized again, since
    synthesis is a function of types and effects.

    The binders `g` shares with `old` from the top (the same binder bound
    to the same binding object) keep their frames. After them, one of two
    things happens:

    - `g` goes on with the very body of the let of `old` that comes next,
      and that let's binding writes nothing: the rewrite deleted the let,
      whose binder occurs nowhere. Deleting such a binder leaves every
      other typing as it was (strengthening), so each let below keeps its
      binding typing and only has its context and Δ re-threaded from the
      deleted let's entry state, in lambda bodies and nested blocks too
      (`_synth`'s `gone` mode). The new Δ differs from the recorded one
      only where the recorded one names the deleted let's binder. No
      binder inside its binding can be named below it: a nested block's
      composed output names only targets of its entry Δ, since the
      ascent rewires each inner binder away, and a lambda body's Δ starts
      at its parameter, so by induction no annotation, output, slice or
      Δ outside the binding names one. As the deleted binding writes
      nothing, a recorded annotation, composed output or slice changes
      only if it names the deleted binder, and is computed again only
      then.
    - Otherwise the descent restarts in the state the record holds, and
      it stops at the first let node that synthesis of `old` produced,
      entered in the context and Δ recorded for it, whose recorded result
      it takes. That comparison is exact, by content: Δ first, then φ,
      then the context's map, each of which tells versions of unequal
      size apart in O(1), as they are after most rewrites that do not
      converge.

    Every let above that point is composed again only if its body's
    output or typing changed; one whose did not keeps its recorded
    result. Frames of the binders a rewrite removed stay in the record; no
    binder of `g` names them."""
    prefix, ctx, delta, u = [], st.ctx, st.last_use, g
    # a kept frame needs a next one in `old`, whose entry state it leaves
    while (isinstance(u, GLet) and isinstance(old, GLet)
           and isinstance(old.body, GLet)
           and u.var == old.var and u.binding is old.binding):
        prefix.append(record[u.var][:-2])  # as the descent keeps it
        u, old = u.body, old.body
    if prefix:
        ctx, delta = record[old.var].ctx, record[old.var].last_use
    deleted = (isinstance(old, GLet) and u is old.body
               and not record[old.var].typing.eff.writes)
    result = _synth(ctx, delta, u, st.regime, record,
                    old.var if deleted else None)
    return _ascend(prefix, result, st.regime, record)[0]


def _synth(ctx, delta, g, regime, record, gone=None):
    """Returns (annotated, composed-output, slice, typing) for `g`, a let
    spine entered in (ctx, delta). The descent keeps one frame per
    binder; at a let node that `record` holds the result of for the same
    entry state it stops and takes that result. Without a record, an
    annotation on the input is checked against the slice synthesized at
    its position; with one, the input is a rewritten graph whose
    annotations are stale, and they are ignored.

    Given `gone`, the binder of a deleted let that `g`, a recorded
    spine, came after (see `resynthesize`), no binding is typed again:
    each frame's recorded typing, footprint and qualifier re-thread the
    context and Δ, and a recorded annotation is restricted from Δ again
    only if it names `gone`."""
    frames = []
    lets, tail = spine(g)
    for g in lets:
        f = record.get(g.var) if record is not None else None
        if gone is not None:
            b2, d1, tb, foot, qual = f.binding, f.dep, f.typing, f.foot, f.qual
            if isinstance(b2, GLet):
                b2, d1 = _synth(ctx, delta, b2, regime, record, gone)[:2]
            elif isinstance(b2, NLam):
                # a body's Δ starts at its parameter, so nothing recorded
                # in it names `gone`: its lets keep their results, and
                # only their recorded contexts change
                _synth(lam_body_ctx(ctx, b2, tb.qt.qual),
                       points_to(b2.param), b2.body, regime, record, gone)
            elif gone in d1.targets():
                # a target names it, never a key: no footprint holds a
                # binder that occurs nowhere
                d1 = dep_restrict(delta, foot, regime)
        # Δ first: most unequal states differ in its size, seen in O(1)
        elif (f is not None and f.result[0] is g
                and f.last_use == delta and f.ctx == ctx):
            result = f.result
            break
        else:
            b2, d1, tb = _synth_binding(ctx, delta, g.binding, regime, record)
            foot = footprint(tb.eff, ctx, regime)
            if d1 is None:  # a node: Δ restricted to its effect
                d1 = dep_restrict(delta, foot, regime)
            if record is None and g.dep is not None:
                required = dep_restrict(delta, foot, regime)
                if not dep_submap(g.dep, required):
                    raise DepMismatch(
                        f"annotation {g.dep!r} on {g.var!r} exceeds "
                        f"required slice {required!r}",
                        node=g.var, annotated=g.dep, required=required)
            qual = saturate(tb.qt.qual, ctx)
        frames.append((g.var, ctx, delta, b2, d1, tb, foot, qual))
        delta = dep_last_use(delta, g.var, foot, regime)
        ctx = bind_let(ctx, g.var, tb, qual)
    else:
        result = _tail(ctx, tail)
    return _ascend(frames, result, regime, record, gone)


def _ascend(frames, result, regime, record, gone=None):
    """Compose each frame's let, innermost first, from its body's
    `result`, check the composition, and record the frame. A frame whose
    binding is the recorded one keeps its recorded output, slice and
    typing when they cannot have changed: for frames `_synth` made in
    its `gone` mode, when the recorded slice does not name `gone`;
    for the others, when its entry state is the recorded one and its
    body's output and typing equal the recorded ones. Only its let node
    is then rebuilt, if its parts changed."""
    while frames:  # popped, so that each frame's state dies after use
        frame = frames.pop()
        var, ctx, delta, b2, d1, tb, _foot, qual = frame
        body2, d2, _slice2, t2 = result
        body = d2, t2
        f = record.get(var) if record is not None else None
        if f is None or f.binding is not b2:
            keep = False
        elif gone is None:
            keep = f.ctx is ctx and f.last_use is delta and f.body == body
        else:  # the output is a sub-map of the slice, which stands for both
            keep = gone not in f.result[2].targets()
        if keep:
            let, out, slice_, typing = f.result
            if let.body is not body2 or let.dep is not d1:
                let = GLet(var, b2, body2, d1)
        else:
            reroute = dep_restrict_names(delta, qual)
            out = dep_update(d1, dep_rewire(d2, var, reroute))
            typing = let_typing(var, tb, t2)
            slice_ = dep_restrict(delta, footprint(typing.eff, ctx, regime),
                                  regime)
            if not (out == slice_ if regime == HARD
                    else dep_submap(out, slice_)):
                raise DepMismatch(
                    f"{regime}-regime composition {out!r} does not fit the "
                    f"slice {slice_!r}", node=var, annotated=out,
                    required=slice_)
            let = GLet(var, b2, body2, d1)
        result = let, out, slice_, typing
        if record is not None:
            record[var] = Frame(*frame, body, result)
    return result


def _tail(ctx, tail):
    """The result of a let spine's tail name."""
    if not isinstance(tail, GName):
        raise TypeError(tail)
    return tail, EMPTY_DEP, EMPTY_DEP, infer_direct(ctx, Nm(tail.name))


def _synth_binding(ctx, delta, b, regime, record):
    """Returns (annotated-binding, binding-dep, typing); the dep is None
    for a graph node, whose dependency is Δ restricted to its effect."""
    if isinstance(b, (GName, GLet)):
        b2, out, _slice, typing = _synth(ctx, delta, b, regime, record)
        return b2, out, typing
    if isinstance(b, NLam):
        body = []

        def synth_body(ctx2, g):
            # every last use in the body points at the parameter
            body2, body_out, slice_, tbody = _synth(
                ctx2, points_to(b.param), g, regime, record)
            if (record is None and b.body_dep is not None
                    and not dep_submap(b.body_dep, slice_)):
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
    return b, None, check_binding(ctx, b)


def check_deps(st: SynthState, g: GraphTerm) -> Typing:
    """Verify every annotation is a sub-map of the slice its rule demands
    (a missing one always checks): synthesize `g`, which compares each
    annotation it carries with the slice synthesized at its position.
    Returns the term's typing."""
    return _synth(st.ctx, st.last_use, g, st.regime, None)[3]


def erase(g):
    """Drop every dependency annotation, preserving structure."""
    return rename_graph(g, {}, dep=lambda d: None)


def initial_state(store: Store, z: Name | None = None,
                  regime: str = HARD) -> tuple[SynthState, Name]:
    """Synthesis state for a whole program: the store typing with every
    location's last use pointing at the start variable z."""
    ctx = store.typing()
    if z is None:
        z = store.supply.var("z")
    return SynthState(ctx, points_to(z), regime), z


def synthesize_config(store: Store, g: GraphTerm,
                      regime: str = HARD) -> RuntimeConfig:
    st, z = initial_state(store, regime=regime)
    g2, slice_ = synthesize(st, g)
    return RuntimeConfig(store, z, g2, slice_)
