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
and after a deleted, swapped or merged let every typing below stays as
it was, up to renaming (weakening and strengthening), so the lets below
only have their context and Δ re-threaded. A recorded frame equals
synthesis from scratch modulo binders that occur nowhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    DepMap, DepMismatch, EMPTY_DEP, EMPTY_QUAL, GLet, GName, GraphTerm, HARD,
    Name, NLam, RW, RuntimeConfig, Store, TypingContext, dep_has_target,
    dep_last_use, dep_restrict, dep_restrict_names, dep_rewire, dep_submap,
    dep_update, descend, footprint, graph_free_names, points_to,
    rename_effect, rename_graph, rename_qt, rename_qual, saturate,
)
from .mnf import check_binding, ends_in_binder
from .typecheck import (
    Typing, bind_let, bound_name_typing, check_lam, lam_body_ctx,
    let_binder_qt, let_typing, name_typing,
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
    of them.

    A frame holds the state a let was entered in, never the one after
    it: synthesis builds that state only for a continuation that reads
    it. So a block's exit Δ, which no rule reads, is
    `dep_last_use(f.last_use, f.var, f.foot, regime)` of its last frame
    `f`, and its exit context `bind_let(f.ctx, f.var, f.typing, f.qual)`."""

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
    one loop down its binders and one back up, and lambda bodies and
    nested blocks are sub-walks (see `core.descend`), so no depth of
    nesting costs Python frames. Contexts and Δ are persistent, so the frames
    the descent keeps for the ascent cost O(1) each: a spine of n lets
    synthesizes in O(n) memory. Only a continuation reads the context
    and Δ after a let, so a let whose body is its own binder's name (the
    last let of every block `to_mnf` builds) extends neither: its tail is
    typed by the name rule at the type the let binds, and the enclosing
    let reads older versions of the persistent maps without first moving
    back out of a new one.

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
    g2, _out, slice_, _typing = descend(_synth(st.ctx, st.last_use, g,
                                               st.regime, None))
    return g2, slice_


def resynthesize(st: SynthState, g: GraphTerm, record: dict,
                 old: GraphTerm | None = None) -> GraphTerm:
    """Annotate `g`, a let spine entered in the state `st`, as `synthesize`
    would after dropping its annotations, and record the `Frame` of each
    let binder in `record`, nested blocks and lambda bodies included
    (binders are unique). `record` is empty or holds what the last
    re-synthesis under `st` left. Given `old`, the well-typed graph that
    re-synthesis annotated and `g` was rewritten from by one of the
    optimizer's rules, only what the rewrite changed is synthesized
    again, since synthesis is a function of types and effects.

    The record's contract: each frame equals what synthesis from scratch
    gives, modulo binders that occur nowhere. A binder that occurs
    nowhere changes no typing (strengthening), and binders are unique,
    so such a binder can only stand in a recorded context, as its own
    key of Δ, or as a Δ target that no later let reads; comparisons of
    recorded states hold modulo such binders too.

    The binders `g` shares with `old` from the top (the same binder bound
    to the same binding object) keep their frames; where the same binder
    is bound to a rewritten lambda (same parameter, qualifier, latent
    effect and captures) or nested block with the same continuation, the
    walk goes on inside it, so no let above the rewritten one is typed
    again. At the rewritten let, one of four things happens:

    - `g` goes on with the very body of the let of `old` that comes
      next, and that let's binding writes nothing: the rewrite deleted
      the let, whose binder occurs nowhere. Each let below keeps its
      binding typing and only has its context, Δ and annotation
      re-threaded (`_synth`'s `gone` mode), in nested blocks too, until
      the first let whose recorded Δ names the deleted binder nowhere
      but at its own key: the recorded keys that the deleted let's
      footprint pointed at it are tracked, and each let's recorded
      footprint overwrites some. From there on the record holds, modulo
      the deleted binder. Lambda bodies are not re-threaded: a body's Δ
      starts at its parameter, so only their contexts hold the binder.
      No binder inside the deleted binding can be named below it: a
      nested block's composed output names only targets of its entry Δ,
      since the ascent rewires each inner binder away, and a lambda
      body's Δ starts at its parameter, so by induction no annotation,
      output, slice or Δ outside the binding names one.
    - Two adjacent lets swapped places (`comm`): the swap holds only for
      disjoint footprints where the second binding does not mention the
      first binder, so by weakening and strengthening both keep their
      recorded typings, footprints and qualifiers, and are re-threaded,
      bindings included.
    - A let was merged into the equal one before it (`cse`): the
      continuation is the old one with the duplicate binder renamed to
      the kept one, which has the same type and saturated qualifier, so
      each let below is re-threaded with its recorded typing, footprint
      and qualifier renamed likewise.
    - Otherwise the descent types the rewritten lets again, and it stops
      at the first let node that synthesis of `old` produced, entered in
      the context and Δ recorded for it modulo binders that occur
      nowhere, whose recorded result it takes. Both states extend the
      one the rewritten let was entered in, so only the binders and Δ
      keys that the lets between touched are compared (`_same_state`);
      so is the state after a let whose binding was rewritten inside
      and whose typing changed.

    Every let above that point is composed again only if its body's
    output or typing changed; one whose did not keeps its recorded
    result. Frames of the binders a rewrite removed stay in the record; no
    binder of `g` names them."""
    if old is None:
        return descend(_synth(st.ctx, st.last_use, g, st.regime,
                              record))[0]
    return _resynth(st.ctx, st.last_use, g, old, st.regime, record)[0]


def _resynth(ctx, delta, g, old, regime, record):
    """Result of `g`, a let spine rewritten from the recorded `old`,
    entered in (ctx, delta), the state recorded for `old`."""
    frames, prev = [], None
    while isinstance(g, GLet) and isinstance(old, GLet) and g.var == old.var:
        b, ob = g.binding, old.binding
        if b is not ob:
            if g.body is old.body and _same_scope(b, ob):
                result = _resynth_binding(ctx, delta, g, old, regime, record)
                return _ascend(frames, result, regime, record)
            break
        if not isinstance(old.body, GLet):
            break
        frames.append(record[old.var][:-2])  # as the descent keeps it
        prev, g, old = old.var, g.body, old.body
        f = record[old.var]
        ctx, delta = f.ctx, f.last_use
    return _ascend(frames, _resynth_site(ctx, delta, g, old, prev, regime,
                                         record), regime, record)


def _same_scope(b, ob) -> bool:
    """Whether `b` rewrites the inside of `ob` and keeps its scope: two
    nested blocks, or two lambdas with the same parameter, qualifier and
    latent effect, whose body the old one has a let in."""
    if isinstance(ob, GLet):
        return isinstance(b, GLet)
    return (isinstance(ob, NLam) and isinstance(b, NLam)
            and isinstance(ob.body, GLet) and b.param == ob.param
            and b.param_qt == ob.param_qt and b.latent == ob.latent)


def _resynth_binding(ctx, delta, g, old, regime, record):
    """Result of the let `g`, whose binding rewrites the inside of that of
    `old`, the recorded let it keeps the binder and continuation of."""
    f = record[old.var]
    b, ob = g.binding, old.binding
    if isinstance(ob, GLet):  # a nested block, entered in the let's state
        body = _resynth(ctx, delta, b, ob, regime, record)
        b2, d1, tb = body[0], body[1], body[3]
    else:
        free = graph_free_names(b)
        if free != f.typing.qt.qual:  # the body's observation changed
            b2, d1, tb = descend(_synth_binding(ctx, delta, b, regime,
                                                record))
        else:
            first = record[ob.body.var]
            body = _resynth(first.ctx, first.last_use, b.body, ob.body,
                            regime, record)
            tb = descend(check_lam(ctx, b, free,
                                   lambda _ctx, _body: body[3]))
            b2, d1 = NLam(b.param, b.param_qt, b.latent, *body[:2]), EMPTY_DEP
    frame = (g.var, ctx, delta, b2, d1, tb)
    if tb == f.typing:  # the state after the let is the recorded one
        return _ascend([frame + (f.foot, f.qual)],
                       (g.body, f.body[0], None, f.body[1]), regime, record)
    foot = footprint(tb.eff, ctx, regime)
    qual = saturate(tb.qt.qual, ctx)
    frames = [frame + (foot, qual)]
    if ends_in_binder(g):
        return _ascend(frames, _binder_tail(ctx, g.body, tb, qual), regime,
                       record)
    return descend(_synth(bind_let(ctx, g.var, tb, qual),
                          dep_last_use(delta, g.var, foot, regime), g.body,
                          regime, record, was=old, frames=frames))


def _resynth_site(ctx, delta, g, old, prev, regime, record):
    """Result of `g`, which replaced the recorded let `old` (entered in
    (ctx, delta)); `prev` is the binder of the let before both, if any."""
    if not isinstance(old, GLet):
        return descend(_synth(ctx, delta, g, regime, record))
    f, nxt = record[old.var], old.body
    if g is nxt and not f.typing.eff.writes:  # deleted
        return descend(_synth(ctx, delta, g, regime, record,
                              _gone(f, regime)))
    if (isinstance(g, GLet) and isinstance(nxt, GLet)
            and g.binding is nxt.binding and isinstance(g.body, GLet)
            and g.body.binding is old.binding and g.body.body is nxt.body):
        return descend(_synth(ctx, delta, g, regime, record,
                              rename=({}, 2), was=old))  # swapped
    if (prev is not None and old.binding == record[prev].binding
            and (isinstance(g, GLet) and isinstance(nxt, GLet)
                 and g.var == nxt.var
                 or isinstance(g, GName) and isinstance(nxt, GName))):
        # merged into `prev`: the continuation, renamed
        return descend(_synth(ctx, delta, g, regime, record,
                              rename=({old.var: prev}, _ALL)))
    return descend(_synth(ctx, delta, g, regime, record, was=old))


def _gone(f, regime) -> tuple:
    """`_synth`'s `gone` pair for the deleted let of frame `f`: its
    binder, and the keys that its footprint pointed at it in Δ, hard ones
    in the hard regime and soft sets of its reads in the read/write one
    (it writes nothing)."""
    return f.var, set(f.foot if regime == HARD else f.foot[0])


_ALL = float("inf")  # `rename`'s count for a whole spine
_NO_FOOT = {HARD: EMPTY_QUAL, RW: (EMPTY_QUAL, EMPTY_QUAL)}  # of no effect


def _synth(ctx, delta, g, regime, record, gone=None, rename=None,
           was=None, frames=None):
    """The walk (see `core.descend`) whose result is (annotated,
    composed-output, slice, typing) for `g`, a let spine entered in (ctx,
    delta). The descent keeps one frame per
    binder, after `frames`, those of the lets above `g` that it is to
    compose too. Without a record, an annotation on the input is checked
    against the slice synthesized at its position; with one, the input
    is a rewritten graph whose annotations are stale, and they are
    ignored.

    `was` is the recorded let that the region from the first of `frames`
    (from `g` if there are none) replaced, entered in the same state:
    at a let node that `record` holds the result of, in that result's
    entry state (`_same_state`), the descent stops and takes the result.
    Without `was` it never stops so.

    Two modes type no binding; each reads the frames `record` holds for
    the binders of `g` (see `resynthesize`):

    - `gone`, a (deleted binder, pending keys) pair: each let keeps its
      recorded typing, footprint and qualifier to re-thread the context
      and Δ, and its recorded annotation unless it names the binder,
      until the pending keys, those whose recorded Δ target is the
      binder, run out: that let keeps its recorded result;
    - `rename`, a (map, count) pair: the first count lets, bindings
      included, are re-threaded with their recorded typings, footprints
      and qualifiers renamed by the map, and the rest synthesized.

    In every mode, a let whose body is its own binder's name ends the
    descent without extending the context or Δ (`_binder_tail`). The
    descent walks only as far as it goes, never the rest of the
    spine. What it records equals synthesis from scratch modulo binders
    that occur nowhere (see `resynthesize`)."""
    frames = [] if frames is None else frames
    while isinstance(g, GLet):
        f = record.get(g.var) if record is not None else None
        if rename is not None:
            m, n = rename
            rename = (m, n - 1) if n > 1 else None
            tb, foot, qual = _renamed(f, m, regime)
            b2, d1 = yield _rethread(ctx, delta, g.binding, tb, foot, regime,
                                     record, m)
        elif gone is not None:
            var, pending = gone
            if not pending:  # the record holds from here, modulo `var`
                result = f.result
                break
            b2, d1, tb, foot, qual = f.binding, f.dep, f.typing, f.foot, f.qual
            if isinstance(b2, GLet):
                b2, d1 = (yield _synth(ctx, delta, b2, regime, record,
                                       (var, set(pending))))[:2]
            elif not isinstance(b2, NLam) and dep_has_target(d1, var):
                d1 = dep_restrict(delta, foot, regime)
            pending.difference_update(foot if regime == HARD else foot[1])
        else:
            if was is not None and f is not None and f.result[0] is g:
                same = _same_state(f, ctx, delta, frames, was, record,
                                   regime)
                if same:
                    result = f.result
                    break
                if same is None:  # nor at any let below
                    was = None
            b2, d1, tb = yield _synth_binding(ctx, delta, g.binding, regime,
                                              record)
            if tb.eff.reads or tb.eff.writes:
                foot = footprint(tb.eff, ctx, regime)
                if d1 is None:  # a node: Δ restricted to its effect
                    d1 = dep_restrict(delta, foot, regime)
            else:  # a pure binding touches nothing
                foot = _NO_FOOT[regime]
                if d1 is None:
                    d1 = EMPTY_DEP
            if record is None and g.dep is not None:
                required = dep_restrict(delta, foot, regime)
                if not dep_submap(g.dep, required):
                    raise DepMismatch(
                        f"annotation {g.dep!r} on {g.var!r} exceeds "
                        f"required slice {required!r}",
                        node=g.var, annotated=g.dep, required=required)
            qual = saturate(tb.qt.qual, ctx)
        frames.append((g.var, ctx, delta, b2, d1, tb, foot, qual))
        if ends_in_binder(g):  # nothing reads the state after it
            result = _binder_tail(ctx, g.body, tb, qual)
            break
        delta = dep_last_use(delta, g.var, foot, regime)
        ctx = bind_let(ctx, g.var, tb, qual)
        g = g.body
    else:
        result = _tail(ctx, g)
    return _ascend(frames, result, regime, record,
                   gone[0] if gone is not None else None)


def _same_state(f, ctx, delta, frames, was, record, regime):
    """Whether (ctx, delta), the state after the lets of `frames`, equals
    the recorded entry state of the let whose frame is `f`, modulo
    binders that occur nowhere: True, False, or None when it cannot at
    any let below either. `was` is the recorded let that the frames'
    region replaced, entered in the same state, so both states extend
    that one, the new by the lets of `frames` and the recorded by those
    from `was` to `f`'s. They are equal exactly when the two regions
    bind the same binders to the same context entries and agree on Δ at
    every key that a footprint or binder of either touched, which is all
    that is compared: every other entry of both is the one they were
    entered with, and a binder that occurs nowhere is touched by no
    footprint. A context entry is never bound again, so regions that
    differ in their binders or in an entry differ at every let below
    too."""
    olds, o, stop = [], was, f.result[0]
    while o is not stop:
        if not isinstance(o, GLet) or len(olds) == len(frames):
            return None
        olds.append(record[o.var])
        o = o.body
    binders = [frame[0] for frame in frames]
    if set(binders) != {old.var for old in olds}:
        return None
    keys = set(binders)
    for foot in [frame[6] for frame in frames] + [old.foot for old in olds]:
        keys.update(foot if regime == HARD else foot[0] | foot[1])
    new = _entries(ctx, delta, binders, keys)
    recorded = _entries(f.ctx, f.last_use, binders, keys)
    if new[0] != recorded[0]:
        return None
    return new == recorded


def _entries(ctx, delta, binders, keys) -> tuple:
    """The context entries of `binders` and the Δ entries of `keys`, each
    read at once, since reading another version of a persistent map moves
    it."""
    env, hard, soft = ctx.env, delta.hard, delta.soft
    return ([env.get(b) for b in binders], [hard.get(k) for k in keys],
            [soft.get(k) for k in keys])


def _renamed(f, m, regime):
    """A frame's recorded typing, footprint and qualifier, renamed by `m`."""
    if not m:
        return f.typing, f.foot, f.qual
    t = f.typing
    tb = Typing(rename_qt(t.qt, m), rename_effect(t.eff, m))
    if regime == HARD:
        return tb, rename_qual(f.foot, m), rename_qual(f.qual, m)
    reads, writes = f.foot
    return (tb, (rename_qual(reads, m), rename_qual(writes, m)),
            rename_qual(f.qual, m))


def _rethread(ctx, delta, b, tb, foot, regime, record, m):
    """The walk whose result is (annotated binding, dependency) of `b`,
    whose lets `record` holds frames for under the renaming `m`,
    re-threaded from (ctx, delta): its lets keep their recorded typings,
    renamed by `m`."""
    if isinstance(b, GLet):
        return (yield _synth(ctx, delta, b, regime, record,
                             rename=(m, _ALL)))[:2]
    if isinstance(b, NLam):
        body = yield _synth(lam_body_ctx(ctx, b, tb.qt.qual),
                            points_to(b.param), b.body, regime, record,
                            rename=(m, _ALL))
        return NLam(b.param, b.param_qt, b.latent, *body[:2]), EMPTY_DEP
    return b, dep_restrict(delta, foot, regime)


def _ascend(frames, result, regime, record, gone=None):
    """Compose each frame's let, innermost first, from its body's
    `result`, check the composition, and record the frame. A frame whose
    binding is the recorded one keeps its recorded output, slice and
    typing when they cannot have changed: for frames `_synth` made in
    its `gone` mode, when the recorded slice does not name `gone`;
    for the others, when its entry state is the recorded one and its
    body's output and typing equal the recorded ones. Only its let node
    is then rebuilt, if its parts changed.

    A composed let saturates its effect only if no footprint at hand is
    its own. A pure let has none. A let whose effect is its binding's
    object has the binding's, saturated in the same context. A let whose
    typing is its body's (`let_typing` hands it back) has the footprint
    of the let below, if its binder is fresh, i.e. that let's context is
    exactly one entry longer: the effect does not name the binder, and a
    context extended by a fresh binder saturates every older name as
    before, since no older qualifier can reach it (weakening). If its
    binding is pure too, Δ below it differs only at the binder's key,
    which no footprint of older names holds, so its slice is the body's.
    A rebound binder changes saturations through every qualifier that
    named it, so it is saturated again. The binder's entries in the
    body's output are rerouted only if there are any."""
    below = None  # the footprint of the let composed last, and its context
    while frames:  # popped, so that each frame's state dies after use
        frame = frames.pop()
        var, ctx, delta, b2, d1, tb, foot_b, qual = frame
        body2, d2, slice2, t2 = result
        body = d2, t2
        f = record.get(var) if record is not None else None
        if f is None or f.binding is not b2:
            keep = False
        elif gone is None:
            keep = f.ctx is ctx and f.last_use is delta and f.body == body
        else:  # the output is a sub-map of the slice, which stands for both
            keep = not dep_has_target(f.result[2], gone)
        if keep:
            let, out, slice_, typing = f.result
            if let.body is not body2 or let.dep is not d1:
                let = GLet(var, b2, body2, d1)
            below = None
        else:
            if dep_has_target(d2, var):
                d2 = dep_rewire(d2, var, dep_restrict_names(delta, qual))
            out = dep_update(d1, d2)
            typing = let_typing(var, tb, t2)
            eff = typing.eff
            if not (eff.reads or eff.writes):
                foot, slice_ = _NO_FOOT[regime], EMPTY_DEP
            elif eff is tb.eff:  # the binding's, saturated in this context
                foot = foot_b
                slice_ = dep_restrict(delta, foot, regime)
            elif (typing is t2 and below is not None
                    and len(below[1].env) == len(ctx.env) + 1):
                foot = below[0]  # weakening by the fresh binder `var`
                slice_ = (slice2 if not (tb.eff.reads or tb.eff.writes)
                          else dep_restrict(delta, foot, regime))
            else:
                foot = footprint(eff, ctx, regime)
                slice_ = dep_restrict(delta, foot, regime)
            below = foot, ctx
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


def recompose(st: SynthState, lets: list, rest, record: dict) -> GraphTerm:
    """The annotated spine of the lets `lets` (outermost first, as
    re-synthesis under `st` annotated them) put back above `rest`, the
    annotated spine that follows the last: each let keeps the frame
    `record` holds and only has its result composed again (`_ascend`),
    which records it."""
    if isinstance(rest, GLet):
        result = record[rest.var].result
    elif lets:
        f = record[lets[-1].var]
        if isinstance(rest, GName) and rest.name == f.var:
            result = _binder_tail(f.ctx, rest, f.typing, f.qual)
        else:
            result = _tail(bind_let(f.ctx, f.var, f.typing, f.qual), rest)
    else:
        result = _tail(st.ctx, rest)
    return _ascend([record[u.var][:-2] for u in lets], result, st.regime,
                   record)[0]


def _tail(ctx, tail):
    """The result of a let spine's tail name."""
    if not isinstance(tail, GName):
        raise TypeError(tail)
    return tail, EMPTY_DEP, EMPTY_DEP, name_typing(ctx, tail.name)


def _binder_tail(ctx, tail, tb, qual):
    """The result of `tail`, the name of the let binder that a let entered
    in `ctx` binds to the typing `tb`, whose qualifier saturates to
    `qual`: the name rule at the type `bind_let` would bind it at. The
    binder is observable once bound, so no context and no Δ is built for
    a tail that reads neither."""
    return tail, EMPTY_DEP, EMPTY_DEP, bound_name_typing(
        tail.name, let_binder_qt(ctx, tb, qual))


def _synth_binding(ctx, delta, b, regime, record):
    """(annotated-binding, binding-dep, typing), or the walk whose result
    it is; the dep is None for a graph node, whose dependency is Δ
    restricted to its effect. An alias is typed by the name rule: as a
    spine of no lets, its output is empty."""
    if isinstance(b, GName):
        return b, EMPTY_DEP, name_typing(ctx, b.name)
    if isinstance(b, (GLet, NLam)):
        return _synth_nested(ctx, delta, b, regime, record)
    return b, None, check_binding(ctx, b)


def _synth_nested(ctx, delta, b, regime, record):
    if isinstance(b, GLet):
        b2, out, _slice, typing = yield _synth(ctx, delta, b, regime, record)
        return b2, out, typing
    body = []

    def synth_body(ctx2, g):
        # every last use in the body points at the parameter
        body2, body_out, slice_, tbody = yield _synth(
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
    typing = yield check_lam(ctx, b, graph_free_names(b), synth_body)
    return NLam(b.param, b.param_qt, b.latent, *body), EMPTY_DEP, typing


def check_deps(st: SynthState, g: GraphTerm) -> Typing:
    """Verify every annotation is a sub-map of the slice its rule demands
    (a missing one always checks): synthesize `g`, which compares each
    annotation it carries with the slice synthesized at its position.
    Returns the term's typing."""
    return descend(_synth(st.ctx, st.last_use, g, st.regime, None))[3]


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
