"""Type checking for the direct-style calculus: syntax-directed inference
of qualified types and read/write effects, plus the subtyping judgment.

Subsumption is folded into application/let argument checking, so inference
is deterministic and returns minimal ("lazy") qualifiers.
"""

from __future__ import annotations

from typing import Callable

from .core import (
    App, Assign, BASE_TYPES, BaseTy, Cst, Deref, EffectEscape, FunTy, Lam,
    Let, Name, Nm, OverlapViolation, PURE, Qualifier, QualifiedType,
    QualifierEscape, RefNew, RefTy, RwEffect, Span, Term, Ty, TypeMismatch,
    TypingContext, TY_ALLOC, TY_UNIT, UnboundName, const_key, descend,
    overlap, qual_repr, record, rename_effect, rename_qt, saturate, spine,
    subst_qual, term_free_names, ty_free_names,
)


@record
class Typing:
    qt: QualifiedType
    eff: RwEffect


# the typing of a constant, and of a name bound untracked, per base type
_BASE_TYPING = {name: Typing(QualifiedType(ty), PURE)
                for name, ty in BASE_TYPES.items()}


def ty_subtype(ctx: TypingContext, sub: Ty, sup: Ty) -> bool:
    """Structural subtyping: base types by equality, Ref invariant,
    functions contravariant in domain and covariant in codomain/effect."""
    if isinstance(sub, BaseTy) and isinstance(sup, BaseTy):
        return sub.name == sup.name
    if isinstance(sub, RefTy) and isinstance(sup, RefTy):
        return sub.payload == sup.payload
    if isinstance(sub, FunTy) and isinstance(sup, FunTy):
        # domain: sup's parameter type must subtype sub's (contravariance)
        if not ty_subtype(ctx, sup.param_qt.ty, sub.param_qt.ty):
            return False
        if not sup.param_qt.qual <= sub.param_qt.qual:
            return False
        # codomain judged under the context extended with the smaller
        # (super) argument; align sub's parameter name with sup's.
        x = sup.param
        mapping = {sub.param: x} if sub.param != x else {}
        res_sub = rename_qt(sub.result_qt, mapping)
        lat_sub = rename_effect(sub.latent, mapping)
        ctx2 = ctx.bind(x, sup.param_qt)
        if not ty_subtype(ctx2, res_sub.ty, sup.result_qt.ty):
            return False
        if not res_sub.qual <= sup.result_qt.qual:
            return False
        return lat_sub.included_in(sup.latent)
    return False


def check_subtype(ctx: TypingContext,
                  lhs: tuple[QualifiedType, RwEffect],
                  rhs: tuple[QualifiedType, RwEffect]) -> bool:
    """Qualified-type-with-effect subtyping: q ⊆ q' over the context
    domain, structural type subtyping, componentwise effect inclusion."""
    (qt1, e1), (qt2, e2) = lhs, rhs
    for q in (qt1.qual, qt2.qual, e1.flat, e2.flat):
        for n in q:
            if n not in ctx:
                raise UnboundName(f"ill-scoped qualifier member {n!r}",
                                  name=n)
    if not qt1.qual <= qt2.qual:
        return False
    if not e1.included_in(e2):
        return False
    return ty_subtype(ctx, qt1.ty, qt2.ty)


def _observable(ctx: TypingContext, t: Term, typing: Typing) -> Typing:
    """The effect must lie within the observation. The qualifier always
    does, by induction over `infer_direct`: a name is checked against φ,
    a closure's captures by `check_lam`, `App` and `Let` substitute
    observable qualifiers, and every other form has an empty one. A
    constant and a closure are pure, so they skip this check."""
    if not typing.eff.flat <= ctx.phi:
        raise EffectEscape(
            f"effect {typing.eff!r} escapes observation "
            f"{qual_repr(ctx.phi)}",
            span=getattr(t, "span", None),
            eff=typing.eff, phi=ctx.phi)
    return typing


def name_typing(ctx: TypingContext, n: Name,
                span: Span | None = None) -> Typing:
    """The name rule, which types a name with no term around it (an `Nm`,
    a graph's alias binding or its spine's tail): the name must be bound
    and observable; it is qualified by itself unless it is an untracked
    base-typed binding (the allocation capability and anything reference-
    or function-typed is tracked)."""
    qt = ctx.lookup(n)
    if n not in ctx.phi:
        raise QualifierEscape(f"name {n!r} not observable", span=span,
                              qual=frozenset((n,)), phi=ctx.phi)
    return bound_name_typing(n, qt)


def bound_name_typing(n: Name, qt: QualifiedType) -> Typing:
    """The name rule's typing of `n`, bound at `qt` and observable: `qt`
    qualified by `n` itself, or the base typing of an untracked base-typed
    binding."""
    if isinstance(qt.ty, BaseTy) and qt.ty != TY_ALLOC and not qt.qual:
        return _BASE_TYPING[qt.ty.name]
    return Typing(QualifiedType(qt.ty, frozenset((n,))), PURE)


def infer_direct(ctx: TypingContext, t: Term) -> Typing:
    """Infer the minimal qualified type and effect of a direct-style term."""
    return descend(_infer(ctx, t))


def _infer(ctx: TypingContext, t: Term):
    """`infer_direct`'s walk (see `core.descend`)."""
    if isinstance(t, Cst):
        return _BASE_TYPING[const_key(t.value)[0]]
    if isinstance(t, Nm):
        return name_typing(ctx, t.name, t.span)
    if isinstance(t, Lam):
        return check_lam(ctx, t, term_free_names(t), _infer, t.span)
    return _infer_nested(ctx, t)


def _infer_nested(ctx: TypingContext, t: Term):
    span = getattr(t, "span", None)
    if isinstance(t, App):
        fn = yield _infer(ctx, t.fn)
        if not isinstance(fn.qt.ty, FunTy):
            raise TypeMismatch(f"applied non-function {fn.qt!r}", span=span)
        f = fn.qt.ty
        arg = yield _infer(ctx, t.arg)
        if not ty_subtype(ctx, arg.qt.ty, f.param_qt.ty):
            raise TypeMismatch(
                f"argument type {arg.qt.ty!r} does not match domain "
                f"{f.param_qt.ty!r}", span=span)
        p = arg.qt.qual
        allowed = f.param_qt.qual
        got = overlap(p, fn.qt.qual, ctx)
        if not got <= allowed:
            raise OverlapViolation(
                f"argument/function overlap {qual_repr(got)} exceeds declared "
                f"domain qualifier {qual_repr(allowed)}", span=span, got=got,
                allowed=allowed)
        x = f.param
        if x in ty_free_names(f.result_qt.ty):
            raise TypeMismatch(
                f"parameter {x!r} occurs in the result type", span=span)
        # the latent effect must reach only through the function itself or
        # its parameter; close the function qualifier so that names bound
        # to aliases (as normalization introduces) keep typing
        if not f.latent.flat <= saturate(fn.qt.qual, ctx) | {x}:
            raise EffectEscape(
                f"latent effect {f.latent!r} not confined to the function "
                f"qualifier plus parameter", span=span, eff=f.latent)
        if not f.result_qt.qual - {x} <= ctx.phi:
            raise QualifierEscape(
                f"result qualifier {qual_repr(f.result_qt.qual)} escapes",
                span=span, qual=f.result_qt.qual, phi=ctx.phi)
        res_qual = subst_qual(f.result_qt.qual, x, p)
        eff = fn.eff.seq(arg.eff).seq(f.latent).subst(x, p)
        return _observable(ctx, t, Typing(
            QualifiedType(f.result_qt.ty, res_qual), eff))

    if isinstance(t, RefNew):
        cap = yield _infer(ctx, t.cap)
        if cap.qt.ty != TY_ALLOC:
            raise TypeMismatch(
                f"ref needs the allocation capability, got {cap.qt.ty!r}",
                span=span)
        init = yield _infer(ctx, t.init)
        if not isinstance(init.qt.ty, BaseTy) or init.qt.ty.name == "Alloc":
            raise TypeMismatch(
                f"references hold base values, got {init.qt.ty!r}", span=span)
        if init.qt.qual:
            raise TypeMismatch(
                f"stored value must be untracked (qualifier ∅), got "
                f"{qual_repr(init.qt.qual)}", span=span)
        eff = cap.eff.seq(init.eff).seq(RwEffect.read(cap.qt.qual))
        return _observable(ctx, t, Typing(
            QualifiedType(RefTy(init.qt.ty)), eff))

    if isinstance(t, Deref):
        ref = yield _infer(ctx, t.ref)
        if not isinstance(ref.qt.ty, RefTy):
            raise TypeMismatch(f"dereferenced non-reference {ref.qt.ty!r}",
                               span=span)
        eff = ref.eff.seq(RwEffect.read(ref.qt.qual))
        return _observable(ctx, t, Typing(
            QualifiedType(ref.qt.ty.payload), eff))

    if isinstance(t, Assign):
        ref = yield _infer(ctx, t.ref)
        if not isinstance(ref.qt.ty, RefTy):
            raise TypeMismatch(f"assigned non-reference {ref.qt.ty!r}",
                               span=span)
        val = yield _infer(ctx, t.value)
        if val.qt.ty != ref.qt.ty.payload:
            raise TypeMismatch(
                f"assignment payload {val.qt.ty!r} vs cell {ref.qt.ty!r}",
                span=span)
        if val.qt.qual:
            raise TypeMismatch(
                f"stored value must be untracked (qualifier ∅), got "
                f"{qual_repr(val.qt.qual)}", span=span)
        eff = ref.eff.seq(val.eff).seq(RwEffect.write(ref.qt.qual))
        return _observable(ctx, t, Typing(QualifiedType(TY_UNIT), eff))

    if isinstance(t, Let):
        lets, t = spine(t)
        frames = []
        for u in lets:
            bound = yield _infer(ctx, u.bound)
            frames.append((ctx, u, bound))
            ctx = bind_let(ctx, u.var, bound)
        typing = yield _infer(ctx, t)
        for ctx, u, bound in reversed(frames):
            typing = _observable(ctx, u, let_typing(u.var, bound, typing,
                                                    u.span))
        return typing

    raise TypeError(t)


# ---------------------------------------------------------------------------
# Binder rules, shared by direct typing, MNF typing, synthesis and rewrites
# ---------------------------------------------------------------------------

def let_binder_qt(ctx: TypingContext, bound: Typing,
                  sat: Qualifier | None = None) -> QualifiedType:
    """The qualified type a let binds its binder at in `ctx`: the bound
    type, qualified by the bound qualifier's overlap with the observation.
    `sat` is the bound qualifier saturated in `ctx`, if the caller has it
    already. The bound type itself is kept when the overlap leaves its
    qualifier as it is."""
    if sat is None:
        sat = saturate(bound.qt.qual, ctx)
    qt = bound.qt
    if sat:  # else the bound qualifier, inside its saturation, is empty too
        bind_q = sat & ctx.phi_star
        if bind_q != qt.qual:
            qt = QualifiedType(qt.ty, bind_q)
    return qt


def bind_let(ctx: TypingContext, var: Name, bound: Typing,
             sat: Qualifier | None = None) -> TypingContext:
    """The context a let body is checked in: `var` at `let_binder_qt`,
    and observable. So a body that is just `var` has the typing
    `bound_name_typing(var, let_binder_qt(ctx, bound, sat))`, which needs
    no context built.

    The binder's qualifier is saturated: it is a saturation cut down by
    φ*, which is closed. So the context records `var` as a let binder,
    whose saturation is `{var}` plus its qualifier, and extends φ* by
    `var`: that is exact, since the overlap lies in φ* and a fresh `var`
    reaches nothing else. A rebound `var` leaves φ* to be recomputed."""
    return ctx.bind(var, let_binder_qt(ctx, bound, sat), let=True)


def let_typing(var: Name, bound: Typing, body: Typing,
               span: Span | None = None) -> Typing:
    """The type of `let var = bound in body`: the body's type with `var`
    substituted by the bound qualifier, effects in sequence: the body's
    typing itself when that changes neither its qualifier nor its
    effect."""
    qt = body.qt
    if isinstance(qt.ty, FunTy) and var in ty_free_names(qt.ty):
        raise TypeMismatch(
            f"let-bound {var!r} occurs in the body's result type", span=span)
    p = bound.qt.qual
    res_qual = subst_qual(qt.qual, var, p)
    eff = bound.eff.seq(body.eff).subst(var, p)
    if res_qual is not qt.qual:
        qt = QualifiedType(qt.ty, res_qual)
    elif eff is body.eff:
        return body
    return Typing(qt, eff)


def lam_body_ctx(ctx: TypingContext, lam, fun_q: Qualifier) -> TypingContext:
    """The context a lambda body is checked in: the parameter bound, and
    observation narrowed to the closure's qualifier plus the parameter."""
    return ctx.bind(lam.param, lam.param_qt).with_phi(fun_q | {lam.param})


def check_lam(ctx: TypingContext, lam, free: frozenset,
              check_body: Callable, span: Span | None = None) -> Typing:
    """The lambda rule for a `Lam` or an `NLam` with free names `free`, as
    a step of a walk (see `core.descend`): the closure is qualified by
    what it captures, which must be observable; the declared latent
    effect must cover the body's effect, which the walk
    `check_body(ctx, body)` infers. `free` includes the latent effect's
    names other than the parameter, so the latent effect stays within the
    body's observation."""
    if not free <= ctx.phi:
        raise QualifierEscape(
            f"closure captures {qual_repr(free - ctx.phi)} outside "
            f"observation", span=span, qual=free, phi=ctx.phi)
    body = yield check_body(lam_body_ctx(ctx, lam, free), lam.body)
    if not body.eff.included_in(lam.latent):
        raise EffectEscape(
            f"body effect {body.eff!r} not covered by declared latent "
            f"{lam.latent!r}", span=span, eff=body.eff)
    fun = FunTy(lam.param, lam.param_qt, lam.latent, body.qt)
    return Typing(QualifiedType(fun, free), PURE)
