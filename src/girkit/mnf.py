"""Monadic normal form: translation from direct-style terms, grammar
membership, MNF typing, and the embedding back into direct-style terms.

The translation is strict: every block ends in a returned name, and nested
computations stay nested (no ANF flattening).
"""

from __future__ import annotations

from .core import (
    App, Assign, Cst, Deref, GLet, GName, GraphTerm, Lam, Let, NameSupply,
    NApp, NAssign, NCst, NDeref, NLam, NRef, Nm, RefNew, TERM_OPERATOR,
    Term, TypingContext, graph_free_names, node_operator, spine, subst_term,
)
from .typecheck import (
    Typing, bind_let, bound_name_typing, check_lam, infer_direct,
    let_binder_qt, let_typing, name_typing,
)


def to_mnf(t: Term, supply: NameSupply) -> GraphTerm:
    """Translate a direct-style term into strict MNF. Names introduced on
    the right-hand side are always fresh (drawn from the supply)."""
    if isinstance(t, Nm):
        return GName(t.name)
    if isinstance(t, Cst):
        x = supply.var("c")
        return GLet(x, NCst(t.value), GName(x))
    if isinstance(t, Lam):
        y = supply.var("f")
        body = to_mnf(t.body, supply)
        return GLet(y, NLam(t.param, t.param_qt, t.latent, body), GName(y))
    if isinstance(t, App):
        x1 = supply.var("a")
        x2 = supply.var("a")
        x3 = supply.var("a")
        return GLet(x1, to_mnf(t.fn, supply),
                    GLet(x2, to_mnf(t.arg, supply),
                         GLet(x3, NApp(x1, x2), GName(x3))))
    if isinstance(t, RefNew):
        x1 = supply.var("r")
        x2 = supply.var("r")
        x3 = supply.var("r")
        return GLet(x1, to_mnf(t.cap, supply),
                    GLet(x2, to_mnf(t.init, supply),
                         GLet(x3, NRef(x1, x2), GName(x3))))
    if isinstance(t, Deref):
        x1 = supply.var("d")
        x2 = supply.var("d")
        return GLet(x1, to_mnf(t.ref, supply),
                    GLet(x2, NDeref(x1), GName(x2)))
    if isinstance(t, Assign):
        x1 = supply.var("s")
        x2 = supply.var("s")
        x3 = supply.var("s")
        return GLet(x1, to_mnf(t.ref, supply),
                    GLet(x2, to_mnf(t.value, supply),
                         GLet(x3, NAssign(x1, x2), GName(x3))))
    if isinstance(t, Let):
        lets, t = spine(t)
        bounds = [to_mnf(u.bound, supply) for u in lets]
        g = to_mnf(t, supply)
        for u, bound in zip(reversed(lets), reversed(bounds)):
            g = GLet(u.var, bound, g)
        return g
    raise TypeError(t)


def embed(g) -> Term:
    """Read a graph term back as a direct-style term (annotations dropped)."""
    lets, g = spine(g)
    if isinstance(g, GName):
        t = Nm(g.name)
    elif isinstance(g, NCst):
        t = Cst(g.value)
    elif isinstance(g, NLam):
        t = Lam(g.param, g.param_qt, g.latent, embed(g.body))
    else:
        o = node_operator(g)
        t = o.term(*map(Nm, o.operands(g)))
    for u in reversed(lets):
        t = Let(u.var, embed(u.binding), t)
    return t


def is_mnf(t: Term) -> bool:
    """True iff the term fits the MNF grammar (node operands are names,
    let chains end in a name)."""
    def graph_like(t: Term) -> bool:
        lets, t = spine(t)
        return isinstance(t, Nm) and all(binding_like(u.bound) for u in lets)

    def binding_like(t: Term) -> bool:
        return node_like(t) or graph_like(t)

    def node_like(t: Term) -> bool:
        if isinstance(t, Cst):
            return True
        if isinstance(t, Lam):
            return graph_like(t.body)
        o = TERM_OPERATOR.get(type(t))
        return o is not None and all(isinstance(u, Nm)
                                     for u in o.operands(t))

    return graph_like(t)


def check_mnf(ctx: TypingContext, g) -> Typing:
    """Type a graph term under the MNF rules. Node rules mirror the direct
    rules with name operands, so node cases delegate to the direct checker
    on the embedded one-node term; lets and lambdas recurse structurally
    through the binder rules the direct checker uses. A tail that names
    the last let's binder is typed at the type that let binds it at, with
    no context built for it."""
    lets, g = spine(g)
    bounds = []
    for u in lets:
        bounds.append(check_binding(ctx, u.binding))
        if ends_in_binder(u):
            typing = bound_name_typing(g.name,
                                       let_binder_qt(ctx, bounds[-1]))
            break
        ctx = bind_let(ctx, u.var, bounds[-1])
    else:
        if not isinstance(g, GName):
            raise TypeError(g)
        typing = name_typing(ctx, g.name)
    for u, bound in zip(reversed(lets), reversed(bounds)):
        typing = let_typing(u.var, bound, typing)
    return typing


def ends_in_binder(g: GLet) -> bool:
    """Whether the let `g`'s body is the name of its own binder, as the
    last let of every block `to_mnf` builds is."""
    body = g.body
    return isinstance(body, GName) and body.name == g.var


def check_binding(ctx: TypingContext, b) -> Typing:
    if isinstance(b, GName):
        return name_typing(ctx, b.name)
    if isinstance(b, GLet):
        return check_mnf(ctx, b)
    if isinstance(b, NLam):
        return check_lam(ctx, b, graph_free_names(b), check_mnf)
    return infer_direct(ctx, embed(b))


def collapse_administrative(g, watermark: int) -> Term:
    """Inline the single-use administrative bindings the translation
    introduced (those whose variable id is >= the supply watermark taken
    before translating), reconstructing a term α-equivalent to the source."""
    def go(g) -> Term:
        lets, g = spine(g)
        t = (Lam(g.param, g.param_qt, g.latent, go(g.body))
             if isinstance(g, NLam) else embed(g))
        for u in reversed(lets):
            bound = go(u.binding)
            t = (subst_term(t, u.var, bound) if u.var.id >= watermark
                 else Let(u.var, bound, t))
        return t

    return go(g)
