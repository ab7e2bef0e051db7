"""Monadic normal form: translation from direct-style terms, grammar
membership, MNF typing, and the embedding back into direct-style terms.

The translation is strict: every block ends in a returned name, and nested
computations stay nested (no ANF flattening).
"""

from __future__ import annotations

from .core import (
    App, Assign, Cst, Deref, GLet, GName, GraphTerm, Lam, Let, NameSupply,
    NApp, NAssign, NCst, NDeref, NLam, NRef, Nm, RefNew, TERM_OPERATOR,
    Term, TypingContext, graph_free_names, node_operator, subst_term,
)
from .typecheck import Typing, bind_let, check_lam, infer_direct, let_typing


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
        return GLet(t.var, to_mnf(t.bound, supply), to_mnf(t.body, supply))
    raise TypeError(t)


def embed(g) -> Term:
    """Read a graph term back as a direct-style term (annotations dropped)."""
    if isinstance(g, GName):
        return Nm(g.name)
    if isinstance(g, GLet):
        return Let(g.var, embed(g.binding), embed(g.body))
    if isinstance(g, NCst):
        return Cst(g.value)
    if isinstance(g, NLam):
        return Lam(g.param, g.param_qt, g.latent, embed(g.body))
    o = node_operator(g)
    return o.term(*map(Nm, o.operands(g)))


def is_mnf(t: Term) -> bool:
    """True iff the term fits the MNF grammar (node operands are names,
    let chains end in a name)."""
    def graph_like(t: Term) -> bool:
        if isinstance(t, Nm):
            return True
        if isinstance(t, Let):
            return binding_like(t.bound) and graph_like(t.body)
        return False

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
    through the binder rules the direct checker uses."""
    if isinstance(g, GName):
        return infer_direct(ctx, Nm(g.name))
    if isinstance(g, GLet):
        bound = check_binding(ctx, g.binding)
        body = check_mnf(bind_let(ctx, g.var, bound), g.body)
        return let_typing(g.var, bound, body)
    raise TypeError(g)


def check_binding(ctx: TypingContext, b) -> Typing:
    if isinstance(b, (GName, GLet)):
        return check_mnf(ctx, b)
    if isinstance(b, NLam):
        return check_lam(ctx, b, graph_free_names(b), check_mnf)
    return infer_direct(ctx, embed(b))


def collapse_administrative(g, watermark: int) -> Term:
    """Inline the single-use administrative bindings the translation
    introduced (those whose variable id is >= the supply watermark taken
    before translating), reconstructing a term α-equivalent to the source."""
    def go(g) -> Term:
        if isinstance(g, GName):
            return Nm(g.name)
        if isinstance(g, GLet):
            bound = go_binding(g.binding)
            body = go(g.body)
            if g.var.id >= watermark:
                return subst_term(body, g.var, bound)
            return Let(g.var, bound, body)
        return go_binding(g)

    def go_binding(b) -> Term:
        if isinstance(b, (GName, GLet)):
            return go(b)
        if isinstance(b, NLam):
            return Lam(b.param, b.param_qt, b.latent, go(b.body))
        return embed(b)

    return go(g)
