"""Monadic normal form: translation from direct-style terms, grammar
membership, MNF typing, and the embedding back into direct-style terms.

The translation is strict: every block ends in a returned name, and nested
computations stay nested (no ANF flattening).
"""

from __future__ import annotations

from .core import (
    App, Assign, Cst, Deref, GLet, GName, GraphTerm, Lam, Let, NameSupply,
    NApp, NAssign, NCst, NDeref, NLam, NRef, Nm, RefNew, TERM_OPERATOR,
    Term, TypingContext, descend, graph_free_names, node_operator, spine,
)
from .typecheck import (
    Typing, bind_let, bound_name_typing, check_lam, infer_direct,
    let_binder_qt, let_typing, name_typing,
)


def to_mnf(t: Term, supply: NameSupply) -> GraphTerm:
    """Translate a direct-style term into strict MNF. Names introduced on
    the right-hand side are always fresh (drawn from the supply)."""
    return descend(_to_mnf(t, supply))


def _to_mnf(t: Term, supply: NameSupply):
    if isinstance(t, Nm):
        return GName(t.name)
    if isinstance(t, Cst):
        x = supply.var("c")
        return GLet(x, NCst(t.value), GName(x))
    if isinstance(t, Lam):
        y = supply.var("f")
        body = yield _to_mnf(t.body, supply)
        return GLet(y, NLam(t.param, t.param_qt, t.latent, body), GName(y))
    if isinstance(t, App):
        x1 = supply.var("a")
        x2 = supply.var("a")
        x3 = supply.var("a")
        return GLet(x1, (yield _to_mnf(t.fn, supply)),
                    GLet(x2, (yield _to_mnf(t.arg, supply)),
                         GLet(x3, NApp(x1, x2), GName(x3))))
    if isinstance(t, RefNew):
        x1 = supply.var("r")
        x2 = supply.var("r")
        x3 = supply.var("r")
        return GLet(x1, (yield _to_mnf(t.cap, supply)),
                    GLet(x2, (yield _to_mnf(t.init, supply)),
                         GLet(x3, NRef(x1, x2), GName(x3))))
    if isinstance(t, Deref):
        x1 = supply.var("d")
        x2 = supply.var("d")
        return GLet(x1, (yield _to_mnf(t.ref, supply)),
                    GLet(x2, NDeref(x1), GName(x2)))
    if isinstance(t, Assign):
        x1 = supply.var("s")
        x2 = supply.var("s")
        x3 = supply.var("s")
        return GLet(x1, (yield _to_mnf(t.ref, supply)),
                    GLet(x2, (yield _to_mnf(t.value, supply)),
                         GLet(x3, NAssign(x1, x2), GName(x3))))
    if isinstance(t, Let):
        lets, t = spine(t)
        bounds = []
        for u in lets:
            bounds.append((yield _to_mnf(u.bound, supply)))
        g = yield _to_mnf(t, supply)
        for u, bound in zip(reversed(lets), reversed(bounds)):
            g = GLet(u.var, bound, g)
        return g
    raise TypeError(t)


def embed(g) -> Term:
    """Read a graph term back as a direct-style term (annotations dropped)."""
    return descend(_embed(g))


def _embed(g):
    """`embed`'s walk; a node or a name, which is embedded without a
    walk, is its own result (see `core.descend`)."""
    if isinstance(g, GName):
        return Nm(g.name)
    if isinstance(g, NCst):
        return Cst(g.value)
    if isinstance(g, (GLet, NLam)):
        return _embed_nested(g)
    o = node_operator(g)
    return o.term(*map(Nm, o.operands(g)))


def _embed_nested(g):
    lets, g = spine(g)
    if isinstance(g, NLam):
        t = Lam(g.param, g.param_qt, g.latent, (yield _embed(g.body)))
    else:
        t = _embed(g)
    for u in reversed(lets):
        t = Let(u.var, (yield _embed(u.binding)), t)
    return t


def is_mnf(t: Term) -> bool:
    """True iff the term fits the MNF grammar (node operands are names,
    let chains end in a name)."""
    return descend(_graph_like(t))


def _graph_like(t: Term):
    """Whether `t` fits the grammar of a graph term: its lets bind names,
    constants, nodes whose operands are names, lambdas whose bodies are
    graph terms, or graph terms, and its spine ends in a name."""
    lets, t = spine(t)
    if not isinstance(t, Nm):
        return False
    for u in lets:
        b = u.bound
        o = TERM_OPERATOR.get(type(b))
        if o is not None:
            ok = all(isinstance(x, Nm) for x in o.operands(b))
        elif isinstance(b, (Cst, Nm)):
            ok = True
        else:  # a lambda's body, or a nested block, is a graph term
            ok = yield _graph_like(b.body if isinstance(b, Lam) else b)
        if not ok:
            return False
    return True


def check_mnf(ctx: TypingContext, g) -> Typing:
    """Type a graph term under the MNF rules. Node rules mirror the direct
    rules with name operands, so node cases delegate to the direct checker
    on the embedded one-node term; lets and lambdas descend structurally
    (see `core.descend`) through the binder rules the direct checker
    uses. A tail that names the last let's binder is typed at the type
    that let binds it at, with no context built for it."""
    return descend(_check_mnf(ctx, g))


def _check_mnf(ctx: TypingContext, g):
    lets, g = spine(g)
    bounds = []
    for u in lets:
        bounds.append((yield _check_binding(ctx, u.binding)))
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
    return descend(_check_binding(ctx, b))


def _check_binding(ctx: TypingContext, b):
    if isinstance(b, GName):
        return name_typing(ctx, b.name)
    if isinstance(b, GLet):
        return _check_mnf(ctx, b)
    if isinstance(b, NLam):
        return check_lam(ctx, b, graph_free_names(b), _check_mnf)
    return infer_direct(ctx, _embed(b))


def collapse_administrative(g, watermark: int) -> Term:
    """Inline the single-use administrative bindings the translation
    introduced (those whose variable id is >= the supply watermark taken
    before translating), reconstructing a term α-equivalent to the source.
    The walk (see `core.descend`) keeps each one's term until it meets
    the use, so every node is built once."""
    admin = {}

    def use(n):
        return admin.get(n) or Nm(n)

    def go(g):
        lets, g = spine(g)
        kept = []
        for u in lets:
            bound = yield go(u.binding)
            if u.var.id >= watermark:
                admin[u.var] = bound
            else:
                kept.append((u.var, bound))
        if isinstance(g, GName):
            t = use(g.name)
        elif isinstance(g, NCst):
            t = Cst(g.value)
        elif isinstance(g, NLam):
            t = Lam(g.param, g.param_qt, g.latent, (yield go(g.body)))
        else:
            o = node_operator(g)
            t = o.term(*map(use, o.operands(g)))
        for var, bound in reversed(kept):
            t = Let(var, bound, t)
        return t

    return descend(go(g))
