"""Equational graph-to-graph rewrites (dead code, commuting, hoisting,
inlining, common subexpressions) applied under congruence with explicit
side-condition checks; every fired rewrite re-runs dependency synthesis.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import (
    DepMap, EMPTY_QUAL, GLet, GName, GraphTerm, Name, NameSupply, NApp,
    NLam, Qualifier, RwEffect, SideConditionFailed, TY_ALLOC,
    TypingContext, graph_free_names, rename_graph, saturate,
)
from .graphir import SynthState, erase, synthesize
from .mnf import check_binding
from .typecheck import bind_let, lam_body_ctx


@dataclass
class RewriteReport:
    rule: str
    site: tuple
    fired: bool
    reason: str = ""


# ---------------------------------------------------------------------------
# Site walk
# ---------------------------------------------------------------------------

@dataclass
class Site:
    """A binding position with its scope already built. `path` addresses
    it (0 enters a let's binding, or a bound lambda's body; 1 its body),
    `ctx` types `focus`, `defs` maps the binders on the scope spine to
    their (binding, typing), and `rebuild` reassembles the whole
    (unannotated) graph around a replacement for `focus`."""
    path: tuple
    ctx: TypingContext
    defs: ChainMap
    focus: GLet
    rebuild: Callable


def walk(st: SynthState, g: GraphTerm) -> Iterator[Site]:
    """Every binding site, outside-in and left-to-right, each binding typed
    once on the way down. A site is valid until the walk moves on, which
    adds the focused binder to `defs`."""

    def scope(ctx, g, path, rebuild, defs):
        while isinstance(g, GLet):
            yield Site(path, ctx, defs, g, rebuild)
            b = g.binding
            tb = check_binding(ctx, b)
            if isinstance(b, GLet):
                yield from scope(ctx, b, path + (0,),
                                 lambda frag, g=g, rb=rebuild:
                                 rb(GLet(g.var, frag, g.body, None)),
                                 defs.new_child())
            elif isinstance(b, NLam):
                yield from scope(
                    lam_body_ctx(ctx, b, tb.qt.qual), b.body, path + (0,),
                    lambda frag, g=g, b=b, rb=rebuild:
                    rb(GLet(g.var, NLam(b.param, b.param_qt, b.latent, frag,
                                        None), g.body, None)),
                    defs.new_child())
            defs[g.var] = (b, tb)
            ctx = bind_let(ctx, g.var, tb)
            rebuild = (lambda frag, g=g, rb=rebuild:
                       rb(GLet(g.var, g.binding, frag, None)))
            path = path + (1,)
            g = g.body

    return scope(st.ctx, g, (), lambda frag: frag, ChainMap())


def _navigate(st: SynthState, g: GraphTerm, site):
    """(ctx, defs, focus, rebuild) of a site, given as a `Site` of `walk`
    or as the path of one."""
    if not isinstance(site, Site):
        path = tuple(site)
        site = next((s for s in walk(st, g) if s.path == path), None)
        if site is None:
            raise SideConditionFailed(f"no binding at path {list(path)}")
    return site.ctx, site.defs, site.focus, site.rebuild


def _resynth(st: SynthState, g: GraphTerm) -> GraphTerm:
    g2, _ = synthesize(st, erase(g))
    return g2


def _capability(ctx: TypingContext):
    for loc, qt in ctx.sigma.items():
        if qt.ty == TY_ALLOC:
            return loc
    return None


def _alloc_only(ctx: TypingContext, eff: RwEffect) -> tuple[bool, str]:
    """The discardability condition: no writes, reads confined to the
    allocation capability's reach."""
    if eff.writes:
        return False, "write effect"
    if not eff.reads:
        return True, ""
    cap = _capability(ctx)
    wstar = saturate(Qualifier.of(cap), ctx) if cap else EMPTY_QUAL
    if not saturate(eff.reads, ctx) <= wstar:
        return False, "reads beyond the allocation capability"
    return True, ""


def _dep_mentions(g, x: Name) -> bool:
    def in_dep(d: DepMap) -> bool:
        return d is not None and (x in d.domain() or x in d.targets())

    if isinstance(g, GName):
        return False
    if isinstance(g, GLet):
        return (in_dep(g.dep) or _dep_mentions(g.binding, x)
                or _dep_mentions(g.body, x))
    if isinstance(g, NLam):
        return in_dep(g.body_dep) or _dep_mentions(g.body, x)
    return False


def _resolve_lam(defs: dict, name: Name):
    """Chase alias bindings and nested-block tails to the lambda a name
    denotes, if it is defined on the scope spine."""
    seen = set()
    while name not in seen:
        seen.add(name)
        d = defs.get(name)
        if d is None:
            return None
        b = d[0]
        # walk nested blocks to their tail, tracking local definitions
        local = dict()
        while True:
            if isinstance(b, GLet):
                spine = b
                while isinstance(spine, GLet):
                    local[spine.var] = spine.binding
                    spine = spine.body
                b = GName(spine.name)
            if isinstance(b, GName):
                if b.name in local:
                    b = local[b.name]
                    continue
                break
            break
        if isinstance(b, NLam):
            return b
        if isinstance(b, GName):
            name = b.name
            continue
        return None
    return None


# ---------------------------------------------------------------------------
# The five rules
# ---------------------------------------------------------------------------

def rw_dce(st: SynthState, g: GraphTerm, site: tuple,
           supply: NameSupply) -> GraphTerm:
    """Remove a binding whose result is dead and whose effect is at most
    allocation."""
    ctx, _defs, focus, rebuild = _navigate(st, g, site)
    tb = check_binding(ctx, focus.binding)
    ok, why = _alloc_only(ctx, tb.eff)
    if not ok:
        raise SideConditionFailed(f"binding not discardable: {why}")
    if focus.var in graph_free_names(focus.body):
        raise SideConditionFailed(f"{focus.var!r} used in the continuation")
    if _dep_mentions(focus.body, focus.var):
        raise SideConditionFailed(
            f"{focus.var!r} appears in continuation dependencies")
    return _resynth(st, rebuild(focus.body))


def rw_comm(st: SynthState, g: GraphTerm, site: tuple,
            supply: NameSupply) -> GraphTerm:
    """Swap two adjacent bindings with disjoint saturated effects."""
    ctx, _defs, focus, rebuild = _navigate(st, g, site)
    if not isinstance(focus.body, GLet):
        raise SideConditionFailed("no adjacent second binding")
    x1, b1 = focus.var, focus.binding
    inner = focus.body
    x2, b2 = inner.var, inner.binding
    t1 = check_binding(ctx, b1)
    ctx2 = bind_let(ctx, x1, t1)
    t2 = check_binding(ctx2, b2)
    e1 = saturate(t1.eff.flat, ctx2)
    e2 = saturate(t2.eff.flat, ctx2)
    if not e1.isdisjoint(e2):
        raise SideConditionFailed(f"effects overlap on {e1 & e2!r}")
    if x1 in graph_free_names(b2):
        raise SideConditionFailed(f"second binding mentions {x1!r}")
    if x2 in graph_free_names(b1):
        raise SideConditionFailed(f"first binding mentions {x2!r}")
    swapped = GLet(x2, b2, GLet(x1, b1, inner.body, None), None)
    return _resynth(st, rebuild(swapped))


def rw_hoist(st: SynthState, g: GraphTerm, site: tuple,
             supply: NameSupply) -> GraphTerm:
    """Move a strictly pure, untracked, parameter-independent first binding
    out of a lambda body."""
    ctx, _defs, focus, rebuild = _navigate(st, g, site)
    lam = focus.binding
    if not isinstance(lam, NLam):
        raise SideConditionFailed("binding is not a lambda")
    inner = lam.body
    if not isinstance(inner, GLet):
        raise SideConditionFailed("lambda body has no binding to hoist")
    tb = check_binding(ctx, lam)
    ti = check_binding(lam_body_ctx(ctx, lam, tb.qt.qual), inner.binding)
    if not ti.eff.is_pure:
        raise SideConditionFailed("hoisted binding is not pure")
    if lam.param in graph_free_names(inner.binding):
        raise SideConditionFailed("binding depends on the parameter")
    # outside the lambda a tracked binding is a name the latent effect does
    # not mention, so effects through it would escape
    if ti.qt.qual:
        raise SideConditionFailed("hoisted binding is tracked")
    lam2 = NLam(lam.param, lam.param_qt, lam.latent, inner.body, None)
    hoisted = GLet(inner.var, inner.binding,
                   GLet(focus.var, lam2, focus.body, None), None)
    return _resynth(st, rebuild(hoisted))


def rw_inline(st: SynthState, g: GraphTerm, site: tuple,
              supply: NameSupply) -> GraphTerm:
    """Replace an application of a locally-bound lambda to a locally-bound
    discardable argument by the lambda's (freshened) body."""
    ctx, defs, focus, rebuild = _navigate(st, g, site)
    app = focus.binding
    if not isinstance(app, NApp):
        raise SideConditionFailed("binding is not an application")
    lam = _resolve_lam(defs, app.fn)
    if lam is None:
        raise SideConditionFailed(
            f"function {app.fn!r} is not locally bound to a lambda")
    # the callee may sit in a nested block whose locals are out of scope here
    missing = graph_free_names(lam) - frozenset(ctx.domain())
    if missing:
        raise SideConditionFailed(
            f"callee mentions {sorted(missing)!r}, out of scope here")
    adef = defs.get(app.arg)
    if adef is None:
        raise SideConditionFailed(
            f"argument {app.arg!r} is not locally bound")
    ok, why = _alloc_only(ctx, adef[1].eff)
    if not ok:
        raise SideConditionFailed(f"argument binding not discardable: {why}")
    body = rename_graph(lam.body, {lam.param: app.arg}, fresh=supply,
                        dep=lambda d: None)
    inlined = GLet(focus.var, body, focus.body, None)
    return _resynth(st, rebuild(inlined))


def rw_cse(st: SynthState, g: GraphTerm, site: tuple,
           supply: NameSupply) -> GraphTerm:
    """Collapse two syntactically identical adjacent bindings that do not
    allocate; the second's uses are renamed to the first."""
    ctx, _defs, focus, rebuild = _navigate(st, g, site)
    if not isinstance(focus.body, GLet):
        raise SideConditionFailed("no adjacent second binding")
    inner = focus.body
    if erase(focus.binding) != erase(inner.binding):
        raise SideConditionFailed("bindings are not identical")
    tb = check_binding(ctx, focus.binding)
    cap = _capability(ctx)
    wstar = saturate(Qualifier.of(cap), ctx) if cap else EMPTY_QUAL
    if not saturate(tb.eff.reads, ctx).isdisjoint(wstar):
        raise SideConditionFailed("binding allocates")
    merged = GLet(focus.var, focus.binding,
                  rename_graph(inner.body, {inner.var: focus.var}), None)
    return _resynth(st, rebuild(merged))


RULES = {
    "dce": rw_dce,
    "comm": rw_comm,
    "hoist": rw_hoist,
    "inline": rw_inline,
    "cse": rw_cse,
}


def _fire(st: SynthState, g: GraphTerm, rule: str, sites, supply,
          reports: list, log_misses: bool):
    """Try `rule` at each of `sites` in turn. Returns the rewritten graph
    and the site of the first rewrite that fires, or (None, None)."""
    for site in sites:
        try:
            g2 = RULES[rule](st, g, site, supply)
        except SideConditionFailed as e:
            if log_misses:
                reports.append(RewriteReport(rule, site.path, False, str(e)))
            continue
        reports.append(RewriteReport(rule, site.path, True))
        return g2, site
    return None, None


def _untried(sites, tried: set):
    for site in sites:
        if site.focus.var not in tried:
            tried.add(site.focus.var)
            yield site


def optimize(st: SynthState, g: GraphTerm, passes: list,
             fuel: int = 1000, *, supply: NameSupply,
             log_misses: bool = False) -> tuple[GraphTerm, list]:
    """Apply the named rules other than `comm` to a fixpoint, each rule in
    list order trying the sites of one outside-in, left-to-right walk and
    starting a new walk after every rewrite it fires. Then, if `comm` is
    named, sweep the sites once with it: each site is tried once, and the
    binding a swap pushes down is not tried again. `fuel` bounds the
    rewrites fired in all. Returns the rewritten graph and the report log.

    `supply` must be the program's own name supply, the one its binders
    were drawn from: inlining mints fresh binders from it, and a supply
    that has not seen the program's names mints clashing ones."""
    for p in passes:
        if p not in RULES:
            raise SideConditionFailed(f"unknown pass {p!r}")
    reports: list = []
    changed = True
    while changed and fuel > 0:
        changed = False
        for rule in passes:
            while rule != "comm" and fuel > 0:
                g2, _ = _fire(st, g, rule, walk(st, g), supply, reports,
                              log_misses)
                if g2 is None:
                    break
                g, fuel, changed = g2, fuel - 1, True
    # binders are unique, so they name the positions the sweep has tried
    tried: set = set()
    while "comm" in passes and fuel > 0:
        g2, site = _fire(st, g, "comm", _untried(walk(st, g), tried),
                         supply, reports, log_misses)
        if g2 is None:
            break
        tried.add(site.focus.body.var)  # now at the tried position
        g, fuel = g2, fuel - 1
    return g, reports
