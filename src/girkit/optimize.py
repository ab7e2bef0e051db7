"""Equational graph-to-graph rewrites (dead code, commuting, hoisting,
inlining, common subexpressions) applied under congruence with explicit
side-condition checks. The side conditions read the binding typings and
contexts that dependency synthesis records; after every rewrite that
fires, the driver re-synthesizes the rewritten graph from the first
binder the rewrite changed until the synthesis state converges with the
last one, which also brings the record up to date for the next walk. A
`dce` deletion types nothing again: the lets below it keep their
typings and have their context and Δ re-threaded, and the lets above
any fired site keep their results once their body's comes out as
before (`graphir.resynthesize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .core import (
    EMPTY_QUAL, GLet, GName, GraphTerm, Name, NameSupply, NApp, NCst,
    NLam, Qualifier, RwEffect, SideConditionFailed, TY_ALLOC,
    TypingContext, graph_free_names, node_operands, qt_free_names,
    qual_repr, rename_graph, saturate, spine,
)
from .graphir import SynthState, erase, resynthesize


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
    """A binding position. `path` addresses it (0 enters a let's binding,
    or a bound lambda's body; 1 its body); `record` maps every binder of
    the graph to its synthesis `Frame`, so `record[focus.var]` holds the
    context that types `focus` and its binding's typing; `uses` holds the
    names that occur in the walked graph; and `rebuild` reassembles the
    whole (unannotated) graph around a replacement for `focus`: a rule
    that fires here returns what `rebuild` returns."""
    path: tuple
    focus: GLet
    rebuild: Callable
    record: dict
    uses: "Occurrences"


class Occurrences:
    """The names that occur in a graph where `graph_free_names` finds
    them: as names, as node operands, and in a lambda's parameter
    qualifier and latent effect; binders themselves do not count.
    Binders are unique, so a let binder is used in its continuation
    exactly when it occurs anywhere in the graph. The graph is walked
    once, the first time a name is asked for."""

    def __init__(self, g: GraphTerm):
        self.graph, self._names = g, None

    def __contains__(self, n: Name) -> bool:
        if self._names is None:
            names, todo = set(), [self.graph]
            while todo:
                u = todo.pop()
                if isinstance(u, GName):
                    names.add(u.name)
                elif isinstance(u, GLet):
                    todo += (u.binding, u.body)
                elif isinstance(u, NLam):
                    names |= qt_free_names(u.param_qt) | u.latent.flat
                    todo.append(u.body)
                elif not isinstance(u, NCst):
                    names.update(node_operands(u))
            self._names = names
        return n in self._names


def walk(g: GraphTerm, record: dict) -> Iterator[Site]:
    """Every binding site, outside-in and left-to-right, of `g`, whose
    synthesis left its frames in `record`."""
    return _scope(g, (), lambda frag: frag, record, Occurrences(g))


def _scope(g, path, rebuild, record, uses):
    # a module-level generator, so that no closure cell keeps `record` in
    # a reference cycle
    for g in spine(g)[0]:
        yield Site(path, g, rebuild, record, uses)
        b = g.binding
        if isinstance(b, GLet):
            yield from _scope(b, path + (0,),
                              lambda frag, g=g, rb=rebuild:
                              rb(GLet(g.var, frag, g.body, None)),
                              record, uses)
        elif isinstance(b, NLam):
            yield from _scope(
                b.body, path + (0,),
                lambda frag, g=g, b=b, rb=rebuild:
                rb(GLet(g.var, NLam(b.param, b.param_qt, b.latent, frag,
                                    None), g.body, None)),
                record, uses)
        rebuild = (lambda frag, g=g, rb=rebuild:
                   rb(GLet(g.var, g.binding, frag, None)))
        path = path + (1,)


def _synthesized(st: SynthState, g: GraphTerm) -> tuple[GraphTerm, dict]:
    """`g` with its annotations synthesized afresh, and the synthesis
    frame of every binder."""
    record: dict = {}
    return resynthesize(st, g, record), record


def _navigate(st: SynthState, g: GraphTerm, site) -> Site:
    """A site given as a `Site` of `walk` or as the path of one."""
    if not isinstance(site, Site):
        path = tuple(site)
        site = next((s for s in walk(g, _synthesized(st, g)[1])
                     if s.path == path), None)
        if site is None:
            raise SideConditionFailed(f"no binding at path {list(path)}")
    return site


def _capability_reach(ctx: TypingContext) -> Qualifier:
    """The allocation capability's saturated qualifier (empty without one).
    It goes by location: a variable that aliases the capability is typed
    Alloc too."""
    for n, qt in ctx.env.items():
        if n.is_loc and qt.ty == TY_ALLOC:
            return saturate(frozenset((n,)), ctx)
    return EMPTY_QUAL


def _alloc_only(ctx: TypingContext, eff: RwEffect) -> tuple[bool, str]:
    """The discardability condition: no writes, and reads only of names
    typed Alloc, the allocation capability or an alias of it: reading one
    is allocating."""
    if eff.writes:
        return False, "write effect"
    if any(ctx.lookup(n).ty != TY_ALLOC for n in eff.reads):
        return False, "reads beyond the allocation capability"
    return True, ""


def _resolve_lam(record: dict, name: Name):
    """Chase alias bindings and nested-block tails through the synthesis
    `record` to the lambda a name denotes, if a let binds it. Binders are
    unique and every name the chase meets is bound where it is used, so
    the binding its frame holds is the one in scope, and the chase cannot
    cycle."""
    b = GName(name)
    while True:
        b = spine(b)[1]  # a nested block: go to its tail
        if not isinstance(b, GName):
            return b if isinstance(b, NLam) else None
        f = record.get(b.name)
        if f is None:
            return None
        b = f.binding


# ---------------------------------------------------------------------------
# The five rules
# ---------------------------------------------------------------------------

def rw_dce(st: SynthState, g: GraphTerm, site: tuple,
           supply: NameSupply) -> GraphTerm:
    """Remove a binding whose result is dead and whose effect is at most
    allocation."""
    site = _navigate(st, g, site)
    focus = site.focus
    f = site.record[focus.var]
    ok, why = _alloc_only(f.ctx, f.typing.eff)
    if not ok:
        raise SideConditionFailed(f"binding not discardable: {why}")
    if focus.var in site.uses:
        raise SideConditionFailed(f"{focus.var!r} used in the continuation")
    return site.rebuild(focus.body)


def rw_comm(st: SynthState, g: GraphTerm, site: tuple,
            supply: NameSupply) -> GraphTerm:
    """Swap two adjacent bindings with disjoint saturated effects."""
    site = _navigate(st, g, site)
    focus = site.focus
    if not isinstance(focus.body, GLet):
        raise SideConditionFailed("no adjacent second binding")
    x1, b1 = focus.var, focus.binding
    inner = focus.body
    x2, b2 = inner.var, inner.binding
    t1, f2 = site.record[x1].typing, site.record[x2]
    t2, ctx2 = f2.typing, f2.ctx
    e1 = saturate(t1.eff.flat, ctx2)
    e2 = saturate(t2.eff.flat, ctx2)
    if not e1.isdisjoint(e2):
        raise SideConditionFailed(
            f"effects overlap on {qual_repr(e1 & e2)}")
    # binders are unique and x2 is bound after b1, so only b2 can mention
    # the other binder
    if x1 in graph_free_names(b2):
        raise SideConditionFailed(f"second binding mentions {x1!r}")
    swapped = GLet(x2, b2, GLet(x1, b1, inner.body, None), None)
    return site.rebuild(swapped)


def rw_hoist(st: SynthState, g: GraphTerm, site: tuple,
             supply: NameSupply) -> GraphTerm:
    """Move a strictly pure, untracked, parameter-independent first binding
    out of a lambda body."""
    site = _navigate(st, g, site)
    focus = site.focus
    lam = focus.binding
    if not isinstance(lam, NLam):
        raise SideConditionFailed("binding is not a lambda")
    inner = lam.body
    if not isinstance(inner, GLet):
        raise SideConditionFailed("lambda body has no binding to hoist")
    ti = site.record[inner.var].typing
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
    return site.rebuild(hoisted)


def rw_inline(st: SynthState, g: GraphTerm, site: tuple,
              supply: NameSupply) -> GraphTerm:
    """Replace an application of a locally-bound lambda to a locally-bound
    discardable argument by the lambda's (freshened) body."""
    site = _navigate(st, g, site)
    focus, record = site.focus, site.record
    ctx = record[focus.var].ctx
    app = focus.binding
    if not isinstance(app, NApp):
        raise SideConditionFailed("binding is not an application")
    lam = _resolve_lam(record, app.fn)
    if lam is None:
        raise SideConditionFailed(
            f"function {app.fn!r} is not locally bound to a lambda")
    # the callee may sit in a nested block whose locals are out of scope here
    missing = {n for n in graph_free_names(lam) if n not in ctx}
    if missing:
        raise SideConditionFailed(
            f"callee mentions {sorted(missing)!r}, out of scope here")
    adef = record.get(app.arg)
    if adef is None:
        raise SideConditionFailed(
            f"argument {app.arg!r} is not locally bound")
    ok, why = _alloc_only(ctx, adef.typing.eff)
    if not ok:
        raise SideConditionFailed(f"argument binding not discardable: {why}")
    body = rename_graph(lam.body, {lam.param: app.arg}, fresh=supply,
                        dep=lambda d: None)
    inlined = GLet(focus.var, body, focus.body, None)
    return site.rebuild(inlined)


def rw_cse(st: SynthState, g: GraphTerm, site: tuple,
           supply: NameSupply) -> GraphTerm:
    """Collapse two syntactically identical adjacent bindings that do not
    allocate; the second's uses are renamed to the first."""
    site = _navigate(st, g, site)
    focus = site.focus
    f = site.record[focus.var]
    if not isinstance(focus.body, GLet):
        raise SideConditionFailed("no adjacent second binding")
    inner = focus.body
    if erase(focus.binding) != erase(inner.binding):
        raise SideConditionFailed("bindings are not identical")
    # only the store binds locations, and a location's qualifier is empty
    # wherever it is read: the program's initial context has the answer,
    # without a scan of the site's
    if not saturate(f.typing.eff.reads, f.ctx).isdisjoint(
            _capability_reach(st.ctx)):
        raise SideConditionFailed("binding allocates")
    merged = GLet(focus.var, focus.binding,
                  rename_graph(inner.body, {inner.var: focus.var}), None)
    return site.rebuild(merged)


RULES = {
    "dce": rw_dce,
    "comm": rw_comm,
    "hoist": rw_hoist,
    "inline": rw_inline,
    "cse": rw_cse,
}


def _fire(st: SynthState, g: GraphTerm, record: dict, rule: str, sites,
          supply, reports: list, log_misses: bool):
    """Try `rule` at each of `sites` in turn. At the first that fires,
    re-synthesize the rewritten graph from what changed, which annotates
    it and brings `record` up to date with it, and return (annotated
    graph, site); if none fires, (None, None)."""
    for site in sites:
        try:
            g2 = RULES[rule](st, g, site, supply)
        except SideConditionFailed as e:
            if log_misses:
                reports.append(RewriteReport(rule, site.path, False, str(e)))
            continue
        reports.append(RewriteReport(rule, site.path, True))
        return resynthesize(st, g2, record, g), site
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
    rewrites fired in all. Returns the rewritten graph, annotated by
    synthesis even when no rule fires, and the report log.

    The program is synthesized once up front, which annotates it afresh
    (any annotation the input carries is dropped) and records each
    binder's synthesis frame: its context, Δ and binding typing. A rule
    returns the rewritten graph unannotated, and `_fire` re-synthesizes
    only what the rewrite changed: from the first binder it changed until
    a let node is entered in the state recorded for it, or, below a
    deleted let, by re-threading the recorded typings (see
    `resynthesize`). The walks and the rules' side conditions read the
    frames of that record, which lives in this call alone.

    `supply` must be the program's own name supply, the one its binders
    were drawn from: inlining mints fresh binders from it, and a supply
    that has not seen the program's names mints clashing ones."""
    for p in passes:
        if p not in RULES:
            raise SideConditionFailed(f"unknown pass {p!r}")
    reports: list = []
    g, record = _synthesized(st, g)
    changed = True
    while changed and fuel > 0:
        changed = False
        for rule in passes:
            while rule != "comm" and fuel > 0:
                g2, _ = _fire(st, g, record, rule, walk(g, record), supply,
                              reports, log_misses)
                if g2 is None:
                    break
                g, fuel, changed = g2, fuel - 1, True
    # binders are unique, so they name the positions the sweep has tried
    tried: set = set()
    while "comm" in passes and fuel > 0:
        g2, site = _fire(st, g, record, "comm",
                         _untried(walk(g, record), tried), supply, reports,
                         log_misses)
        if g2 is None:
            break
        tried.add(site.focus.body.var)  # now at the tried position
        g, fuel = g2, fuel - 1
    return g, reports
