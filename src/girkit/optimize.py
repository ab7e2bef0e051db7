"""Equational graph-to-graph rewrites (dead code, commuting, hoisting,
inlining, common subexpressions) applied under congruence with explicit
side-condition checks. The side conditions read the binding typings and
contexts that dependency synthesis records, and a use census; after
every rewrite that fires, the driver re-synthesizes only what the
rewrite changed, which also brings the record up to date for the next
site (`graphir.resynthesize`), and the site walk goes on from the fired
site instead of starting again at the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from .core import (
    EMPTY_QUAL, GLet, GName, GraphTerm, Name, NameSupply, NApp, NCst,
    NLam, Qualifier, RwEffect, SideConditionFailed, TY_ALLOC,
    TypingContext, graph_free_names, node_operands, qt_free_names,
    qual_repr, rename_graph, saturate, spine,
)
from .graphir import SynthState, erase, recompose, resynthesize


@dataclass(slots=True)
class RewriteReport:
    """One rule tried at one site, kept as the site's `depth` and `rel`
    (see `Site`): `site` builds the path when read, so a report's size
    does not grow with the depth of its site."""
    rule: str
    depth: int
    rel: tuple
    fired: bool
    reason: str = ""

    @property
    def site(self) -> tuple:
        return (1,) * self.depth + self.rel


# ---------------------------------------------------------------------------
# Site walk
# ---------------------------------------------------------------------------

@dataclass
class Site:
    """A binding position: `depth` lets down the top-level spine, then
    `rel` (0 enters a let's binding, or a bound lambda's body; 1 its
    body), which `path` joins. `record` maps every binder of the graph to
    its synthesis `Frame`, so `record[focus.var]` holds the context that
    types `focus` and its binding's typing; `uses` counts the occurrences
    of each name in the walked graph (see `_count`); and `rebuild`
    reassembles what the rule returns around a replacement for `focus`:
    for a path-form call the whole (unannotated) graph, for the driver's
    own sites the let of the top-level spine that holds `focus`."""
    depth: int
    rel: tuple
    focus: GLet
    rebuild: Callable
    record: dict
    uses: dict

    @property
    def path(self) -> tuple:
        return (1,) * self.depth + self.rel


def _count(uses: dict, g, step: int) -> list:
    """Add `step` to the count in `uses` of every name that occurs in `g`
    where `graph_free_names` finds names: as names, as node operands, and
    in a lambda's parameter qualifier and latent effect; binders
    themselves do not count. A count that reaches zero is dropped, so a
    name is in `uses` exactly when it occurs. Binders are unique, so a
    let binder is used in its continuation exactly when it occurs
    anywhere in the graph. Returns the names dropped."""
    todo, dropped = [g], []
    while todo:
        u = todo.pop()
        if isinstance(u, GName):
            names = (u.name,)
        elif isinstance(u, GLet):
            todo += (u.binding, u.body)
            continue
        elif isinstance(u, NLam):
            names = qt_free_names(u.param_qt) | u.latent.flat
            todo.append(u.body)
        elif isinstance(u, NCst):
            continue
        else:
            names = node_operands(u)
        for n in names:
            c = uses.get(n, 0) + step
            if c:
                uses[n] = c
            else:
                del uses[n]
                dropped.append(n)
    return dropped


def _census(g: GraphTerm) -> dict:
    uses: dict = {}
    _count(uses, g, 1)
    return uses


def walk(g: GraphTerm, record: dict) -> Iterator[Site]:
    """Every binding site, outside-in and left-to-right, of `g`, whose
    synthesis left its frames in `record`."""
    return _scope(g, (), _same, record, _census(g))


def _scope(g, path, rebuild, record, uses):
    # a module-level generator, so that no closure cell keeps `record` in
    # a reference cycle. A site's `rebuild` puts the lets before it back
    # in one loop and then calls the spine's own `rebuild`, so that calling
    # it nests no frame per let.
    lets = []
    for g in spine(g)[0]:
        site_rebuild = partial(_put_back, rebuild, lets, len(lets))
        yield Site(0, path, g, site_rebuild, record, uses)
        yield from _inside(g, path, site_rebuild, record, uses)
        lets.append(g)
        path = path + (1,)


def _put_back(rebuild, lets: list, n: int, frag):
    """`rebuild` of `frag` under the first `n` of `lets`, unannotated."""
    for g in reversed(lets[:n]):
        frag = GLet(g.var, g.binding, frag, None)
    return rebuild(frag)


def _inside(g, path, rebuild, record, uses):
    """The sites nested in the binding of the let `g`."""
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


def _synthesized(st: SynthState, g: GraphTerm) -> tuple[GraphTerm, dict]:
    """`g` with its annotations synthesized afresh, and the synthesis
    frame of every binder."""
    record = _Record()
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


def _resolve_lam(record: dict, name: Name, chased: list | None = None):
    """Chase alias bindings and nested-block tails through the synthesis
    `record` to the lambda a name denotes, if a let binds it, adding each
    name whose frame the chase reads to `chased`. Binders are unique and
    every name the chase meets is bound where it is used, so the binding
    its frame holds is the one in scope, and the chase cannot cycle."""
    b = GName(name)
    while True:
        b = spine(b)[1]  # a nested block: go to its tail
        if not isinstance(b, GName):
            return b if isinstance(b, NLam) else None
        if chased is not None:
            chased.append(b.name)
        f = record.get(b.name)
        if f is None:
            return None
        b = f.binding


def _inline_reads(record: dict, focus: GLet) -> list:
    """The binders beside the site's own whose frames `rw_inline` reads at
    `focus`: those of the callee's chase, and the argument's."""
    app, chased = focus.binding, []
    if isinstance(app, NApp):
        _resolve_lam(record, app.fn, chased)
        chased.append(app.arg)
    return chased


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
    b1, b2 = focus.binding, inner.binding
    if type(b1) is not type(b2):
        raise SideConditionFailed("bindings are not identical")
    if isinstance(b1, (GLet, NLam)):  # only these carry annotations
        b1, b2 = erase(b1), erase(b2)
    if b1 != b2:
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


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

class _Cursor:
    """The site walk's position on the top-level let spine, kept as a
    zipper (Huet, "The Zipper", JFP 1997): `above` holds the lets before
    the cursor, outermost first, and `cur` the annotated rest of the
    spine, whose frames in `record` are all up to date. The lets in
    `above` keep their recorded context, Δ, binding and typing, which is
    all the rules read; their recorded results are composed again only
    when the cursor moves back over them (`back`), so a rewrite at the
    cursor touches nothing above it. `at` maps the binder of each let in
    `above` to its position there."""

    def __init__(self, st: SynthState, g: GraphTerm, record: dict, uses):
        self.st, self.record, self.uses = st, record, uses
        self.above: list = []
        self.at: dict = {}
        self.cur = g

    def forward(self) -> None:
        self.at[self.cur.var] = len(self.above)
        self.above.append(self.cur)
        self.cur = self.cur.body

    def back(self, i: int) -> None:
        """Move the cursor to the `i`th let of the spine, at or above it."""
        above = self.above
        if i < len(above):
            for u in above[i:]:
                del self.at[u.var]
            self.cur = recompose(self.st, above[i:], self.cur, self.record)
            del above[i:]

    def sites(self, depth: int) -> Iterator[Site]:
        """The `depth`th let of the spine, at or above the cursor, and the
        sites nested in its binding; a rule that fires at one returns the
        replacement for that let."""
        u = self.cur if depth == len(self.above) else self.above[depth]
        yield Site(depth, (), u, _same, self.record, self.uses)
        for site in _inside(u, (), _same, self.record, self.uses):
            site.depth = depth
            yield site

    def fire(self, rule: str, site: Site, new: GraphTerm) -> set:
        """Put `new`, which `rule` made at `site`, in place of the let at
        the cursor, re-synthesize what changed and update the census.
        Returns the binders whose sites a rule may now hold at where it
        failed before: those of the lets on the site's path (`_on_path`),
        those whose frame changed in the context, binding or typing that
        the rules read, and those whose count dropped to zero."""
        cur, record = self.cur, self.record
        prev = self.above[-1].var if self.above else None
        enclosing, before = _on_path(prev, cur, site.rel)
        cleared = {site.focus.var, *enclosing, *before}
        f = record[cur.var]
        record.changed = []
        self.cur = resynthesize(SynthState(f.ctx, f.last_use, self.st.regime),
                                new, record, cur)
        cleared.update(record.changed)
        cleared.update(_recount(self.uses, rule, site.focus, record))
        return cleared


def _on_path(prev, cur: GLet, rel: tuple) -> tuple[list, list]:
    """The binders of the lets on the path `rel` from the let `cur`, which
    comes after the one `prev` binds (if any), to a site: those whose
    binding holds the site, and those just before a let on the path in
    its own spine, the site's last unless the site begins a nested
    spine. The first are re-typed when the site changes; the second read
    the let after them (`comm`, `cse`)."""
    enclosing, before, u = [], [] if prev is None else [prev], cur
    for step in rel:
        if step:
            before.append(u.var)
            u = u.body
        else:
            enclosing.append(u.var)
            u = u.binding if isinstance(u.binding, GLet) else u.binding.body
    return enclosing, before


def _recount(uses: dict, rule: str, focus: GLet, record: dict) -> list:
    """Update the census by what `rule`, fired at `focus` and
    re-synthesized into `record`, removed and added: a deleted binding's
    names, an application replaced by the inlined body, a merged
    duplicate's binding and uses, renamed to the binder kept. Returns the
    names whose count dropped to zero."""
    dropped = []
    if rule in ("dce", "inline"):
        dropped = _count(uses, focus.binding, -1)
    if rule == "inline":
        _count(uses, record[focus.var].binding, 1)
    elif rule == "cse":
        dup = focus.body
        dropped = _count(uses, dup.binding, -1)
        n = uses.pop(dup.var, 0)
        if n:
            uses[focus.var] = uses.get(focus.var, 0) + n
    return [n for n in dropped if n not in uses]


def _same(frag):
    return frag


class _Record(dict):
    """Synthesis frames by binder, which list in `changed` each binder
    whose frame changed in what the rules read: its context, binding or
    typing."""

    def __init__(self):
        super().__init__()
        self.changed: list = []

    def __setitem__(self, var, f):
        old = self.get(var)
        if (old is None or old.ctx is not f.ctx
                or old.binding is not f.binding or old.typing is not f.typing):
            self.changed.append(var)
        dict.__setitem__(self, var, f)


def optimize(st: SynthState, g: GraphTerm, passes: list,
             fuel: int = 1000, *, supply: NameSupply,
             log_misses: bool = False) -> tuple[GraphTerm, list]:
    """Apply the named rules other than `comm` to a fixpoint, each rule in
    list order trying the sites of one outside-in, left-to-right walk and
    firing at the first site it holds at, until a walk finds none. Then,
    if `comm` is named, sweep the sites once with it: each site is tried
    once, and the binding a swap pushes down is not tried again. `fuel`
    bounds the rewrites fired in all. Returns the rewritten graph,
    annotated by synthesis even when no rule fires, and the report log.

    The program is synthesized once up front, which annotates it afresh
    (any annotation the input carries is dropped) and records each
    binder's synthesis frame: its context, Δ and binding typing. A use
    census counts the occurrences of each name (after Appel and Jim,
    "Shrinking Lambda Expressions in Linear Time", JFP 1997); each fire
    updates it by what the rule removed and added. A rule returns the
    rewritten let unannotated, and only what it changed is synthesized
    again (see `resynthesize`), from the record, whose frames equal
    synthesis from scratch modulo binders that occur nowhere. The walks
    and the rules' side conditions read the record and the census, which
    live in this call alone.

    A rule fails at a site again for as long as what it reads there stays
    as it was: the site's frame, the next let and its frame, the census,
    and for `inline` the frames of the binders its callee chase and its
    argument name (`_inline_reads`). So each rule keeps the binders where
    it failed, and each fire clears those whose inputs it changed: the
    ones `_Cursor.fire` returns, and the `inline` sites that read the
    frame of one of those. Every site before the walk's position is one
    it failed at, so after a fire the walk re-tries the cleared sites in
    walk order and then goes on from the fired site: the same site fires
    next as after a walk from the root, and the same reports come out.
    With `log_misses`, each walk logs a miss at every site it passes, as
    a walk from the root does, with the reason the rule last gave there.

    `supply` must be the program's own name supply, the one its binders
    were drawn from: inlining mints fresh binders from it, and a supply
    that has not seen the program's names mints clashing ones."""
    for p in passes:
        if p not in RULES:
            raise SideConditionFailed(f"unknown pass {p!r}")
    reports: list = []
    g, record = _synthesized(st, g)
    cursor = _Cursor(st, g, record, _census(g))
    failed = {rule: {} for rule in RULES}  # binder -> the rule's reason
    readers: dict = {}  # binder -> `inline` sites that failed reading it

    def next_fire(rule: str, skip: dict, sweep: bool):
        """Try `rule` at each site from the cursor on whose binder is not
        in `skip`, adding those it fails at (every site it meets, in a
        sweep); at the first it holds at, return the site and the let
        that replaces the cursor's."""
        while isinstance(cursor.cur, GLet):
            for site in cursor.sites(len(cursor.above)):
                var = site.focus.var
                if var in skip:
                    if log_misses and not sweep:
                        miss(rule, site, skip[var])
                    continue
                if sweep:
                    skip[var] = ""
                try:
                    new = RULES[rule](st, cursor.cur, site, supply)
                except SideConditionFailed as e:
                    skip[var] = str(e)
                    if rule == "inline":
                        for v in _inline_reads(record, site.focus):
                            readers.setdefault(v, set()).add(var)
                    if log_misses:
                        miss(rule, site, skip[var])
                    continue
                reports.append(RewriteReport(rule, site.depth, site.rel, True))
                return site, new
            cursor.forward()
        return None, None

    def miss(rule: str, site: Site, reason: str) -> None:
        reports.append(RewriteReport(rule, site.depth, site.rel, False,
                                     reason))

    changed = True
    while changed and fuel > 0:
        changed = False
        for rule in passes:
            if rule == "comm":
                continue
            cursor.back(0)
            while fuel > 0:
                if log_misses:  # each walk logs the misses above the cursor
                    for depth in range(len(cursor.above)):
                        for above in cursor.sites(depth):
                            miss(rule, above, failed[rule][above.focus.var])
                site, new = next_fire(rule, failed[rule], False)
                if site is None:
                    break
                cleared = cursor.fire(rule, site, new)
                for v in list(cleared):
                    cleared.update(readers.pop(v, ()))
                for skip in failed.values():
                    for v in cleared:
                        skip.pop(v, None)
                at = cursor.at
                cursor.back(min((at[v] for v in cleared if v in at),
                                default=len(cursor.above)))
                fuel, changed = fuel - 1, True
    # binders are unique, so they name the positions the sweep has tried
    tried: dict = {}
    if "comm" in passes:
        cursor.back(0)
    while "comm" in passes and fuel > 0:
        site, new = next_fire("comm", tried, True)
        if site is None:
            break
        cursor.fire("comm", site, new)
        tried[site.focus.body.var] = ""  # now at the tried position
        fuel -= 1
    cursor.back(0)
    return cursor.cur, reports
