"""Randomized testing support: a type-directed generator of well-typed
terms, a runner of the three semantics, a shrinker, a brute-force
dependency oracle, rule-opportunity builders for the optimizer,
corrupted-graph builders for the runtime dependency check, and a fuzz
driver that shrinks every failing program it finds.

Everything here is a pure function of its seed: two runs with the same
configuration produce the same programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    App, Assign, Cst, DepMap, Deref, EMPTY_DEP, EMPTY_QUAL, FunTy,
    GenerationExhausted, GirError, GLet, GName, HARD, Lam, Let, Name,
    NAssign, NCst, NLam, NRef, Nm, PURE,
    QualifiedType, RefNew, RefTy, RW, Store, Term, TY_BOOL,
    TY_INT, TY_UNIT, UNIT_V, dep_add_hard, dep_restrict, footprint,
    initial_store, record, saturate, spine, term_children, term_free_names,
    term_to_text, term_with_child,
)
from .graphir import SynthState, initial_state, synthesize, synthesize_config
from .interp import canonical_value, eval_direct, eval_graph, eval_store
from .mnf import check_mnf, to_mnf
from .typecheck import bind_let, infer_direct


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# relative weights of the productions `_Gen.gen` picks from
_WEIGHTS = {
    "const": 2.0,
    "var": 2.0,
    "let": 3.0,
    "app": 2.0,
    "ref": 2.0,
    "deref": 2.0,
    "assign": 2.0,
}
_MAX_REFS = 4       # `ref` productions per generated term
_GEN_BUDGET = 4000  # generation steps before GenerationExhausted
_SHRINK_BUDGET = 400  # shrink candidates tried before giving up
_FUEL = 100_000    # evaluation steps before FuelExhausted


@record
class GenConfig:
    """Knobs for the generator; output is a pure function of this record."""

    seed: int = 0
    max_depth: int = 6


class _Backtrack(Exception):
    """Internal: the chosen production cannot be completed here."""


# ---------------------------------------------------------------------------
# Type-directed generation
# ---------------------------------------------------------------------------

_BASE_TARGETS = ("Int", "Bool", "Unit")
_ALL_TARGETS = ("Int", "Bool", "Unit", "Ref")


def _target_of(qt: QualifiedType) -> Optional[str]:
    ty = qt.ty
    if isinstance(ty, RefTy) and ty.payload == TY_INT:
        return "Ref"
    if ty == TY_INT:
        return "Int"
    if ty == TY_BOOL:
        return "Bool"
    if ty == TY_UNIT:
        return "Unit"
    return None


class _Gen:
    def __init__(self, cfg: GenConfig, store: Store):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.store = store
        self.supply = store.supply
        self.budget = _GEN_BUDGET
        self.refs_made = 0

    # -- helpers ----------------------------------------------------------

    def _spend(self):
        self.budget -= 1
        if self.budget <= 0:
            raise GenerationExhausted("generation budget exhausted")

    def _order(self, productions):
        """Weighted random order without replacement."""
        keyed = [(self.rng.random() ** (1.0 / _WEIGHTS[p]), p)
                 for p in productions]
        return [p for _, p in sorted(keyed, reverse=True)]

    def _visible_vars(self, ctx, target: str):
        return sorted(n for n, qt in ctx.env.items()
                      if n in ctx.phi and _target_of(qt) == target)

    def _visible_funs(self, ctx, result_target: str):
        return sorted(n for n, qt in ctx.env.items()
                      if n in ctx.phi and isinstance(qt.ty, FunTy)
                      and _target_of(qt.ty.result_qt) == result_target)

    def _bind(self, ctx, var: Name, bound: Term):
        """Extend the context exactly as let-typing does, or backtrack."""
        try:
            t = infer_direct(ctx, bound)
        except GirError:
            raise _Backtrack
        return bind_let(ctx, var, t)

    # -- leaves -----------------------------------------------------------

    def _const(self, target: str) -> Term:
        if target == "Int":
            return Cst(self.rng.randrange(0, 100))
        if target == "Bool":
            return Cst(self.rng.random() < 0.5)
        if target == "Unit":
            return Cst(UNIT_V)
        raise _Backtrack

    # -- productions ------------------------------------------------------

    def gen(self, ctx, target: str, depth: int) -> Term:
        self._spend()
        if depth <= 0:
            if target in _BASE_TARGETS:
                return self._const(target)
            names = self._visible_vars(ctx, target)
            if not names:
                raise _Backtrack
            return Nm(self.rng.choice(names))

        productions = ["const", "var", "let"]
        if target == "Int":
            productions += ["deref", "app"]
        elif target == "Unit":
            productions += ["assign", "app"]
        elif target == "Ref":
            productions += ["ref"]

        last_error = None
        for p in self._order(productions):
            self._spend()
            try:
                return self._produce(p, ctx, target, depth)
            except _Backtrack as e:
                last_error = e
        raise last_error or _Backtrack

    def _produce(self, p: str, ctx, target: str, depth: int) -> Term:
        rng = self.rng

        if p == "const":
            return self._const(target)

        if p == "var":
            names = self._visible_vars(ctx, target)
            if not names:
                raise _Backtrack
            return Nm(rng.choice(names))

        if p == "deref":
            return Deref(self.gen(ctx, "Ref", depth - 1))

        if p == "assign":
            refs = self._visible_vars(ctx, "Ref")
            if not refs:
                raise _Backtrack
            return Assign(Nm(rng.choice(refs)),
                          self.gen(ctx, "Int", depth - 1))

        if p == "ref":
            if self.refs_made >= _MAX_REFS:
                raise _Backtrack
            if self.store.w not in ctx.phi:
                raise _Backtrack
            self.refs_made += 1
            return RefNew(Nm(self.store.w), self.gen(ctx, "Int", depth - 1))

        if p == "app":
            funs = self._visible_funs(ctx, target)
            if not funs:
                raise _Backtrack
            f = Nm(rng.choice(funs))
            arg = self.gen(ctx, "Int", depth - 1)
            t = App(f, arg)
            try:
                infer_direct(ctx, t)
            except GirError:
                raise _Backtrack
            return t

        if p == "let":
            x = self.supply.var("x")
            bound_target = rng.choice(_ALL_TARGETS + ("Fun",))
            if bound_target == "Fun":
                if depth < 2:
                    raise _Backtrack
                bound = self._lam(ctx, depth - 1)
            else:
                bound = self.gen(ctx, bound_target, depth - 1)
            ctx2 = self._bind(ctx, x, bound)
            body = self.gen(ctx2, target, depth - 1)
            return Let(x, bound, body)

        raise _Backtrack

    def _lam(self, ctx, depth: int) -> Term:
        """A closure over an explicit capture set: the body is generated
        with observation restricted to the captures plus the parameter, and
        the declared latent effect is the body's inferred effect."""
        rng = self.rng
        x = self.supply.var("p")
        visible = sorted(ctx.phi)
        captures = {n for n in visible if rng.random() < 0.5}
        # reachability-close the captures so effects of captured closures
        # and references stay observable inside the body
        cap_q = saturate(frozenset(captures), ctx)
        phi2 = (cap_q & ctx.phi) | {x}
        param_qt = QualifiedType(TY_INT, EMPTY_QUAL)
        ctx2 = ctx.bind(x, param_qt).with_phi(phi2)
        body_target = rng.choice(("Int", "Unit", "Int"))
        body = self.gen(ctx2, body_target, depth - 1)
        try:
            latent = infer_direct(ctx2, body).eff
            lam = Lam(x, param_qt, latent, body)
            infer_direct(ctx, lam)
        except GirError:
            raise _Backtrack
        return lam


def gen_well_typed(cfg: GenConfig, store: Optional[Store] = None) -> Term:
    """A random well-typed closed-over-the-store term. The result always
    satisfies the direct type system; raises GenerationExhausted only when
    the backtracking budget runs out."""
    if store is None:
        store = initial_store()
    gen = _Gen(cfg, store)
    ctx = store.typing()
    targets = _BASE_TARGETS + ("Ref",)
    for attempt in range(64):
        gen._spend()
        target = gen.rng.choice(targets)
        depth = cfg.max_depth
        try:
            t = gen.gen(ctx, target, depth)
        except _Backtrack:
            continue
        infer_direct(ctx, t)  # generator contract: output is well-typed
        return t
    raise GenerationExhausted("no well-typed term within the retry budget")


# ---------------------------------------------------------------------------
# Running the three semantics
# ---------------------------------------------------------------------------

def _max_name_id(t: Term) -> int:
    ids = [n.id for n in term_free_names(t)]
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, (Lam, Let)):
            ids.append(u.param.id if isinstance(u, Lam) else u.var.id)
        todo += term_children(u)
    return max(ids, default=0)


def _fresh_store_for(t: Term) -> Store:
    store = initial_store()
    store.supply.reserve(_max_name_id(t) + 1)
    return store


def run_three(t: Term, regime: str = HARD) -> tuple[dict, dict]:
    """Evaluate t under all three semantics; canonicalized values and step
    counts keyed by 'direct' / 'store' / 'graph'."""
    values, steps = {}, {}
    for kind in ("direct", "store", "graph"):
        s = _fresh_store_for(t)
        if kind == "graph":
            cfg = synthesize_config(s, to_mnf(t, s.supply), regime=regime)
            r = eval_graph(cfg, fuel=_FUEL)
        else:
            run = eval_direct if kind == "direct" else eval_store
            r = run(s, t, fuel=_FUEL)
        values[kind] = canonical_value(r.store, r.value)
        steps[kind] = r.steps
    return values, steps


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def shrink_candidates(t: Term):
    """Every term reachable by deleting exactly one subterm: replace some
    node by one of its own children, anywhere in the tree."""
    kids = term_children(t)
    for child in kids:
        yield child
    for i, child in enumerate(kids):
        for c in shrink_candidates(child):
            yield term_with_child(t, i, c)


def shrink(t: Term, still_fails: Callable[[Term], bool]) -> Term:
    """Greedy local minimization: repeatedly take any single-subterm
    deletion that still fails, until none does (or the budget runs out)."""
    spent = 0
    improved = True
    while improved and spent < _SHRINK_BUDGET:
        improved = False
        for cand in shrink_candidates(t):
            spent += 1
            if spent >= _SHRINK_BUDGET:
                break
            if still_fails(cand):
                t = cand
                improved = True
                break
    return t


# ---------------------------------------------------------------------------
# Brute-force dependency oracle
# ---------------------------------------------------------------------------

def brute_deps(st: SynthState, g) -> DepMap:
    """The whole-program dependency slice computed directly from the
    checker's effect — Δ restricted to the graph's overall effect — with
    no synthesis pass involved."""
    eff = check_mnf(st.ctx, g).eff
    return dep_restrict(st.last_use, footprint(eff, st.ctx, st.regime),
                        st.regime)


# ---------------------------------------------------------------------------
# Corrupted graphs (runtime dependency-check targets)
# ---------------------------------------------------------------------------

def make_corrupted(t: Term, regime: str = HARD,
                   pick: int = 0) -> tuple:
    """Synthesize t's graph, then break exactly one annotation on the
    top-level binding spine by adding a dependency key that can never be
    store-resident. Returns (config, corrupted_node_name); running the
    config raises DependencyViolation at precisely that node."""
    store = _fresh_store_for(t)
    g = to_mnf(t, store.supply)
    cfg = synthesize_config(store, g, regime=regime)

    lets, g = spine(cfg.graph)
    if not lets:
        raise ValueError("graph has no bindings to corrupt")
    node = lets[pick % len(lets)].var
    ghost = store.supply.var("ghost")
    for u in reversed(lets):
        dep = u.dep
        if u.var == node:
            dep = dep_add_hard(dep if dep is not None else EMPTY_DEP,
                               ghost, cfg.z)
        g = GLet(u.var, u.binding, g, dep)
    return (type(cfg)(cfg.store, cfg.z, g, cfg.dep), node)


# ---------------------------------------------------------------------------
# Optimizer rule opportunities
# ---------------------------------------------------------------------------

def opportunity(rule: str, cfg: GenConfig) -> tuple:
    """A (store, graph) pair on which the named rewrite rule fires at
    least once: a random well-typed program with a matching pattern
    grafted in. The graph is unannotated normal form."""
    store = initial_store()
    rng = random.Random(cfg.seed ^ 0x9E3779B9)
    base = gen_well_typed(cfg, store)
    sup = store.supply

    if rule == "inline":
        # a literal β-redex: normalization binds the lambda and its
        # argument to names, leaving a known-callee application
        p = sup.var("p")
        y = sup.var("y")
        redex = App(Lam(p, QualifiedType(TY_INT, EMPTY_QUAL), PURE, Nm(p)),
                    Cst(rng.randrange(100)))
        return store, to_mnf(Let(y, redex, base), sup)

    g = to_mnf(base, sup)

    if rule == "dce":
        d = sup.var("dead")
        return store, GLet(d, NCst(rng.randrange(100)), g, None)

    if rule == "cse":
        k = rng.randrange(100)
        a, b = sup.var("a"), sup.var("b")
        return store, GLet(a, NCst(k), GLet(b, NCst(k), g, None), None)

    if rule == "hoist":
        f, p, h = sup.var("f"), sup.var("p"), sup.var("h")
        body = GLet(h, NCst(rng.randrange(100)), GName(h), None)
        lam = NLam(p, QualifiedType(TY_INT, EMPTY_QUAL), PURE, body, None)
        return store, GLet(f, lam, g, None)

    if rule == "comm":
        # a write next to an unrelated pure binding: no data dependency
        # and disjoint footprints, so the pair may be swapped
        c, r, s, k = sup.var("c"), sup.var("r"), sup.var("s"), sup.var("k")
        inner = GLet(s, NAssign(r, c),
                     GLet(k, NCst(rng.randrange(100)), g, None), None)
        return store, GLet(c, NCst(rng.randrange(100)),
                           GLet(r, NRef(store.w, c), inner, None), None)

    raise ValueError(f"unknown rule {rule!r}")


# ---------------------------------------------------------------------------
# Fuzz driver
# ---------------------------------------------------------------------------

@dataclass
class FuzzSummary:
    check: str
    seed: int
    count: int
    max_depth: int
    failures: int = 0
    details: list = field(default_factory=list)

    def render(self) -> str:
        lines = [f"{self.count} programs checked "
                 f"(check={self.check}, seed={self.seed}): "
                 f"{self.failures} failure(s)"]
        for idx, msg in self.details[:20]:
            lines.append(f"  #{idx}: {msg}")
            lines.append(f"    replay: gir fuzz --count 1 "
                         f"--seed {self.seed + idx} "
                         f"--max-depth {self.max_depth} --check {self.check}")
        return "\n".join(lines)


def _check_translation(t: Term, store: Store) -> Optional[str]:
    ctx = store.typing()
    direct = infer_direct(ctx, t)
    mnf = check_mnf(ctx, to_mnf(t, store.supply))
    if direct != mnf:
        return f"typing drift: direct {direct!r} vs normal form {mnf!r}"
    return None


def _check_synthesis(t: Term, store: Store) -> Optional[str]:
    g = to_mnf(t, store.supply)
    for regime in (HARD, RW):
        st, _ = initial_state(store, regime=regime)
        _, got = synthesize(st, g)
        want = brute_deps(st, g)
        if got != want:
            return (f"[{regime}] slice {got!r} differs from oracle {want!r}")
    return None


def _check_deps(t: Term, store: Store) -> Optional[str]:
    from .core import DependencyViolation
    g = to_mnf(t, store.supply)
    for regime in (HARD, RW):
        cfg = synthesize_config(store.copy(), g, regime=regime)
        try:
            eval_graph(cfg, fuel=_FUEL)
        except DependencyViolation as e:
            return f"[{regime}] dependency violation: {e}"
    return None


def _check_differential(t: Term, store: Store) -> Optional[str]:
    values, _ = run_three(t)
    if len(set(values.values())) > 1:
        return f"semantics disagree: {values}"
    return None


def _check_optimizer(t: Term, store: Store) -> Optional[str]:
    """All rules together must keep the result."""
    from .core import RuntimeConfig
    from .optimize import RULES, optimize
    g = to_mnf(t, store.supply)
    st, z = initial_state(store, regime=HARD)
    g2, slice_ = synthesize(st, g)
    before = eval_graph(RuntimeConfig(store.copy(), z, g2, slice_), fuel=_FUEL)
    ref = canonical_value(before.store, before.value)
    g3, _ = optimize(st, g2, sorted(RULES), fuel=50, supply=store.supply)
    after = eval_graph(RuntimeConfig(store.copy(), z, g3, slice_), fuel=_FUEL)
    got = canonical_value(after.store, after.value)
    if ref != got:
        return f"optimizer changed the result: {ref!r} -> {got!r}"
    return None


_CHECK_FNS = {
    "translation": _check_translation,
    "synthesis": _check_synthesis,
    "deps": _check_deps,
    "differential": _check_differential,
    "optimizer": _check_optimizer,
}
CHECKS = tuple(_CHECK_FNS)


def _run_check(fn: Callable, t: Term, store: Store) -> Optional[str]:
    """The check's failure message; a GirError it raises is one too."""
    try:
        return fn(t, store)
    except GirError as e:
        return f"unexpected error: {type(e).__name__}: {e}"


def _still_fails(fn: Callable, t: Term) -> bool:
    """Whether a shrink candidate types and fails the check afresh."""
    store = _fresh_store_for(t)
    try:
        infer_direct(store.typing(), t)
    except GirError:
        return False
    return _run_check(fn, t, store) is not None


def fuzz(count: int = 100, seed: int = 0, max_depth: int = 6,
         check: str = "differential") -> FuzzSummary:
    """Generate `count` well-typed programs and run the named check on
    each; failures are collected, never raised. Each failing program is
    shrunk to a locally minimal one that still fails, and its message
    names that program."""
    if check not in _CHECK_FNS:
        raise ValueError(f"unknown check {check!r}; pick one of {CHECKS}")
    fn = _CHECK_FNS[check]
    summary = FuzzSummary(check=check, seed=seed, count=count,
                          max_depth=max_depth)
    for i in range(count):
        cfg = GenConfig(seed=seed + i, max_depth=max_depth)
        store = initial_store()
        try:
            t = gen_well_typed(cfg, store)
        except GenerationExhausted:
            continue  # a dry seed is not a failure of the system under test
        msg = _run_check(fn, t, store)
        if msg is None:
            continue
        small = shrink(t, lambda u: _still_fails(fn, u))
        if small is not t:
            msg = _run_check(fn, small, _fresh_store_for(small))
        summary.failures += 1
        summary.details.append((i, f"{msg} on {term_to_text(small)}"))
    return summary
