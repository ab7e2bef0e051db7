"""Three executable semantics: substitution-based CBV, store-allocated CBV
(all introductions committed to the store), and dependency-checking graph
reduction. Plus the interleaved separation probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    App, Assign, Capability, Cell, Cst, Deref, DepMap, DependencyViolation,
    EMPTY_DEP, FuelExhausted, GLet, GName, GraphTerm, Lam, Let, Name, Nm,
    OMEGA, OverlapViolation, RefNew, RuntimeConfig, SavedCst, SavedLamGraph,
    SavedLamTerm, Store, Stuck, Term, UNIT_V, const_key, dep_add_hard,
    dep_dom_subst, dep_rewire, qual_repr, rename_graph, saturate, subst_term,
    NLam, NApp, NRef, NDeref, NAssign, NCst,
)
from .typecheck import infer_direct

DEFAULT_FUEL = 10 ** 6


@dataclass
class EvalResult:
    store: Store
    value: object  # a value term (direct) or a location Name (store/graph)
    steps: int
    trace: Optional[list] = None


# ---------------------------------------------------------------------------
# Substitution-based CBV
# ---------------------------------------------------------------------------

def _is_value_direct(t: Term) -> bool:
    return (isinstance(t, (Cst, Lam))
            or (isinstance(t, Nm) and t.name.is_loc))


def _step_direct(store: Store, t: Term):
    """One step at the evaluation-context focus; returns (t', rule) or
    None when t is a value. Mutates the store on ref/assign."""
    if _is_value_direct(t):
        return None
    if isinstance(t, Nm):
        raise Stuck(f"free variable {t.name!r} at runtime")
    if isinstance(t, App):
        if not _is_value_direct(t.fn):
            t2, rule = _step_direct(store, t.fn)
            return App(t2, t.arg), rule
        if not _is_value_direct(t.arg):
            t2, rule = _step_direct(store, t.arg)
            return App(t.fn, t2), rule
        fn = t.fn
        if not isinstance(fn, Lam):
            raise Stuck(f"applied non-function value {fn!r}")
        return subst_term(fn.body, fn.param, t.arg), "beta"
    if isinstance(t, Let):
        if not _is_value_direct(t.bound):
            t2, rule = _step_direct(store, t.bound)
            return Let(t.var, t2, t.body), rule
        return subst_term(t.body, t.var, t.bound), "let"
    if isinstance(t, RefNew):
        if not _is_value_direct(t.cap):
            t2, rule = _step_direct(store, t.cap)
            return RefNew(t2, t.init), rule
        if not _is_value_direct(t.init):
            t2, rule = _step_direct(store, t.init)
            return RefNew(t.cap, t2), rule
        cap = t.cap
        is_cap = (isinstance(cap, Cst) and cap.value is OMEGA) or (
            isinstance(cap, Nm) and isinstance(store[cap.name], Capability))
        if not is_cap:
            raise Stuck(f"ref through non-capability {cap!r}")
        if not isinstance(t.init, Cst):
            raise Stuck(f"references hold constants, got {t.init!r}")
        loc = store.alloc(Cell(t.init.value), "r")
        return Nm(loc), "ref"
    if isinstance(t, Deref):
        if not _is_value_direct(t.ref):
            t2, rule = _step_direct(store, t.ref)
            return Deref(t2), rule
        ref = t.ref
        if not (isinstance(ref, Nm) and isinstance(store[ref.name], Cell)):
            raise Stuck(f"dereferenced non-cell {ref!r}")
        return Cst(store[ref.name].content), "deref"
    if isinstance(t, Assign):
        if not _is_value_direct(t.ref):
            t2, rule = _step_direct(store, t.ref)
            return Assign(t2, t.value), rule
        if not _is_value_direct(t.value):
            t2, rule = _step_direct(store, t.value)
            return Assign(t.ref, t2), rule
        ref = t.ref
        if not (isinstance(ref, Nm) and isinstance(store[ref.name], Cell)):
            raise Stuck(f"assigned non-cell {ref!r}")
        if not isinstance(t.value, Cst):
            raise Stuck(f"references hold constants, got {t.value!r}")
        store[ref.name].content = t.value.value
        return Cst(UNIT_V), "assign"
    raise TypeError(t)


def _reduce(step, store: Store, t: Term, fuel: int, trace: bool):
    """Step `t` on a copy of `store` until `step` finds a value."""
    sigma = store.copy()
    tr = [] if trace else None
    steps = 0
    while (r := step(sigma, t)) is not None:
        t, rule = r
        steps += 1
        if steps > fuel:
            raise FuelExhausted(f"no value after {fuel} steps")
        if tr is not None:
            tr.append((rule, t))
    return EvalResult(sigma, t, steps, tr)


def eval_direct(store: Store, t: Term, fuel: int = DEFAULT_FUEL,
                trace: bool = False) -> EvalResult:
    return _reduce(_step_direct, store, t, fuel, trace)


# ---------------------------------------------------------------------------
# Store-allocated CBV
# ---------------------------------------------------------------------------

def _is_loc(t: Term) -> bool:
    return isinstance(t, Nm) and t.name.is_loc


def _step_store(store: Store, t: Term):
    if _is_loc(t):
        return None
    if isinstance(t, Nm):
        raise Stuck(f"free variable {t.name!r} at runtime")
    if isinstance(t, Cst):
        loc = store.alloc(SavedCst(t.value), "c")
        return Nm(loc), "intro"
    if isinstance(t, Lam):
        loc = store.alloc(SavedLamTerm(t), "f")
        return Nm(loc), "intro"
    if isinstance(t, App):
        if not _is_loc(t.fn):
            t2, rule = _step_store(store, t.fn)
            return App(t2, t.arg), rule
        if not _is_loc(t.arg):
            t2, rule = _step_store(store, t.arg)
            return App(t.fn, t2), rule
        entry = store[t.fn.name]
        if not isinstance(entry, SavedLamTerm):
            raise Stuck(f"applied non-function location {t.fn.name!r}")
        lam = entry.lam
        return subst_term(lam.body, lam.param, t.arg), "beta"
    if isinstance(t, Let):
        if not _is_loc(t.bound):
            t2, rule = _step_store(store, t.bound)
            return Let(t.var, t2, t.body), rule
        return subst_term(t.body, t.var, t.bound), "let"
    if isinstance(t, RefNew):
        if not _is_loc(t.cap):
            t2, rule = _step_store(store, t.cap)
            return RefNew(t2, t.init), rule
        if not _is_loc(t.init):
            t2, rule = _step_store(store, t.init)
            return RefNew(t.cap, t2), rule
        if not isinstance(store[t.cap.name], Capability):
            raise Stuck(f"ref through non-capability {t.cap!r}")
        loc = store.alloc(Cell(t.init.name), "r")
        return Nm(loc), "intro"
    if isinstance(t, Deref):
        if not _is_loc(t.ref):
            t2, rule = _step_store(store, t.ref)
            return Deref(t2), rule
        entry = store[t.ref.name]
        if not isinstance(entry, Cell):
            raise Stuck(f"dereferenced non-cell {t.ref!r}")
        return Nm(entry.content), "deref"
    if isinstance(t, Assign):
        if not _is_loc(t.ref):
            t2, rule = _step_store(store, t.ref)
            return Assign(t2, t.value), rule
        if not _is_loc(t.value):
            t2, rule = _step_store(store, t.value)
            return Assign(t.ref, t2), rule
        entry = store[t.ref.name]
        if not isinstance(entry, Cell):
            raise Stuck(f"assigned non-cell {t.ref!r}")
        entry.content = t.value.name
        return Cst(UNIT_V), "assign"
    raise TypeError(t)


def eval_store(store: Store, t: Term, fuel: int = DEFAULT_FUEL,
               trace: bool = False) -> EvalResult:
    res = _reduce(_step_store, store, t, fuel, trace)
    res.value = res.value.name
    return res


# ---------------------------------------------------------------------------
# Dependency-checking graph reduction
# ---------------------------------------------------------------------------

def _check_dep(store: Store, z: Name, node: Name, d: Optional[DepMap]):
    """Every reduction rule's side condition: dependency keys must be
    store-resident and every target must be the start variable."""
    if d is None:
        d = EMPTY_DEP
    bad = []
    for k in d.domain():
        if k not in store:
            bad.append(k)
    for t in d.targets():
        if t != z:
            bad.append(t)
    if bad:
        raise DependencyViolation(
            f"unresolved dependencies at {node!r}: {sorted(set(bad))!r}",
            node=node, unresolved=sorted(set(bad)))


def _runtime_subst(g, x: Name, d1: DepMap, loc: Name):
    """Simultaneous rewiring [x⇝d1], dependency-domain substitution
    [loc/x], and term renaming [loc/x] over a graph term."""
    q = frozenset((loc,))
    return rename_graph(
        g, {x: loc}, dep=lambda d: dep_dom_subst(dep_rewire(d, x, d1), q, x))


def _step_graph(store: Store, z: Name, g: GraphTerm):
    """One reduction at the innermost-leftmost binding. Returns
    (g', ref_alloc_or_None, rule) or None when g is a returned location.
    A freshly allocated reference location is handed upward so every
    annotation along the spine gains loc↦z (contextual effect propagation).
    """
    if isinstance(g, GName):
        if g.name.is_loc:
            return None
        raise Stuck(f"free variable {g.name!r} at runtime")
    if not isinstance(g, GLet):
        raise Stuck(f"graph term expected, got {g!r}")
    x, b, body, dep = g.var, g.binding, g.body, g.dep

    if isinstance(b, GLet):  # descend into the nested block first
        r = _step_graph(store, z, b)
        if r is None:
            raise Stuck("nested block did not end in a name")
        b2, alloc, rule = r
        dep2 = dep if alloc is None else dep_add_hard(dep or EMPTY_DEP,
                                                      alloc, z)
        return GLet(x, b2, body, dep2), alloc, rule

    if isinstance(b, GName):
        if not b.name.is_loc:
            raise Stuck(f"binding returned free variable {b.name!r}")
        _check_dep(store, z, x, dep)
        return (_runtime_subst(body, x, dep or EMPTY_DEP, b.name),
                None, "let")

    if isinstance(b, NCst):
        _check_dep(store, z, x, dep)
        loc = store.alloc(SavedCst(b.value), "c")
        return (_runtime_subst(body, x, dep or EMPTY_DEP, loc),
                None, "intro")

    if isinstance(b, NLam):
        _check_dep(store, z, x, dep)
        loc = store.alloc(SavedLamGraph(b), "f")
        return (_runtime_subst(body, x, dep or EMPTY_DEP, loc),
                None, "intro")

    if isinstance(b, NRef):
        _check_dep(store, z, x, dep)
        if not (b.cap.is_loc and b.init.is_loc):
            raise Stuck(f"ref operands not locations: {b!r}")
        if not isinstance(store[b.cap], Capability):
            raise Stuck(f"ref through non-capability {b.cap!r}")
        loc = store.alloc(Cell(b.init), "r")
        return (_runtime_subst(body, x, dep or EMPTY_DEP, loc),
                loc, "intro")

    if isinstance(b, NApp):
        _check_dep(store, z, x, dep)
        if not (b.fn.is_loc and b.arg.is_loc):
            raise Stuck(f"application operands not locations: {b!r}")
        entry = store[b.fn]
        if not isinstance(entry, SavedLamGraph):
            raise Stuck(f"applied non-function location {b.fn!r}")
        lam = entry.lam
        inlined = _runtime_subst(lam.body, lam.param, dep or EMPTY_DEP,
                                 b.arg)
        latent = lam.body_dep or EMPTY_DEP
        latent2 = dep_dom_subst(dep_rewire(latent, lam.param,
                                           dep or EMPTY_DEP),
                                frozenset((b.arg,)), lam.param)
        return GLet(x, inlined, body, latent2), None, "beta"

    if isinstance(b, NDeref):
        _check_dep(store, z, x, dep)
        entry = store[b.ref]
        if not isinstance(entry, Cell):
            raise Stuck(f"dereferenced non-cell {b.ref!r}")
        return GLet(x, GName(entry.content), body, dep), None, "deref"

    if isinstance(b, NAssign):
        _check_dep(store, z, x, dep)
        entry = store[b.ref]
        if not isinstance(entry, Cell):
            raise Stuck(f"assigned non-cell {b.ref!r}")
        entry.content = b.value
        return GLet(x, NCst(UNIT_V), body, dep), None, "assign"

    raise TypeError(b)


def eval_graph(cfg: RuntimeConfig, fuel: int = DEFAULT_FUEL,
               trace: bool = False) -> EvalResult:
    sigma = cfg.store.copy()
    g = cfg.graph
    topdep = cfg.dep
    tr = [] if trace else None
    steps = 0
    while True:
        r = _step_graph(sigma, cfg.z, g)
        if r is None:
            return EvalResult(sigma, g.name, steps, tr)
        g, alloc, rule = r
        if alloc is not None:
            topdep = dep_add_hard(topdep, alloc, cfg.z)
        steps += 1
        if steps > fuel:
            raise FuelExhausted(f"no value after {fuel} steps")
        if tr is not None:
            tr.append((rule, g, topdep))


# ---------------------------------------------------------------------------
# Canonical result comparison
# ---------------------------------------------------------------------------

def canonical_value(store: Store, value) -> tuple:
    """Semantics-independent shape of a result: constants by value,
    references by (transitively resolved) content, closures by their
    source parameter (stable across all three semantics)."""
    if isinstance(value, Cst):
        return ("cst",) + const_key(value.value)
    if isinstance(value, Lam):
        return ("closure", value.param.id)
    if isinstance(value, Nm):
        value = value.name
    if isinstance(value, Name):
        entry = store[value]
        if isinstance(entry, Capability):
            return ("cap",)
        if isinstance(entry, Cell):
            return ("ref", canonical_value(store, entry.content))
        if isinstance(entry, SavedCst):
            return ("cst",) + const_key(entry.value)
        if isinstance(entry, (SavedLamTerm, SavedLamGraph)):
            return ("closure", entry.lam.param.id)
    return ("cst",) + const_key(value)


# ---------------------------------------------------------------------------
# Separation probe
# ---------------------------------------------------------------------------

@dataclass
class SeparationReport:
    steps: int
    disjoint: bool
    history: list = field(default_factory=list)
    failure: Optional[str] = None


def separation_probe(t1: Term, t2: Term, store: Store) -> SeparationReport:
    """Interleave single steps of two disjointly-qualified terms over a
    shared store, re-inferring both against the grown store typing after
    every step and recording whether saturated qualifiers stay disjoint."""
    sigma = store.copy()

    def quals():
        ctx = sigma.typing()
        ty1 = infer_direct(ctx, t1)
        ty2 = infer_direct(ctx, t2)
        return (saturate(ty1.qt.qual, ctx), saturate(ty2.qt.qual, ctx))

    q1, q2 = quals()
    if not q1.isdisjoint(q2):
        raise OverlapViolation(
            f"probe precondition: saturated qualifiers overlap on "
            f"{qual_repr(q1 & q2)}", q1=q1, q2=q2)

    report = SeparationReport(steps=0, disjoint=True, history=[(q1, q2)])
    while report.steps < DEFAULT_FUEL:
        progressed = False
        r1 = _step_direct(sigma, t1)
        if r1 is not None:
            t1 = r1[0]
            progressed = True
        r2 = _step_direct(sigma, t2)
        if r2 is not None:
            t2 = r2[0]
            progressed = True
        if not progressed:
            break
        report.steps += 1
        q1, q2 = quals()
        report.history.append((q1, q2))
        if not q1.isdisjoint(q2):
            report.disjoint = False
            report.failure = (f"overlap {qual_repr(q1 & q2)} after "
                              f"{report.steps} steps")
            break
    return report
