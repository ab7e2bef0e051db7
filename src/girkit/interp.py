"""Three executable semantics: substitution-based CBV, store-allocated CBV
(all introductions committed to the store), and dependency-checking graph
reduction, all stepped by one reduction loop (`_reduce`). Plus the
interleaved separation probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .core import (
    App, Cell, Cst, Deref, DepMap, DependencyViolation, EMPTY_DEP,
    FuelExhausted, GLet, GName, Lam, Let, Name, Nm, OMEGA, OverlapViolation,
    RefNew, RuntimeConfig, SavedCst, SavedLam, Store, Stuck, Term, UNIT_V,
    const_key, dep_add_hard, dep_dom_subst, dep_rewire, qual_repr,
    rename_graph, saturate, subst_term, term_operands, term_with_child, NLam,
    NApp, NRef, NDeref, NAssign, NCst,
)
from .typecheck import infer_direct

DEFAULT_FUEL = 10 ** 6


@dataclass
class EvalResult:
    store: Store
    value: object  # a value term (direct) or a location Name (store/graph)
    steps: int
    trace: Optional[list] = None  # (rule, state after the step) per step


# ---------------------------------------------------------------------------
# Evaluation contexts
# ---------------------------------------------------------------------------

def _step(is_value, contract, store: Store, t: Term):
    """One step at the focus of the evaluation context

        E ::= [] | let x = E in t | op(v, …, v, E, t, …, t)

    Walks E down to its redex, whose context operands are values,
    contracts that by `contract(store, redex)` -> (t', rule), and rebuilds
    E around t'. Returns (t', rule), or None when t is a value. The walk
    is a loop, so a context takes no stack however deep it nests."""
    if is_value(t):
        return None
    path = []
    while not isinstance(t, (Nm, Cst, Lam)):
        kids = (t.bound,) if isinstance(t, Let) else term_operands(t)
        for i, u in enumerate(kids):
            if not is_value(u):
                break
        else:
            break  # every operand is a value: t is the redex
        path.append((t, i))
        t = u
    t, rule = contract(store, t)
    for u, i in reversed(path):
        t = term_with_child(u, i, t)
    return t, rule


def _reduce(step, store: Store, t, fuel: int, trace: bool):
    """Step the state `t` (a term, or a graph configuration) on a copy of
    `store` until `step` finds a value."""
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


# ---------------------------------------------------------------------------
# Substitution-based CBV
# ---------------------------------------------------------------------------

def _is_value_direct(t: Term) -> bool:
    return (isinstance(t, (Cst, Lam))
            or (isinstance(t, Nm) and t.name.is_loc))


def _contract_direct(store: Store, t: Term):
    """The direct rules; ref and assign mutate the store."""
    if isinstance(t, Nm):
        raise Stuck(f"free variable {t.name!r} at runtime")
    if isinstance(t, App):
        fn = t.fn
        if not isinstance(fn, Lam):
            raise Stuck(f"applied non-function value {fn!r}")
        return subst_term(fn.body, fn.param, t.arg), "beta"
    if isinstance(t, Let):
        return subst_term(t.body, t.var, t.bound), "let"
    if isinstance(t, RefNew):
        cap = t.cap
        is_cap = (isinstance(cap, Cst) and cap.value is OMEGA) or (
            isinstance(cap, Nm) and store[cap.name] is OMEGA)
        if not is_cap:
            raise Stuck(f"ref through non-capability {cap!r}")
        if not isinstance(t.init, Cst):
            raise Stuck(f"references hold constants, got {t.init!r}")
        loc = store.alloc(Cell(t.init.value), "r")
        return Nm(loc), "ref"
    ref = t.ref
    if isinstance(t, Deref):
        if not (isinstance(ref, Nm) and isinstance(store[ref.name], Cell)):
            raise Stuck(f"dereferenced non-cell {ref!r}")
        return Cst(store[ref.name].content), "deref"
    # an Assign: the context walk hands over no other form
    if not (isinstance(ref, Nm) and isinstance(store[ref.name], Cell)):
        raise Stuck(f"assigned non-cell {ref!r}")
    if not isinstance(t.value, Cst):
        raise Stuck(f"references hold constants, got {t.value!r}")
    store[ref.name].content = t.value.value
    return Cst(UNIT_V), "assign"


_step_direct = partial(_step, _is_value_direct, _contract_direct)


def eval_direct(store: Store, t: Term, fuel: int = DEFAULT_FUEL,
                trace: bool = False) -> EvalResult:
    return _reduce(_step_direct, store, t, fuel, trace)


# ---------------------------------------------------------------------------
# Store-allocated CBV
# ---------------------------------------------------------------------------

def _is_loc(t: Term) -> bool:
    return isinstance(t, Nm) and t.name.is_loc


def _contract_store(store: Store, t: Term):
    """The store rules: every introduction allocates a location."""
    if isinstance(t, Nm):
        raise Stuck(f"free variable {t.name!r} at runtime")
    if isinstance(t, Cst):
        loc = store.alloc(SavedCst(t.value), "c")
        return Nm(loc), "intro"
    if isinstance(t, Lam):
        loc = store.alloc(SavedLam(t), "f")
        return Nm(loc), "intro"
    if isinstance(t, App):
        entry = store[t.fn.name]
        if not isinstance(entry, SavedLam):
            raise Stuck(f"applied non-function location {t.fn.name!r}")
        lam = entry.lam
        return subst_term(lam.body, lam.param, t.arg), "beta"
    if isinstance(t, Let):
        return subst_term(t.body, t.var, t.bound), "let"
    if isinstance(t, RefNew):
        if store[t.cap.name] is not OMEGA:
            raise Stuck(f"ref through non-capability {t.cap!r}")
        loc = store.alloc(Cell(t.init.name), "r")
        return Nm(loc), "intro"
    entry = store[t.ref.name]
    if isinstance(t, Deref):
        if not isinstance(entry, Cell):
            raise Stuck(f"dereferenced non-cell {t.ref!r}")
        return Nm(entry.content), "deref"
    # an Assign: the context walk hands over no other form
    if not isinstance(entry, Cell):
        raise Stuck(f"assigned non-cell {t.ref!r}")
    entry.content = t.value.name
    return Cst(UNIT_V), "assign"


_step_store = partial(_step, _is_loc, _contract_store)


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


def _contract_graph(store: Store, g: GLet):
    """The graph rules for the let `g`, whose binding is a redex and
    whose premise holds: (g', allocated reference or None, rule)."""
    x, b, body, dep = g.var, g.binding, g.body, g.dep
    if isinstance(b, GName):
        return (_runtime_subst(body, x, dep or EMPTY_DEP, b.name),
                None, "let")
    if isinstance(b, NCst):
        loc = store.alloc(SavedCst(b.value), "c")
        return (_runtime_subst(body, x, dep or EMPTY_DEP, loc),
                None, "intro")
    if isinstance(b, NLam):
        loc = store.alloc(SavedLam(b), "f")
        return (_runtime_subst(body, x, dep or EMPTY_DEP, loc),
                None, "intro")
    if isinstance(b, NRef):
        if not (b.cap.is_loc and b.init.is_loc):
            raise Stuck(f"ref operands not locations: {b!r}")
        if store[b.cap] is not OMEGA:
            raise Stuck(f"ref through non-capability {b.cap!r}")
        loc = store.alloc(Cell(b.init), "r")
        return (_runtime_subst(body, x, dep or EMPTY_DEP, loc),
                loc, "intro")
    if isinstance(b, NApp):
        if not (b.fn.is_loc and b.arg.is_loc):
            raise Stuck(f"application operands not locations: {b!r}")
        entry = store[b.fn]
        if not isinstance(entry, SavedLam):
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
        entry = store[b.ref]
        if not isinstance(entry, Cell):
            raise Stuck(f"dereferenced non-cell {b.ref!r}")
        return GLet(x, GName(entry.content), body, dep), None, "deref"
    if isinstance(b, NAssign):
        entry = store[b.ref]
        if not isinstance(entry, Cell):
            raise Stuck(f"assigned non-cell {b.ref!r}")
        entry.content = b.value
        return GLet(x, NCst(UNIT_V), body, dep), None, "assign"
    raise TypeError(b)


def _step_graph(z: Name, store: Store, config: tuple):
    """One reduction of the configuration (g, top-level annotation) at
    g's innermost-leftmost binding: nested blocks reduce first. Returns
    ((g', annotation'), rule), or None when g is a returned location. A
    freshly allocated reference location gains loc↦z in every annotation
    along the spine, the top-level one too (contextual effect
    propagation)."""
    g, top = config
    if isinstance(g, GName):
        if g.name.is_loc:
            return None
        raise Stuck(f"free variable {g.name!r} at runtime")
    if not isinstance(g, GLet):
        raise Stuck(f"graph term expected, got {g!r}")
    path = []
    while isinstance(g.binding, GLet):
        path.append(g)
        g = g.binding
    b = g.binding
    if isinstance(b, GName) and not b.name.is_loc:
        raise Stuck(f"binding returned free variable {b.name!r}")
    _check_dep(store, z, g.var, g.dep)
    g, alloc, rule = _contract_graph(store, g)
    for u in reversed(path):
        dep = u.dep if alloc is None else dep_add_hard(u.dep or EMPTY_DEP,
                                                       alloc, z)
        g = GLet(u.var, g, u.body, dep)
    if alloc is not None:
        top = dep_add_hard(top, alloc, z)
    return (g, top), rule


def eval_graph(cfg: RuntimeConfig, fuel: int = DEFAULT_FUEL,
               trace: bool = False) -> EvalResult:
    res = _reduce(partial(_step_graph, cfg.z), cfg.store,
                  (cfg.graph, cfg.dep), fuel, trace)
    res.value = res.value[0].name
    return res


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
        if entry is OMEGA:
            return ("cap",)
        if isinstance(entry, Cell):
            return ("ref", canonical_value(store, entry.content))
        if isinstance(entry, SavedCst):
            return ("cst",) + const_key(entry.value)
        if isinstance(entry, SavedLam):
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
