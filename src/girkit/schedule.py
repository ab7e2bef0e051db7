"""Scheduling: turn dependency-annotated graphs into scoped trees and
emit nested-let text. Implements basic block scheduling with soft-dep dead
code elimination, frequency-driven code motion, compact (inlining)
traversal with pluggable tree matchers, and a synthetic benchmark mode.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from array import array
from dataclasses import dataclass

from .core import (
    CyclicDependency, GLet, GName, Name, NameSupply, NCst, NLam,
    RuntimeConfig, const_text, effect_to_text, node_operator, qt_free_names,
    qt_to_text, rename_effect, rename_qt, spine,
)

HOT = 100.0
NORMAL = 1.0
COLD = 0.5


@dataclass(slots=True)
class SNode:
    """One graph node in scheduling form."""

    sym: Name
    op: str                       # cst/lam/app/ref/deref/assign/cond/loop/op:*
    args: tuple = ()              # data-dependency symbols
    hard: tuple = ()              # hard effect-dependency symbols
    soft: tuple = ()              # soft effect-dependency symbols
    lit: object = None            # constant payload / generic op name /
                                  # lam (param type, latent effect) texts
    params: tuple = ()            # binders introduced by a lam node
    body_res: tuple = ()          # scope results (lam/loop: 1, cond: 2)


@dataclass
class SGraph:
    nodes: dict                   # Name -> SNode, insertion-ordered
    result: Name


@dataclass
class Exp:
    op: str
    args: tuple = ()              # Name or nested Exp
    lit: object = None


@dataclass
class Leaf:
    name: Name
    expr: Exp


@dataclass
class Block:
    trees: list
    tail: object                  # Name, or an Exp when the result inlines


@dataclass
class Scope:
    binder: tuple                 # ("lam", sym, node) / ("loop",...) / branch
    children: list                # Blocks (cond) or the body Block's trees
    result: object = None         # the scope's tail (Name or Exp)


# ---------------------------------------------------------------------------
# Flattening annotated graph terms
# ---------------------------------------------------------------------------

def flatten(g) -> SGraph:
    """Turn an annotated graph term into a flat node table. Alias bindings
    and nested blocks are spliced; lambda bodies share the table and are
    delimited by their node's scope result. A lambda node's data arguments
    are the names its annotations mention, so they stay bound before it.

    `g` must carry synthesized annotations: they keep a lambda body's
    effectful nodes in the body. Synthesis starts the body's last-use map
    at the parameter, so each such node depends on the parameter, directly
    or through earlier effectful nodes of the body, and the scheduler
    places a node only where every parameter it depends on is bound."""
    nodes: dict = {}
    env: dict = {}

    def resolve(n: Name) -> Name:
        while n in env:
            n = env[n]
        return n

    def dep_targets(d):
        if d is None or (not d.hard and not d.soft):
            return (), ()
        hard = {resolve(t) for t in d.hard.values()}
        soft = {resolve(t) for s in d.soft.values() for t in s}
        return tuple(hard), tuple(soft - hard)

    def go(g) -> Name:
        """Flatten a block, returning its (resolved) result symbol."""
        lets, g = spine(g)
        for u in lets:
            var, b, d = u.var, u.binding, u.dep
            if isinstance(b, GName):
                env[var] = resolve(b.name)
            elif isinstance(b, GLet):
                env[var] = go(b)
            else:
                hard, soft = dep_targets(d)
                if isinstance(b, NCst):
                    nodes[var] = SNode(var, "cst", (), hard, soft,
                                       lit=b.value)
                elif isinstance(b, NLam):
                    r = go(b.body)
                    # annotations may mention spliced alias names; print
                    # them under the same resolution as the node symbols
                    named = ((b.latent.flat | qt_free_names(b.param_qt))
                             - {b.param})
                    ren = {n: resolve(n) for n in named if n in env}
                    args = tuple(sorted({ren.get(n, n) for n in named}))
                    nodes[var] = SNode(
                        var, "lam", args, hard, soft,
                        lit=(qt_to_text(rename_qt(b.param_qt, ren)),
                             effect_to_text(rename_effect(b.latent, ren))),
                        params=(b.param,), body_res=(r,))
                else:
                    o = node_operator(b)
                    nodes[var] = SNode(var, o.op,
                                       tuple(map(resolve, o.operands(b))),
                                       hard, soft)
        if not isinstance(g, GName):
            raise TypeError(g)
        return resolve(g.name)

    res = go(g)
    return SGraph(nodes, res)


def flatten_config(cfg: RuntimeConfig) -> SGraph:
    return flatten(cfg.graph)


# ---------------------------------------------------------------------------
# Dependency accessors
# ---------------------------------------------------------------------------

_NO_FREQ: dict = {}


class _Deps:
    """Precomputed dependency views over one graph, on dense integer ids:
    data/effect/hard sets, per-edge frequencies, a consumers-first
    topological rank, and the transitive bound-variable requirements."""

    def __init__(self, sg: SGraph):
        self.sg = sg
        names = list(sg.nodes)
        nn = self.nnodes = len(names)
        for node in sg.nodes.values():
            for p in node.params:
                names.append(p)
        self.names = names
        idx = self._idx = {n: i for i, n in enumerate(names)}

        self.node = [sg.nodes[names[i]] for i in range(nn)]
        # per node, one flat run of edges: data targets, then hard effect
        # targets, then soft effect targets; off/dm/hm mark the boundaries
        off = array("l", bytes(8 * (nn + 1)))
        dm = array("l", bytes(8 * nn))
        hm = array("l", bytes(8 * nn))
        edges = array("l")
        self.freq = [_NO_FREQ] * nn
        self.params_of = [()] * nn
        self._param_args = [()] * nn
        for i in range(nn):
            node = self.node[i]
            data = set()
            pa = []
            for a in node.args:
                j = idx.get(a, -1)
                if 0 <= j < nn:
                    data.add(j)
                elif j >= nn:
                    pa.append(j)
            for a in node.body_res:
                j = idx.get(a, -1)
                if 0 <= j < nn:
                    data.add(j)
            edges.extend(data)
            dm[i] = hm[i] = len(edges)
            if node.hard or node.soft:
                hard = set()
                for h in node.hard:
                    j = idx.get(h, -1)
                    if 0 <= j < nn:
                        hard.add(j)
                    elif j >= nn:
                        pa.append(j)  # an enclosing lambda's parameter
                edges.extend(hard)
                hm[i] = len(edges)
                for x in node.soft:
                    j = idx.get(x, -1)
                    if 0 <= j < nn and j not in hard:
                        edges.append(j)
            off[i + 1] = len(edges)
            self.params_of[i] = tuple(idx[p] for p in node.params)
            if pa:
                self._param_args[i] = tuple(pa)
            # store only the non-default frequencies (scope-result edges)
            if node.op in ("lam", "loop"):
                self.freq[i] = {j: HOT for m in node.body_res
                                if 0 <= (j := self.index_of(m)) < nn}
            elif node.op == "cond":
                argset = set(node.args)
                self.freq[i] = {j: COLD for m in node.body_res
                                if 0 <= (j := self.index_of(m)) < nn
                                and m not in argset}
        self._off, self._dm, self._hm, self._edges = off, dm, hm, edges
        self.rank = self._topo_rank()
        self.bound = self._bound_deps()

    def index_of(self, n: Name) -> int:
        """Dense index of a node or parameter name, -1 if absent."""
        return self._idx.get(n, -1)

    def data_of(self, i: int):
        return self._edges[self._off[i]:self._dm[i]]

    def eff_of(self, i: int):
        return self._edges[self._dm[i]:self._off[i + 1]]

    def hard_of(self, i: int):
        return self._edges[self._dm[i]:self._hm[i]]

    def both_of(self, i: int):
        """Data and effect targets; may repeat a shared target."""
        return self._edges[self._off[i]:self._off[i + 1]]

    def _topo_rank(self):
        """Rank such that every consumer ranks before its dependencies."""
        nn = self.nnodes
        indeg = [0] * nn
        for m in self._edges:
            indeg[m] += 1
        order = [i for i in range(nn) if indeg[i] == 0]
        ready = list(order)
        off, edges = self._off, self._edges
        while ready:
            nxt = []
            for i in ready:
                for m in edges[off[i]:off[i + 1]]:
                    indeg[m] -= 1
                    if indeg[m] == 0:
                        nxt.append(m)
                        order.append(m)
            ready = nxt
        if len(order) != nn:
            cyc = sorted(self.names[i] for i in range(nn) if indeg[i] > 0)
            raise CyclicDependency(
                f"dependency cycle through {cyc[:5]!r}", nodes=cyc)
        self._order = order
        rank = array("l", bytes(8 * nn))
        for r, i in enumerate(order):
            rank[i] = r
        return rank

    def _bound_deps(self) -> list:
        """Transitive bound-variable requirements, producers first."""
        nn = self.nnodes
        bound = [()] * nn
        off, edges = self._off, self._edges
        for i in reversed(self._order):
            parts = [b for m in edges[off[i]:off[i + 1]]
                     if (b := bound[m])]
            pa = self._param_args[i]
            if not parts and not pa:
                continue
            acc = set(pa)
            for b in parts:
                acc.update(b)
            if self.params_of[i]:
                acc.difference_update(self.params_of[i])
            bound[i] = tuple(acc)
        return bound


# ---------------------------------------------------------------------------
# Block scheduling (basic + soft-dep DCE + frequency + compact)
# ---------------------------------------------------------------------------

@dataclass
class SchedOpts:
    freq: bool = False
    compact: bool = False
    matchers: tuple = ()


def schedule_block(dv: _Deps, scope: set, path: set, res,
                   opts: SchedOpts) -> Block:
    """Partition the reachable part of `scope` into nodes emitted here and
    nodes pushed into inner scopes, then emit in topological order. The
    scope and path sets hold dense node/param indices; `res` is a Name."""
    ri = dv.index_of(res)
    if ri < 0 or ri >= dv.nnodes:
        return Block([], res)  # result is a bound variable or location

    pq: list = []
    queued = set()
    rank = dv.rank

    def push(i: int):
        if i not in queued:
            queued.add(i)
            heapq.heappush(pq, (rank[i], i))

    push(ri)
    reachable_hard = {ri}
    reachable_hot = {ri}
    current: list = []
    inner: set = set()
    local_def: set = set()
    inner_use: dict = {}
    current_use: dict = {ri: 1}
    freq_on = opts.freq
    bound = dv.bound

    while pq:
        _, n = heapq.heappop(pq)
        if n not in scope:
            continue
        data = scope.intersection(dv.data_of(n))
        eff = scope.intersection(dv.eff_of(n))
        nf = dv.freq[n]
        if n in reachable_hard:
            hot = (not freq_on) or n in reachable_hot
            if hot and path.issuperset(bound[n]):  # available
                current.append(n)
                local_def.add(n)
                for m in data:
                    if nf.get(m, NORMAL) == NORMAL:
                        current_use[m] = current_use.get(m, 0) + 1
                    else:
                        inner_use[m] = inner_use.get(m, 0) + 1
                for m in data | eff:
                    if nf.get(m, NORMAL) > COLD:
                        reachable_hot.add(m)
            else:
                inner.add(n)
                for m in data:
                    inner_use[m] = inner_use.get(m, 0) + 1
                if n in reachable_hot:
                    reachable_hot |= data | eff
            reachable_hard |= data | scope.intersection(dv.hard_of(n))
        for m in data | eff:
            push(m)

    current.reverse()  # popped consumers-first; emission is producers-first

    if not opts.compact:
        return Block([_traverse(dv, inner, path, frozenset(), n, opts)
                      for n in current], res)

    # compact traversal: local successors, then the backward inline check
    succ: dict = {}
    for c in current:
        for m in local_def.intersection(dv.both_of(c)):
            succ.setdefault(m, set()).add(c)

    # the emitter prints a cond's predicate and the names a lambda's
    # annotations mention by name, so they stay leaves
    named = set()
    for n in current:
        node = dv.node[n]
        if node.op == "cond":
            named.add(dv.index_of(node.args[0]))
        elif node.op == "lam":
            named.update(map(dv.index_of, node.args))
    should_inline = {n for n in local_def
                     if current_use.get(n, 0) == 1
                     and inner_use.get(n, 0) == 0
                     and dv.node[n].op not in ("lam", "loop", "cond")
                     and n not in named}
    seen: set = set()

    def check_inline(n: int):
        if n in should_inline and all(s in seen for s in succ.get(n, ())):
            process_here(n)
        else:
            should_inline.discard(n)

    def process_here(n: int):
        seen.add(n)
        for s in reversed(sorted(local_def.intersection(dv.data_of(n)),
                                 key=rank.__getitem__)):
            check_inline(s)

    check_inline(ri)
    for n in reversed(current):
        if n not in should_inline:
            process_here(n)

    inlined = frozenset(dv.names[i] for i in should_inline)
    trees = [_traverse(dv, inner, path, inlined, n, opts)
             for n in current if n not in should_inline]
    tail = _as_exp(dv, inlined, res, opts) if ri in should_inline else res
    return Block(trees, tail)


def _as_exp(dv: _Deps, inlined: frozenset, name: Name,
            opts: SchedOpts) -> Exp:
    def build(m: Name) -> Exp:
        sub = dv.sg.nodes[m]
        args = tuple(build(a) if a in inlined else a for a in sub.args)
        return Exp(sub.op, args, sub.lit)

    expr = build(name)
    for mname in opts.matchers:
        expr = MATCHERS[mname](expr)
    return expr


def _traverse(dv: _Deps, inner: set, path: set, inlined: frozenset,
              n: int, opts: SchedOpts):
    node = dv.node[n]
    if node.op in ("lam", "loop"):
        body = schedule_block(dv, inner,
                              path | {n} | set(dv.params_of[n]),
                              node.body_res[0], opts)
        return Scope((node.op, node.sym, node), body.trees, body.tail)
    if node.op == "cond":
        branches = []
        for tag, r in zip(("then", "else"), node.body_res):
            blk = schedule_block(dv, inner, path, r, opts)
            branches.append(Scope((tag, node.sym, node), blk.trees,
                                  blk.tail))
        return Scope(("cond", node.sym, node), branches, None)
    return Leaf(node.sym, _as_exp(dv, inlined, node.sym, opts))


def schedule(sg: SGraph, freq: bool = False, compact: bool = False,
             matchers: tuple = ()) -> Block:
    """Schedule a whole graph into a scoped block."""
    opts = SchedOpts(freq, compact, tuple(matchers))
    dv = _Deps(sg)
    return schedule_block(dv, set(range(dv.nnodes)), set(), sg.result, opts)


# ---------------------------------------------------------------------------
# Tree matchers (instruction selection payload)
# ---------------------------------------------------------------------------

def match_gemm(e: Exp) -> Exp:
    """Add(C, Matmul(A, B)) -> Gemm(A, B, C, 1.0, 1.0) (in-place update)."""
    args = tuple(match_gemm(a) if isinstance(a, Exp) else a for a in e.args)
    e = Exp(e.op, args, e.lit)
    if (e.op == "op:add" and len(args) == 2
            and isinstance(args[1], Exp) and args[1].op == "op:matmul"
            and len(args[1].args) == 2):
        a, b = args[1].args
        return Exp("op:gemm", (a, b, args[0]), (1.0, 1.0))
    return e


def match_addmul(e: Exp) -> Exp:
    """add(a, mul(b, c)) -> muladd(b, c, a) for scalar integer ops."""
    args = tuple(match_addmul(a) if isinstance(a, Exp) else a
                 for a in e.args)
    e = Exp(e.op, args, e.lit)
    if (e.op == "op:iadd" and len(args) == 2
            and isinstance(args[1], Exp) and args[1].op == "op:imul"):
        b, c = args[1].args
        return Exp("op:muladd", (b, c, args[0]), None)
    return e


MATCHERS = {"gemm": match_gemm, "addmul": match_addmul}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _exp_text(e, atom: bool = False) -> str:
    if isinstance(e, Name):
        return e.pretty()
    if e.op == "cst":
        return const_text(e.lit)
    if e.op == "app":
        f, a = (_exp_text(x, True) for x in e.args)
        s = f"{f} {a}"
        return f"({s})" if atom else s
    if e.op == "ref":
        c, i = (_exp_text(x) for x in e.args)
        return f"ref({c}, {i})"
    if e.op == "deref":
        return f"!{_exp_text(e.args[0], True)}"
    if e.op == "assign":
        r, v = (_exp_text(x, True) for x in e.args)
        s = f"{r} := {v}"
        return f"({s})" if atom else s
    if e.op.startswith("op:"):
        parts = [_exp_text(x) for x in e.args]
        if e.lit is not None:
            parts += [str(v) for v in (
                e.lit if isinstance(e.lit, tuple) else (e.lit,))]
        return f"{e.op[3:]}({', '.join(parts)})"
    raise TypeError(e)


def emit(block: Block, indent: int = 0) -> str:
    """Deterministic nested-let text: one binding per leaf, two-space
    indentation per scope; calculus nodes emit parseable surface syntax."""
    pad = "  " * indent
    lines = []
    for t in block.trees:
        if isinstance(t, Leaf):
            lines.append(f"{pad}let {t.name.pretty()} = "
                         f"{_exp_text(t.expr)} in")
        else:
            kind, sym, node = t.binder
            if kind == "lam":
                param_qt, latent = node.lit or ("Int^{}", "rd{} wr{}")
                head = (f"{pad}let {sym.pretty()} = fun "
                        f"({node.params[0].pretty()}: {param_qt}) "
                        f"=>{{{latent}}} (")
                lines.append(head)
                lines.append(emit(Block(t.children, t.result), indent + 1))
                lines.append(f"{pad}) in")
            elif kind == "loop":
                lines.append(f"{pad}let {sym.pretty()} = loop (")
                lines.append(emit(Block(t.children, t.result), indent + 1))
                lines.append(f"{pad}) in")
            elif kind == "cond":
                then_s, else_s = t.children
                lines.append(f"{pad}let {sym.pretty()} = if "
                             f"{node.args[0].pretty()} then (")
                lines.append(emit(Block(then_s.children, then_s.result),
                                  indent + 1))
                lines.append(f"{pad}) else (")
                lines.append(emit(Block(else_s.children, else_s.result),
                                  indent + 1))
                lines.append(f"{pad}) in")
            else:
                raise TypeError(t.binder)
    tail = block.tail
    lines.append(f"{pad}{_exp_text(tail)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------

def synthetic_graph(n: int, depth: int = 8, seed: int = 0) -> SGraph:
    """Random generic-op DAG with nested lambda-like scopes (nesting depth
    at most `depth`), n nodes, dense consecutive ids."""
    rng = random.Random(seed)
    supply = NameSupply(1)
    nodes: dict = {}
    # stack of open scopes: (scope node name, param, members)
    stack: list = [(None, None, [])]

    def close_scope():
        sym, param, members = stack.pop()
        res = members[-1] if members else param
        nodes[sym] = SNode(sym, "lam", (),
                           params=(param,), body_res=(res,))
        stack[-1][2].append(sym)

    made = 0
    while made < n:
        r = rng.random()
        if r < 0.04 and len(stack) < depth and made < n - 1:
            sym = supply.var("f")
            param = supply.var("x")
            stack.append((sym, param, []))
            made += 1
            continue
        if r < 0.06 and len(stack) > 1:
            close_scope()
            continue
        sym = supply.var("n")
        pool = []
        for _, param, members in stack:
            if param is not None:
                pool.append(param)
            pool.extend(members[-6:])
        k = min(len(pool), rng.randint(1, 3))
        args = tuple(rng.sample(pool, k)) if k else ()
        members = stack[-1][2]
        if members and rng.random() < 0.15:
            nodes[sym] = SNode(sym, "op:gen", args,
                               (rng.choice(members[-4:]),))
        else:
            nodes[sym] = SNode(sym, "op:gen", args)
        stack[-1][2].append(sym)
        made += 1
    while len(stack) > 1:
        close_scope()
    res = stack[0][2][-1]
    return SGraph(nodes, res)


def time_schedule(n: int, depth: int = 8, seed: int = 0,
                  freq: bool = False, repeat: int = 5) -> float:
    """Best wall time over `repeat` runs of scheduling a synthetic
    n-node graph (minimum filters out allocator and cache noise)."""
    sg = synthetic_graph(n, depth, seed)
    times = []
    gc_was_on = gc.isenabled()
    try:
        gc.disable()
        schedule(sg, freq=freq)  # warm up code paths
        for _ in range(repeat):
            t0 = time.perf_counter()
            schedule(sg, freq=freq)
            times.append(time.perf_counter() - t0)
    finally:
        if gc_was_on:
            gc.enable()
    return min(times)
