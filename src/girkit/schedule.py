"""Scheduling: turn dependency-annotated graphs into scoped trees and
emit nested-let text. Implements basic block scheduling with soft-dep dead
code elimination, frequency-driven code motion, compact (inlining)
traversal with pluggable tree matchers, and a synthetic benchmark mode.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from heapq import heappop, heappush

from .core import (
    CyclicDependency, GLet, GName, Name, NameSupply, NCst, NLam,
    RuntimeConfig, UnboundName, const_text, descend, effect_to_text,
    node_operator, qt_free_names, qt_to_text, rename_effect, rename_qt, spine,
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


@dataclass(slots=True)
class Exp:
    op: str
    args: tuple = ()              # Name or nested Exp
    lit: object = None


@dataclass(slots=True)
class Leaf:
    name: Name
    expr: Exp


@dataclass(slots=True)
class Block:
    trees: list
    tail: object                  # Name, or an Exp when the result inlines


@dataclass(slots=True)
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

    def go(g):
        """Flatten a block: a walk (see `core.descend`) whose result is its
        (resolved) result symbol."""
        lets, g = spine(g)
        for u in lets:
            var, b, d = u.var, u.binding, u.dep
            if isinstance(b, GName):
                env[var] = resolve(b.name)
            elif isinstance(b, GLet):
                env[var] = yield go(b)
            else:
                hard, soft = dep_targets(d)
                if isinstance(b, NCst):
                    nodes[var] = SNode(var, "cst", (), hard, soft,
                                       lit=b.value)
                elif isinstance(b, NLam):
                    r = yield go(b.body)
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

    res = descend(go(g))
    return SGraph(nodes, res)


def flatten_config(cfg: RuntimeConfig) -> SGraph:
    return flatten(cfg.graph)


# ---------------------------------------------------------------------------
# Dependency accessors
# ---------------------------------------------------------------------------

_NO_FREQ: dict = {}


class _Deps:
    """Precomputed dependency views over one graph, on dense integer ids:
    nodes are 0..nnodes-1 in table order, lambda parameters follow. Per
    node i, as tuples of node ids:
    - `args[i]`, kept only for compaction (`operands`): one id per data
      operand, in order (-1 for a name outside the table);
    - `data[i]`: the distinct data targets, operands then scope results;
    - `hard[i]`: the distinct hard effect targets;
    - `both[i]`: the data targets, then the hard effect targets, then the
      soft ones that are not hard; a target may repeat.
    Also: per-edge frequencies, a consumers-first topological `order` with
    `rank` its inverse, the transitive bound-variable requirements
    `bound`, and `low`, the shallowest home of a node at or below each
    node (see `_homes`)."""

    def __init__(self, sg: SGraph, operands: bool = False):
        names = list(sg.nodes)
        nodes = self.node = list(sg.nodes.values())
        nn = self.nnodes = len(names)
        for node in nodes:
            names.extend(node.params)
        self.names = names
        idx = self._idx = {n: i for i, n in enumerate(names)}

        args = self.args = [()] * nn
        data_of = self.data = [()] * nn
        hard_of = self.hard = [()] * nn
        both = self.both = [()] * nn
        freq = self.freq = [_NO_FREQ] * nn
        params_of = self.params_of = [()] * nn
        param_args = self._param_args = [()] * nn
        soft_in = self._soft_in = set()  # targets of soft-only edges
        for i, node in enumerate(nodes):
            ids = tuple([idx.get(a, -1) for a in node.args])
            if operands:
                args[i] = ids
            data = set()
            pa = []                 # enclosing lambdas' parameters
            for j in ids:
                if j >= nn:
                    pa.append(j)
                elif j >= 0:
                    data.add(j)
            for a in node.body_res:
                if 0 <= (j := idx.get(a, -1)) < nn:
                    data.add(j)
                elif j >= nn:       # a scope whose result is a parameter
                    pa.append(j)
            data = tuple(data)
            data = data_of[i] = both[i] = ids if data == ids else data
            if node.hard or node.soft:
                hard = set()
                for h in node.hard:
                    if (j := idx.get(h, -1)) >= nn:
                        pa.append(j)
                    elif j >= 0:
                        hard.add(j)
                hard_of[i] = tuple(hard)
                soft = tuple([j for x in node.soft
                              if 0 <= (j := idx.get(x, -1)) < nn
                              and j not in hard])
                both[i] = data + hard_of[i] + soft
                soft_in.update(soft)
            if node.params:
                params_of[i] = tuple(idx[p] for p in node.params)
            if pa:
                param_args[i] = tuple(pa)
            # store only the non-default frequencies (scope-result edges)
            if node.op in ("lam", "loop"):
                freq[i] = {j: HOT for m in node.body_res
                           if 0 <= (j := idx.get(m, -1)) < nn}
            elif node.op == "cond":
                argset = set(node.args)
                freq[i] = {j: COLD for m in node.body_res
                           if 0 <= (j := idx.get(m, -1)) < nn
                           and m not in argset}
        self._topo_rank()
        self.bound = self._bound_deps()
        self.low = self._homes()

    def index_of(self, n: Name) -> int:
        """Dense index of a node or parameter name, -1 if absent."""
        return self._idx.get(n, -1)

    def _topo_rank(self):
        """Order every consumer before its dependencies; rank[i] is i's
        position in that order."""
        nn, both = self.nnodes, self.both
        indeg = [0] * nn
        for targets in both:
            for m in targets:
                indeg[m] += 1
        order = [i for i in range(nn) if indeg[i] == 0]
        for i in order:             # a queue: appended to while read
            for m in both[i]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    order.append(m)
        if len(order) != nn:
            cyc = sorted(self.names[i] for i in range(nn) if indeg[i] > 0)
            raise CyclicDependency(
                f"dependency cycle through {cyc[:5]!r}", nodes=cyc)
        self.order = order
        rank = self.rank = [0] * nn
        for r, i in enumerate(order):
            rank[i] = r

    def _bound_deps(self) -> list:
        """Transitive bound-variable requirements, producers first. Also
        lists, in that order, the binders that have requirements
        (`_binders`) and the nodes that have some and whose targets all
        have some (`_closed`), for `_homes`."""
        bound = [()] * self.nnodes
        binders, closed = self._binders, self._closed = [], []
        both = self.both
        for i in reversed(self.order):
            parts = [b for m in both[i] if (b := bound[m])]
            pa = self._param_args[i]
            if not parts and not pa:
                continue
            acc = set(pa)
            acc.update(*parts)
            if self.params_of[i]:
                acc.difference_update(self.params_of[i])
                if not acc:
                    continue
                binders.append(i)
                bound[i] = tuple(acc)
            elif parts and len(parts[0]) == len(acc):
                bound[i] = parts[0]   # it holds every requirement: share it
            else:
                bound[i] = tuple(acc)
            if len(parts) == len(both[i]):
                closed.append(i)
        return bound

    def _homes(self) -> list:
        """Per node, the shallowest home depth of a node at or below it.
        A node's home depth is that of the deepest parameter it needs (0
        if none), and a parameter's is one more than its binder's. Every
        parameter bound at a block of nesting depth d (lam and loop
        bodies count, cond branches do not) has depth at most d, so a
        node with home depth above d cannot be placed there.

        Binders come before the nodes that need their parameters in
        `order`, so one pass over the binders sets every parameter's
        depth; a binder that its enclosing binder does not reach may read
        a depth before it is set (it starts at 1), which only weakens the
        bound. A node with a target that needs no parameter is at 0, so
        the second pass visits only `_closed` nodes."""
        bound, params_of, nn = self.bound, self.params_of, self.nnodes
        low = [0] * nn + [1] * (len(self.names) - nn)  # then parameters
        at = low.__getitem__
        for i in reversed(self._binders):
            h = max(map(at, bound[i]))
            for p in params_of[i]:
                low[p] = h + 1
        both = self.both
        for i in self._closed:
            if not (t := both[i]):
                low[i] = max(map(at, bound[i]))
            elif below := min(map(at, t)):
                low[i] = min(below, max(map(at, bound[i])))
        return low

    def soft_reach(self):
        """Per node, whether it or a node below it is the target of a
        soft-only edge, the one way a node can turn hot without the node
        that heats it reaching it; None when the graph has no such
        edge."""
        if not self._soft_in:
            return None
        reach = bytearray(self.nnodes)
        for i in self._soft_in:
            reach[i] = 1
        both = self.both
        for i in reversed(self.order):
            if not reach[i] and any(reach[m] for m in both[i]):
                reach[i] = 1
        return reach


# ---------------------------------------------------------------------------
# Block scheduling (basic + soft-dep DCE + frequency + compact)
# ---------------------------------------------------------------------------

def _place(dv: _Deps, held: bytearray, path: set, ri: int, depth: int,
           freq_on: bool, soft) -> list:
    """The nodes that the block with result index `ri`, at nesting depth
    `depth` under the parameters `path`, places, producers first: those
    its result reaches on data and hard effect edges that no enclosing
    block holds, whose parameters are all bound here and, under `freq`,
    that are hot. What only soft edges reach is dead. The heap holds
    ranks (`order` maps one back to its node), so each node is classified
    after every consumer of it.

    The walk goes on only below a node under which it may still find one
    to place. It stops at an unavailable node whose `low` exceeds
    `depth`. Under `freq` it stops at a node that is not hot when popped,
    as that node is placed elsewhere and heats nothing: what a hot node
    heats on a data or hard edge it also queues, so only the nodes that
    `soft` marks are still walked below it."""
    data_of, hard_of, both = dv.data, dv.hard, dv.both
    freq, bound, low = dv.freq, dv.bound, dv.low
    rank, order = dv.rank, dv.order
    pq = [rank[ri]]
    queued = {ri}
    hot = {ri}
    current: list = []
    while pq:
        n = order[heappop(pq)]
        if freq_on and n not in hot:
            if soft is None or low[n] > depth:
                continue
            targets = [m for m in data_of[n] + hard_of[n] if soft[m]]
        elif path.issuperset(bound[n]):
            current.append(n)  # available here
            targets = data_of[n] + hard_of[n]
            if freq_on:
                nf = freq[n]
                hot.update([m for m in both[n] if nf.get(m, NORMAL) > COLD]
                           if nf else both[n])
        elif low[n] > depth:
            continue
        else:
            targets = data_of[n] + hard_of[n]
            if freq_on:
                hot.update(both[n])
        for m in targets:
            if m not in queued and not held[m]:
                queued.add(m)
                heappush(pq, rank[m])
    current.reverse()  # visited consumers-first; emission is producers-first
    return current


def _inlined(dv: _Deps, current: list, ri: int, held: bytearray,
             deeper: bytearray) -> set:
    """The nodes of a block (placed in the order `current`, result `ri`)
    that compaction folds into their only consumer. A candidate has one
    data use by a node of this block, on an ordinary edge (the result
    counts as one), none by a node of a block inside this one, and is not
    printed by name. It stays one only if every local successor, effect
    successors included, is seen before it in a depth-first check from
    the result, then from each kept node in reverse emission order, that
    checks a node's operands in descending rank, each one's subtree
    first.

    Blocks close inside out, and a closing block no longer holds its own
    nodes, so the nodes it uses that `held` still marks are those of
    enclosing blocks: it marks them in `deeper`, which each block reads
    and clears for its own nodes when it closes."""
    data = dv.data
    here: dict = {ri: 1}
    elsewhere: set = set()        # used as a scope result
    # the emitter prints a cond's predicate and the names a lambda's
    # annotations mention by name, so they stay leaves
    named: set = set()
    for n in current:
        nf = dv.freq[n]
        for m in data[n]:
            if held[m]:
                deeper[m] = 1
            elif nf.get(m, NORMAL) == NORMAL:
                here[m] = here.get(m, 0) + 1
            else:
                elsewhere.add(m)
        op = dv.node[n].op
        if op == "cond":
            named.add(dv.args[n][0])
        elif op == "lam":
            named.update(dv.args[n])
    inline = {n for n in current
              if here.get(n) == 1 and not deeper[n] and n not in elsewhere
              and n not in named
              and dv.node[n].op not in ("lam", "loop", "cond")}
    for n in current:
        deeper[n] = 0

    # a candidate is checked only once its one data consumer is seen, so
    # only its consumers on effect edges can be unseen then
    succ: dict = {}               # candidate -> those consumers here
    for c in current:
        if (both := dv.both[c]) is not data[c]:
            for m in inline.intersection(both[len(data[c]):]):
                succ.setdefault(m, set()).add(c)

    # a node that is not a candidate when its consumer is checked is never
    # one later (candidates are only dropped), so only candidates are queued
    rank = dv.rank.__getitem__
    seen: set = set()

    def check(todo: list):
        while todo:
            n = todo.pop()
            if n in inline and seen.issuperset(succ.get(n, ())):
                seen.add(n)
                if ops := inline.intersection(data[n]):
                    todo.extend(sorted(ops, key=rank))
            else:
                inline.discard(n)

    check([ri])
    for n in reversed(current):
        if n not in inline:
            seen.add(n)
            if ops := inline.intersection(data[n]):
                check(sorted(ops, key=rank))
    return inline


def _build(dv: _Deps, current: list, ri: int, res, scopes: dict,
           inlined: set, matchers: list) -> Block:
    """The trees of a block, producers first, so that an inlined operand
    is built before its consumer; `scopes` holds the `Scope` of each
    lam, loop and cond node."""
    trees: list = []
    built: dict = {}
    for n in current:
        if n in scopes:
            trees.append(scopes[n])
            continue
        node = dv.node[n]
        args = node.args
        if inlined and not inlined.isdisjoint(ids := dv.args[n]):
            args = tuple([built[k] if k in inlined else a
                          for a, k in zip(args, ids)])
        e = Exp(node.op, args, node.lit)
        for match in matchers:
            e = match(e)
        if n in inlined:
            built[n] = e
        else:
            trees.append(Leaf(node.sym, e))
    return Block(trees, built[ri] if ri in inlined else res)


def schedule(sg: SGraph, freq: bool = False, compact: bool = False,
             matchers: tuple = ()) -> Block:
    """Schedule a whole graph into a scoped block, depth first from a
    worklist. A block opens when the node that binds it is placed: it
    places its nodes (`_place`), then holds them and binds its binder's
    parameters while the blocks inside it run. It closes once they have
    all closed: it releases its nodes and parameters and builds its
    trees. So a block walks only nodes that no enclosing block places,
    and sibling blocks never see each other's. A block result that needs
    a parameter no enclosing binder binds could be placed nowhere, so it
    raises UnboundName naming that parameter."""
    dv = _Deps(sg, compact)
    soft = dv.soft_reach() if freq else None
    matchers = [MATCHERS[m] for m in matchers]
    nn = dv.nnodes
    held = bytearray(nn)
    deeper = bytearray(nn) if compact else None
    path: set = set()
    top = Scope(None, [])
    # (result, nesting depth, parameters bound, Scope to fill, and once
    # the block is open, its nodes and their Scopes)
    todo: list = [(sg.result, 0, (), top, None)]
    while todo:
        res, depth, params, out, placed = todo.pop()
        ri = dv.index_of(res)
        if placed is None:
            if not 0 <= ri < nn or held[ri]:
                out.result = res  # a bound variable, location or outer node
                continue
            path.update(params)
            unbound = [p for p in dv.bound[ri] if p not in path]
            if unbound:
                x = dv.names[unbound[0]]
                raise UnboundName(
                    f"result {res!r} needs parameter {x!r}, which no "
                    f"enclosing binder binds", name=x)
            current = _place(dv, held, path, ri, depth, freq, soft)
            scopes: dict = {}
            todo.append((res, depth, params, out, (current, scopes)))
            for n in current:
                held[n] = 1
                node = dv.node[n]
                if node.op in ("lam", "loop"):
                    scopes[n] = body = Scope((node.op, node.sym, node), [])
                    todo.append((node.body_res[0], depth + 1,
                                 dv.params_of[n], body, None))
                elif node.op == "cond":
                    branches = []
                    for tag, r in zip(("then", "else"), node.body_res):
                        branches.append(body := Scope((tag, node.sym, node),
                                                      []))
                        todo.append((r, depth, (), body, None))
                    scopes[n] = Scope(("cond", node.sym, node), branches)
            continue
        current, scopes = placed
        for n in current:
            held[n] = 0
        path.difference_update(params)
        inlined = (_inlined(dv, current, ri, held, deeper) if compact
                   else set())
        blk = _build(dv, current, ri, res, scopes, inlined, matchers)
        out.children, out.result = blk.trees, blk.tail
    return Block(top.children, top.result)


# ---------------------------------------------------------------------------
# Tree matchers (instruction selection payload)
# ---------------------------------------------------------------------------

# A matcher rewrites one node whose operands are already matched, and
# returns its argument when it does not fire. The scheduler applies the
# matchers at each expression node, operands first, in the order given:
# none reads an operator another writes, so this equals running each over
# a whole tree in turn.

def match_gemm(e: Exp) -> Exp:
    """Add(C, Matmul(A, B)) -> Gemm(A, B, C, 1.0, 1.0) (in-place update)."""
    args = e.args
    if (e.op == "op:add" and len(args) == 2
            and isinstance(args[1], Exp) and args[1].op == "op:matmul"
            and len(args[1].args) == 2):
        a, b = args[1].args
        return Exp("op:gemm", (a, b, args[0]), (1.0, 1.0))
    return e


def match_addmul(e: Exp) -> Exp:
    """add(a, mul(b, c)) -> muladd(b, c, a) for scalar integer ops."""
    args = e.args
    if (e.op == "op:iadd" and len(args) == 2
            and isinstance(args[1], Exp) and args[1].op == "op:imul"):
        b, c = args[1].args
        return Exp("op:muladd", (b, c, args[0]), None)
    return e


MATCHERS = {"gemm": match_gemm, "addmul": match_addmul}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_FORMS = {"app": "{} {}", "ref": "ref({}, {})", "deref": "!{}",
          "assign": "{} := {}"}


def _node_text(x: Exp, args: list) -> str:
    """Surface text of expression node `x` given its operands' texts."""
    op = x.op
    if op.startswith("op:"):
        if x.lit is not None:
            args += [str(v) for v in (
                x.lit if isinstance(x.lit, tuple) else (x.lit,))]
        return f"{op[3:]}({', '.join(args)})"
    if op == "cst":
        return const_text(x.lit)
    if op in _FORMS:
        return _FORMS[op].format(*args)
    raise TypeError(x)


def _exp_text(e) -> str:
    """Surface text of an operand or expression, built without recursion
    so that any depth prints: the expression nodes are listed in preorder,
    then printed in reverse, each taking its operands' texts off a stack."""
    if isinstance(e, Name):
        return e.pretty()
    for a in e.args:
        if isinstance(a, Exp):
            break
    else:                         # no operand is an expression
        return _node_text(e, [a.pretty() for a in e.args])
    nodes = []
    todo = [e]
    while todo:
        x = todo.pop()
        nodes.append(x)
        for a in reversed(x.args):
            if isinstance(a, Exp):
                todo.append(a)
    done: list = []               # texts of printed nodes not yet used
    for x in reversed(nodes):
        # the operands of an application, read or write print as atoms
        atom = x.op in ("app", "deref", "assign")
        args = []
        for a in x.args:
            if isinstance(a, Name):
                args.append(a.pretty())
            elif atom and a.op in ("app", "assign"):
                args.append(f"({done.pop()})")
            else:
                args.append(done.pop())
        done.append(_node_text(x, args))
    return done[0]


def emit(block: Block) -> str:
    """Deterministic nested-let text: one binding per leaf, two-space
    indentation per scope; calculus nodes emit parseable surface syntax.
    A block waits on an explicit stack, with an iterator at the tree to
    resume from, while the scopes inside it print, so any depth prints."""
    lines = []
    todo: list = [(iter(block.trees), block.tail, "")]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        trees, tail, pad = item
        for t in trees:
            if isinstance(t, Leaf):
                lines.append(f"{pad}let {t.name.pretty()} = "
                             f"{_exp_text(t.expr)} in")
                continue
            kind, sym, node = t.binder
            inner = pad + "  "
            todo += [item, f"{pad}) in"]  # this block resumes after `t`
            if kind == "lam":
                param_qt, latent = node.lit or ("Int^{}", "rd{} wr{}")
                lines.append(f"{pad}let {sym.pretty()} = fun "
                             f"({node.params[0].pretty()}: {param_qt}) "
                             f"=>{{{latent}}} (")
                todo.append((iter(t.children), t.result, inner))
            elif kind == "loop":
                lines.append(f"{pad}let {sym.pretty()} = loop (")
                todo.append((iter(t.children), t.result, inner))
            elif kind == "cond":
                then_s, else_s = t.children
                lines.append(f"{pad}let {sym.pretty()} = if "
                             f"{node.args[0].pretty()} then (")
                todo += [(iter(else_s.children), else_s.result, inner),
                         f"{pad}) else (",
                         (iter(then_s.children), then_s.result, inner)]
            else:
                raise TypeError(t.binder)
            break
        else:
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
                  freq: bool = False, compact: bool = False,
                  matchers: tuple = (), repeat: int = 5) -> float:
    """Best wall time over `repeat` runs of scheduling a synthetic
    n-node graph (minimum filters out allocator and cache noise)."""
    sg = synthetic_graph(n, depth, seed)
    times = []
    gc_was_on = gc.isenabled()
    try:
        gc.disable()
        schedule(sg, freq, compact, matchers)  # warm up code paths
        for _ in range(repeat):
            t0 = time.perf_counter()
            schedule(sg, freq, compact, matchers)
            times.append(time.perf_counter() - t0)
    finally:
        if gc_was_on:
            gc.enable()
    return min(times)
