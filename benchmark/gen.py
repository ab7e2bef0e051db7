"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its `random.Random` and size
arguments. The source generators (`chain_program`, `opt_program`) track
the content of every cell while they write the program, so each program
carries its expected result: the canonical value (as
`girkit.interp.canonical_value` shapes it) that any correct compilation
of the program must evaluate to. That reference comes from the generator,
never from the code under test.

This module imports nothing from girkit except in `sched_graph`, which
builds girkit's own scheduling structures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

INT = "Int^{}"

# ---------------------------------------------------------------------------
# What each workload generates, per round
# ---------------------------------------------------------------------------

REGIMES = ("hard", "rw")
OPT_PASSES = ("dce", "comm", "hoist", "inline", "cse")
FUZZ_CHECKS = ("translation", "synthesis", "deps", "differential")

# chain: (source lets, returns a cell) per program. Sizes run from ~50
# bindings to past the parser's recursion ceiling (~490), and one program
# returns a cell it wrote. Program i allocates 4 + i % 5 cells. The
# median op falls among the four ops of the two 130-let programs, not on
# the edge between two sizes, where it would jump with noise.
CHAIN_SLOTS = ((50, False), (60, False), (75, False), (90, False),
               (110, False), (130, False), (130, False), (160, True),
               (250, False), (320, False), (420, False), (600, False))
OPT_PROGRAMS = 6
FUZZ_SEEDS = 512
FUZZ_CORPUS = 256   # testkit seeds scheduled for fuzz's size metrics
SCHED_GRAPHS = 8
SCHED_NODES = 20_000

ROUND_OPS = {
    "chain": len(CHAIN_SLOTS) * len(REGIMES),
    "opt": OPT_PROGRAMS * (len(OPT_PASSES) + 1),
    "fuzz": FUZZ_SEEDS * len(FUZZ_CHECKS),
    "sched": SCHED_GRAPHS,
}


@dataclass(frozen=True)
class Program:
    """One generated source program and its reference result."""

    name: str
    text: str
    lets: int            # source `let` bindings
    expected: tuple      # canonical value of the program's result


class _Writer:
    """Straight-line program text plus the cell contents it implies.

    A program's shape does not depend on the seed: cells are visited in a
    fixed rotation, and every other Int operand is the variable bound
    last. The seed draws every constant."""

    def __init__(self, rng: random.Random, ncells: int):
        self.rng = rng
        self.lines: list = []
        self.cells: list = []
        self.ints: dict = {}        # Int-typed variable -> its value
        self.last_int = None        # the Int variable bound last
        self.lets = 0
        self.serial = 0
        self.turn = 0
        self.operands = 0
        for c in range(ncells):
            init = rng.randrange(10)
            self.cells.append(init)
            self.let(f"r{c}", f"ref(w, {init})")

    def let(self, var: str, rhs: str):
        self.lines.append(f"let {var} = {rhs} in")
        self.lets += 1

    def fresh(self, base: str) -> str:
        self.serial += 1
        return f"{base}{self.serial}"

    def bind_int(self, var: str, value: int):
        self.ints[var] = value
        self.last_int = var

    def cell(self) -> int:
        """The next cell of the rotation; its phase shifts every round."""
        n = len(self.cells)
        self.turn += 1
        return (self.turn + self.turn // n) % n

    def int_arg(self) -> tuple:
        """An Int operand: alternately a fresh literal and the variable
        bound last."""
        self.operands += 1
        if self.last_int is not None and self.operands % 2:
            return self.last_int, self.ints[self.last_int]
        v = self.rng.randrange(10, 1000)
        return str(v), v

    # -- blocks ------------------------------------------------------------

    def write(self, c: int | None = None):
        c = self.cell() if c is None else c
        arg, v = self.int_arg()
        self.let(self.fresh("u"), f"r{c} := {arg}")
        self.cells[c] = v

    def read(self, c: int | None = None) -> str:
        c = self.cell() if c is None else c
        x = self.fresh("x")
        self.let(x, f"!r{c}")
        self.bind_int(x, self.cells[c])
        return x

    def reader_closure(self):
        """A closure that reads a captured cell, applied once."""
        c = self.cell()
        f = self.fresh("f")
        self.let(f, f"fun (p: {INT}) =>{{rd{{r{c}}} wr{{}}}} !r{c}")
        y = self.fresh("y")
        self.let(y, f"{f} {self.rng.randrange(100)}")
        self.bind_int(y, self.cells[c])

    def writer_closure(self):
        """A closure that writes its argument into a captured cell,
        applied once."""
        c = self.cell()
        f = self.fresh("f")
        self.let(f, f"fun (p: {INT}) =>{{rd{{}} wr{{r{c}}}}} r{c} := p")
        arg, v = self.int_arg()
        self.let(self.fresh("y"), f"{f} {arg}")
        self.cells[c] = v

    def finish(self, name: str, return_cell: bool) -> Program:
        if return_cell:
            c = self.cell()
            v = self.rng.randrange(10, 1000)   # never a cell's initial value
            self.let(self.fresh("u"), f"r{c} := {v}")
            self.cells[c] = v
            tail = f"r{c}"
            expected = ("ref", ("cst", "Int", self.cells[c]))
        else:
            tail = "!r0"
            expected = ("cst", "Int", self.cells[0])
        text = "\n".join(self.lines + [tail]) + "\n"
        return Program(name, text, self.lets, expected)


def chain_program(rng: random.Random, lets: int, cells: int,
                  return_cell: bool, name: str = "chain") -> Program:
    """A straight-line program of about `lets` source bindings: `cells`
    cells, then blocks of writes, reads and applied closures that read or
    write a captured cell, in a fixed cycle. It ends in `!r0`, or, with
    `return_cell`, in a write of a fresh value to one cell and that
    cell."""
    w = _Writer(rng, cells)
    blocks = (w.write, w.read, w.reader_closure, w.write, w.writer_closure,
              w.read)
    while w.lets < lets:
        blocks[w.turn % len(blocks)]()
    return w.finish(name, return_cell)


# ---------------------------------------------------------------------------
# Templated programs for the optimizer
# ---------------------------------------------------------------------------

def _dead_constant(w: _Writer):
    """dce: a constant nothing uses."""
    w.let(w.fresh("d"), str(w.rng.randrange(100)))


def _independent_writes(w: _Writer):
    """comm: two adjacent writes to different cells."""
    w.write()
    w.write()   # the rotation gives the next, different cell


def _hoistable_lambda(w: _Writer):
    """hoist: a lambda whose body starts with a pure, parameter-free
    binding, applied once."""
    c = w.cell()
    f, k = w.fresh("f"), w.fresh("k")
    w.let(f, f"fun (p: {INT}) =>{{rd{{}} wr{{r{c}}}}} "
             f"let {k} = {w.rng.randrange(100)} in r{c} := p")
    arg, v = w.int_arg()
    w.let(w.fresh("y"), f"{f} {arg}")
    w.cells[c] = v


def _inlinable_call(w: _Writer):
    """inline: a single-use local lambda applied to a local constant; the
    result is stored so a wrong inlining changes the program's value."""
    g, k, y = w.fresh("g"), w.fresh("k"), w.fresh("y")
    v = w.rng.randrange(100)
    w.let(g, f"fun (p: {INT}) =>{{rd{{}} wr{{}}}} p")
    w.let(k, str(v))
    w.let(y, f"{g} {k}")
    w.bind_int(y, v)
    c = w.cell()
    w.let(w.fresh("u"), f"r{c} := {y}")
    w.cells[c] = v


def _duplicate_alias(w: _Writer):
    """cse: `let a = x in let b = x`, with `b` stored."""
    x = w.read()
    a, b = w.fresh("a"), w.fresh("b")
    w.let(a, x)
    w.let(b, x)
    c = w.cell()
    w.let(w.fresh("u"), f"r{c} := {b}")
    w.cells[c] = w.ints[x]


def _reader_closure(w: _Writer):
    w.reader_closure()


def _read_write(w: _Writer):
    w.read()
    w.write()


OPT_TEMPLATES = (_dead_constant, _independent_writes, _hoistable_lambda,
                 _inlinable_call, _duplicate_alias)


def opt_program(rng: random.Random, index: int, blocks: int = 8,
                name: str = "opt") -> Program:
    """A small program over two cells with a site for every rewrite
    rule: one block of each template, a reader closure, a read and a
    write, and more templates up to `blocks`, in an order fixed by
    `index`. It ends in `!r0`."""
    w = _Writer(rng, 2)
    chosen = list(OPT_TEMPLATES) + [_reader_closure, _read_write]
    n = len(OPT_TEMPLATES)
    while len(chosen) < blocks:
        chosen.append(OPT_TEMPLATES[(index + len(chosen)) % n])
    k = index % len(chosen)
    for block in chosen[k:] + chosen[:k]:
        block(w)
    return w.finish(name, return_cell=False)


# ---------------------------------------------------------------------------
# Scheduler graphs
# ---------------------------------------------------------------------------

class _GraphMaker:
    """Builds a girkit `SGraph` block by block. Every value a block makes
    is consumed inside that block (pending values are joined into the
    block's result), so almost every node is reachable from the result."""

    def __init__(self, rng: random.Random, snode, supply,
                 shared_predicates: bool):
        self.rng = rng
        self.snode = snode
        self.supply = supply
        self.shared_predicates = shared_predicates
        self.nodes: dict = {}

    def add(self, text: str, op: str, args=(), hard=(), lit=None,
            params=(), body_res=()):
        sym = self.supply.var(text)
        self.nodes[sym] = self.snode(sym, op, tuple(args), tuple(hard), (),
                                     lit, tuple(params), tuple(body_res))
        return sym

    def block(self, env: list, budget: int, depth: int, param=None):
        """Emit about `budget` nodes into one scope; return its result.
        `param` is the scope's bound variable, if any: every effectful
        node depends on it, as flattening pins effects inside bodies."""
        rng, add = self.rng, self.add
        pending: list = []
        made: list = []
        effect = None
        start = len(self.nodes)

        def pick(k: int) -> list:
            out = []
            for _ in range(k):
                if pending and rng.random() < 0.7:
                    out.append(pending.pop(rng.randrange(len(pending))))
                else:
                    pool = made[-8:] + env[-8:]
                    out.append(rng.choice(pool))
            return out

        def value(sym):
            pending.append(sym)
            made.append(sym)

        if param is not None:
            made.append(param)
        while len(self.nodes) - start < budget:
            r = rng.random()
            room = budget - (len(self.nodes) - start)
            if not made or r < 0.15:
                value(add("c", "cst", lit=rng.randrange(100)))
            elif r < 0.45:
                value(add("n", "op:gen", pick(rng.randint(1, 3))))
            elif r < 0.60:
                a, b, c = pick(3)
                mm = add("mm", "op:matmul", (a, b))
                value(add("s", "op:add", (c, mm)))
            elif r < 0.72:
                args = pick(1) + ([param] if param is not None else [])
                effect = add("e", "op:store", args,
                             hard=(effect,) if effect else ())
            elif depth > 0 and room > 40 and r < 0.80:
                sub = rng.randint(20, min(400, room - 10))
                p = self.supply.var("x")
                res = self.block(env + made[-8:], sub, depth - 1, p)
                f = add("f", "lam", params=(p,), body_res=(res,))
                value(add("a", "app", (f, pick(1)[0])))
            elif depth > 0 and room > 40 and r < 0.88:
                sub = rng.randint(20, min(400, room - 10))
                i = self.supply.var("i")
                res = self.block(env + made[-8:], sub, depth - 1, i)
                value(add("l", "loop", params=(i,), body_res=(res,)))
            elif depth > 0 and room > 40:
                (pred,) = pick(1)
                if self.shared_predicates:  # a later node uses it too
                    pending.append(pred)
                sub = rng.randint(10, min(200, (room - 10) // 2))
                then = self.block(env + made[-8:], sub, depth - 1)
                other = self.block(env + made[-8:], sub, depth - 1)
                value(add("k", "cond", (pred,), body_res=(then, other)))
            else:
                value(add("n", "op:gen", pick(1)))
        # join everything still unconsumed, plus the last effect
        while len(pending) > 1 or effect is not None or not pending:
            args = pending[-4:] or pick(1)
            del pending[-4:]
            pending.append(add("j", "op:join", args,
                               hard=(effect,) if effect else ()))
            effect = None
        return pending[0]


def sched_graph(rng: random.Random, nodes: int, depth: int = 4,
                shared_predicates: bool = True):
    """A scheduler input of about `nodes` nodes: nested lam/loop/cond
    scopes, hard effect chains, op:matmul/op:add pairs for the gemm
    matcher, most nodes reachable from the result. Unless
    `shared_predicates`, a cond's predicate has no other consumer, so
    compaction may inline it."""
    from girkit.core import NameSupply
    from girkit.schedule import SGraph, SNode
    b = _GraphMaker(rng, SNode, NameSupply(1), shared_predicates)
    res = b.block([], nodes, depth)
    return SGraph(b.nodes, res)
