"""The four workloads: their inputs, their ops and the independent checks
of every op's output.

An op is one unit of timed work. `chain`, `opt` and `fuzz` ops go through
the `gir` entry point in-process (`girkit.cli.main(argv)`), as a user
runs them; `sched` ops call the scheduler directly, because the CLI
cannot take a prebuilt graph. Every op of a workload runs once per round,
and every round is the same list of ops.

Checks never trust the code under test for the reference: `chain` and
`opt` outputs are re-parsed and run with `eval_store`, then compared with
the value the generator tracked; `sched` schedules go through the
well-scopedness checker below; `fuzz` ops are the testkit's own verdicts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import girkit.core as core
from girkit.core import GenerationExhausted, initial_store, term_to_text
from girkit.interp import canonical_value, eval_store
from girkit.mnf import to_mnf
from girkit.schedule import Exp, Leaf, emit, schedule
from girkit.testkit import GenConfig, gen_well_typed

from . import gen
from .gen import (CHAIN_SLOTS, FUZZ_CHECKS, FUZZ_CORPUS, FUZZ_SEEDS,
                  OPT_PASSES, OPT_PROGRAMS, REGIMES, SCHED_GRAPHS,
                  SCHED_NODES)

cli = importlib.import_module("girkit.cli")
# the parser as imported here, before any tracing wraps `cli.parse`
parse = cli.parse

FUEL = 50  # the fuel the testkit's optimizer check uses

_LET = re.compile(r"\blet\b")
_CODE = re.compile(r"\[(E\d+)\]")
_INTERNAL = re.compile(r"internal error: (\w+)")
_DIRS = re.compile(r"\S*/(?=[^/\s]+\.gir\b)")   # input paths vary per run


def _error_names() -> dict:
    names = {}
    todo = [core.GirError]
    while todo:
        cls = todo.pop()
        names[cls.code] = cls.__name__
        todo.extend(cls.__subclasses__())
    return names


_ERROR_NAMES = _error_names()


@dataclass
class Verdict:
    ok: bool
    kind: str = ""
    message: str = ""
    nodes: int = 0           # input nodes credited to a successful op
    in_bindings: int = 0     # bindings the op consumed
    out_bindings: int = 0    # bindings it emitted
    steps: int = 0           # eval_store steps (or operations) of the output


@dataclass
class Op:
    key: str                 # names the distinct input
    run: Callable            # the timed work; returns the raw output,
    #                          whose [1] is the text the op emits
    verify: Callable         # raw output -> Verdict


def run_cli(argv: list) -> tuple:
    """`gir ARGV` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def cli_failure(rc: int, stderr: str) -> Verdict:
    line = next((s for s in stderr.splitlines() if s.strip()), "")
    m = _CODE.search(line)
    if m:
        kind = f"exit {rc}: {m.group(1)} {_ERROR_NAMES.get(m.group(1), '')}"
    else:
        m = _INTERNAL.match(line)
        kind = f"exit {rc}: {m.group(1)}" if m else f"exit {rc}"
    return Verdict(False, kind.strip(), _DIRS.sub("", line)[:300])


def evaluate(text: str) -> tuple:
    """(canonical value, eval_store steps) of a source text."""
    store = initial_store()
    term = parse(text, store)
    res = eval_store(initial_store(), term)
    return canonical_value(res.store, res.value), res.steps


def check_value(text: str, expected: tuple, nodes: int,
                in_bindings: int) -> Verdict:
    try:
        got, steps = evaluate(text)
    except (core.GirError, RecursionError) as e:
        return Verdict(False, f"bad output: {type(e).__name__}",
                       str(e)[:300])
    if got != expected:
        return Verdict(False, "wrong value",
                       f"expected {expected}, got {got}")
    return Verdict(True, nodes=nodes, in_bindings=in_bindings,
                   out_bindings=len(_LET.findall(text)), steps=steps)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def chain_ops(rng: random.Random, workdir: Path) -> list:
    ops = []
    for i, (lets, ret_cell) in enumerate(CHAIN_SLOTS):
        prog = gen.chain_program(rng, lets, 4 + i % 5, ret_cell,
                                 name=f"chain{i:02d}")
        path = _write(workdir, f"{prog.name}.gir", prog.text)
        for regime in REGIMES:
            argv = ["schedule", path, "--regime", regime, "--freq",
                    "--compact"]

            def verify(raw, prog=prog):
                rc, out, err = raw
                if rc != 0:
                    return cli_failure(rc, err)
                return check_value(out, prog.expected, prog.lets,
                                   prog.lets)

            ops.append(Op(f"{prog.name}/{regime}",
                          lambda argv=argv: run_cli(argv), verify))
    return ops


def _mnf_bindings(text: str) -> int:
    from .spans import count_bindings
    store = initial_store()
    return count_bindings(to_mnf(parse(text, store), store.supply))


def program_only(raw: tuple) -> tuple:
    """`gir opt` prints a report line per rewrite site (per attempt, too,
    when the traced run logs misses) and then the program on its last
    line. Keep only the program, so that a traced and an untraced run of
    one input emit the same text."""
    rc, out, err = raw
    lines = [s for s in out.splitlines() if s.strip()]
    return rc, lines[-1] if lines else "", err


def opt_ops(rng: random.Random, workdir: Path) -> list:
    ops = []
    for i in range(OPT_PROGRAMS):
        prog = gen.opt_program(rng, i, name=f"opt{i}")
        path = _write(workdir, f"{prog.name}.gir", prog.text)
        mnf_size = []  # the input's MNF bindings, computed when first needed
        for passes in OPT_PASSES + (",".join(sorted(OPT_PASSES)),):
            argv = ["opt", path, "--passes", passes, "--fuel", str(FUEL)]

            def verify(raw, prog=prog, mnf_size=mnf_size):
                rc, out, err = raw
                if rc != 0:
                    return cli_failure(rc, err)
                if not mnf_size:
                    mnf_size.append(_mnf_bindings(prog.text))
                return check_value(out, prog.expected, prog.lets,
                                   mnf_size[0])

            ops.append(Op(f"{prog.name}/{passes}",
                          lambda argv=argv: program_only(run_cli(argv)),
                          verify))
    return ops


def fuzz_program(seed: int) -> Optional[str]:
    """The program `gir fuzz --count 1 --seed SEED` checks, as source
    text; None for a dry seed."""
    try:
        term = gen_well_typed(GenConfig(seed=seed, max_depth=6),
                              initial_store())
    except GenerationExhausted:
        return None
    return term_to_text(term)


@functools.lru_cache(maxsize=None)
def fuzz_lets(seed: int) -> int:
    """Source lets of the program `gir fuzz --seed SEED` checks."""
    text = fuzz_program(seed)
    return len(_LET.findall(text)) if text else 0


def scheduled_sizes(seed: int, workdir: Path) -> Optional[Verdict]:
    """Sizes of the testkit program of SEED once `gir schedule --freq
    --compact` emits it. None for a dry seed, or if the emitted program
    does not compute the source's value (a scheduler defect that `chain`
    counts as a failure)."""
    text = fuzz_program(seed)
    if text is None:
        return None
    lets = len(_LET.findall(text))
    path = _write(workdir, f"corpus{seed}.gir", text)
    rc, out, _ = run_cli(["schedule", path, "--freq", "--compact"])
    if rc != 0:
        return None
    v = check_value(out, evaluate(text)[0], lets, lets)
    return v if v.ok else None


def fuzz_corpus_sizes(workdir: Path) -> list:
    """`fuzz` emits no program, so its size metrics come from scheduling
    the testkit programs of seeds 0..FUZZ_CORPUS-1 after the timed run,
    whatever the workload seed. An emitted testkit program holds 0-4
    bindings, so the sizes of a run's own 512 programs spread by ~18%
    from one workload seed to the next."""
    sized = (scheduled_sizes(seed, workdir) for seed in range(FUZZ_CORPUS))
    return [v for v in sized if v is not None]


def sized_verdicts(workload: str, workdir: Path) -> Optional[Callable]:
    """The verdicts whose sizes stand in for the ops' own, as a callable
    to run after the timed work; None where the ops' own are sized."""
    if workload == "fuzz":
        return functools.partial(fuzz_corpus_sizes, workdir)
    return None


def fuzz_ops(rng: random.Random, workdir: Path) -> list:
    ops = []
    for seed in rng.sample(range(1_000_000), FUZZ_SEEDS):
        for check in FUZZ_CHECKS:
            argv = ["fuzz", "--count", "1", "--seed", str(seed),
                    "--check", check]

            def verify(raw, check=check, seed=seed):
                rc, out, err = raw
                if rc == 1 and "failure(s)" in out:
                    detail = out.strip().splitlines()[-1].strip()
                    return Verdict(False, f"fuzz {check} failed",
                                   detail[:300])
                if rc != 0:
                    return cli_failure(rc, err)
                return Verdict(True, nodes=fuzz_lets(seed))

            ops.append(Op(f"fuzz{seed}/{check}",
                          lambda argv=argv: run_cli(argv), verify))
    return ops


def sched_op(sg):
    """Schedule and emit one graph. `schedule` and `emit` are looked up
    in this module at call time, where the traced run wraps them."""
    block = schedule(sg, freq=True, compact=True, matchers=("gemm",))
    return block, emit(block)


def sched_ops(rng: random.Random, workdir: Path) -> list:
    ops = []
    for i in range(SCHED_GRAPHS):
        # one graph in each round has single-use cond predicates
        sg = gen.sched_graph(rng, SCHED_NODES, shared_predicates=i > 0)

        def verify(raw, sg=sg):
            block, _text = raw
            errors = check_schedule(sg, block)
            if errors:
                return Verdict(False, "ill-scoped schedule", errors[0])
            leaves, operations = count_output(block)
            return Verdict(True, nodes=len(sg.nodes),
                           in_bindings=len(sg.nodes),
                           out_bindings=leaves, steps=operations)

        ops.append(Op(f"sched{i}", lambda sg=sg: sched_op(sg), verify))
    return ops


MAKE_OPS = {"chain": chain_ops, "opt": opt_ops, "fuzz": fuzz_ops,
            "sched": sched_ops}


def make_ops(workload: str, seed: int, workdir: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return MAKE_OPS[workload](rng, workdir)


# ---------------------------------------------------------------------------
# Scheduler output: well-scopedness and size
# ---------------------------------------------------------------------------

def _names(e) -> list:
    """Every operand name of an expression, nested `Exp` trees included."""
    out, todo = [], [e]
    while todo:
        x = todo.pop()
        if isinstance(x, Exp):
            todo.extend(x.args)
        else:
            out.append(x)
    return out


def check_schedule(sg, block) -> list:
    """Errors of a scheduled block: an operand not bound earlier on its
    scope path (scope parameters count inside their scope), a binding
    that is not a node of the graph, or a node emitted twice."""
    errors: list = []
    bound: set = set()
    emitted: set = set()

    def use(expr, where):
        for n in _names(expr):
            if n not in bound:
                errors.append(f"{n.pretty()} used in {where} before it "
                              f"is bound")

    def define(name, added):
        if name not in sg.nodes:
            errors.append(f"{name.pretty()} is not a node of the graph")
        if name in emitted:
            errors.append(f"{name.pretty()} emitted twice")
        emitted.add(name)
        if name not in bound:
            bound.add(name)
            added.append(name)

    def scope(trees, tail, params, where):
        added = [p for p in params if p not in bound]
        bound.update(added)
        for t in trees:
            if isinstance(t, Leaf):
                use(t.expr, t.name.pretty())
                define(t.name, added)
                continue
            kind, sym, node = t.binder
            if kind == "cond":
                use(node.args[0], sym.pretty())
                for branch in t.children:
                    scope(branch.children, branch.result, (),
                          f"{sym.pretty()}/{branch.binder[0]}")
            else:
                for a in node.args:
                    use(a, sym.pretty())
                scope(t.children, t.result, node.params, sym.pretty())
            define(sym, added)
        if tail is not None:
            use(tail, f"the result of {where}")
        bound.difference_update(added)

    scope(block.trees, block.tail, (), "the graph")
    return errors


def count_output(block) -> tuple:
    """(leaf bindings, operations) of a scheduled block: an operation is
    one `Exp` node, so an inlined or fused tree counts each node once."""
    leaves = operations = 0
    todo = [(block.trees, block.tail)]
    while todo:
        trees, tail = todo.pop()
        exprs = [tail]
        for t in trees:
            if isinstance(t, Leaf):
                leaves += 1
                exprs.append(t.expr)
            elif t.binder[0] == "cond":
                todo.extend((b.children, b.result) for b in t.children)
            else:
                todo.append((t.children, t.result))
        for e in exprs:
            stack = [e]
            while stack:
                x = stack.pop()
                if isinstance(x, Exp):
                    operations += 1
                    stack.extend(x.args)
    return leaves, operations
