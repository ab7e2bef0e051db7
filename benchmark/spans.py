"""Per-layer spans for the traced run.

The tracer replaces public functions at the module attributes (or table
entries) their callers look them up from, e.g. `girkit.cli.parse` or
`girkit.testkit.eval_graph`, with a wrapper that times the call as a span.
A span's self time is its duration minus the time of the spans it
contains; spans and counters are aggregated by name in memory. Nothing
inside girkit is changed: spans sit only at the call boundaries between
the entry modules (`girkit.cli`, `girkit.testkit`, the optimizer's rule table,
the benchmark's own scheduler op) and the layers they call.

Counting work (bindings, edges, leaves, steps) happens after a span
closes and is charged to no span, so it does not inflate self times.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

from girkit.core import GLet, NLam

from .gen import FUZZ_CHECKS, OPT_PASSES

def _lets(g):
    """Every GLet of a graph term, nested blocks and lambda bodies
    included."""
    todo = [g]
    while todo:
        g = todo.pop()
        while isinstance(g, GLet):
            yield g
            if isinstance(g.binding, GLet):
                todo.append(g.binding)
            elif isinstance(g.binding, NLam):
                todo.append(g.binding.body)
            g = g.body


def count_bindings(g) -> int:
    return sum(1 for _ in _lets(g))


def count_edges(g) -> tuple:
    """(hard, soft) dependency entries over every annotation in a graph."""
    hard = soft = 0
    for let in _lets(g):
        deps = [let.dep]
        if isinstance(let.binding, NLam):
            deps.append(let.binding.body_dep)
        for d in deps:
            if d is not None:
                hard += len(d.hard)
                soft += sum(len(s) for s in d.soft.values())
    return hard, soft


class Tracer:
    """Aggregated spans and counters. Spans are recorded only while
    `active` is set, so the benchmark's own checks, which call girkit
    through references taken before wrapping, never show up."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counters: dict = defaultdict(int)
        self.active = False
        self._stack: list = []      # child-time accumulator per open span
        self._undo: list = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, span: str, before=None, after=None):
        """Replace `owner.attr` (or `owner[attr]` for a dict) by a timed
        wrapper. `before(args, kwargs)` may rewrite the call;
        `after(tracer, args, kwargs, result, error)` counts work."""
        is_map = isinstance(owner, dict)
        orig = owner[attr] if is_map else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = tracer._stack
            stack.append(0.0)
            result = err = None
            t0 = time.process_time()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as e:
                err = e
                raise
            finally:
                dt = time.process_time() - t0
                tracer.self_s[span] += dt - stack.pop()
                tracer.calls[span] += 1
                if after is not None:
                    t1 = time.process_time()
                    after(tracer, args, kwargs, result, err)
                    dt += time.process_time() - t1
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = orig
        if is_map:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig, is_map))

    def uninstall(self):
        for owner, attr, orig, is_map in reversed(self._undo):
            if is_map:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()


# ---------------------------------------------------------------------------
# The spans of the traced run
# ---------------------------------------------------------------------------

def _cli_failed(tr, args, kwargs, result, err):
    tr.counters["cli.main_calls"] += 1
    if err is not None or result != 0:
        tr.counters["cli.failed"] += 1


def _bindings(tr, args, kwargs, result, err):
    if err is None:
        tr.counters["mnf.bindings"] += count_bindings(result)


def _edges_of(graph, tr):
    hard, soft = count_edges(graph)
    tr.counters["graphir.hard_edges"] += hard
    tr.counters["graphir.soft_edges"] += soft


def _edges_cfg(tr, args, kwargs, result, err):
    if err is None:
        _edges_of(result.graph, tr)


def _edges_pair(tr, args, kwargs, result, err):
    if err is None:
        _edges_of(result[0], tr)


def _log_misses(args, kwargs):
    kwargs = dict(kwargs, log_misses=True)
    return args, kwargs


def _optimized(tr, args, kwargs, result, err):
    c = tr.counters
    c["optimize.calls"] += 1
    passes = args[2] if len(args) > 2 else kwargs["passes"]
    for rule in passes:
        c[f"optimize.{rule}.enabled"] += 1
    if err is not None:
        c["optimize.failed"] += 1
        return
    fired = 0
    for r in result[1]:
        if r.fired:
            fired += 1
            c[f"optimize.{r.rule}.fired"] += 1
        c[f"optimize.{r.rule}.attempted"] += 1
    fuel = kwargs.get("fuel", args[3] if len(args) > 3 else 1000)
    if fired >= fuel:
        c["optimize.fuel_exhausted"] += 1


def _scheduled(tr, args, kwargs, result, err):
    from .workloads import count_output
    tr.counters["schedule.nodes_in"] += len(args[0].nodes)
    if err is None:
        tr.counters["schedule.leaves_out"] += count_output(result)[0]


def _steps(tr, args, kwargs, result, err):
    if err is None:
        tr.counters["interp.steps"] += result.steps


def _generated(tr, args, kwargs, result, err):
    from girkit.core import GenerationExhausted
    if isinstance(err, GenerationExhausted):
        tr.counters["testkit.gen_dry"] += 1


def install(tracer: Tracer, ops_module) -> Tracer:
    """Wrap every layer boundary the workloads cross. `ops_module` is the
    benchmark module whose `schedule`/`emit` attributes the `sched`
    workload calls through."""
    cli = importlib.import_module("girkit.cli")
    tk = importlib.import_module("girkit.testkit")
    opt = importlib.import_module("girkit.optimize")
    w = tracer.wrap
    w(cli, "main", "cli.main", after=_cli_failed)
    w(cli, "parse", "cli.parse")
    for mod in (cli, tk):
        w(mod, "infer_direct", "typecheck.infer")
        w(mod, "to_mnf", "mnf.to_mnf", after=_bindings)
        w(mod, "synthesize_config", "graphir.synth", after=_edges_cfg)
        for kind in ("direct", "store", "graph"):
            w(mod, f"eval_{kind}", f"interp.eval_{kind}", after=_steps)
    w(tk, "synthesize", "graphir.synth", after=_edges_pair)
    w(tk, "check_mnf", "mnf.check_mnf")
    w(cli, "optimize", "optimize.fixpoint", before=_log_misses,
      after=_optimized)
    for rule in OPT_PASSES:
        w(opt.RULES, rule, f"optimize.{rule}")
    w(cli, "flatten_config", "schedule.flatten")
    for mod in (cli, ops_module):
        w(mod, "schedule", "schedule.schedule", after=_scheduled)
        w(mod, "emit", "schedule.emit")
    w(tk, "gen_well_typed", "testkit.gen", after=_generated)
    for check in FUZZ_CHECKS:
        w(tk._CHECK_FNS, check, f"testkit.{check}")
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

TIME_METRICS = {
    "cli.parse_s": "cli.parse",
    "typecheck.infer_s": "typecheck.infer",
    "mnf.to_mnf_s": "mnf.to_mnf",
    "graphir.synth_s": "graphir.synth",
    **{f"optimize.{r}.s": f"optimize.{r}" for r in OPT_PASSES},
    "schedule.flatten_s": "schedule.flatten",
    "schedule.schedule_s": "schedule.schedule",
    "schedule.emit_s": "schedule.emit",
    "interp.eval_direct_s": "interp.eval_direct",
    "interp.eval_store_s": "interp.eval_store",
    "interp.eval_graph_s": "interp.eval_graph",
    "testkit.gen_s": "testkit.gen",
    **{f"testkit.{c}_s": f"testkit.{c}" for c in FUZZ_CHECKS},
}

# counters reported per op of one traced round
PER_OP_COUNTS = ("mnf.bindings", "graphir.hard_edges", "graphir.soft_edges",
                 "schedule.nodes_in", "schedule.leaves_out", "interp.steps",
                 "testkit.gen_dry")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, traced_ops: int, round_counts: dict,
                  round_ops: int, overhead: float, scale: float) -> dict:
    """Per-layer metrics: self seconds per traced op, times `scale` (the
    worker's speed scaling); counts per op of one traced round (so they
    repeat exactly); shares per call."""
    out = {}
    for name, span in TIME_METRICS.items():
        out[name] = (_ratio(tracer.self_s.get(span, 0.0) * scale,
                            traced_ops), "s")
    c = round_counts
    for name in PER_OP_COUNTS:
        out[name] = (_ratio(c.get(name, 0), round_ops), "count")
    out["cli.failed"] = (_ratio(c.get("cli.failed", 0),
                                c.get("cli.main_calls", 0)), "frac")
    for r in OPT_PASSES:
        fired = c.get(f"optimize.{r}.fired", 0)
        out[f"optimize.{r}.fired"] = (
            _ratio(fired, c.get(f"optimize.{r}.enabled", 0)), "count")
        out[f"optimize.{r}.fire_rate"] = (
            _ratio(fired, c.get(f"optimize.{r}.attempted", 0)), "frac")
    calls = c.get("optimize.calls", 0)
    out["optimize.fuel_exhausted"] = (
        _ratio(c.get("optimize.fuel_exhausted", 0), calls), "frac")
    out["optimize.failed"] = (_ratio(c.get("optimize.failed", 0), calls),
                              "frac")
    out["trace.overhead"] = (overhead, "ratio")
    return out
