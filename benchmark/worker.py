"""One workload in one single-threaded process, under the pinned
interpreter. `run.py` starts it; it prints one JSON object as its last
line of output.

    python -m benchmark.worker --workload W --seed N --seconds S \
        --trace 0|1 [--setup-only]

Times are the process's CPU time (`time.process_time`), scaled to a
nominal machine speed. The work is single-threaded and CPU-bound, so on
an idle machine CPU time equals wall time; on a shared one it leaves out
the time the process waits for a CPU. A shared machine also runs the
same code at a speed that drifts by a factor of two within seconds, so
the worker times a fixed piece of reference work about every quarter
second of ops and scales each op's CPU time by REF_S over the mean of
the reference times around it: a reported second is a second on a
machine that does the reference work in REF_S. Raw CPU and wall totals
are reported beside the scaled metrics. Set-up time is the CPU time from
process start to the first op (interpreter start, `import girkit`, input
generation and writing the inputs), scaled by the reference work timed
right after it.

The workload runs in whole rounds (every op once per round) until the
ops have taken `--seconds` of wall time. With `--trace 1` the first round
warms up, the second runs untraced as the reference for the tracing
overhead, and every later round runs traced.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


REF_S = 0.009          # the reference work's CPU time on an idle machine
CALIBRATE_EVERY = 0.25  # CPU seconds of ops between reference timings
CAL_WINDOW = 3          # reference timings on each side of an op


def reference_work() -> int:
    """Fixed interpreter-bound work: tuples, strings, dicts and calls."""
    acc: dict = {}

    def mix(i, t):
        return (i * 7) ^ len(t)

    for i in range(15_000):
        t = (i, i + 1, str(i & 255))
        acc[t[2]] = mix(i, t) + acc.get(t[2], 0)
    return len(acc)


def reference_time() -> float:
    c0 = time.process_time()
    reference_work()
    return time.process_time() - c0


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    """Latencies and verdicts of the ops run so far, round by round."""

    def __init__(self, ops: list):
        self.ops = ops
        self.done: list = []         # (CPU seconds, op index, verdict)
        self.at: list = []           # per op: reference timings before it
        self.refs: list = [reference_time()]
        self.since_ref = 0.0
        self.cpu = 0.0               # summed CPU time of every op
        self.wall = 0.0              # summed wall time of every op
        self.verdicts: dict = {}     # op key -> (raw fingerprint, verdict)
        self.consistent = True

    def verdict(self, op, raw):
        fingerprint = raw[1]    # the text the op emits
        seen = self.verdicts.get(op.key)
        if seen is not None:
            if seen[0] == fingerprint:
                return seen[1]
            self.consistent = False  # the same input gave another output
        v = op.verify(raw)
        self.verdicts[op.key] = (fingerprint, v)
        return v

    def round(self, tracer=None) -> int:
        """Run every op once; return the index of the round's first op."""
        first = len(self.done)
        for i, op in enumerate(self.ops):
            if self.since_ref >= CALIBRATE_EVERY:
                self.refs.append(reference_time())
                self.since_ref = 0.0
            if tracer is not None:
                tracer.active = True
            w0, c0 = time.perf_counter(), time.process_time()
            raw = op.run()
            dt = time.process_time() - c0
            self.wall += time.perf_counter() - w0
            if tracer is not None:
                tracer.active = False
            self.done.append((dt, i, self.verdict(op, raw)))
            self.at.append(len(self.refs))
            self.since_ref += dt
            self.cpu += dt
        return first

    def scale(self, k: int) -> float:
        """REF_S over the mean reference time around op `k`."""
        at = self.at[k]
        near = self.refs[max(0, at - CAL_WINDOW):at + CAL_WINDOW]
        return REF_S * len(near) / sum(near)

    def scaled(self, start: int = 0, stop: int = None) -> list:
        """Scaled op times of the ops done[start:stop]."""
        stop = len(self.done) if stop is None else stop
        return [self.done[k][0] * self.scale(k) for k in range(start, stop)]

    def failure_kinds(self) -> dict:
        kinds: dict = {}
        for _, _, v in self.done:
            if not v.ok:
                kinds.setdefault(v.kind, [0, v.message])[0] += 1
        return kinds


def sizes(verdicts: list) -> tuple:
    """(out_size_ratio, out_steps) over the successful verdicts: emitted
    bindings / input bindings, and the mean steps of the output."""
    ok = [v for v in verdicts if v.ok]
    ins = sum(v.in_bindings for v in ok)
    ratio = sum(v.out_bindings for v in ok) / ins if ins else 0.0
    steps = sum(v.steps for v in ok) / len(ok) if ok else 0.0
    return ratio, steps


def end_to_end(run: Run, peak_rss_mb: float, sized=None) -> dict:
    times = run.scaled()
    window = sum(times)
    # a failed op misses every latency limit: it is charged the time of a
    # whole round (every op once), which ranks it above every success
    charge = window * len(run.ops) / len(times)
    lat = sorted(dt if v.ok else charge
                 for dt, (_, _, v) in zip(times, run.done))
    ok = [v for _, _, v in run.done if v.ok]
    if sized is None:   # the verdicts of the distinct inputs
        ratio, steps = sizes([v for _, v in run.verdicts.values()])
    else:
        ratio, steps = sizes(sized())
    return {
        "op_s.p50": (nearest_rank(lat, 0.5), "s"),
        "op_s.p90": (nearest_rank(lat, 0.9), "s"),
        "nodes_per_s": (sum(v.nodes for v in ok) / window, "1/s"),
        "ok_frac": (len(ok) / len(run.done), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "out_size_ratio": (ratio, "ratio"),
        "out_steps": (steps, "steps"),
    }


def measure(ops: list, seconds: float, traced: bool, sized=None) -> dict:
    """Run `ops` in whole rounds for `seconds`. `sized`, if given, is
    called after the timed work for the verdicts whose sizes stand in for
    the ops' own (see `workloads.sized_verdicts`)."""
    run = Run(ops)
    run.round()
    spans = None
    if traced:
        from . import spans as sp
        from . import workloads
        base = run.round()
        tracer = sp.install(sp.Tracer(), workloads)
        first = run.round(tracer)
        round_counts = dict(tracer.counters)
        while run.wall < seconds:
            run.round(tracer)
        tracer.uninstall()
        overhead = (sum(run.scaled(first, first + len(ops)))
                    / sum(run.scaled(base, first)))
        # the traced rounds' mean scale, applied to their span times
        traced_ops = len(run.done) - first
        scale = sum(run.scaled(first)) / sum(dt for dt, _, _ in
                                             run.done[first:])
        metrics = sp.layer_metrics(tracer, traced_ops, round_counts,
                                   len(ops), overhead, scale)
        spans = {name: [tracer.self_s[name] * scale / traced_ops,
                        tracer.calls[name] / traced_ops]
                 for name in sorted(tracer.self_s)}
    else:
        while run.wall < seconds:
            run.round()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(run, peak, sized)
    return {
        "attempted": len(run.done),
        "failed": sum(1 for _, _, v in run.done if not v.ok),
        "consistent": run.consistent,
        "rounds": len(run.done) // len(ops),
        "ops_per_round": len(ops),
        "cpu_s": run.cpu,
        "wall_s": run.wall,
        "ref_s": sorted(run.refs)[len(run.refs) // 2],
        "kinds": run.failure_kinds(),
        "metrics": metrics,
        "spans": spans,
    }


def all_failed(workload: str, err: BaseException) -> dict:
    """The result when girkit does not import: every op of one round
    failed, with the import error as its kind."""
    from .gen import ROUND_OPS
    n = ROUND_OPS[workload]
    kind = f"import: {type(err).__name__}"
    return {"attempted": n, "failed": n, "consistent": True, "rounds": 1,
            "ops_per_round": n, "cpu_s": 0.0, "wall_s": 0.0, "ref_s": 0.0,
            "kinds": {kind: [n, str(err)[:300]]},
            "metrics": None, "spans": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("chain", "opt", "fuzz", "sched"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    try:
        try:
            from . import workloads     # imports girkit
        except Exception as err:  # the code under test does not import
            result = all_failed(args.workload, err)
            result["setup_s"] = time.process_time()
        else:
            ops = workloads.make_ops(args.workload, args.seed, workdir)
            setup_s = time.process_time()
            setup_s *= REF_S * 3 / sum(reference_time() for _ in range(3))
            # what is alive now (modules, inputs) stays alive: keep it out
            # of the collections that ops trigger
            gc.collect()
            gc.freeze()
            if args.setup_only:
                result = {}
            else:
                result = measure(ops, args.seconds, bool(args.trace),
                                 workloads.sized_verdicts(args.workload,
                                                          workdir))
            result["setup_s"] = setup_s
        result["python"] = sys.version
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
