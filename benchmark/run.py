"""girkit benchmark: one command for every workload and metric.

    python3 benchmark/run.py --workload chain --seed 0 --seconds 15 --trace 0
    python3 benchmark/run.py                 # every workload, both runs
    python3 benchmark/run.py --self-test     # the benchmark's own tests

With `--workload`, it runs that workload and prints, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. The
metrics are the end-to-end ones with `--trace 0` and the per-layer ones
with `--trace 1`, named and in the units `BENCHMARK.json` declares.
Without `--workload`, it runs every workload untraced and traced and
prints the tables described in `benchmark/README.md`.

Every workload runs under one pinned interpreter, Python 3.10 (the
oldest the package supports), found as `python3.10` on PATH, also under
pyenv with PYENV_VERSION=3.10. Times are CPU times of the worker process
(see `worker.py`). Set-up is measured in several fresh processes and
reported as their median.

`correct` is false when the benchmark could not trust its own checks
(the same input gave different outputs within a run). An op whose output
is wrong is a failed op: it counts in `failed` and in `ok_frac`, with its
failure kind printed above the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("chain", "opt", "fuzz", "sched")
PINNED = "3.10"
SETUP_PROBES = 6        # set-up-only processes, besides the measuring one,
#                         in an untraced run
LIMIT_S = 170.0         # the whole run, all processes included
DROPPED_ENV = ("GIR_SEED", "PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def pinned_python() -> tuple:
    """(executable, environment) of the pinned interpreter."""
    base = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    for extra in ({}, {"PYENV_VERSION": PINNED}):
        env = dict(base, **extra)
        try:
            p = subprocess.run(
                [f"python{PINNED}", "-c",
                 "import sys; print(sys.executable); print(sys.version)"],
                env=env, capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        lines = p.stdout.splitlines()
        if (p.returncode == 0 and len(lines) >= 2
                and lines[1].startswith(PINNED + ".")):
            env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
            return lines[0], env
    raise BenchError(f"no Python {PINNED} interpreter found "
                     f"(tried python{PINNED}, also with "
                     f"PYENV_VERSION={PINNED})")


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_worker(python: tuple, args: list, deadline: float) -> dict:
    exe, env = python
    t0 = time.monotonic()
    cmd = [exe, "-m", "benchmark.worker", *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("the workload did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1])


def run_workload(python: tuple, workload: str, seed: int, seconds: int,
                 trace: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    # set-up is an end-to-end metric: the traced run needs no probes
    setups = [run_worker(python, common + ["--setup-only"],
                         deadline)["setup_s"]
              for _ in range(SETUP_PROBES if trace == 0 else 0)]
    res = run_worker(python, common + ["--seconds", str(seconds),
                                       "--trace", str(trace)], deadline)
    setups.append(res["setup_s"])
    res["setups"] = setups
    units = declared()[trace]
    metrics = res["metrics"]
    if metrics is None:           # girkit did not import: nothing ran
        metrics = {name: [0.0, unit] for name, unit in units.items()}
    if trace == 0:
        metrics["setup_s"] = [statistics.median(setups), "s"]
    if {k: u for k, (_, u) in metrics.items()} != units:
        raise BenchError("the worker's metrics or units differ from "
                         "BENCHMARK.json")
    res["metrics"] = {name: {"value": metrics[name][0], "unit": unit}
                      for name, unit in units.items()}
    return res


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _num(v: float) -> str:
    return f"{v:.4g}"


def print_run(workload: str, res: dict, trace: int):
    print(f"== {workload} ({'traced' if trace else 'untraced'}) "
          f"under Python {res['python'].split()[0]}")
    print(f"   {res['attempted']} ops in {res['rounds']} rounds of "
          f"{res['ops_per_round']}, {res['failed']} failed; ops took "
          f"{res['cpu_s']:.2f} s CPU, {res['wall_s']:.2f} s wall; reference "
          f"work {res['ref_s'] * 1000:.2f} ms (median); scaled set-up times "
          f"{', '.join(_num(s) for s in res['setups'])} s")
    for name, m in res["metrics"].items():
        print(f"   {name:<28} {_num(m['value']):>12} {m['unit']}")
    for kind, (count, msg) in sorted(res["kinds"].items()):
        print(f"   failed {count:>5} x {kind}: {msg}")
    if res.get("spans"):
        print(f"   {'span':<28} {'self s/op':>12} {'calls/op':>10}")
        for name, (self_s, calls) in res["spans"].items():
            print(f"   {name:<28} {_num(self_s):>12} {_num(calls):>10}")


def print_tables(results: dict):
    """Every end-to-end metric per workload in its own row, then the
    per-layer metrics with one column per workload."""
    names = list(declared()[0])
    print("\nEnd-to-end (untraced), one row per workload")
    print(f"{'workload':<9}" + "".join(f"{n:>16}" for n in names))
    units = next(iter(results.values()))[0]["metrics"]
    print(f"{'':<9}" + "".join(f"{units[n]['unit']:>16}" for n in names))
    for wl, (e2e, _) in results.items():
        print(f"{wl:<9}" + "".join(
            f"{_num(e2e['metrics'][n]['value']):>16}" for n in names))
    print("\nFailures (untraced)")
    for wl, (e2e, _) in results.items():
        share = e2e["failed"] / e2e["attempted"]
        print(f"{wl:<9} {e2e['failed']}/{e2e['attempted']} "
              f"({share:.1%})")
        for kind, (count, msg) in sorted(e2e["kinds"].items()):
            print(f"          {count} x {kind}: {msg}")
    print("\nPer layer (traced run; seconds and counts per op)")
    print(f"{'metric':<28}{'unit':>7}" + "".join(f"{w:>12}" for w in results))
    for name in declared()[1]:
        row = [results[w][1]["metrics"][name] for w in results]
        print(f"{name:<28}{row[0]['unit']:>7}"
              + "".join(f"{_num(m['value']):>12}" for m in row))


def self_test(python: tuple) -> int:
    exe, env = python
    return subprocess.run([exe, "-m", "unittest", "discover", "-s",
                           "benchmark/tests", "-t", "."],
                          cwd=ROOT, env=env).returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + LIMIT_S
    try:
        if not (ROOT / "src" / "girkit" / "__init__.py").is_file():
            raise BenchError("girkit's source (src/girkit) is missing")
        python = pinned_python()
        if args.self_test:
            return self_test(python)
        if args.workload is None:
            results = {}
            for wl in WORKLOADS:
                pair = []
                for trace in (0, 1):
                    res = run_workload(python, wl, args.seed, args.seconds,
                                       trace, time.monotonic() + LIMIT_S)
                    print_run(wl, res, trace)
                    pair.append(res)
                results[wl] = pair
            print_tables(results)
            return 0
        res = run_workload(python, args.workload, args.seed, args.seconds,
                           args.trace, deadline)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print_run(args.workload, res, args.trace)
    print(json.dumps({
        "correct": bool(res["consistent"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
