#!/usr/bin/env python3
"""safestab benchmark: three workloads, end-to-end metrics, per-layer trace.

    python3 bench/run.py --workload tumor-gate --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
checkout that holds this file, never from an installed copy. ``--seed`` makes
``N_SETS`` input sets, one pass of work each. ``--trace 0`` runs passes on
them in turn, each set at least once, until ``--seconds`` have elapsed and
reports the end-to-end metrics; ``--trace 1`` makes one traced pass between
two untraced passes of the first set and reports the per-layer metrics.
Either way each operation counts once in ``attempted``, so the same seed
gives the same counts however many passes fit, and a repeated pass must
reproduce its set's first outputs bit for bit. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics named
in BENCHMARK.json. Scratch files go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_out")
# set-up repetitions before the first pass and after each pass; spreading
# them over the run keeps one slow minute of a shared machine from setting
# the median
SETUP_REPS = 5
# input sets per run; the median pass of a run then spreads over several
# inputs, and every set runs at least once so that the operations are fixed
N_SETS = 3
MODULES = ("errors", "core", "sontag", "qp", "filters", "doa", "sim", "scenarios",
           "verify", "cli")

# counts that must repeat exactly between two traced runs of the same inputs
EXACT_COUNTS = (
    "core.dyn.calls", "core.barrier.calls", "core.clf.calls", "sontag.calls",
    "filters.ctrl.calls", "filters.rows.calls", "qp.solve.calls", "qp.iterations",
    "qp.phase_one.calls", "qp.infeasible", "qp.lp.calls", "doa.share.calls",
    "doa.probes", "doa.points", "sim.steps", "sim.switches", "sim.csv.calls",
    "sim.csv.bytes", "verify.checks")

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)
from instrument import Latency, Tracer, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def purge():
    """Drop any earlier import of safestab and free it, so that the next
    import pays the package's own import cost (numpy stays loaded). Not
    timed: the collection walks the benchmark's own objects too."""
    for name in [n for n in sys.modules if n == "safestab" or n.startswith("safestab.")]:
        del sys.modules[name]
    gc.collect()


def import_src():
    """Import safestab from this checkout's src/."""
    pkg = importlib.import_module("safestab")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"safestab imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"safestab.{m}")
                                       for m in MODULES})


def timed_setup(workload, times):
    for _ in range(SETUP_REPS):
        mods = state = None   # so that purge() frees the previous copy
        purge()
        t0 = time.perf_counter()
        mods = import_src()
        state = workload.setup(mods)
        times.append(time.perf_counter() - t0)
    return mods, state


def input_seed(seed, k):
    """The seed safestab receives for input set k of a run."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def untraced_pass(workload, mods, state, seed):
    probe = Latency()
    t0 = time.perf_counter()
    out = workload.run(mods, state, seed, probe, WORKDIR)
    wall = time.perf_counter() - t0
    return wall, workload.check(mods, state, out, probe)


def traced_pair(workload, mods, seed):
    """Set-up plus one pass traced, between two untraced ones of the same
    inputs (their mean is the untraced wall, so a drifting machine speed
    cancels to first order); walls in ns."""
    def untraced():
        t0 = time.perf_counter_ns()
        state = workload.setup(mods)
        probe = Latency()
        out = workload.run(mods, state, seed, probe, WORKDIR)
        wall = time.perf_counter_ns() - t0
        return wall, workload.check(mods, state, out, probe)

    wall_u1, rep_u = untraced()
    tracer = Tracer()
    with patched(tracer.patches(mods)):
        t0 = time.perf_counter_ns()
        state = workload.setup(mods)
        out = workload.run(mods, state, seed, tracer, WORKDIR)
        wall_t = time.perf_counter_ns() - t0
    rep_t = workload.check(mods, state, out, tracer)
    wall_u2, rep_u2 = untraced()
    if rep_u2.fingerprint != rep_u.fingerprint:
        rep_u.fingerprint = None
    return (wall_u1 + wall_u2) // 2, wall_t, rep_u, rep_t, tracer


def layer_metrics(tracer, wall_u, wall_t):
    """Every per-layer metric of a traced pass, by name: (value, unit)."""
    layers, other_s = tracer.layers(wall_t)
    c = tracer.counters
    m = {}
    for layer in ("core.dyn", "core.barrier", "core.clf", "sontag", "filters.ctrl",
                  "filters.rows", "qp.solve", "qp.spec", "qp.lp", "doa.cstar",
                  "doa.share", "doa.rows", "doa.raycast", "sim.integrate", "sim.rk4",
                  "sim.csv", "scenarios.build", "verify", "cli"):
        calls, self_s = layers.get(layer, (0, 0.0))
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")
    solves = m["qp.solve.calls"][0]
    steps = c.get("sim.steps", 0)
    for key in ("qp.iterations", "qp.phase_one.calls", "qp.infeasible", "doa.probes",
                "doa.points", "sim.steps", "sim.switches", "verify.checks"):
        m[key] = (c.get(key, 0), "count")
    m["sim.csv.bytes"] = (c.get("sim.csv.bytes", 0), "bytes")
    m["qp.phase_one.per_solve"] = (c.get("qp.phase_one.calls", 0) / solves if solves else 0.0,
                                   "ratio")
    m["qp.solves.per_step"] = (solves / steps if steps else 0.0, "ratio")
    m["qp.kkt_max"] = (tracer.kkt_max, "rel")
    m["filters.r2_share"] = (c.get("sim.r2_steps", 0) / steps if steps else 0.0, "ratio")
    m["trace.overhead_s"] = ((wall_t - wall_u) / 1e9, "s")
    m["other.self_s"] = (other_s, "s")
    m["trace.wall_s"] = (wall_t / 1e9, "s")
    m["untraced.wall_s"] = (wall_u / 1e9, "s")
    return m


def percentile_line(name, samples_ns):
    us = samples_ns / 1e3
    if us.size == 0:
        return f"  {name}: no samples"
    # report the highest percentile with at least ten samples beyond it
    hi = next((q for q in (99.9, 99, 90) if us.size * (1 - q / 100) >= 10), None)
    tail = f", p{hi:g} = {np.percentile(us, hi):.2f} us" if hi else ""
    return f"  {name}: p50 = {np.median(us):.2f} us{tail} over {us.size} calls"


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def emit(metrics, declared, correct, attempted, failed):
    out = {}
    for entry in declared:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit} but BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": out}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        rcs = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
               for name in WORKLOADS]
        return max(rcs)

    if not os.path.isfile(os.path.join(SRC, "safestab", "__init__.py")):
        print(f"error: no safestab sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    os.makedirs(WORKDIR, exist_ok=True)
    os.environ["SAFESTAB_THREADS"] = "1"
    workload = WORKLOADS[args.workload]()

    setup_times = []
    mods, state = timed_setup(workload, setup_times)
    print(f"# workload {workload.name}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    print(f"# env: python {platform.python_version()}, numpy {np.__version__}, "
          f"nproc {len(os.sched_getaffinity(0))}, "
          f"SAFESTAB_THREADS={os.environ['SAFESTAB_THREADS']}")
    print(f"# sizes: {workload.sizes()}")

    if args.trace == 0:
        walls, lats_all, lats_r2, firsts = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            k = len(walls) % N_SETS
            wall, rep = untraced_pass(workload, mods, state, input_seed(args.seed, k))
            walls.append(wall)
            lats_all.append(rep.lat_all)
            lats_r2.append(rep.lat_r2)
            print(f"pass {len(walls) - 1} (input set {k}): {wall:.4f} s")
            if len(firsts) == k:
                if k == 0:
                    # later passes repeat the same kind of work; what grows
                    # after the first is the benchmark's own record and
                    # re-imports
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                for op in rep.ops:
                    op.label = f"set {k} {op.label}"
                firsts.append(rep)
                for line in rep.lines:
                    print(f"  {line}")
            elif rep.fingerprint != firsts[k].fingerprint or any(op.wrong for op in rep.ops):
                firsts[k].fingerprint = None
                print(f"  outputs or checks DIFFER FROM pass {k}")
            del mods, state
            mods, state = timed_setup(workload, setup_times)
            # stop before a pass that would end past the deadline
            if len(walls) >= N_SETS and time.perf_counter() + statistics.mean(walls) > deadline:
                break
        lat_all, lat_r2 = np.concatenate(lats_all), np.concatenate(lats_r2)
        ops = [op for rep in firsts for op in rep.ops]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            # pass i runs set i % N_SETS; the sets may run unequally often
            "wall_s": (statistics.mean(statistics.median(walls[k::N_SETS])
                                       for k in range(N_SETS)), "s"),
            "ctrl_us.p50": (float(np.median(lat_all)) / 1e3 if lat_all.size else 0.0, "us"),
            "ctrl_us.r2.p50": (float(np.median(lat_r2)) / 1e3 if lat_r2.size else 0.0, "us"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        fidelity_ok = all(rep.fingerprint is not None for rep in firsts)
        print(f"repeatability: {len(walls) - N_SETS} repeated passes "
              f"{'reproduce' if fidelity_ok else 'DO NOT reproduce'} their set's outputs")
        print("latency:")
        print(percentile_line("ctrl_us", lat_all))
        print(percentile_line("ctrl_us.r2", lat_r2))
        declared = end_to_end
    else:
        wall_u, wall_t, rep_u, rep_t, tracer = traced_pair(workload, mods,
                                                           input_seed(args.seed, 0))
        for tag, rep in (("untraced", rep_u), ("traced", rep_t)):
            print(f"{tag} pass:")
            for line in rep.lines:
                print(f"  {line}")
        fidelity_ok = rep_u.fingerprint == rep_t.fingerprint
        print(f"fidelity: traced outputs {'match' if fidelity_ok else 'DIFFER FROM'} "
              f"the untraced passes")
        tracer.write(os.path.join(WORKDIR, f"trace-{workload.name}.npz"))
        metrics = layer_metrics(tracer, wall_u, wall_t)
        ops = rep_u.ops
        explained = sum(v for k, (v, u) in metrics.items()
                        if k.endswith(".self_s")) / metrics["trace.wall_s"][0]
        print(f"layers: self times plus other.self_s cover {explained:.4f} of the traced wall")
        declared = per_layer

    failed = sum(not op.ok for op in ops)
    correct = fidelity_ok and not any(op.wrong for op in ops)
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" if isinstance(value, float)
              else f"  {name} = {value} {unit}")
    print(f"  setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    print(f"  failed_frac = {failed / len(ops):.6g} ratio ({failed} of {len(ops)} "
          f"operations failed)")
    for op in ops:
        if not op.ok:
            print(f"  failed operation {op.label}: {op.verdict()}")
    emit(metrics, declared, correct, len(ops), failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
