"""Command-line front end: simulate, sweep, doa, verify, plot.

Exit codes: 0 success, 1 runtime failure (infeasible QP, blow-up, failed
check), 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .doa import (awc_boundary_points, compute_c_star, largest_clf_sublevel_inside,
                  ray_exit)
from .errors import SafeStabError, ScenarioError, SimulationError
from .filters import CONTROLLER_NAMES, make_controller, make_filter_config
from .scenarios import SCENARIO_NAMES, build_scenario, load_scenario
from .sim import (SimConfig, compute_metrics, first_unsafe, integrate, read_trajectory_csv,
                  write_trajectory_csv)
from .verify import run_checks

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# vertices of the safe-set boundary polyline in a 2D plot script
BOUNDARY_POINTS = 256


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _load_bundle(args):
    if os.path.isfile(args.scenario):
        return load_scenario(args.scenario)
    return build_scenario(args.scenario)


def _sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True,
                   help=f"bundled name {SCENARIO_NAMES} or path to a scenario file")
    p.add_argument("--controller", default="hybrid", choices=CONTROLLER_NAMES)
    p.add_argument("--gamma", type=float, default=None, help="Sontag rate gain")
    p.add_argument("--p", type=float, default=None, help="slack weight of the CLF row")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--x0", type=_parse_floats, default=None, help="initial state a,b,...")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out", default=".", help="output directory")


def _option(args, bundle, key):
    """The command line's value of key, or else the scenario's default."""
    value = getattr(args, key)
    return bundle.defaults[key] if value is None else value


def _run_params(bundle, args) -> dict:
    """The run's parameters, as *_metrics.json writes them. They are checked
    where they are used: gamma and p by FilterConfig, dt, t_final and x0 by
    SimConfig."""
    x0 = _option(args, bundle, "x0")
    if x0 is None:
        raise ScenarioError("no x0: give --x0 or defaults.x0 in the scenario")
    if x0.size != bundle.sys.n:
        raise ScenarioError(f"x0 must have {bundle.sys.n} components")
    return {"scenario": bundle.name, "controller": args.controller,
            "gamma": _option(args, bundle, "gamma"), "p": _option(args, bundle, "p"),
            "dt": args.dt, "t_final": _option(args, bundle, "t_final"), "x0": x0.tolist(),
            "out": str(Path(args.out)), "record_every": args.record_every}


def _run_one(bundle, run: dict):
    """The run's trajectory and metrics. Its configs and integrate refuse a
    bad parameter, an x0 outside the safe set or records that do not fit
    before the run; the callers write nothing until it returns, so that a
    refused run leaves no output behind."""
    cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set,
                             gamma=run["gamma"], p=run["p"])
    simcfg = SimConfig(x0=run["x0"], t_final=run["t_final"], dt=run["dt"],
                       record_every=run["record_every"])
    traj = integrate(cfg, make_controller(cfg, run["controller"]), simcfg)
    return traj, compute_metrics(traj, bundle.eq)


def _r2_steps(traj) -> int:
    """The recorded steps in region R2."""
    return int((traj.regions == 1).sum())


def cmd_simulate(args) -> int:
    bundle = _load_bundle(args)
    run = _run_params(bundle, args)
    traj, metrics = _run_one(bundle, run)
    out = Path(run["out"])
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{bundle.name}_{args.controller}"
    csv_path = out / f"{stem}_traj.csv"
    write_trajectory_csv(traj, csv_path)
    # strict JSON has no inf or nan: a run that never settles or stopped at
    # its first step reports null for those metrics
    summary = dict(run, status=traj.status,
                   diagnostic=traj.diagnostic, r2_steps=_r2_steps(traj),
                   switches=len(traj.switch_events),
                   metrics={key: val if math.isfinite(val) else None
                            for key, val in asdict(metrics).items()},
                   first_unsafe=first_unsafe(traj, bundle.safe_set, run["dt"]))
    with open(out / f"{stem}_metrics.json", "w") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
    print(f"wrote {csv_path} ({traj.n_samples} samples, status {traj.status})")
    if traj.status != "ok":
        print(f"runtime failure: {traj.diagnostic}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_sweep(args) -> int:
    bundle = _load_bundle(args)
    run = _run_params(bundle, args)
    values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    if len(values) < 2:
        print("sweep needs at least two --values", file=sys.stderr)
        return EXIT_USAGE
    # each cell's CSV is named by its value to 6 significant digits ({:g});
    # two values with the same name would overwrite one cell with another
    names = [f"{value:g}" for value in values]
    clash = sorted({name for name in names if names.count(name) > 1})
    if clash:
        print(f"sweep values {args.values!r} repeat the cell name(s) {', '.join(clash)} "
              f"(values are named to 6 significant digits)", file=sys.stderr)
        return EXIT_USAGE
    # every cell runs before anything is written
    runs = [_run_one(bundle, dict(run, **{args.param: value})) for value in values]
    out = Path(run["out"])
    out.mkdir(parents=True, exist_ok=True)

    results = []
    for value, (traj, metrics) in zip(values, runs):
        path = out / f"{bundle.name}_{args.controller}_{args.param}_{value:g}_traj.csv"
        write_trajectory_csv(traj, path)
        results.append((value, traj, metrics, path))

    table = out / f"{bundle.name}_{args.controller}_{args.param}_sweep.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.param, "convergence_time", "input_tv", "min_h",
                         "w_monotone_violation", "status", "r2_steps", "switches", "csv"])
        for value, traj, metrics, path in results:
            writer.writerow([repr(value), repr(metrics.convergence_time),
                             repr(metrics.input_tv), repr(metrics.min_h),
                             repr(metrics.w_monotone_violation), traj.status,
                             _r2_steps(traj), len(traj.switch_events), path.name])
    print(f"wrote {table}")
    for value, traj, metrics, _ in results:
        print(f"  {args.param}={value:g}: conv_time={metrics.convergence_time:.4g} "
              f"input_tv={metrics.input_tv:.4g} min_h={metrics.min_h:.4g} [{traj.status}]")
    if any(traj.status != "ok" for _, traj, _, _ in results):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_doa(args) -> int:
    bundle = _load_bundle(args)
    gamma = _option(args, bundle, "gamma")
    cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=gamma)
    grid = (bundle.defaults["doa_grid"] if args.grid is None
            else tuple(int(v) for v in args.grid.split(",")))
    c_lo, c_hi = bundle.defaults["doa_c_bounds"]
    est = compute_c_star(cfg, grid, (c_lo if args.c_lo is None else args.c_lo,
                                     c_hi if args.c_hi is None else args.c_hi))
    c_triv = largest_clf_sublevel_inside(cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    boundary = awc_boundary_points(est, cfg, seed=args.seed)
    bpath = out / f"{bundle.name}_awc_boundary.csv"
    with open(bpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{i+1}" for i in range(bundle.sys.n)])
        for pt in boundary:
            writer.writerow([repr(float(v)) for v in pt])
    report = {
        "scenario": bundle.name, "gamma": gamma, "c_star": est.c_star,
        "c_trivial": c_triv, "grid_resolution": list(est.grid_resolution),
        "verified_points": est.verified_points,
        "tested": [[c, bool(ok)] for c, ok in est.tested],
        "first_infeasible_c": est.first_infeasible_c,
        "boundary_csv": bpath.name,
    }
    with open(out / f"{bundle.name}_doa.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"c* = {est.c_star:.6g} (trivial level-set estimate {c_triv:.6g}), "
          f"{est.verified_points} grid points verified, boundary samples in {bpath}")
    return EXIT_OK


def cmd_verify(args) -> int:
    bundle = _load_bundle(args)
    results = run_checks(bundle, seed=args.seed, gamma=_option(args, bundle, "gamma"))
    for res in results:
        tag = "SKIP" if res.skipped else "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
    failed = sum(not res.passed for res in results)
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_RUNTIME
    skipped = sum(res.skipped for res in results)
    print(f"all {len(results) - skipped} checks passed" + (f", {skipped} skipped" if skipped else ""))
    return EXIT_OK


PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Auto-generated plotting script; reads trajectory CSVs and renders figures.

Run with matplotlib installed:  python3 {script_name}
"""
import csv

import matplotlib.pyplot as plt


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in r] for r in reader]
    cols = {{name: [r[i] for r in rows] for i, name in enumerate(header)}}
    return header, cols


CSVS = {csv_paths!r}
LABELS = {labels!r}
N_STATES = {n_states}
N_INPUTS = {n_inputs}
BOUNDARY = {boundary!r}  # safe-set boundary polyline (2D scenarios) or None

fig_states, ax_states = plt.subplots()
fig_input, ax_input = plt.subplots()
for path, label in zip(CSVS, LABELS):
    _, cols = read_csv(path)
    for i in range(N_STATES):
        ax_states.plot(cols["t"], cols[f"x_{{i+1}}"],
                       label=f"{{label}} x_{{i+1}}" if N_STATES > 1 else label)
    for j in range(N_INPUTS):
        ax_input.plot(cols["t"], cols[f"u_{{j+1}}"], label=label)
ax_states.set_xlabel("t"); ax_states.set_ylabel("state"); ax_states.legend(fontsize=7)
ax_input.set_xlabel("t"); ax_input.set_ylabel("input"); ax_input.legend(fontsize=7)
fig_states.savefig("{stem}_states.png", dpi=150)
fig_input.savefig("{stem}_input.png", dpi=150)

if N_STATES == 2:
    fig_phase, ax_phase = plt.subplots()
    if BOUNDARY is not None:
        bx = [p[0] for p in BOUNDARY] + [BOUNDARY[0][0]]
        by = [p[1] for p in BOUNDARY] + [BOUNDARY[0][1]]
        ax_phase.plot(bx, by, "k--", label="safe-set boundary")
    for path, label in zip(CSVS, LABELS):
        _, cols = read_csv(path)
        ax_phase.plot(cols["x_1"], cols["x_2"], label=label)
    ax_phase.set_xlabel("x_1"); ax_phase.set_ylabel("x_2")
    ax_phase.axis("equal"); ax_phase.legend(fontsize=7)
    fig_phase.savefig("{stem}_phase.png", dpi=150)
print("figures written")
'''


def _safe_boundary_polyline(bundle):
    """Polyline of the safe-set boundary for 2D scenarios by ray casting
    BOUNDARY_POINTS evenly spaced directions."""
    if bundle.sys.n != 2:
        return None
    x_e = bundle.eq.x_e
    dirs = np.array([[math.cos(theta), math.sin(theta)] for theta in
                     np.linspace(0.0, 2.0 * math.pi, BOUNDARY_POINTS, endpoint=False)])
    lo, hi = ray_exit(bundle.safe_set.contains, x_e, dirs)
    if not np.all(hi < math.inf):
        return None
    return (x_e + lo[:, None] * dirs).tolist()


def cmd_plot(args) -> int:
    bundle = _load_bundle(args)
    labels = []
    for path in args.csv:
        try:
            traj = read_trajectory_csv(path)
        except SimulationError as exc:  # empty, wrong header or malformed row
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        if traj.states.shape[1] != bundle.sys.n:
            print(f"error: {path}: state dimension does not match {bundle.name}",
                  file=sys.stderr)
            return EXIT_RUNTIME
        labels.append(Path(path).stem.replace("_traj", ""))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{bundle.name}_plot"
    script_path = out / f"plot_{bundle.name}.py"
    script = PLOT_TEMPLATE.format(
        script_name=script_path.name,
        csv_paths=[str(Path(p).resolve()) for p in args.csv],
        labels=labels,
        n_states=bundle.sys.n,
        n_inputs=bundle.sys.m,
        boundary=_safe_boundary_polyline(bundle),
        stem=stem,
    )
    script_path.write_text(script)
    print(f"wrote {script_path}")
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args leaves
    it as it was, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="safestab",
        description="CLF/CBF safe stabilization: simulation, sweeps, DOA estimation, verification")
    parser.add_argument("--version", action="version", version=f"safestab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one closed-loop simulation")
    _sim_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep with a comparison table")
    _sim_args(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=("gamma", "p"))
    p_sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_doa = sub.add_parser("doa", help="estimate the certified domain of attraction")
    p_doa.add_argument("--scenario", required=True)
    p_doa.add_argument("--gamma", type=float, default=None)
    p_doa.add_argument("--grid", default=None, help="per-axis grid counts, e.g. 41,41")
    p_doa.add_argument("--c-lo", type=float, default=None)
    p_doa.add_argument("--c-hi", type=float, default=None)
    p_doa.add_argument("--seed", type=int, default=0)
    p_doa.add_argument("--out", default=".")
    p_doa.set_defaults(func=cmd_doa)

    p_verify = sub.add_parser("verify", help="run the invariant suite for a scenario")
    p_verify.add_argument("--scenario", required=True)
    p_verify.add_argument("--gamma", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="emit a plotting script for trajectory CSVs")
    p_plot.add_argument("csv", nargs="+", help="trajectory CSV paths")
    p_plot.add_argument("--scenario", required=True)
    p_plot.add_argument("--out", default=".")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, SimulationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SafeStabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
