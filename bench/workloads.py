"""The benchmark's three workloads.

Each is a closed loop with one process and one thread of work: the next
operation starts when the previous one returned. A workload has

* ``setup(mods)``: builds the scenario, filter config and controller (timed
  as ``setup_s``),
* ``run(mods, state, seed, probe, workdir)``: one pass, the timed work; the
  seed makes the states the program receives,
* ``check(mods, state, out, probe)``: the output checks, outside the timing.

``probe`` is a ``Latency`` (untraced pass) or a ``Tracer`` (traced pass).

Every check belongs to one operation. A check that finds a value this commit
computes differently (c*, a verify invariant, an unreadable output) marks the
output wrong; a check that finds a missed guarantee (exit status, barrier
violation, no convergence, criterion-7 ordering) marks the operation failed.
Both count in ``failed``; only the first makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List

import numpy as np

from instrument import Latency, patched


@dataclass
class Op:
    label: str
    wrong: List[str] = field(default_factory=list)
    missed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.wrong and not self.missed

    def verdict(self) -> str:
        return "ok" if self.ok else "FAILED: " + "; ".join(self.wrong + self.missed)


@dataclass
class PassReport:
    ops: List[Op]
    lat_all: np.ndarray          # ns, every pointwise evaluation
    lat_r2: np.ndarray           # ns, evaluations at R2 states
    lines: List[str]             # traffic, digests, visible pathologies
    fingerprint: tuple           # must match between traced and untraced


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _samples(probe, key) -> np.ndarray:
    return np.frombuffer(probe.samples.get(key, b""), dtype=np.int64)


def _concat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _fmt(x) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in x) + "]"


def _cli(mods, argv):
    """cli.main with its printing captured; returns (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = mods.cli.main(argv)
    return rc, buf.getvalue()


class TumorGate:
    """Acceptance criterion 5 through the library: c* on tumor3d, seeded
    starts inside A_WC, hybrid runs at gamma=1, dt=1e-3, record_every=1."""

    name = "tumor-gate"
    GRID = (21, 21, 21)
    C_BOUNDS = (0.2, 60.0)
    C_STAR = 18.3327   # this commit's estimate at GRID and C_BOUNDS

    def __init__(self, n_starts=4, t_final=12.0):
        self.n_starts, self.t_final = n_starts, t_final

    def sizes(self):
        return (f"starts/pass={self.n_starts} t_final={self.t_final}s dt=1e-3 "
                f"grid={'x'.join(map(str, self.GRID))} c in {list(self.C_BOUNDS)}")

    def setup(self, mods):
        bundle = mods.scenarios.build_scenario("tumor3d")
        cfg = mods.filters.make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=1.0)
        return SimpleNamespace(bundle=bundle, cfg=cfg,
                               ctrl=mods.filters.make_controller(cfg, "hybrid"))

    def run(self, mods, st, seed, probe, workdir):
        est = mods.doa.compute_c_star(st.cfg, self.GRID, self.C_BOUNDS)
        x0s = mods.doa.sample_states_in_awc(est, st.cfg, self.n_starts, seed=seed)
        runs = []
        for i, x0 in enumerate(x0s):
            ctrl = probe.timed(i, st.ctrl) if isinstance(probe, Latency) else st.ctrl
            try:
                traj = mods.sim.integrate(st.cfg, ctrl, mods.sim.SimConfig(
                    x0=x0, t_final=self.t_final, dt=1e-3, record_every=1))
            except mods.errors.SafeStabError as exc:
                runs.append((x0, exc, None))
                continue
            runs.append((x0, traj, mods.sim.compute_metrics(traj, st.bundle.eq, eps=1e-2)))
        return est, runs

    def check(self, mods, st, out, probe):
        est, runs = out
        tol = 1e-3 * self.C_BOUNDS[1]
        op = Op("c*")
        if not abs(est.c_star - self.C_STAR) <= tol:
            op.wrong.append(f"c* = {est.c_star!r} differs from {self.C_STAR} by more than {tol:g}")
        ops = [op]
        lines = [f"c* = {est.c_star!r}: {est.verified_points} grid points, "
                 f"{len(est.tested)} probes [{op.verdict()}]"]
        lat_all, lat_r2, digests = [], [], []
        steps = r2_steps = 0
        for i, (x0, traj, m) in enumerate(runs):
            op = Op(f"run {i}")
            if m is None:
                op.missed.append(f"integrate raised {type(traj).__name__}: {traj}")
                ops.append(op)
                digests.append(repr(traj))
                lines.append(f"run {i}: x0={_fmt(x0)} [{op.verdict()}]")
                continue
            if traj.status != "ok":
                op.missed.append(f"status {traj.status}: {traj.diagnostic}")
            if m.min_h < -1e-6:
                op.missed.append(f"min_h = {m.min_h:.4g} < -1e-6")
            if not m.convergence_time <= self.t_final:
                op.missed.append(f"not within 1e-2 of x_e by t_final = {self.t_final}")
            w_bound = 1e-6 * float(traj.w_values.max())
            if m.w_monotone_violation > w_bound:
                op.missed.append(f"W jump {m.w_monotone_violation:.3g} > 1e-6 max W = {w_bound:.3g}")
            r2 = traj.regions == 1
            steps += r2.size
            r2_steps += int(r2.sum())
            if isinstance(probe, Latency):
                lat = _samples(probe, i)
                if lat.size != r2.size:
                    op.wrong.append(f"{lat.size} controller timings for {r2.size} steps")
                else:
                    lat_all.append(lat)
                    lat_r2.append(lat[r2])
            d = digest(traj.times, traj.states, traj.inputs, traj.regions,
                       traj.w_values, traj.h_values, traj.active)
            digests.append(d)
            ops.append(op)
            lines.append(f"run {i}: x0={_fmt(x0)} min_h={m.min_h:.4g} "
                         f"conv={m.convergence_time:.4g} s r2_steps={int(r2.sum())} "
                         f"switches={len(traj.switch_events)} digest={d} [{op.verdict()}]")
        lines.append(f"traffic: {steps} steps, R2 share {r2_steps / max(steps, 1):.4f} "
                     f"(= QP solves per step for the hybrid law)")
        return PassReport(ops, _concat(lat_all), _concat(lat_r2), lines,
                          (est.c_star, tuple(digests)))


class LinearSweep:
    """Acceptance criterion 7 through safestab.cli.main: a hybrid simulate
    cell and the clf-cbf-qp slack-weight sweep from one seeded x0 near the
    bundled start, trajectory CSVs into a scratch directory."""

    name = "linear-sweep"
    P_VALUES = (1, 10, 100, 1000)
    # the blow-up criterion 7 checks reproduces only near the bundled x0
    SPREAD = 0.02

    def __init__(self, t_hybrid=10.0, t_sweep=3.0):
        self.t_hybrid, self.t_sweep = t_hybrid, t_sweep

    def sizes(self):
        return (f"hybrid t_final={self.t_hybrid}s, clf-cbf-qp p={list(self.P_VALUES)} "
                f"t_final={self.t_sweep}s, x0 = bundled x0 + U(+-{self.SPREAD})^2")

    def setup(self, mods):
        bundle = mods.scenarios.build_scenario("linear2d")
        cfg = mods.filters.make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=1.0)
        ctrls = [mods.filters.make_controller(cfg, name) for name in ("hybrid", "clf-cbf-qp")]
        return SimpleNamespace(bundle=bundle, cfg=cfg, ctrls=ctrls)

    def run(self, mods, st, seed, probe, workdir):
        rng = np.random.default_rng(seed)
        x0 = np.asarray(st.bundle.defaults["x0"], dtype=float) + rng.uniform(
            -self.SPREAD, self.SPREAD, 2)
        out = tempfile.mkdtemp(prefix="linear-sweep-", dir=workdir)
        common = ["--scenario", "linear2d", "--x0=" + ",".join(repr(float(v)) for v in x0),
                  "--out", out]
        pairs = []
        if isinstance(probe, Latency):
            make = mods.cli.make_controller

            def make_controller(cfg, name):
                return probe.timed((name, cfg.p), make(cfg, name))

            pairs.append((mods.cli, "make_controller", make_controller))
        with patched(pairs):
            sim = _cli(mods, ["simulate", "--controller", "hybrid",
                              "--t-final", repr(self.t_hybrid)] + common)
            sweep = _cli(mods, ["sweep", "--controller", "clf-cbf-qp", "--param", "p",
                                "--values", ",".join(map(str, self.P_VALUES)),
                                "--t-final", repr(self.t_sweep)] + common)
        return SimpleNamespace(x0=x0, out=out, sim=sim, sweep=sweep)

    def check(self, mods, st, r, probe):
        try:
            return self._check(mods, st, r, probe)
        finally:
            shutil.rmtree(r.out, ignore_errors=True)

    def _check(self, mods, st, r, probe):
        eq = st.bundle.eq
        p_hybrid = float(st.bundle.defaults["p"])   # what simulate resolves --p to
        cells = [("hybrid", p_hybrid, r.sim[0], "linear2d_hybrid_traj.csv")]
        cells += [("clf-cbf-qp", float(p), r.sweep[0], f"linear2d_clf-cbf-qp_p_{p:g}_traj.csv")
                  for p in self.P_VALUES]
        # a command that exits non-zero may leave no table; each cell checks
        # its own status below
        statuses = {}
        try:
            with open(os.path.join(r.out, "linear2d_hybrid_metrics.json")) as fh:
                statuses[("hybrid", p_hybrid)] = json.load(fh)["status"]
        except OSError:
            pass
        try:
            with open(os.path.join(r.out, "linear2d_clf-cbf-qp_p_sweep.csv")) as fh:
                for row in list(fh)[1:]:
                    cols = row.strip().split(",")
                    statuses[("clf-cbf-qp", float(cols[0]))] = cols[5]
        except OSError:
            pass
        ops, lines, digests = [], [f"x0 = {_fmt(r.x0)}"], []
        lat_all, lat_r2, metrics = [], [], {}
        steps = r2_steps = csv_bytes = 0
        for name, p, rc, fname in cells:
            label = "hybrid" if name == "hybrid" else f"p={p:g}"
            op = Op(f"cell {label}")
            path = os.path.join(r.out, fname)
            try:
                traj = mods.sim.read_trajectory_csv(path)
            except (OSError, mods.errors.SimulationError) as exc:
                if rc == 0:
                    op.wrong.append(f"unreadable trajectory: {exc}")
                else:
                    op.missed.append(f"no trajectory, exit code {rc}")
                ops.append(op)
                lines.append(f"cell {label}: [{op.verdict()}]")
                continue
            m = mods.sim.compute_metrics(traj, eq, eps=0.1)   # criterion 7's eps
            metrics[label] = m
            if rc != 0:
                op.missed.append(f"exit code {rc}")
            elif (name, p) not in statuses:
                op.wrong.append("exit code 0 but no status reported")
            elif statuses[(name, p)] != "ok":
                op.missed.append(f"status {statuses[(name, p)]}")
            if name == "hybrid":
                if m.min_h < -1e-6:
                    op.missed.append(f"min_h = {m.min_h:.4g} < -1e-6")
                if not math.isfinite(m.convergence_time):
                    op.missed.append("never within 0.1 of x_e")
            r2 = traj.regions == 1
            steps += r2.size
            r2_steps += int(r2.sum())
            csv_bytes += os.path.getsize(path)
            if isinstance(probe, Latency):
                lat = _samples(probe, (name, p))
                if lat.size != r2.size:
                    op.wrong.append(f"{lat.size} controller timings for {r2.size} steps")
                else:
                    lat_all.append(lat)
                    lat_r2.append(lat[r2])
            d = file_digest(path)
            digests.append(d)
            ops.append(op)
            note = ("" if name == "hybrid" or m.min_h >= -1e-6 else
                    " (sampled-data pathology of the slacked CLF row under zero-order "
                    "hold, ROADMAP item 5; reported, not counted as a failure)")
            lines.append(f"cell {label}: min_h={m.min_h:.4g}{note} input_tv={m.input_tv:.4g} "
                         f"conv(eps=0.1)={m.convergence_time:.4g} s "
                         f"R2 share={r2.mean():.4f} digest={d} [{op.verdict()}]")
        op = Op("criterion-7 orderings")
        hyb = metrics.get("hybrid")
        swept = [metrics[k] for k in metrics if k != "hybrid"]
        if hyb is None or len(swept) != len(self.P_VALUES):
            op.missed.append("cells missing")
        else:
            worst_tv = max(m.input_tv for m in swept)
            worst_conv = max(m.convergence_time for m in swept)
            if not worst_tv >= 10.0 * hyb.input_tv:
                op.missed.append(f"worst-p input TV {worst_tv:.4g} < 10 x hybrid {hyb.input_tv:.4g}")
            if not worst_conv >= 5.0 * hyb.convergence_time:
                op.missed.append(f"worst-p convergence {worst_conv:.4g}s < 5 x hybrid "
                                 f"{hyb.convergence_time:.4g}s")
            lines.append(f"orderings: worst-p input TV {worst_tv:.4g} vs hybrid {hyb.input_tv:.4g}, "
                         f"worst-p convergence {worst_conv:.4g}s vs hybrid "
                         f"{hyb.convergence_time:.4g}s [{op.verdict()}]")
        ops.append(op)
        for tag, (rc, text) in (("simulate", r.sim), ("sweep", r.sweep)):
            if rc != 0:
                lines.append(f"{tag} exit code {rc}: {text.strip().splitlines()[-1]}")
        lines.append(f"traffic: {steps} steps, R2 share {r2_steps / max(steps, 1):.4f}, "
                     f"{len(digests)} CSVs, {csv_bytes} bytes")
        return PassReport(ops, _concat(lat_all), _concat(lat_r2), lines, tuple(digests))


class Certify:
    """doa and verify through safestab.cli.main for both scenarios; no
    integration, only pointwise evaluation over grids and samples."""

    name = "certify"
    # this commit's c* and the bisection's c_hi per scenario
    C_STAR = {"tumor3d": (13.7849, 60.0), "linear2d": (35.218, 120.0)}

    def __init__(self, tumor_grid=(41, 41, 41)):
        self.tumor_grid = tumor_grid

    def sizes(self):
        return (f"doa tumor3d grid={'x'.join(map(str, self.tumor_grid))}, doa linear2d "
                f"grid=41x41 (bundled), verify tumor3d and linear2d")

    def setup(self, mods):
        out = {}
        for name in ("tumor3d", "linear2d"):
            bundle = mods.scenarios.build_scenario(name)
            out[name] = mods.filters.make_filter_config(bundle.sys, bundle.clf,
                                                        bundle.safe_set, gamma=1.0)
        return SimpleNamespace(cfgs=out)

    def run(self, mods, st, seed, probe, workdir):
        out = tempfile.mkdtemp(prefix="certify-", dir=workdir)
        s = ["--seed", str(seed)]
        pairs = []
        if isinstance(probe, Latency):
            pairs = [(mods.doa, "control_sharing_holds",
                      probe.timed("share", mods.doa.control_sharing_holds)),
                     (mods.verify, "s_cbf_qp_filter",
                      probe.timed("r2", mods.verify.s_cbf_qp_filter))]
        grid = ",".join(map(str, self.tumor_grid))
        with patched(pairs):
            results = {
                "doa tumor3d": _cli(mods, ["doa", "--scenario", "tumor3d", "--grid", grid,
                                           "--out", out] + s),
                "doa linear2d": _cli(mods, ["doa", "--scenario", "linear2d", "--out", out] + s),
                "verify tumor3d": _cli(mods, ["verify", "--scenario", "tumor3d"] + s),
                "verify linear2d": _cli(mods, ["verify", "--scenario", "linear2d"] + s),
            }
        return SimpleNamespace(out=out, results=results)

    def check(self, mods, st, r, probe):
        try:
            return self._check(r, probe)
        finally:
            shutil.rmtree(r.out, ignore_errors=True)

    def _check(self, r, probe):
        ops, lines, fp = [], [], []
        for scen, (expected, c_hi) in self.C_STAR.items():
            op = Op(f"doa {scen}")
            rc, _ = r.results[f"doa {scen}"]
            try:
                with open(os.path.join(r.out, f"{scen}_doa.json")) as fh:
                    rep = json.load(fh)
                bpath = os.path.join(r.out, rep["boundary_csv"])
                bdig = file_digest(bpath)
            except (OSError, KeyError, ValueError) as exc:
                op.wrong.append(f"unreadable doa output (exit code {rc}): {exc}")
                ops.append(op)
                lines.append(f"doa {scen}: [{op.verdict()}]")
                continue
            if rc != 0:
                op.missed.append(f"exit code {rc}")
            tol = 1e-3 * c_hi
            if not abs(rep["c_star"] - expected) <= tol:
                op.wrong.append(f"c* = {rep['c_star']!r} differs from {expected} by more than {tol:g}")
            if scen == "linear2d" and not rep["c_star"] >= rep["c_trivial"]:
                op.missed.append(f"c* {rep['c_star']:.6g} < trivial level {rep['c_trivial']:.6g}")
            ops.append(op)
            fp += [rep["c_star"], rep["c_trivial"], bdig]
            lines.append(f"doa {scen}: c*={rep['c_star']!r} c_trivial={rep['c_trivial']:.6g} "
                         f"grid points verified={rep['verified_points']} "
                         f"probes={len(rep['tested'])} boundary digest={bdig} [{op.verdict()}]")
        for scen in ("tumor3d", "linear2d"):
            rc, text = r.results[f"verify {scen}"]
            fp.append(text)
            checks = [ln for ln in text.splitlines() if ln.startswith(("[PASS]", "[FAIL]"))]
            if not checks:
                op = Op(f"verify {scen}", wrong=[f"no check results (exit code {rc})"])
                ops.append(op)
                lines.append(f"verify {scen}: [{op.verdict()}]")
            for ln in checks:
                op = Op(f"verify {scen} {ln.split()[1].rstrip(':')}")
                if ln.startswith("[FAIL]"):
                    op.wrong.append(ln)
                ops.append(op)
                lines.append(f"verify {scen}: {ln}")
        if isinstance(probe, Latency):
            lat_all, lat_r2 = _samples(probe, "share"), _samples(probe, "r2")
            lines.append(f"traffic: {lat_all.size} control-sharing checks, "
                         f"{lat_r2.size} Sontag-weighted filter calls at R2 states")
        else:
            lat_all = lat_r2 = _concat([])
        return PassReport(ops, lat_all, lat_r2, lines, tuple(fp))


WORKLOADS = {w.name: w for w in (TumorGate, LinearSweep, Certify)}
