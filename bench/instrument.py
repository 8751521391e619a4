"""Probes the benchmark attaches to safestab from the outside.

Two kinds, never mixed in one pass:

* ``Latency`` -- the only instrumentation of an untraced pass: one
  ``perf_counter_ns`` pair around each pointwise evaluation (the controller
  handed to ``integrate``, or the per-point calls of ``certify``).
* ``Tracer`` -- the traced run: spans (name, start, end, parent, operation id)
  kept in flat in-memory arrays and written out once at the end, plus counters
  read off the return values at the same boundaries.

Both work by replacing names where safestab calls them. Module-level names are
bound at import, so each binding site is patched separately, and the bundle's
callables (f, g, h, grad h, W, grad W) are wrapped before the filter config
caches them. Nothing under ``src/`` is edited; every patch is undone on exit.
"""
from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager

import numpy as np


@contextmanager
def patched(pairs):
    """Set each (object, attribute, value) for the duration of the block."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in pairs]
    for obj, attr, value in pairs:
        setattr(obj, attr, value)
    try:
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


class Latency:
    """Per-key latency samples in nanoseconds."""

    def __init__(self):
        self.samples = {}

    def timed(self, key, fn):
        buf = self.samples.setdefault(key, array("q"))
        clock = time.perf_counter_ns

        def timed(*args):
            t0 = clock()
            result = fn(*args)
            buf.append(clock() - t0)
            return result

        return timed


class Tracer:
    """Flat span store. Every span opened with no open parent starts a new
    operation id, so the spans of one run, cell or command share an id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op = 0
        self.counters = {}
        self.kkt_max = 0.0

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(result, *args) runs once the span closed."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1]
            if parent < 0:
                tracer._op += 1
            names.append(nid)
            parents.append(parent)
            ops.append(tracer._op)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        return traced

    def counted(self, key, fn):
        """Count calls of fn without opening a span, so its time stays with
        the caller's span."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks reading counters off return values --------------------------

    def _after_solve(self, sol, *args):
        self.count("qp.iterations", sol.iterations)
        if sol.optimal:
            self.kkt_max = max(self.kkt_max, float(sol.kkt_residual))
        else:
            self.count("qp.infeasible")

    def _after_integrate(self, traj, *args):
        # record_every is 1 in every workload, so samples are steps
        self.count("sim.steps", int(traj.times.size))
        self.count("sim.r2_steps", int((traj.regions == 1).sum()))
        self.count("sim.switches", len(traj.switch_events))

    def _after_csv(self, _, traj, path):
        self.count("sim.csv.bytes", os.path.getsize(path))

    def _after_cstar(self, est, *args):
        self.count("doa.probes", len(est.tested))
        self.count("doa.points", est.verified_points)

    def _after_verify(self, results, *args):
        self.count("verify.checks", len(results))

    # -- patches -------------------------------------------------------------

    def instrument_bundle(self, bundle, *args):
        """Wrap the scenario's callables in place; must run before
        make_filter_config, which caches the barrier callables."""
        system = bundle.sys
        system.f = self.span("core.dyn", system.f)
        system.g = self.span("core.dyn", system.g)
        for bar in bundle.safe_set.barriers:
            bar.h = self.span("core.barrier", bar.h)
            if bar.grad_h is not None:
                bar.grad_h = self.span("core.barrier", bar.grad_h)
        clf = bundle.clf
        clf.value = self.span("core.clf", clf.value)
        clf.grad = self.span("core.clf", clf.grad)

    def patches(self, mods):
        """(module, attribute, wrapper) for every binding site the benchmark
        traces, covering both the library path and the CLI path."""
        pairs = []

        def wrap(mod, attr, name, after=None):
            pairs.append((mod, attr, self.span(name, getattr(mod, attr), after)))

        def make_controller(make):
            def traced_make_controller(cfg, name):
                return self.span("filters.ctrl", make(cfg, name))
            return traced_make_controller

        m = mods
        for mod in (m.scenarios, m.cli):
            wrap(mod, "build_scenario", "scenarios.build", self.instrument_bundle)
        for mod in (m.filters, m.cli):
            pairs.append((mod, "make_controller", make_controller(mod.make_controller)))
        for mod in (m.sim, m.cli):
            wrap(mod, "integrate", "sim.integrate", self._after_integrate)
        for mod in (m.doa, m.cli):
            wrap(mod, "compute_c_star", "doa.cstar", self._after_cstar)
        wrap(m.doa, "sample_states_in_awc", "doa.raycast")
        wrap(m.cli, "largest_clf_sublevel_inside", "doa.raycast")
        wrap(m.cli, "awc_boundary_points", "doa.raycast")
        wrap(m.doa, "control_sharing_holds", "doa.share")
        wrap(m.doa, "cbf_rows", "doa.rows")
        wrap(m.doa, "lp_feasible", "qp.lp")
        for mod in (m.filters, m.verify):
            wrap(mod, "solve_qp", "qp.solve", self._after_solve)
            wrap(mod, "QPSpec", "qp.spec")
        pairs.append((m.qp, "_phase_one", self.counted("qp.phase_one.calls", m.qp._phase_one)))
        for mod in (m.core, m.sontag, m.filters, m.verify):
            wrap(mod, "sontag_terms", "sontag")
        for mod in (m.sontag, m.filters):
            wrap(mod, "sontag_control", "sontag")
        wrap(m.sim, "rk4_step", "sim.rk4")
        wrap(m.sim, "cbf_rows", "filters.rows")
        wrap(m.sim, "classify_region", "filters.rows")
        wrap(m.verify, "s_cbf_qp_filter", "filters.ctrl")
        wrap(m.cli, "write_trajectory_csv", "sim.csv", self._after_csv)
        wrap(m.cli, "run_checks", "verify", self._after_verify)
        wrap(m.cli, "main", "cli")
        return pairs

    # -- results -------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def layers(self, wall_ns):
        """Per span name: calls and self seconds; plus the time no root span
        covers."""
        a = self.arrays()
        n_names = len(self.names)
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_ns, minlength=n_names) / 1e9
        out = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}
        covered = dur[~has_parent].sum()
        return out, (wall_ns - covered) / 1e9

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
