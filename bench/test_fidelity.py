"""Fidelity of the benchmark's tracing, on small versions of the workloads.

    python3 -m pytest bench -q

* A traced pass must produce bit-identical outputs (trajectory digests, CSV
  digests, c* values, verify output) to an untraced pass of the same inputs,
  so the wrappers do not change the program.
* Every count that later changes may cite must repeat exactly between two
  traced runs of the same inputs.
"""
import os

import pytest

import run
from workloads import Certify, LinearSweep, TumorGate

SMALL = [TumorGate(n_starts=2, t_final=0.5),
         LinearSweep(t_hybrid=0.5, t_sweep=0.5),
         Certify(tumor_grid=(11, 11, 11))]


@pytest.fixture(scope="module")
def mods():
    os.makedirs(run.WORKDIR, exist_ok=True)
    return run.import_src()


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_outputs_match_and_counts_repeat(workload, mods, monkeypatch):
    monkeypatch.setenv("SAFESTAB_THREADS", "1")
    seed = run.input_seed(7, 0)
    counts = []
    for _ in range(2):
        wall_u, wall_t, rep_u, rep_t, tracer = run.traced_pair(workload, mods, seed)
        assert rep_u.fingerprint, "nothing to compare"
        assert rep_t.fingerprint == rep_u.fingerprint
        metrics = run.layer_metrics(tracer, wall_u, wall_t)
        counts.append({k: metrics[k] for k in run.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["core.dyn.calls"][0] > 0 and counts[0]["qp.solve.calls"][0] > 0
    if workload.name != "certify":
        assert counts[0]["sim.steps"][0] > 0


def test_patches_are_undone(mods):
    before = {(m, a): getattr(getattr(mods, m), a)
              for m, a in (("filters", "solve_qp"), ("sim", "rk4_step"), ("cli", "main"),
                           ("qp", "_phase_one"), ("doa", "control_sharing_holds"))}
    run.traced_pair(SMALL[0], mods, run.input_seed(7, 1))
    after = {key: getattr(getattr(mods, key[0]), key[1]) for key in before}
    assert after == before
