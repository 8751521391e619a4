import csv
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import safestab
from safestab import QPIterationError, build_scenario, cli, read_trajectory_csv
from safestab.cli import main
from safestab.verify import run_checks

from test_scenarios import MALFORMED, linear2d_file


def read_strict_json(path):
    """Parse with the non-standard NaN/Infinity/-Infinity tokens rejected."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_simulate_writes_csv_and_metrics(tmp_path):
    rc = main(["simulate", "--scenario", "linear2d", "--controller", "hybrid",
               "--t-final", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    traj = read_trajectory_csv(tmp_path / "linear2d_hybrid_traj.csv")
    assert traj.n_samples == 1001
    summary = json.loads((tmp_path / "linear2d_hybrid_metrics.json").read_text())
    assert summary["status"] == "ok"
    assert summary["metrics"]["min_h"] > 0.0
    assert summary["r2_steps"] == int((traj.regions == 1).sum()) > 0
    assert summary["switches"] > 0


def test_simulate_tumor_keeps_barriers_positive(tmp_path):
    rc = main(["simulate", "--scenario", "tumor3d", "--controller", "hybrid",
               "--gamma", "1", "--t-final", "6.0", "--x0", "9.0,5.0,2.0",
               "--record-every", "10", "--out", str(tmp_path)])
    assert rc == 0
    traj = read_trajectory_csv(tmp_path / "tumor3d_hybrid_traj.csv")
    assert traj.h_values.min() >= 0.0


def test_simulate_missing_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--controller", "hybrid"])
    assert exc.value.code == 2


def test_simulate_unknown_scenario_exits_2(tmp_path):
    rc = main(["simulate", "--scenario", "does-not-exist", "--out", str(tmp_path)])
    assert rc == 2


def test_simulate_bad_x0_exits_2(tmp_path):
    rc = main(["simulate", "--scenario", "linear2d", "--x0", "4.0,4.0",
               "--t-final", "1.0", "--out", str(tmp_path)])
    assert rc == 2


def test_simulate_without_any_x0_exits_2_saying_so(tmp_path, capsys):
    text = resources.files("safestab.data").joinpath("linear2d.json").read_text()
    scenario = json.loads(text)
    del scenario["defaults"]["x0"]
    path = tmp_path / "no_x0.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    rc = main(["simulate", "--scenario", str(path), "--t-final", "0.01", "--out", str(out)])
    assert rc == 2
    assert "no x0: give --x0 or defaults.x0 in the scenario" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["simulate", "--scenario", str(path), "--x0", "0.5,0.5", "--t-final", "0.01",
               "--out", str(out)])
    assert rc == 0


def test_sweep_single_value_exits_2(tmp_path):
    rc = main(["sweep", "--scenario", "linear2d", "--param", "gamma",
               "--values", "1.0", "--out", str(tmp_path)])
    assert rc == 2


def test_sweep_values_with_the_same_cell_name_exit_2(tmp_path, capsys):
    # 10 and 10.000001 both format as "10": the second cell would overwrite
    # the first one's CSV and both table rows would name it
    out = tmp_path / "o"
    rc = main(["sweep", "--scenario", "linear2d", "--controller", "clf-cbf-qp",
               "--param", "p", "--values", "10,10.000001", "--t-final", "0.05",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "10" in capsys.readouterr().err
    rc = main(["sweep", "--scenario", "linear2d", "--controller", "clf-cbf-qp",
               "--param", "p", "--values", "10,10.0001", "--t-final", "0.05",
               "--out", str(out)])
    assert rc == 0
    assert sorted(f.name for f in out.iterdir()) == [
        "linear2d_clf-cbf-qp_p_10.0001_traj.csv", "linear2d_clf-cbf-qp_p_10_traj.csv",
        "linear2d_clf-cbf-qp_p_sweep.csv"]


def test_sweep_writes_table_and_cell_csvs(tmp_path):
    rc = main(["sweep", "--scenario", "linear2d", "--controller", "hybrid",
               "--param", "gamma", "--values", "0.5,2.0", "--t-final", "2.0",
               "--record-every", "5", "--out", str(tmp_path)])
    assert rc == 0
    table = tmp_path / "linear2d_hybrid_gamma_sweep.csv"
    with open(table) as fh:
        rows = list(csv.DictReader(fh))
    with open(table) as fh:
        # status stays column 5; the region counts follow it
        assert next(csv.reader(fh)) == ["gamma", "convergence_time", "input_tv", "min_h",
                                        "w_monotone_violation", "status", "r2_steps",
                                        "switches", "csv"]
    assert [r["gamma"] for r in rows] == ["0.5", "2.0"]
    for r in rows:
        assert (tmp_path / r["csv"]).exists()
        assert r["status"] == "ok"
        traj = read_trajectory_csv(tmp_path / r["csv"])
        assert int(r["r2_steps"]) == int((traj.regions == 1).sum()) > 0
        assert int(r["switches"]) > 0


def test_sweep_gamma_speeds_up_tumor_convergence(tmp_path):
    # rate gain ordering on the stable range: convergence time strictly
    # decreasing in gamma (gamma > 1 destabilizes the sampled loop at this
    # dt: the rate-tuned formula loses boundedness near the b = 0 surface)
    rc = main(["sweep", "--scenario", "tumor3d", "--controller", "hybrid",
               "--param", "gamma", "--values", "0.25,0.5,0.75,1.0",
               "--t-final", "40.0", "--x0", "9.0,5.0,2.0",
               "--record-every", "20", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "tumor3d_hybrid_gamma_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    convs = [float(r["convergence_time"]) for r in rows]
    assert all(r["status"] == "ok" for r in rows)
    assert all(a > b for a, b in zip(convs, convs[1:])), convs


def test_sweep_p_input_tv_trendline(tmp_path):
    # from a start whose runs all converge, input oscillation trends upward
    # with the slack weight (log-log regression slope >= 0)
    rc = main(["sweep", "--scenario", "linear2d", "--controller", "clf-cbf-qp",
               "--param", "p", "--values", "1,10,100,1000", "--t-final", "10.0",
               "--x0", "1.7,-1.7", "--record-every", "10", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "linear2d_clf-cbf-qp_p_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    ps = np.array([float(r["p"]) for r in rows])
    tvs = np.array([float(r["input_tv"]) for r in rows])
    slope = np.polyfit(np.log(ps), np.log(tvs), 1)[0]
    assert slope >= 0.0, tvs.tolist()


def test_sweep_writes_table_when_a_cell_qp_stalls(tmp_path, monkeypatch):
    # the p=1000 cell's QP stops converging at its fourth step; the sweep
    # still writes the table and every cell CSV, then exits 1
    make = cli.make_controller

    def stalling_make_controller(cfg, name):
        ctrl = make(cfg, name)
        calls = [0]

        def control(x):
            calls[0] += 1
            if cfg.p == 1000.0 and calls[0] == 4:
                raise QPIterationError("active-set did not converge")
            return ctrl(x)
        return control

    monkeypatch.setattr(cli, "make_controller", stalling_make_controller)
    rc = main(["sweep", "--scenario", "linear2d", "--controller", "clf-cbf-qp",
               "--param", "p", "--values", "10,1000", "--t-final", "0.05",
               "--out", str(tmp_path)])
    assert rc == 1
    with open(tmp_path / "linear2d_clf-cbf-qp_p_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["ok", "qp_iteration"]
    for r in rows:
        assert (tmp_path / r["csv"]).exists()
    assert read_trajectory_csv(tmp_path / rows[1]["csv"]).n_samples == 3


def test_doa_reports_c_star(tmp_path, capsys):
    rc = main(["doa", "--scenario", "linear2d", "--grid", "21,21",
               "--c-lo", "0.5", "--c-hi", "60.0", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "c* =" in out
    report = json.loads((tmp_path / "linear2d_doa.json").read_text())
    assert report["c_star"] > report["c_trivial"]
    with open(tmp_path / "linear2d_awc_boundary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x_1", "x_2"]
    assert len(rows) > 100


def test_verify_passes_for_bundled_scenarios(capsys):
    for name in ("linear2d", "tumor3d"):
        rc = main(["verify", "--scenario", name, "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "FAIL" not in out


def test_verify_prints_a_skipped_check_as_skip(capsys):
    # tumor3d's closed-form check does not apply: [SKIP], counted neither
    # passed nor failed, and the exit code stays 0
    rc = main(["verify", "--scenario", "tumor3d"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "[SKIP] closed_form_equivalence: needs m=1 and a single barrier" in lines
    assert sum(line.startswith("[PASS]") for line in lines) == 9
    assert lines[-1] == "all 9 checks passed, 1 skipped"
    rc = main(["verify", "--scenario", "linear2d"])
    out = capsys.readouterr().out
    assert rc == 0 and "[SKIP]" not in out
    assert out.splitlines()[-1] == "all 10 checks passed"


def test_verify_malformed_scenario_file_exits_2(tmp_path, capsys):
    for name, edit in MALFORMED.items():
        cfg = linear2d_file()
        edit(cfg)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", "--scenario", str(path)])
        assert rc == 2, name
        assert "error: malformed scenario: " in capsys.readouterr().err, name


def test_verify_detects_corrupted_clf_matrix(linear):
    bundle = build_scenario("linear2d")
    bundle.clf.P = np.array([[3.4142, -2.4142], [-2.0, 2.4142]])  # injected fault
    results = run_checks(bundle, seed=0)
    assert len(results) == 10
    failed = {r.name: r.detail for r in results if not r.passed}
    assert "clf_matrix" in failed
    assert "not symmetric" in failed["clf_matrix"]


def test_verify_corrupted_scenario_file_nonzero_exit(tmp_path):
    bad = {
        "name": "bad",
        "dynamics": {"kind": "linear2d", "params": {}},
        "equilibrium": {"x": [0.0, 0.0], "u": [0.0]},
        "clf": {"P": [[3.4142, -2.4142], [-2.0, 2.4142]]},
        "barriers": [{"kind": "quadratic", "offset": 1.0,
                      "quad": [[-0.1, -0.075], [-0.075, -0.1]],
                      "alpha": {"lambda": 1.0}}],
        "domain": [[-5, 5], [-5, 5]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = main(["verify", "--scenario", str(path)])
    assert rc != 0


def test_plot_emits_script(tmp_path):
    assert main(["simulate", "--scenario", "linear2d", "--t-final", "1.0",
                 "--record-every", "10", "--out", str(tmp_path)]) == 0
    rc = main(["plot", str(tmp_path / "linear2d_hybrid_traj.csv"),
               "--scenario", "linear2d", "--out", str(tmp_path)])
    assert rc == 0
    script = (tmp_path / "plot_linear2d.py").read_text()
    assert "matplotlib" in script
    assert "BOUNDARY" in script
    compile(script, "plot_linear2d.py", "exec")  # emitted script parses


def test_plot_empty_csv_exits_1(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc = main(["plot", str(empty), "--scenario", "linear2d", "--out", str(tmp_path)])
    assert rc == 1


def test_plot_schema_mismatch_exits_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    rc = main(["plot", str(bad), "--scenario", "linear2d", "--out", str(tmp_path)])
    assert rc == 1


def test_plot_malformed_row_exits_1_naming_the_file(tmp_path, capsys):
    assert main(["simulate", "--scenario", "linear2d", "--t-final", "0.1",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "linear2d_hybrid_traj.csv"
    with open(path, "a") as fh:
        fh.write("0.2,abc\n")
    rc = main(["plot", str(path), "--scenario", "linear2d", "--out", str(tmp_path)])
    assert rc == 1
    assert f"{path}: line " in capsys.readouterr().err


def test_plot_region_not_0_or_1_exits_1_naming_the_column(tmp_path, capsys):
    assert main(["simulate", "--scenario", "linear2d", "--t-final", "0.1",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "linear2d_hybrid_traj.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[-1].split(",")
    fields[header.index("region")] = "nan"
    path.write_text("\n".join(lines + [",".join(fields)]) + "\n")
    rc = main(["plot", str(path), "--scenario", "linear2d", "--out", str(tmp_path)])
    assert rc == 1
    assert f"{path}: line {len(lines) + 1}: column region" in capsys.readouterr().err


def test_determinism_same_manifest_identical_csv(tmp_path):
    for sub in ("one", "two"):
        rc = main(["simulate", "--scenario", "tumor3d", "--t-final", "1.0",
                   "--out", str(tmp_path / sub)])
        assert rc == 0
    a = (tmp_path / "one" / "tumor3d_hybrid_traj.csv").read_bytes()
    b = (tmp_path / "two" / "tumor3d_hybrid_traj.csv").read_bytes()
    assert a == b


def test_console_entry_point():
    # the subprocess imports the safestab these tests import, installed or not
    root = str(Path(safestab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "safestab.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "safestab" in proc.stdout


def test_simulate_infeasible_first_step_writes_metrics_and_exits_1(tmp_path):
    # the resting-cell row has L_g h = 0 and lb > 0 at this start, so the very
    # first CBF-QP is infeasible and the trajectory has no samples
    rc = main(["simulate", "--scenario", "tumor3d", "--controller", "cbf-qp",
               "--x0", "9.5,0.5,0.5", "--t-final", "0.1", "--out", str(tmp_path)])
    assert rc == 1
    summary = read_strict_json(tmp_path / "tumor3d_cbf-qp_metrics.json")
    assert summary["status"] == "infeasible"
    assert "t=0.0" in summary["diagnostic"]
    assert all(summary["metrics"][key] is None
               for key in ("convergence_time", "min_h", "input_tv"))
    with open(tmp_path / "tumor3d_cbf-qp_traj.csv") as fh:
        assert len(list(csv.reader(fh))) == 1   # the header alone


def test_simulate_metrics_json_is_strict_when_the_run_never_settles(tmp_path):
    rc = main(["simulate", "--scenario", "linear2d", "--controller", "hybrid",
               "--t-final", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    metrics = read_strict_json(tmp_path / "linear2d_hybrid_metrics.json")["metrics"]
    assert metrics["convergence_time"] is None
    assert metrics["min_h"] > 0.0


def test_simulate_rejects_non_finite_parameters(tmp_path):
    for flag, value in (("--gamma", "inf"), ("--p", "inf"), ("--dt", "inf"),
                        ("--t-final", "nan"), ("--x0", "nan,0")):
        rc = main(["simulate", "--scenario", "linear2d", flag, value,
                   "--out", str(tmp_path)])
        assert rc == 2, flag
    assert not list(tmp_path.iterdir())


def test_doa_and_verify_reject_non_finite_gamma(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["doa", "--scenario", "linear2d", "--gamma", "inf", "--out", str(out)])
    assert rc == 2
    rc = main(["verify", "--scenario", "linear2d", "--gamma", "inf"])
    assert rc == 2
    assert "PASS" not in capsys.readouterr().out
    assert not out.exists()


def test_doa_rejects_a_grid_with_no_point_to_verify(tmp_path):
    # too coarse a grid leaves no candidate, and c_hi = inf none either; both
    # would otherwise certify c* = c_hi with no point checked
    out = tmp_path / "out"
    for scenario, extra in (("linear2d", ["--grid", "3,3"]),
                            ("tumor3d", ["--grid", "2,2,2"]),
                            ("linear2d", ["--grid", "21,21", "--c-hi", "inf"])):
        rc = main(["doa", "--scenario", scenario, "--out", str(out)] + extra)
        assert rc == 2, (scenario, extra)
    assert not out.exists()


def test_sweep_writes_table_when_a_cell_fails_at_its_first_step(tmp_path):
    rc = main(["sweep", "--scenario", "tumor3d", "--controller", "cbf-qp",
               "--param", "gamma", "--values", "0.5,1", "--x0", "9.5,0.5,0.5",
               "--t-final", "0.1", "--out", str(tmp_path)])
    assert rc == 1
    with open(tmp_path / "tumor3d_cbf-qp_gamma_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["infeasible", "infeasible"]
    assert [r["min_h"] for r in rows] == ["nan", "nan"]
    for r in rows:
        assert (tmp_path / r["csv"]).exists()


def test_simulate_and_sweep_reject_an_unsafe_x0_before_writing(tmp_path):
    # linear2d's safe set excludes (4, 4): min h = -4.6
    out = tmp_path / "o1" / "sub"
    rc = main(["simulate", "--scenario", "linear2d", "--x0", "4.0,4.0",
               "--t-final", "1", "--out", str(out)])
    assert rc == 2
    rc = main(["sweep", "--scenario", "linear2d", "--x0", "4.0,4.0", "--param", "p",
               "--values", "1,10", "--t-final", "1", "--out", str(out)])
    assert rc == 2
    assert not (tmp_path / "o1").exists()
