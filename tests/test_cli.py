import csv
import hashlib
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
    assert summary["first_unsafe"] is None


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


def test_simulate_from_a_nan_barrier_value_exits_2(tmp_path, capsys):
    # with the saddle quad diag(1, -1), h = 1 + x_1^2 - x_2^2 is inf - inf =
    # NaN at (1e200, 1e200), a start outside the safe set as h = -inf is
    scenario = linear2d_file()
    scenario["barriers"][0]["quad"] = [[1.0, 0.0], [0.0, -1.0]]
    path = tmp_path / "saddle.json"
    path.write_text(json.dumps(scenario))
    bundle = safestab.load_scenario(path)
    cfg = safestab.make_filter_config(bundle.sys, bundle.clf, bundle.safe_set)
    with pytest.raises(safestab.SimulationError, match="min h = nan"):
        safestab.integrate(cfg, safestab.make_controller(cfg, "hybrid"),
                           safestab.SimConfig(x0=[1e200, 1e200], t_final=0.01))
    out = tmp_path / "o"
    for x0 in ("1e200,1e200", "0,1e200"):
        rc = main(["simulate", "--scenario", str(path), "--x0", x0, "--t-final", "0.01",
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
    assert "x0 outside the safe set: min h = nan" in capsys.readouterr().err


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


def test_a_file_with_only_x0_in_defaults_runs_on_the_fallback_table(tmp_path, capsys):
    scenario = linear2d_file()
    scenario["defaults"] = {"x0": scenario["defaults"]["x0"]}
    path = tmp_path / "only_x0.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "linear2d_hybrid_metrics.json").read_text())
    assert (summary["gamma"], summary["p"], summary["t_final"]) == (1.0, 10.0, 10.0)
    assert main(["doa", "--scenario", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "linear2d_doa.json").read_text())
    assert report["grid_resolution"] == [41, 41]
    assert [c for c, _ in report["tested"][:2]] == [0.1, 100.0]
    assert main(["verify", "--scenario", str(path)]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_sweep_checks_each_cells_own_gamma(tmp_path):
    # --gamma -1 is replaced by each cell's value before any config is built
    rc = main(["sweep", "--scenario", "linear2d", "--gamma", "-1", "--param", "gamma",
               "--values", "1,2", "--t-final", "0.05", "--out", str(tmp_path)])
    assert rc == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "linear2d_hybrid_gamma_1_traj.csv", "linear2d_hybrid_gamma_2_traj.csv",
        "linear2d_hybrid_gamma_sweep.csv"]


@pytest.mark.parametrize("command", ["simulate", "sweep", "doa", "verify", "plot"])
def test_each_subcommand_prints_its_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: safestab {command}")


def test_version_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "safestab 0.1.0\n"


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; a usage error or another
    # command in between leaves the next call's arguments as they would be
    # from a fresh parser
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit):
        main(["verify", "--scenario", "linear2d", "--seed", "x"])
    assert main(["verify", "--scenario", "linear2d", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["doa", "--scenario", "linear2d", "--out", str(tmp_path)]) == 0
    assert main(["verify", "--scenario", "linear2d", "--seed", "1"]) == 0
    assert capsys.readouterr().out.split("\n")[1:] == first.split("\n")
    args = cli.build_parser().parse_args(["doa", "--scenario", "tumor3d"])
    assert (args.grid, args.seed, args.c_lo, args.out) == (None, 0, None, ".")


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


def test_a_number_written_as_a_string_exits_2(tmp_path, capsys):
    cfg = linear2d_file()
    cfg["barriers"][0]["offset"] = "1.0"
    path = tmp_path / "offset.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--scenario", str(path)]) == 2
    assert "error: malformed scenario: barriers[0].offset: " in capsys.readouterr().err


def test_defaults_of_the_wrong_type_exit_2_in_every_command_reading_them(tmp_path, capsys):
    # a null gamma once escaped float() in simulate, doa and verify, and a
    # number for doa_c_bounds the unpacking in doa, each as a traceback
    for key, value in (("gamma", None), ("doa_c_bounds", 3)):
        cfg = linear2d_file()
        cfg["defaults"][key] = value
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(cfg))
        out = ["--out", str(tmp_path / "out")]
        for argv in (["simulate"] + out, ["doa", "--grid", "5,5"] + out, ["verify"]):
            rc = main(argv + ["--scenario", str(path)])
            assert rc == 2, (key, argv)
            assert "error: malformed scenario: " in capsys.readouterr().err, (key, argv)
    assert not (tmp_path / "out").exists()


def test_a_scenario_name_that_leaves_out_exits_2_and_writes_nothing(tmp_path, capsys):
    # the name prefixes each output file: "../escaped" once wrote
    # escaped_hybrid_traj.csv beside --out and exited 0
    cfg = linear2d_file()
    cfg["name"] = "../escaped"
    path = tmp_path / "escaped.json"
    path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    for argv in (["simulate", "--t-final", "0.01"], ["doa", "--grid", "5,5"],
                 ["sweep", "--t-final", "0.01", "--param", "p", "--values", "1,2"]):
        rc = main(argv + ["--scenario", str(path), "--out", str(run / "out")])
        assert rc == 2, argv
        assert "error: malformed scenario: name: " in capsys.readouterr().err, argv
    assert sorted(tmp_path.iterdir()) == [path]


def test_an_infinite_domain_bound_exits_2_without_a_traceback(tmp_path, capsys):
    # a -Infinity bound once reached verify's samplers as an OverflowError
    cfg = linear2d_file()
    cfg["domain"][0][0] = -float("inf")
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(cfg))
    assert "-Infinity" in path.read_text()
    assert main(["verify", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: malformed scenario: domain[0][0]: expected a finite number, "
                   "got -inf\n")


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


@pytest.mark.parametrize("record_every", [1, 7])
def test_metrics_name_the_first_unsafe_sample(tmp_path, record_every):
    # the clf-cbf-qp leaves linear2d's safe set at t ~ 2.3 s, near the
    # boundary points where L_g h = 0 and L_f h < 0; the report is the first
    # recorded sample whose least barrier value is below -1e-6
    rc = main(["simulate", "--scenario", "linear2d", "--controller", "clf-cbf-qp",
               "--t-final", "3.0", "--record-every", str(record_every), "--out", str(tmp_path)])
    assert rc == 0
    first = read_strict_json(tmp_path / "linear2d_clf-cbf-qp_metrics.json")["first_unsafe"]
    traj = read_trajectory_csv(tmp_path / "linear2d_clf-cbf-qp_traj.csv")
    least = traj.h_values.min(axis=1)
    i = int(np.argmax(least < -1e-6))
    assert least[i] < -1e-6 and (least[:i] >= -1e-6).all()
    assert first == {"step": round(traj.times[i] / 1e-3), "t": traj.times[i],
                     "x": traj.states[i].tolist(), "barrier": "ellipse", "h": least[i]}
    assert first["step"] % record_every == 0 and 2.2 < first["t"] < 2.4


@pytest.mark.parametrize("flag,value,count", [("--t-final", "1e12", "1e+15"),
                                              ("--dt", "1e-300", "1e+301")])
def test_simulate_whose_records_cannot_be_allocated_exits_2(tmp_path, capsys, flag, value,
                                                            count):
    rc = main(["simulate", "--scenario", "linear2d", flag, value, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate") and "Traceback" not in err
    for text in (f"{count} records", f"{flag[2:].replace('-', '_')}={float(value)!r}",
                 "record_every=1", "--record-every"):
        assert text in err
    assert not list(tmp_path.iterdir())


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


def test_simulate_and_sweep_whose_records_cannot_be_allocated_leave_no_out_directory(tmp_path):
    # a fresh nested --out: the refused run must not create it
    out = tmp_path / "new" / "sub"
    rc = main(["simulate", "--scenario", "linear2d", "--t-final", "1e12", "--out", str(out)])
    assert rc == 2
    rc = main(["sweep", "--scenario", "linear2d", "--param", "p", "--values", "1,10",
               "--t-final", "1e12", "--out", str(out)])
    assert rc == 2
    assert not (tmp_path / "new").exists()


def test_plot_reads_the_header_only_csv_of_a_run_stopped_at_its_first_step(tmp_path, capsys):
    # the CBF-QP is infeasible at this start, so simulate writes no data row
    rc = main(["simulate", "--scenario", "tumor3d", "--controller", "cbf-qp",
               "--x0", "9.5,0.5,0.5", "--t-final", "0.1", "--out", str(tmp_path)])
    assert rc == 1
    path = tmp_path / "tumor3d_cbf-qp_traj.csv"
    assert len(path.read_text().splitlines()) == 1
    capsys.readouterr()
    rc = main(["plot", str(path), "--scenario", "tumor3d", "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "plot_tumor3d.py").exists()


# SHA-256 of each linear2d trajectory CSV at the bundled defaults (10 001
# rows). linear2d's step path uses only + - * /, math.sqrt, frexp and ldexp,
# with no exp and no BLAS call, so these bytes do not depend on the CPU;
# tumor3d goes through np.exp, whose last bits may, and is left out. A
# change that alters these bits on purpose updates the pins and says so.
LINEAR2D_TRAJ_SHA256 = {
    "sontag": "4d6a4024310036a7d7bf88088933242c68e942b123f7f1f38512faad1bb31a15",
    "cbf-qp": "59f1d0c235f102d82bc3a4fbf9f43e928a4edba87e7049e4ed0aaff252052402",
    "clf-cbf-qp": "f786ecd4c6522738fe4eed30fd349fbf3e726d3dfa61477f6ac77ea4b462e7e6",
    "s-cbf-qp": "4b3772c8eb50ecd112130fa7e91c4d8854c5918a6cfb01189fccd8d09cc85953",
    "hybrid": "4b3772c8eb50ecd112130fa7e91c4d8854c5918a6cfb01189fccd8d09cc85953",
}


@pytest.mark.parametrize("controller", safestab.CONTROLLER_NAMES)
def test_linear2d_trajectory_bytes_are_pinned(controller, tmp_path):
    assert main(["simulate", "--scenario", "linear2d", "--controller", controller,
                 "--out", str(tmp_path)]) == 0
    data = (tmp_path / f"linear2d_{controller}_traj.csv").read_bytes()
    assert data.count(b"\r\n") == 1 + 10001
    assert hashlib.sha256(data).hexdigest() == LINEAR2D_TRAJ_SHA256[controller]
