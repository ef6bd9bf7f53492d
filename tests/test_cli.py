"""Tests for the command-line front end (in-process invocations)."""

import json

import numpy as np
import pytest

from lbmfd.cli import main


def test_calibrate_sixth_emits_json():
    rc = main(["calibrate", "--epsilon", "0.1", "--order", "6"])
    assert rc == 0


def test_calibrate_sixth_payload(capsys):
    main(["calibrate", "--epsilon", "0.1", "--order", "6"])
    payload = json.loads(capsys.readouterr().out)
    assert tuple(payload) == ("epsilon", "omega0", "s1", "s2",
                              "residual_second", "residual_fourth", "order")
    np.testing.assert_allclose(payload["omega0"], 0.8310204592587027,
                               rtol=1e-9)
    np.testing.assert_allclose(payload["s1"], 0.9159290534201945, rtol=1e-9)
    np.testing.assert_allclose(payload["s2"], 1.1450386147380731, rtol=1e-9)


def test_calibrate_fourth_payload(capsys):
    rc = main(["calibrate", "--epsilon", "0.1", "--order", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["omega0"] == 0.8
    np.testing.assert_allclose(payload["s2"], 12.0 / 11.0, atol=1e-14)


def test_calibrate_infeasible_epsilon(capsys):
    rc = main(["calibrate", "--epsilon", "0.3", "--order", "6"])
    assert rc == 2
    assert "0.262" in capsys.readouterr().err


def test_calibrate_usage_errors(capsys):
    assert main(["calibrate", "--epsilon", "0.1", "--order", "5"]) == 1
    assert main(["calibrate", "--order", "6"]) == 1
    assert main(["calibrate", "--epsilon", "-0.1", "--order", "6"]) == 1
    assert main(["calibrate", "--epsilon", "0.1", "--order", "6",
                 "--format", "csv"]) == 1
    assert main(["calibrate", "--epsilon", "0.1", "--order", "4",
                 "--s1", "2.5"]) == 1
    capsys.readouterr()


def test_run_csv_snapshot(capsys):
    rc = main(["run", "--epsilon", "0.1", "--dx", "0.1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,phi"
    assert len(lines) == 12
    assert lines[1].split(",") == ["0", "0"]
    assert float(lines[-1].split(",")[0]) == 1.0


def test_run_json_snapshot(capsys):
    rc = main(["run", "--epsilon", "0.1", "--dx", "0.1", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["x"]) == 11 and len(payload["phi"]) == 11


def test_run_rejects_infeasible_and_invalid(capsys):
    assert main(["run", "--epsilon", "0.3"]) == 2
    assert main(["run", "--epsilon", "0.1", "--dx", "-0.1"]) == 1
    assert main(["run", "--epsilon", "0.1", "--dx", "0.03"]) == 1
    capsys.readouterr()
    for flags in (["--dx", "nan"], ["--dx", "inf"], ["--epsilon", "nan"],
                  ["--t-end", "inf"], ["--t-end", "nan"], ["--dx", "1e-320"],
                  ["--dx", "1e-100"], ["--epsilon", "-0.1"],
                  ["--t-end", "1e300"], ["--dx", repr(2.0 ** -22)]):
        assert main(["run", "--epsilon", "0.1", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lbmfd: error: ") and err.count("\n") == 1


def test_run_output_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["run", "--epsilon", "0.1", "--dx", "0.1", "--output", str(a)])
    main(["run", "--epsilon", "0.1", "--dx", "0.1", "--output", str(b)])
    first = a.read_bytes()
    assert first == b.read_bytes()
    assert first.endswith(b"\n") and b"\r" not in first


def test_convergence_csv(capsys):
    rc = main(["convergence", "--order", "6", "--eps-list", "0.1",
               "--dx-list", "0.1,0.05"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epsilon,order,dx,dt,rmse,rate"
    assert len(lines) == 3
    assert lines[1].split(",")[5] == ""
    assert 5.8 < float(lines[2].split(",")[5]) < 6.1


def test_convergence_json(capsys):
    rc = main(["convergence", "--order", "4", "--eps-list", "0.1",
               "--dx-list", "0.1,0.05", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    rep = payload["reports"][0]
    assert rep["order"] == "fourth"
    assert len(rep["rows"]) == 2 and len(rep["rates"]) == 1
    assert 3.8 < rep["rates"][0] < 4.1


def test_convergence_errors(capsys):
    assert main(["convergence", "--order", "6", "--eps-list", "0.3"]) == 2
    assert main(["convergence", "--order", "6", "--eps-list", ""]) == 1
    assert main(["convergence", "--order", "6",
                 "--dx-list", "0.05,0.1"]) == 1
    capsys.readouterr()


def test_stability_json_payload(capsys):
    rc = main(["stability", "--omega0", "0.8", "--s1", "1.0", "--s2", "1.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert tuple(payload) == ("max_spectral_radius", "worst_theta",
                              "rh_min_margin", "stable", "theta_samples")
    assert payload["stable"] is True
    np.testing.assert_allclose(payload["max_spectral_radius"], 1.0,
                               atol=1e-12)
    assert abs(payload["worst_theta"]) < 0.02


def test_stability_usage_error(capsys):
    assert main(["stability", "--omega0", "0.8", "--s1", "2.5",
                 "--s2", "1.0"]) == 1
    capsys.readouterr()


def test_equivalence_reports_a_tiny_deviation(capsys):
    rc = main(["equivalence", "--omega0", "0.8310204592587027",
               "--s1", "0.9159290534201945", "--s2", "1.1450386147380731"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["max_abs_deviation"] <= payload["threshold"]
    assert payload["n_nodes"] == 64 and payload["steps"] == 200
    assert payload["seed"] == 42


def test_equivalence_is_parameter_independent(capsys):
    rc = main(["equivalence", "--omega0", "0.5", "--s1", "1.5",
               "--s2", "0.5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_equivalence_usage_errors(capsys):
    base = ["equivalence", "--omega0", "0.5", "--s1", "1.5", "--s2", "0.5"]
    assert main(base + ["--steps", "2"]) == 1
    assert main(base + ["--n-nodes", "4"]) == 1
    capsys.readouterr()
    assert main(base + ["--steps", str(2 ** 40)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lbmfd: error: ") and err.count("\n") == 1


def test_equivalence_same_seed_same_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["equivalence", "--omega0", "0.5", "--s1", "1.5", "--s2", "0.5",
            "--seed", "9"]
    main(base + ["--output", str(a)])
    main(base + ["--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_inside_the_solvable_range(capsys):
    rc = main(["sweep", "--eps-min", "0.01", "--eps-max", "0.26",
               "--n-points", "26"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epsilon,omega0,s1,s2,status"
    assert len(lines) == 27
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_straddles_the_range_boundary(capsys):
    rc = main(["sweep", "--eps-min", "0.25", "--eps-max", "0.30",
               "--n-points", "6"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    status = [line.split(",")[-1] for line in lines]
    assert status == ["ok", "ok", "no_real_root", "no_real_root",
                      "no_real_root", "no_real_root"]
    for line in lines[2:]:
        fields = line.split(",")
        assert fields[1] == fields[2] == fields[3] == ""


def test_sweep_json_and_usage_errors(capsys):
    rc = main(["sweep", "--eps-min", "0.1", "--eps-max", "0.1",
               "--n-points", "1", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["status"] == "ok"
    assert main(["sweep", "--eps-min", "0.2", "--eps-max", "0.1",
                 "--n-points", "5"]) == 1
    assert main(["sweep", "--eps-min", "0.0", "--eps-max", "0.1",
                 "--n-points", "5"]) == 1
    assert main(["sweep", "--eps-min", "0.1", "--eps-max", "0.2",
                 "--n-points", "0"]) == 1
    capsys.readouterr()


def test_profile_csv(capsys):
    rc = main(["profile", "--eps-list", "0.1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epsilon,x,phi_numeric,phi_analytic"
    first = lines[1].split(",")
    assert first[1] == "0" and first[2] == "0"
    assert main(["profile", "--eps-list", ""]) == 1
    capsys.readouterr()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "steps": 50}))
    base = ["equivalence", "--omega0", "0.5", "--s1", "1.5", "--s2", "0.5"]
    rc = main(base + ["--config", str(cfg)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 7 and payload["steps"] == 50
    # Explicit flags win over config values.
    main(base + ["--config", str(cfg), "--steps", "60"])
    assert json.loads(capsys.readouterr().out)["steps"] == 60
    # Config values are parsed like flags: they can supply required flags,
    # and a list is joined with commas.
    for command, config, flags in (
            ("calibrate", {"epsilon": 0.1, "order": 6},
             ["--epsilon", "0.1", "--order", "6"]),
            ("convergence", {"order": 4, "eps_list": [0.1],
                             "dx_list": [0.1, 0.05]},
             ["--order", "4", "--eps-list", "0.1", "--dx-list", "0.1,0.05"]),
            ("profile", {"eps_list": 0.1}, ["--eps-list", "0.1"])):
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main([command, *flags]) == 0
        assert from_config == capsys.readouterr().out


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    base = ["equivalence", "--omega0", "0.5", "--s1", "1.5", "--s2", "0.5"]
    assert main(base + ["--config", str(missing)]) == 1
    assert main(base + ["--config"]) == 1
    not_a_dict = tmp_path / "list.json"
    not_a_dict.write_text("[1, 2]")
    assert main(base + ["--config", str(not_a_dict)]) == 1
    capsys.readouterr()
    # Out-of-choice values and unknown keys end in argparse's usage line
    # and one error line, as the same flags would.
    cfg = tmp_path / "cfg.json"
    for command, config in (("run", {"epsilon": 0.1, "order": 5}),
                            ("calibrate", {"epsilon": 0.1, "order": 6,
                                           "format": "xml"}),
                            ("run", {"epsilon": 0.1, "bogus": 3})):
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lbmfd ") and err.count("error:") == 1
        assert err.splitlines()[-1].startswith("lbmfd")
        assert ": error: " in err.splitlines()[-1]


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
