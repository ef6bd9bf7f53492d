"""Tests for the command-line front end (in-process invocations, and one
real process)."""

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbmfd import cli, lbm, stability, verification
from lbmfd.cli import main


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("lbmfd: error: ") and err.count("\n") == 1, err


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
    capsys.readouterr()
    # An invalid --s1 is refused at order 6 too, where it goes unused, and
    # a non-finite epsilon is invalid input at both orders.
    nonfinite = (["--order", order, f"--epsilon={eps}"]
                 for order in ("4", "6") for eps in ("nan", "inf", "-inf"))
    for flags in (["--order", "4", "--s1", "2.5"],
                  ["--order", "6", "--s1", "2.5"], *nonfinite):
        assert main(["calibrate", "--epsilon", "0.1", *flags]) == 1
        _assert_one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["calibrate", "--epsilon", "0.6", "--order", "4"],
    ["run", "--epsilon", "0.6", "--order", "4"],
    ["convergence", "--order", "4", "--eps-list", "0.6"],
    ["run", "--epsilon", "0.6", "--order", "2"],
])
def test_valid_epsilon_without_a_triple_exits_2(argv, capsys):
    assert main(argv) == 2
    _assert_one_error_line(capsys)


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


def test_run_rejects_infeasible_and_invalid(capsys, tmp_path):
    assert main(["run", "--epsilon", "0.3"]) == 2
    assert main(["run", "--epsilon", "0.1", "--dx", "-0.1"]) == 1
    assert main(["run", "--epsilon", "0.1", "--dx", "0.03"]) == 1
    capsys.readouterr()
    for flags in (["--dx", "nan"], ["--dx", "inf"], ["--epsilon", "nan"],
                  ["--t-end", "inf"], ["--t-end", "nan"], ["--dx", "1e-320"],
                  ["--dx", "1e-100"], ["--epsilon", "-0.1"],
                  ["--t-end", "1e300"], ["--dx", repr(2.0 ** -22)],
                  ["--dx", "0.1", "--output", str(tmp_path / "no" / "x.csv")]):
        assert main(["run", "--epsilon", "0.1", *flags]) == 1
        _assert_one_error_line(capsys)


def test_run_marches_to_its_own_t_end(capsys):
    # At dx = 0.25, dt = 1.875: 7.5 is four steps, while the tables' 12 is
    # 6.4 steps and is refused.
    rc = main(["run", "--epsilon", "0.1", "--dx", "0.25", "--t-end", "7.5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,phi" and len(lines) == 6
    assert main(["run", "--epsilon", "0.1", "--dx", "0.25"]) == 1
    _assert_one_error_line(capsys)


def test_run_takes_a_t_end_of_two_rounded_steps(capsys):
    # dt = 30*dx**2 rounds up at dx = 0.1 and 0.05, so 0.6 and 0.15 fall
    # just short of 2*dt; within the 1e-9 slack they are two steps, and
    # the result is the third seeded level.  One step stays refused.
    for dx, t_end, n_nodes in (("0.1", "0.6", 11), ("0.05", "0.15", 21)):
        rc = main(["run", "--epsilon", "0.1", "--dx", dx, "--t-end", t_end])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,phi" and len(lines) == n_nodes + 1
    assert main(["run", "--epsilon", "0.1", "--dx", "0.1",
                 "--t-end", "0.3"]) == 1
    _assert_one_error_line(capsys)


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
    _assert_one_error_line(capsys)
    assert main(["stability", "--omega0", "0.8", "--s1", "1.0", "--s2", "1.0",
                 "--n-theta", str(stability._MAX_THETA_SAMPLES + 1)]) == 1
    _assert_one_error_line(capsys)


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
    too_many_nodes = str(lbm._MAX_EQUIV_NODES + 1)
    for flags in (["--steps", str(2 ** 40)], ["--seed", "-1"],
                  ["--steps", "3", "--n-nodes", too_many_nodes]):
        assert main(base + flags) == 1
        _assert_one_error_line(capsys)


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
    for lo, hi, n in (("nan", "0.3", 3), ("0.1", "nan", 3), ("0.1", "inf", 3),
                      ("-inf", "0.3", 3), ("inf", "inf", 1), ("0.1", "inf", 1),
                      ("0.2", "0.1", 1), ("0.2", "0.1", 5),
                      ("0.1", "0.2", cli._MAX_SWEEP_POINTS + 1)):
        assert main(["sweep", f"--eps-min={lo}", f"--eps-max={hi}",
                     "--n-points", str(n)]) == 1
        _assert_one_error_line(capsys)


def test_profile_csv(capsys):
    rc = main(["profile", "--eps-list", "0.1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epsilon,x,phi_numeric,phi_analytic"
    first = lines[1].split(",")
    assert first[1] == "0" and first[2] == "0"
    assert main(["profile", "--eps-list", ""]) == 1
    capsys.readouterr()


def test_tables_and_profiles_past_the_node_cap_exit_with_one_line(
        tmp_path, capsys, monkeypatch):
    def refused(*args):
        raise AssertionError("calibrated past the node cap")

    monkeypatch.setattr(verification, "_params_for", refused)
    eps = ",".join(["0.1"] * (verification._MAX_TABLE_NODES // 41 + 1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 6, "eps_list": eps}))
    for argv in (["profile", "--eps-list", eps],
                 ["convergence", "--order", "6", "--eps-list", eps],
                 ["convergence", "--config", str(cfg)]):
        assert main(argv) == 1
        _assert_one_error_line(capsys)


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
    capsys.readouterr()
    # An empty path is refused like any unreadable one, not ignored.
    assert main(base + ["--config", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(
        "lbmfd: error: cannot read config ")
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
    # --config is a flag of each subcommand: before the subcommand it is
    # refused by name, and no file is opened (a missing one would say
    # "cannot read config").
    cfg.write_text(json.dumps({"epsilon": 0.1, "order": 6}))
    for head in (["--config", str(cfg)], [f"--config={cfg}"],
                 ["--conf", str(missing)]):
        assert main(head + ["calibrate"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 1
        last = captured.err.splitlines()[-1]
        assert last.startswith("lbmfd: error: --conf")
        assert "must follow the subcommand" in last


# Each subcommand's own flags; every one also takes --output, --format,
# --config and --help.
_COMMAND_FLAGS = {
    "calibrate": {"--epsilon", "--order", "--s1"},
    "run": {"--epsilon", "--order", "--dx", "--t-end"},
    "convergence": {"--order", "--eps-list", "--dx-list"},
    "stability": {"--omega0", "--s1", "--s2", "--n-theta"},
    "equivalence": {"--n-nodes", "--steps", "--omega0", "--s1", "--s2",
                    "--seed"},
    "sweep": {"--eps-min", "--eps-max", "--n-points"},
    "profile": {"--eps-list"},
}


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_command_help_names_its_flags_and_no_others(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: lbmfd {command} ")
    assert set(re.findall(r"--[a-z0-9-]+", out)) == \
        _COMMAND_FLAGS[command] | {"--output", "--format", "--config",
                                   "--help"}


def test_top_level_help_names_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    listed = re.search(r"\{([a-z,]+)\}", out).group(1).split(",")
    assert sorted(listed) == sorted(_COMMAND_FLAGS)
    for command in _COMMAND_FLAGS:
        assert re.search(rf"^    {command} +\S", out, re.MULTILINE), command


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: lbmfd ") and err.count("error:") == 1
    last = err.splitlines()[-1]
    head = ("lbmfd: error: argument command: invalid choice: 'frobnicate' "
            "(choose from ")
    assert last.startswith(head) and last.endswith(")")
    listed = [name.strip(" '") for name in last[len(head):-1].split(",")]
    assert sorted(listed) == sorted(_COMMAND_FLAGS)


def _run(argv):
    # (exit code, stdout, stderr) of one in-process call.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_TRIPLE = ["--omega0", "0.8310204592587027", "--s1", "0.9159290534201945",
           "--s2", "1.1450386147380731"]


# One small happy-path call per subcommand.
_HAPPY = {
    "calibrate": ["calibrate", "--epsilon", "0.1", "--order", "6"],
    "run": ["run", "--epsilon", "0.1", "--dx", "0.1"],
    "convergence": ["convergence", "--order", "6", "--eps-list", "0.1",
                    "--dx-list", "0.1,0.05"],
    "stability": ["stability", *_TRIPLE, "--n-theta", "90"],
    "equivalence": ["equivalence", *_TRIPLE, "--n-nodes", "16",
                    "--steps", "20"],
    "sweep": ["sweep", "--eps-min", "0.25", "--eps-max", "0.3",
              "--n-points", "4"],
    "profile": ["profile", "--eps-list", "0.1"],
}


def test_a_reused_parser_gives_the_same_bytes_on_every_call(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "steps": 50}))
    calls = [
        *_HAPPY.values(),
        ["--help"], ["calibrate", "--help"], ["frobnicate"],
        ["run", "--epsilon", "0.1", "--order", "5"],
        ["equivalence", *_TRIPLE, "--config", str(cfg)],
    ]
    for argv in calls:
        first = _run(argv)
        assert first[0] in (0, 1) and (first[1] or first[2]), argv
        assert _run(argv) == first, argv


def test_one_parser_is_held():
    for i in range(100):
        assert _run([f"not-a-command-{i}"])[0] == 1
    for argv in ([], ["--help"], *([c, "--help"] for c in cli._COMMANDS)):
        _run(argv)
    for argv in _HAPPY.values():
        assert _run(argv)[0] == 0, argv
    assert cli._build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("command, fmt", [
    (command, fmt) for command, (_, _, formats, _) in cli._COMMANDS.items()
    for fmt in formats])
def test_output_file_holds_the_bytes_of_stdout(command, fmt, tmp_path):
    argv = [*_HAPPY[command], "--format", fmt]
    code, out, err = _run(argv)
    assert code == 0 and err == "" and out
    path = tmp_path / "out.txt"
    assert _run([*argv, "--output", str(path)]) == (0, "", "")
    assert path.read_bytes() == out.encode()


def test_a_failed_check_still_writes_its_json(monkeypatch, tmp_path):
    scan = stability.spectral_radius_scan
    deviation = lbm.fd_equivalence_deviation

    def unstable_scan(*args):
        return dataclasses.replace(scan(*args), stable=False)

    def wide_gap(*args):
        max_phi = deviation(*args)[1]
        return 2 * cli._EQUIV_TOL * max_phi, max_phi

    monkeypatch.setattr(stability, "spectral_radius_scan", unstable_scan)
    monkeypatch.setattr(lbm, "fd_equivalence_deviation", wide_gap)
    for command, key in (("stability", "stable"), ("equivalence", "passed")):
        code, out, err = _run(_HAPPY[command])
        assert (code, err) == (cli.EXIT_PROPERTY, "")
        assert json.loads(out)[key] is False
        path = tmp_path / f"{command}.json"
        assert _run([*_HAPPY[command], "--output", str(path)]) == \
            (cli.EXIT_PROPERTY, "", "")
        assert path.read_text() == out


def test_calls_leave_no_argparse_garbage():
    # A parser holds reference cycles, which only the cyclic collector
    # frees; a call should leave none behind for it.
    calls = [["calibrate", "--epsilon", "0.1", "--order", "6"],
             ["stability", *_TRIPLE],
             ["sweep", "--eps-min", "0.01", "--eps-max", "0.3",
              "--n-points", "30"],
             ["equivalence", *_TRIPLE]]
    for argv in calls:
        assert _run(argv)[0] == 0
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in calls:
            assert _run(argv)[0] == 0
        gc.collect()
        left = [type(obj).__name__ for obj in gc.garbage
                if any(cls.__module__ == argparse.__name__
                       for cls in type(obj).__mro__)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []


# Values that have broken validation before, mixed with in-range ones.
_FLOAT_FLAG = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
                     -1.0, 1e-320, 1e300]),
    st.floats(0.01, 0.99), st.floats(0.01, 1.99))


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=120, deadline=None)
@given(command=st.sampled_from(["calibrate", "run", "stability",
                                "equivalence", "sweep"]),
       a=_FLOAT_FLAG, b=_FLOAT_FLAG, c=_FLOAT_FLAG,
       order=st.sampled_from(["2", "4", "6"]), n_points=st.integers(1, 5))
def test_float_flags_end_in_an_exit_code_and_one_line(command, a, b, c,
                                                      order, n_points):
    # Only flags whose cost does not grow with their value are drawn; the
    # "=" form lets argparse take values such as -inf.  A warning fails the
    # test, since a real process would print it on stderr.
    argv = {
        "calibrate": [f"--epsilon={a!r}", f"--s1={b!r}",
                      "--order", "4" if order == "2" else order],
        "run": [f"--epsilon={a!r}", "--order", order, "--dx", "0.1"],
        "stability": [f"--omega0={a!r}", f"--s1={b!r}", f"--s2={c!r}"],
        "equivalence": [f"--omega0={a!r}", f"--s1={b!r}", f"--s2={c!r}",
                        "--n-nodes", "8", "--steps", "3"],
        "sweep": [f"--eps-min={a!r}", f"--eps-max={b!r}",
                  "--n-points", str(n_points)],
    }[command]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = main([command, *argv])
    assert code in (0, 1, 2, 3)
    assert stderr.getvalue().count("\n") <= 1, stderr.getvalue()


def test_entry_point_exits_with_one_line():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "lbmfd.cli", "run", "--epsilon", "nan"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("lbmfd: error: ")


def _csv_field(value):
    return "" if value is None else (
        value if isinstance(value, str) else format(value, ".17g"))


def _csv_and_json_rows(argv, capsys):
    # (CSV lines, the rows those lines should hold, read off the JSON).
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert main([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    command = argv[0]
    if command == "run":
        rows = list(zip(payload["x"], payload["phi"]))
    elif command == "convergence":
        rows = [(rep["epsilon"], rep["order"], row["dx"], row["dt"],
                 row["rmse"], rate)
                for rep in payload["reports"]
                for row, rate in zip(rep["rows"], [None, *rep["rates"]])]
    elif command == "sweep":
        rows = [tuple(row[k] for k in ("epsilon", "omega0", "s1", "s2",
                                       "status")) for row in payload["rows"]]
    else:
        rows = [(prof["epsilon"], *values) for prof in payload["profiles"]
                for values in zip(prof["x"], prof["phi_numeric"],
                                  prof["phi_analytic"])]
    return lines, rows


@pytest.mark.parametrize("argv", [
    ["run", "--epsilon", "0.1", "--dx", "0.1"],
    ["convergence", "--order", "6", "--eps-list", "0.1,0.2",
     "--dx-list", "0.1,0.05"],
    ["sweep", "--eps-min", "0.25", "--eps-max", "0.30", "--n-points", "6"],
    ["profile", "--eps-list", "0.1,0.24"],
], ids=["run", "convergence", "sweep", "profile"])
def test_csv_numbers_are_the_json_values_to_17_digits(argv, capsys):
    # Every CSV number is format(v, ".17g") of its JSON value, and a rate
    # or a rate-less sweep field that JSON leaves out or null is empty.
    lines, rows = _csv_and_json_rows(argv, capsys)
    assert len(lines) == len(rows) + 1
    assert any(None in row for row in rows) == (argv[0] in ("convergence",
                                                            "sweep"))
    for line, row in zip(lines[1:], rows):
        assert line.split(",") == [_csv_field(v) for v in row]
