"""Command-line front end.

Subcommands: calibrate, run, convergence, stability, equivalence, sweep,
profile.  Every command accepts --output (default stdout), --format (csv or
json where both make sense, json only otherwise), and --config pointing at
a JSON object of flag values whose keys are flag names with dashes replaced
by underscores.  Each key becomes the flag --key with its value (a list
joined with commas), parsed like the flags given on the command line and
placed before them, so explicit flags override config values, which
override built-in defaults; an unknown key is a usage error.  Randomness
(equivalence start fields) comes from numpy's seedable PCG64 generator, so
identical invocations produce byte-identical output.

Exit codes: 0 success; 1 a usage or validation error, or an output file
that cannot be written; 2 a valid epsilon with no admissible (omega0, s1,
s2) triple, at any order; 3 a checked numerical property failed to hold.
`main` alone maps the library's errors to codes 1 and 2, each with one
"lbmfd: error:" line on stderr and no traceback.  It builds each
subcommand's parser once per process and reuses it, so a process that
calls it many times, such as a test suite or a benchmark, pays for
argparse once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import calibration, lbm, stability, verification
from .errors import DomainError, NoRealRoot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_PROPERTY = 3

_EQUIV_TOL = 1e-12
# A sweep point costs about 1.5 kB on its way to JSON output (row object,
# payload dict and text): 2**17 points keep that near 200 MB.
_MAX_SWEEP_POINTS = 2 ** 17
_ORDER_WORDS = {2: "second", 4: "fourth", 6: "sixth"}


def _float_list(text):
    items = [part for part in text.split(",") if part.strip() != ""]
    return [float(part) for part in items]


def _write_lines(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="\n") as handle:
            handle.write(text)


def _json(payload: dict) -> list[str]:
    return [json.dumps(payload, indent=2)]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of all seven subcommands and their flags.

    Built once per process and reused, as in-process callers (tests, the
    `analysis` benchmark) call `main` many times.  Parsing leaves the
    parser as it was: each parse makes its own `Namespace`, and help and
    usage read the stream and terminal width when printed."""
    parser = argparse.ArgumentParser(
        prog="lbmfd", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, formats, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", default=None,
                       help="write to this path instead of stdout")
        p.add_argument("--format", default=None, choices=formats,
                       help="output format")
        p.add_argument("--config", default=None,
                       help="JSON file of flag values; flags override")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


@functools.cache
def _config_probe() -> argparse.ArgumentParser:
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--config", default=None)
    return probe


def _parse_args(parser, argv: list[str]) -> argparse.Namespace:
    # Only -h may come before the subcommand, the first word that is not a
    # flag; --config or a prefix of it there is refused before any file is
    # opened.  The probe reads only --config, so flags that the config file
    # supplies are not yet required; a malformed --config is left to the
    # full parse to report.  Config tokens go right after the subcommand,
    # before the explicit flags, which argparse lets override them.
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")),
              len(argv))
    for flag in (tok.split("=")[0] for tok in argv[:at]):
        if len(flag) > 2 and "--config".startswith(flag):
            parser.error(f"{flag} must follow the subcommand, as in "
                         "'lbmfd calibrate --config FILE'")
    tail = argv[at + 1:]
    try:
        config_path = _config_probe().parse_known_args(tail)[0].config
    except argparse.ArgumentError:
        config_path = None
    if config_path is not None:
        try:
            with open(config_path) as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {config_path}: {exc}")
        if not isinstance(config, dict):
            parser.error(f"config {config_path} must hold a JSON object")
        tokens = []
        for key, value in config.items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            tokens += ["--" + key.replace("_", "-"), str(value)]
        argv = argv[:at + 1] + tokens + tail
    return parser.parse_args(argv)


def _cmd_calibrate(ns) -> tuple[list[str], int]:
    # --s1 is checked at order 6 too, where the calibration does not use it.
    calibration.check_box(s1=ns.s1)
    if ns.order == 6:
        result = calibration.calibrate_sixth(ns.epsilon)
    else:
        result = calibration.calibrate_fourth(ns.epsilon, ns.s1)
    return _json(result.to_json_dict()), EXIT_OK


def _cmd_run(ns) -> tuple[list[str], int]:
    case = verification.BenchmarkCase(epsilon=ns.epsilon, dx=ns.dx,
                                      order=_ORDER_WORDS[ns.order])
    ((xs, final),) = verification._march_decaying_sine([case], ns.t_end)
    if ns.format == "json":
        return _json({"x": [float(v) for v in xs],
                      "phi": [float(v) for v in final]}), EXIT_OK
    return verification.snapshot_csv_lines(xs, final), EXIT_OK


def _cmd_convergence(ns) -> tuple[list[str], int]:
    reports = verification.reproduce_table(_ORDER_WORDS[ns.order],
                                           ns.eps_list, ns.dx_list)
    if ns.format == "json":
        payload = {"reports": [
            {"epsilon": rep.epsilon, "order": rep.order,
             "rows": [{"dx": dx, "dt": dt, "rmse": err}
                      for (dx, err), dt in zip(rep.rows, rep.dts())],
             "rates": list(rep.rates)} for rep in reports]}
        return _json(payload), EXIT_OK
    return verification.convergence_csv_lines(reports), EXIT_OK


def _cmd_stability(ns) -> tuple[list[str], int]:
    report = stability.spectral_radius_scan(ns.omega0, ns.s1, ns.s2,
                                            ns.n_theta)
    return (_json(report.to_json_dict()),
            EXIT_OK if report.stable else EXIT_PROPERTY)


def _cmd_equivalence(ns) -> tuple[list[str], int]:
    max_dev, max_phi = lbm.fd_equivalence_deviation(
        ns.n_nodes, ns.steps, ns.omega0, ns.s1, ns.s2, ns.seed)
    threshold = _EQUIV_TOL * max_phi
    passed = max_dev <= threshold
    return _json({
        "max_abs_deviation": float(max_dev),
        "threshold": float(threshold),
        "passed": bool(passed),
        "n_nodes": int(ns.n_nodes),
        "steps": int(ns.steps),
        "seed": int(ns.seed),
    }), EXIT_OK if passed else EXIT_PROPERTY


def _cmd_sweep(ns) -> tuple[list[str], int]:
    if ns.n_points > _MAX_SWEEP_POINTS:
        raise DomainError(f"--n-points must be at most {_MAX_SWEEP_POINTS}, "
                          f"got {ns.n_points}")
    # One point sweeps --eps-min alone, so the grid cannot show an
    # inverted range; calibration_sweep rejects an empty, non-finite or
    # non-increasing grid.
    if ns.eps_max < ns.eps_min:
        raise DomainError(f"--eps-max {ns.eps_max} is below --eps-min "
                          f"{ns.eps_min}")
    span = ns.eps_max - ns.eps_min
    grid = [ns.eps_min + span * i / max(ns.n_points - 1, 1)
            for i in range(ns.n_points)]
    rows = [vars(r) for r in calibration.calibration_sweep(grid)]
    if ns.format == "json":
        return _json({"rows": rows}), EXIT_OK
    return verification.csv_lines(
        ",".join(rows[0]), (r.values() for r in rows)), EXIT_OK


def _cmd_profile(ns) -> tuple[list[str], int]:
    profiles = verification.profile_solution(ns.eps_list)
    if ns.format == "json":
        payload = {"profiles": [
            {"epsilon": prof.epsilon,
             "max_abs_deviation": prof.max_abs_deviation,
             "x": [float(v) for v in prof.x],
             "phi_numeric": [float(v) for v in prof.phi_numeric],
             "phi_analytic": [float(v) for v in prof.phi_analytic]}
            for prof in profiles]}
        return _json(payload), EXIT_OK
    return verification.profile_csv_lines(profiles), EXIT_OK


# Per subcommand: its handler, its help line, its --format choices and
# its own flags, each with the keyword arguments of `add_argument`.
_COMMANDS = {
    "calibrate": (_cmd_calibrate, "solve the accuracy conditions",
                  ("json",), (
        ("--epsilon", dict(type=float, required=True)),
        ("--order", dict(type=int, choices=(4, 6), required=True)),
        ("--s1", dict(type=float, default=1.0,
                      help="pinned first-moment rate for order 4")))),
    "run": (_cmd_run, "march one benchmark case to t_end", ("csv", "json"), (
        ("--epsilon", dict(type=float, required=True)),
        ("--order", dict(type=int, choices=(2, 4, 6), default=6)),
        ("--dx", dict(type=float, default=0.025)),
        ("--t-end", dict(type=float, default=12.0)))),
    "convergence": (_cmd_convergence, "refinement study per epsilon",
                    ("csv", "json"), (
        ("--order", dict(type=int, choices=(2, 4, 6), required=True)),
        ("--eps-list", dict(type=_float_list, default=None)),
        ("--dx-list", dict(type=_float_list, default=None)))),
    "stability": (_cmd_stability, "spectral radius scan of one triple",
                  ("json",), (
        ("--omega0", dict(type=float, required=True)),
        ("--s1", dict(type=float, required=True)),
        ("--s2", dict(type=float, required=True)),
        ("--n-theta", dict(type=int, default=720)))),
    "equivalence": (_cmd_equivalence,
                    "mesoscopic versus four-level trajectory gap",
                    ("json",), (
        ("--n-nodes", dict(type=int, default=64)),
        ("--steps", dict(type=int, default=200)),
        ("--omega0", dict(type=float, required=True)),
        ("--s1", dict(type=float, required=True)),
        ("--s2", dict(type=float, required=True)),
        ("--seed", dict(type=int, default=42,
                        help="PCG64 seed for the random start field")))),
    "sweep": (_cmd_sweep, "sixth-order calibration over a grid",
              ("csv", "json"), (
        ("--eps-min", dict(type=float, required=True)),
        ("--eps-max", dict(type=float, required=True)),
        ("--n-points", dict(type=int, required=True)))),
    "profile": (_cmd_profile, "field versus exact solution at t_end",
                ("csv", "json"), (
        ("--eps-list", dict(type=_float_list, default=None)),)),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parse_args(_build_parser(), argv)
    except SystemExit as exc:
        # argparse's usage errors exit with 2, which means infeasible here.
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    try:
        lines, code = _COMMANDS[ns.command][0](ns)
        _write_lines(lines, ns.output)
        return code
    except BrokenPipeError:
        return EXIT_OK
    except (DomainError, OSError) as exc:
        # OSError here comes from writing --output.
        print(f"lbmfd: error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, NoRealRoot) else EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
