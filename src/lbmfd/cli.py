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


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for infeasible
    # calibrations here, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


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


def _write_json(payload: dict, output: str | None) -> None:
    _write_lines([json.dumps(payload, indent=2)], output)


@functools.cache
def _build_parser(command: str | None) -> _Parser:
    """The parser of all seven subcommands, with the flags of `command`
    alone: the others are listed, so the top-level help and usage errors
    are whole, but their flags are never built, as nothing parses them.

    Built once per process for each `command` and reused, as in-process
    callers (tests, the `analysis` benchmark) call `main` many times.
    Parsing leaves a parser as it was: each parse makes its own
    `Namespace`, and help and usage read the stream and terminal width
    when printed.  `main` passes None for every argv[0] that is not a
    subcommand, so at most eight parsers are ever held."""
    parser = _Parser(prog="lbmfd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (_, help_text, formats, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != command:
            continue
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


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    # The probe reads only --config, so flags that the config file supplies
    # are not yet required; a malformed --config is left to the full parse
    # to report.  Config tokens go right after the subcommand, before the
    # explicit flags, which argparse lets override them.
    try:
        config_path = _config_probe().parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        config_path = None
    if config_path:
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
        argv = argv[:1] + tokens + argv[1:]
    return parser.parse_args(argv)


def _cmd_calibrate(ns) -> int:
    # --s1 is checked at order 6 too, where the calibration does not use it.
    calibration.check_box(s1=ns.s1)
    if ns.order == 6:
        result = calibration.calibrate_sixth(ns.epsilon)
    else:
        result = calibration.calibrate_fourth(ns.epsilon, ns.s1)
    _write_json(result.to_json_dict(), ns.output)
    return EXIT_OK


def _cmd_run(ns) -> int:
    case = verification.BenchmarkCase(epsilon=ns.epsilon, dx=ns.dx,
                                      order=_ORDER_WORDS[ns.order])
    ((xs, final),) = verification._march_decaying_sine([case], ns.t_end)
    if ns.format == "json":
        _write_json({"x": [float(v) for v in xs],
                     "phi": [float(v) for v in final]}, ns.output)
    else:
        _write_lines(verification.snapshot_csv_lines(xs, final), ns.output)
    return EXIT_OK


def _cmd_convergence(ns) -> int:
    reports = verification.reproduce_table(_ORDER_WORDS[ns.order],
                                           ns.eps_list, ns.dx_list)
    if ns.format == "json":
        payload = {"reports": [
            {"epsilon": rep.epsilon, "order": rep.order,
             "rows": [{"dx": dx, "dt": dt, "rmse": err}
                      for (dx, err), dt in zip(rep.rows, rep.dts())],
             "rates": list(rep.rates)} for rep in reports]}
        _write_json(payload, ns.output)
    else:
        _write_lines(verification.convergence_csv_lines(reports), ns.output)
    return EXIT_OK


def _cmd_stability(ns) -> int:
    report = stability.spectral_radius_scan(ns.omega0, ns.s1, ns.s2,
                                            ns.n_theta)
    _write_json(report.to_json_dict(), ns.output)
    return EXIT_OK if report.stable else EXIT_PROPERTY


def _cmd_equivalence(ns) -> int:
    max_dev, max_phi = lbm.fd_equivalence_deviation(
        ns.n_nodes, ns.steps, ns.omega0, ns.s1, ns.s2, ns.seed)
    threshold = _EQUIV_TOL * max_phi
    passed = max_dev <= threshold
    _write_json({
        "max_abs_deviation": float(max_dev),
        "threshold": float(threshold),
        "passed": bool(passed),
        "n_nodes": int(ns.n_nodes),
        "steps": int(ns.steps),
        "seed": int(ns.seed),
    }, ns.output)
    return EXIT_OK if passed else EXIT_PROPERTY


def _cmd_sweep(ns) -> int:
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
        _write_json({"rows": rows}, ns.output)
    else:
        _write_lines(verification.csv_lines(
            ",".join(rows[0]), (r.values() for r in rows)), ns.output)
    return EXIT_OK


def _cmd_profile(ns) -> int:
    profiles = verification.profile_solution(ns.eps_list)
    if ns.format == "json":
        payload = {"profiles": [
            {"epsilon": prof.epsilon,
             "max_abs_deviation": prof.max_abs_deviation,
             "x": [float(v) for v in prof.x],
             "phi_numeric": [float(v) for v in prof.phi_numeric],
             "phi_analytic": [float(v) for v in prof.phi_analytic]}
            for prof in profiles]}
        _write_json(payload, ns.output)
    else:
        _write_lines(verification.profile_csv_lines(profiles), ns.output)
    return EXIT_OK


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
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS
                           else None)
    try:
        ns = _parse_args(parser, argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command][0](ns)
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
