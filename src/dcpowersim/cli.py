"""Command-line interface.

Subcommands::

    simulate   run profiles through the model, write the results CSV
    peak       print the design-peak breakdown (watts and shares)
    curtail    solve the utilisation for a total-power target
    curve      tabulate total power versus utilisation per temperature
    compare    run chilled-water vs CRAC cooling over the same profiles

Exit codes: 0 success, 1 usage error, 2 data or model error.  Output files
are written via temp-then-rename, with mode 0o666 less the umask.  A failure
leaves no temp file and exits 2; one partway through renaming leaves the
outputs renamed before it with their new text and the rest untouched.

Each handler imports the modules it uses, so a process loads only what
its subcommand needs: ``curtail`` never loads the CSV or SVG code.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import engine
from .config import CoolingArchitecture, ScenarioConfig, parse_scenario_config
from .errors import SimulationError

_USAGE_EXIT = 1
_DATA_EXIT = 2


def _temps_list(raw: str) -> list[float]:
    try:
        # + 0.0 prints a temperature of -0 as 0.
        if temps := [float(part) + 0.0 for part in raw.split(",")
                     if part.strip()]:
            return temps
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"--temps expects a comma-separated list of numbers, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcpowersim", description="Hourly data-centre power simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="scenario config file")
        return p

    sim = command("simulate", _cmd_simulate, "simulate profiles to a CSV")
    sim.add_argument("--utilisation", required=True)
    sim.add_argument("--weather", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--svg", help="optional stacked-area chart")

    peak = command("peak", _cmd_peak, "print the design-peak breakdown")
    peak.add_argument("--arch",
                      choices=[a.value for a in CoolingArchitecture])

    curtail = command("curtail", _cmd_curtail,
                      "solve utilisation for a power target")
    curtail.add_argument("--ambient-c", type=float, required=True)
    curtail.add_argument("--target-w", type=float, required=True)

    curve = command("curve", _cmd_curve,
                    "total power vs utilisation per temperature")
    curve.add_argument("--temps", type=_temps_list, required=True)
    curve.add_argument("--points", type=int, default=21)
    curve.add_argument("--out", required=True)
    curve.add_argument("--svg")
    curve.add_argument("--arch",
                       choices=[a.value for a in CoolingArchitecture])

    compare = command("compare", _cmd_compare,
                      "chilled-water vs CRAC cooling energy")
    compare.add_argument("--utilisation", required=True)
    compare.add_argument("--weather", required=True)
    compare.add_argument("--out", required=True)
    compare.add_argument("--svg")
    return parser


def _parse_file(parse, path: str):
    """``parse`` the text of ``path``; errors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SimulationError(
            f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:   # a ValueError, not a SimulationError
        raise SimulationError(f"{path}: not UTF-8: {exc.reason} at byte "
                              f"{exc.start}") from exc
    try:
        return parse(text)
    except SimulationError as exc:
        raise SimulationError(f"{path}: {exc}") from exc


def _write_all_atomic(payloads: dict[str, str]) -> None:
    """Stage every file as a temp, then rename them all (module docstring)."""
    staged: list[tuple[str, str]] = []
    try:
        for path, text in payloads.items():
            directory = os.path.dirname(os.path.abspath(path))
            for n in itertools.count():   # the first name not yet taken
                tmp_path = os.path.join(directory,
                                        f"dcpowersim-{os.getpid()}-{n}.tmp")
                try:   # created by the kernel, so the umask applies
                    fd = os.open(tmp_path,
                                 os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    break
                except FileExistsError:
                    pass
            staged.append((tmp_path, path))
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
        while staged:
            os.replace(*staged[0])
            del staged[0]
    except OSError as exc:
        for tmp_path, _ in staged:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        raise SimulationError(f"cannot write output: {exc}") from exc


def _cmd_simulate(args: argparse.Namespace, scenario: ScenarioConfig) -> None:
    from . import profiles
    utilisation = _parse_file(profiles.parse_utilisation_csv, args.utilisation)
    ambient = _parse_file(profiles.parse_temperature_csv, args.weather)
    result = engine.simulate(utilisation, ambient, scenario)
    payloads = {args.out: profiles.write_results_csv(result)}
    if args.svg:
        from . import svg
        payloads[args.svg] = svg.render_stacked_area(
            list(engine.COMPONENT_NAMES), result.components, result.total_w,
            title="Hourly power breakdown")
    _write_all_atomic(payloads)


def _cmd_peak(args: argparse.Namespace, scenario: ScenarioConfig) -> None:
    ctx = engine.peak_context(scenario)
    breakdown = engine.step_power(1.0, scenario.reference_ambient_c, ctx)
    print("component,power_w,share")
    for name, watts in breakdown.as_dict().items():
        print(f"{name},{watts:.10g},{watts / breakdown.total_w:.10g}")
    print(f"total,{breakdown.total_w:.10g},1")


def _cmd_curtail(args: argparse.Namespace, scenario: ScenarioConfig) -> None:
    from . import analysis
    ctx = engine.peak_context(scenario)
    solution = analysis.curtail(args.target_w, args.ambient_c, scenario, ctx)
    print(f"utilisation,{solution.required_utilisation:.10g}")
    print(f"achieved_total_w,{solution.achieved_total_w:.10g}")
    print(f"target_total_w,{solution.target_total_w:.10g}")
    print(f"feasible,{'true' if solution.feasible else 'false'}")


def _cmd_curve(args: argparse.Namespace, scenario: ScenarioConfig) -> None:
    from . import analysis, profiles
    curves = analysis.power_curve(args.temps, scenario, args.points)
    rows = [(curve.temperature_c, utilisation, total_w)
            for curve in curves for utilisation, total_w in curve.points]
    payloads = {args.out: profiles.format_csv(
        ("temp_c", "utilisation", "total_w"), tuple(zip(*rows)))}
    if args.svg:
        from . import svg
        payloads[args.svg] = svg.render_lines(
            [u for u, _ in curves[0].points],
            [(f"{curve.temperature_c:g} C", [w for _, w in curve.points])
             for curve in curves], title="Total power vs utilisation")
    _write_all_atomic(payloads)


def _cmd_compare(args: argparse.Namespace, scenario: ScenarioConfig) -> None:
    from . import analysis, profiles
    utilisation = _parse_file(profiles.parse_utilisation_csv, args.utilisation)
    ambient = _parse_file(profiles.parse_temperature_csv, args.weather)
    comparison = analysis.compare_architectures(utilisation, ambient,
                                                scenario)
    # Raises on a zero baseline, before any output is written or printed.
    increase = comparison.relative_increase
    payloads = {args.out: profiles.format_csv(
        ("timestamp", "utilisation", "ambient_c",
         f"{comparison.baseline.value}_cooling_w",
         f"{comparison.alternative.value}_cooling_w"),
        (comparison.timestamps, utilisation.values, ambient.values,
         comparison.baseline_cooling_w, comparison.alternative_cooling_w))}
    if args.svg:
        from . import svg
        payloads[args.svg] = svg.render_lines(
            range(len(comparison.timestamps)),
            [(comparison.baseline.value, comparison.baseline_cooling_w),
             (comparison.alternative.value, comparison.alternative_cooling_w)],
            title="Cooling power by architecture")
    _write_all_atomic(payloads)
    print(f"baseline_cooling_energy_wh,"
          f"{comparison.baseline_cooling_energy_wh:.10g}")
    print(f"alternative_cooling_energy_wh,"
          f"{comparison.alternative_cooling_energy_wh:.10g}")
    print(f"relative_increase,{increase:.10g}")


def run(argv: list[str]) -> int:
    """Parse ``argv`` and execute; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag in ("out", "svg"):
            if getattr(args, flag, None) == "":
                parser.error(f"--{flag} is empty; it must name a file")
        chart = getattr(args, "svg", None)
        # One payload per path string would let one output silently
        # replace the other.
        if chart and os.path.realpath(chart) == os.path.realpath(args.out):
            parser.error(f"--out and --svg name the same file: {chart!r}")
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is the data-error status here.
        return _USAGE_EXIT if exc.code == 2 else int(exc.code or 0)
    try:
        scenario = _parse_file(parse_scenario_config, args.config)
        if arch := getattr(args, "arch", None):
            scenario = scenario.with_architecture(CoolingArchitecture(arch))
        args.handler(args, scenario)
    except SimulationError as exc:
        print(f"dcpowersim: error: {exc}", file=sys.stderr)
        return _DATA_EXIT
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
