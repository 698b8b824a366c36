"""The three workloads: generated inputs, a measured closed loop, checks.

Each workload is one client in a closed loop: the next operation starts
when the previous one has finished and been checked.  Operation times never
include the check.  ``untraced`` gives the end-to-end metrics; ``traced``
runs the same loop untraced and then traced, and gives the per-layer
metrics together with the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from dcpowersim import analysis, cli, config, engine
from dcpowersim.config import CoolingArchitecture
from dcpowersim.profiles import AmbientProfile, UtilisationProfile

import checker
import inputs
from calibration import (CALIBRATION_REFERENCE_S, INTERPRETER_REFERENCE_S,
                         at_reference_speed, calibration_s)
from reference import ReferenceModel
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

SETUP_PROBES = 11         # fresh interpreters behind setup_s
START_PROBES = 7          # fresh interpreters behind cli.interp_ms/import_ms
SAMPLE_HOURS = 48         # hours per output compared with the reference
CHILD_TIMEOUT_S = 120
CURTAIL_BATCH = 256       # solves between clock checks and calibrations


class Run:
    """One benchmark run: its seed, scratch directory and failure count."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.rng = random.Random(f"{workload}:{seed}:check")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"{self.workload}: {message}", file=sys.stderr)

    def check(self, check, *args) -> None:
        """Count one operation; it fails if ``check`` rejects its output or
        cannot read a number in it."""
        self.attempted += 1
        try:
            check(*args)
        except (checker.CheckFailed, ValueError) as exc:
            self.fail(f"check failed: {exc!r}")

    def sample_hours(self) -> list[int]:
        hours = self.rng.sample(range(1, inputs.HOURS - 1), SAMPLE_HOURS - 2)
        return [0, *sorted(hours), inputs.HOURS - 1]

    def child(self, argv: list[str], stdout_path: Path) -> tuple[float, int]:
        """Run a process to completion: wall seconds and exit status."""
        with open(stdout_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE,
                                    env=self.env)
            try:
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, err = proc.communicate()
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            self.fail(f"{argv[1:4]} exited {proc.returncode}: {tail}")
        return wall, proc.returncode


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles`` interpolates it."""
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class Samples:
    """Operation times of one measured loop, seconds at reference speed."""

    ops: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)  # the same, as measured
    work: int = 0                                    # units done by the ops
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def work_per_s(self) -> float:
        return self.work / sum(self.ops)


def measure_setup(run: Run, modules: list[str], texts: list[str]
                  ) -> list[float]:
    """Fresh interpreters that import and build the scenarios, each timed
    against bare interpreter starts on both sides of it."""
    configs = run.workdir / "setup_configs.json"
    configs.write_text(json.dumps(texts), encoding="utf-8")
    argv = [sys.executable, str(BENCH / "setup_probe.py"), ",".join(modules),
            str(configs)]
    bare = [sys.executable, "-c", "pass"]
    out = run.workdir / "setup.out"
    run.child(argv, out)    # compiles the byte code caches; not timed
    before = run.child(bare, out)[0]
    times = []
    for _ in range(SETUP_PROBES):
        wall = run.child(argv, out)[0]
        run.attempted += 1
        after = run.child(bare, out)[0]
        times.append(wall * INTERPRETER_REFERENCE_S / ((before + after) / 2))
        before = after
    return times


def start_probes(run: Run) -> dict[str, float]:
    """Bare interpreter start (the floor) and ``import dcpowersim.cli``."""
    out = run.workdir / "start.out"
    bare = [sys.executable, "-c", "pass"]
    timed_import = [sys.executable, "-c",
                    "import time; t = time.perf_counter(); "
                    "import dcpowersim.cli; "
                    "print(time.perf_counter() - t)"]
    interp, imports = [], []
    for _ in range(START_PROBES):
        interp.append(run.child(bare, out)[0])
        if run.child(timed_import, out)[1] == 0:
            imports.append(float(out.read_text()))
    return {"cli.interp_ms": statistics.median(interp) * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3}


def simulate_alloc_mb(cli_inputs: inputs.CliInputs) -> float:
    """tracemalloc peak of one annual ``simulate()``, untraced."""
    year = cli_inputs.climate
    scenario = config.parse_scenario_config(cli_inputs.config_text)
    u = UtilisationProfile(year.stamps, year.utilisation)
    a = AmbientProfile(year.stamps, year.ambient_c)
    tracemalloc.start()
    try:
        engine.simulate(u, a, scenario)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _reference_total(config_text: str, u: float, ambient_c: float) -> float:
    scenario = config.parse_scenario_config(config_text)
    return ReferenceModel(scenario).total(u, ambient_c)


class AnnualCli:
    """Rounds of ``simulate --svg``, ``compare --svg``, ``curtail`` and
    ``curve --svg``, one process each, on one seeded year."""

    modules = ["dcpowersim.cli"]

    def __init__(self, run: Run) -> None:
        self.run = run
        self.inputs = inputs.cli_inputs(run.workload, run.seed,
                                        _reference_total)
        ins, d = self.inputs, run.workdir
        year = ins.climate
        cfg, util = d / "scenario.cfg", d / "util.csv"
        weather = d / "weather.csv"
        cfg.write_text(ins.config_text, encoding="utf-8")
        util.write_text(inputs.profile_csv("timestamp,utilisation",
                                           year.stamps, year.utilisation),
                        encoding="utf-8")
        weather.write_text(inputs.profile_csv("timestamp,temperature_c",
                                              year.stamps, year.ambient_c),
                           encoding="utf-8")
        scenario = config.parse_scenario_config(ins.config_text)
        self.reference = ReferenceModel(scenario)
        self.baseline = ReferenceModel(
            scenario.with_architecture(CoolingArchitecture.CRAH_CHILLER))
        self.alternative = ReferenceModel(
            scenario.with_architecture(CoolingArchitecture.CRAC))
        self.texts = [ins.config_text]
        self.out = {name: d / name for name in (
            "simulate.csv", "simulate.svg", "compare.csv", "compare.svg",
            "curve.csv", "curve.svg")}
        common = [f"--config={cfg}"]
        series = [f"--utilisation={util}", f"--weather={weather}"]
        temps = ",".join(repr(t) for t in ins.curve_temps)
        self.commands = {
            "simulate": ["simulate", *common, *series,
                         f"--out={self.out['simulate.csv']}",
                         f"--svg={self.out['simulate.svg']}"],
            "compare": ["compare", *common, *series,
                        f"--out={self.out['compare.csv']}",
                        f"--svg={self.out['compare.svg']}"],
            "curtail": ["curtail", *common,
                        f"--ambient-c={ins.curtail_ambient_c!r}",
                        f"--target-w={ins.curtail_target_w!r}"],
            "curve": ["curve", *common, f"--temps={temps}",
                      f"--points={inputs.CURVE_POINTS}",
                      f"--out={self.out['curve.csv']}",
                      f"--svg={self.out['curve.svg']}"],
        }

    def _read(self, name: str) -> str:
        try:
            return self.out[name].read_text(encoding="utf-8")
        except OSError as exc:
            raise checker.CheckFailed(f"{name}: {exc}") from None

    def check_output(self, kind: str, stdout: str) -> None:
        ins, year = self.inputs, self.inputs.climate
        if kind == "simulate":
            checker.check_results_csv(self._read("simulate.csv"), year,
                                      self.reference, self.run.sample_hours())
            checker.check_svg(self._read("simulate.svg"))
        elif kind == "compare":
            checker.check_compare(self._read("compare.csv"), stdout, year,
                                  self.baseline, self.alternative,
                                  self.run.sample_hours())
            checker.check_svg(self._read("compare.svg"))
        elif kind == "curtail":
            checker.check_curtail_stdout(stdout, ins.curtail_target_w,
                                         ins.curtail_ambient_c, self.reference)
        else:
            checker.check_curve_csv(self._read("curve.csv"), ins.curve_temps,
                                    inputs.CURVE_POINTS, self.reference)
            checker.check_svg(self._read("curve.svg"))

    def _invoke(self, kind: str, tracer: Tracer | None, in_process: bool
                ) -> tuple[float, bool, str]:
        """One subcommand: wall seconds, success and its standard output."""
        args = self.commands[kind]
        stdout_path = self.run.workdir / f"{kind}.stdout"
        if in_process:
            captured = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    status = cli.run(args)
            except Exception as exc:    # any raise is a failed operation
                status = repr(exc)
            wall = time.perf_counter() - start
            if status != 0:
                self.run.fail(f"in-process {kind} exited {status}")
            return wall, status == 0, captured.getvalue()
        if tracer is None:
            argv = [sys.executable, "-m", "dcpowersim.cli", *args]
        else:
            spans = self.run.workdir / "child_spans.json"
            argv = [sys.executable, str(BENCH / "cli_boot.py"), str(spans),
                    str(tracer.op_id), "--", *args]
        wall, status = self.run.child(argv, stdout_path)
        if status == 0 and tracer is not None:
            tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
        return wall, status == 0, stdout_path.read_text(encoding="utf-8")

    def round(self, samples: Samples, tracer: Tracer | None = None,
              in_process: bool = False) -> None:
        total = total_wall = 0.0
        for kind in self.commands:
            for path in self.out.values():
                path.unlink(missing_ok=True)
            if tracer is not None:
                tracer.op_id = samples.work
            before = calibration_s()
            wall, ok, stdout = self._invoke(kind, tracer, in_process)
            # A child may run on the other CPU: average the speed on both
            # sides of it.
            op = at_reference_speed(wall, (before + calibration_s()) / 2)
            if ok:
                self.run.check(self.check_output, kind, stdout)
            else:
                self.run.attempted += 1
            samples.by_kind.setdefault(kind, []).append(op)
            samples.work += 1
            total += op
            total_wall += wall
        samples.ops.append(total)
        samples.wall.append(total_wall)

    def loop(self, seconds: float, tracer: Tracer | None = None) -> Samples:
        samples = Samples()
        start = time.perf_counter()
        while not samples.ops or time.perf_counter() - start < seconds:
            self.round(samples, tracer)
        samples.peak_rss_mb = children_peak_rss_mb()
        return samples

    def report(self, samples: Samples) -> dict[str, tuple[float, str, int]]:
        n = len(samples.ops)
        return {f"cli_{kind}_s": (statistics.median(times), "s", n)
                for kind, times in samples.by_kind.items()}


class ScenarioSweep:
    """In-process ``simulate()`` + ``summarize_energy()``, one annual run per
    operation, cycling through seeded scenarios and profiles."""

    modules = ["dcpowersim.config", "dcpowersim.engine"]

    def __init__(self, run: Run) -> None:
        self.run = run
        self.texts, self.years = inputs.sweep_inputs(run.workload, run.seed)
        self.references = [ReferenceModel(config.parse_scenario_config(t))
                           for t in self.texts]
        self.profiles = [(UtilisationProfile(y.stamps, y.utilisation),
                          AmbientProfile(y.stamps, y.ambient_c))
                         for y in self.years]

    def loop(self, seconds: float, tracer: Tracer | None = None) -> Samples:
        scenarios = [config.parse_scenario_config(t) for t in self.texts]
        samples = Samples()
        start = time.perf_counter()
        i = 0
        while not samples.ops or time.perf_counter() - start < seconds:
            k, p = i % len(scenarios), i % len(self.profiles)
            if i == len(scenarios):
                samples.peak_rss_mb = self_peak_rss_mb()
            i += 1
            if tracer is not None:
                tracer.op_id = i
            utilisation, ambient = self.profiles[p]
            t0 = time.perf_counter()
            try:
                result = engine.simulate(utilisation, ambient, scenarios[k])
                summary = engine.summarize_energy(result)
            except Exception as exc:    # any raise is a failed operation
                self.run.attempted += 1
                self.run.fail(f"scenario {k}: {exc!r}")
                continue
            wall = time.perf_counter() - t0
            samples.ops.append(at_reference_speed(wall))
            samples.wall.append(wall)
            samples.work += len(utilisation)
            self.run.check(checker.check_simulation, result, summary,
                           self.years[p], self.references[k],
                           self.run.sample_hours())
            del result, summary
        samples.peak_rss_mb = samples.peak_rss_mb or self_peak_rss_mb()
        return samples

    def report(self, samples: Samples) -> dict[str, tuple[float, str, int]]:
        n = len(samples.ops)
        return {"sweep_hours_per_s": (samples.work_per_s, "1/s", n),
                "sweep_run_p50_ms": (statistics.median(samples.ops) * 1e3,
                                     "ms", n),
                "sweep_run_p90_ms": (quantile(samples.ops, 90) * 1e3, "ms", n)}


class CurtailGrid:
    """In-process ``analysis.curtail`` point solves over a seeded pool."""

    modules = ["dcpowersim.analysis", "dcpowersim.config", "dcpowersim.engine"]

    def __init__(self, run: Run) -> None:
        self.run = run
        self.texts = inputs.curtail_scenarios(run.workload, run.seed)
        self.references = [ReferenceModel(config.parse_scenario_config(t))
                           for t in self.texts]
        self.points = inputs.curtail_points(
            run.workload, run.seed,
            lambda k, t: (self.references[k].total(0.0, t),
                          self.references[k].total(1.0, t)))

    def loop(self, seconds: float, tracer: Tracer | None = None) -> Samples:
        scenarios = [config.parse_scenario_config(t) for t in self.texts]
        contexts = [engine.peak_context(s) for s in scenarios]
        samples = Samples()
        clock = time.perf_counter_ns
        start = time.perf_counter()
        i = 0
        while not samples.ops or time.perf_counter() - start < seconds:
            batch = []
            for _ in range(CURTAIL_BATCH):
                point = self.points[i % len(self.points)]
                i += 1
                if tracer is not None:
                    tracer.op_id = i
                k = point.scenario
                t0 = clock()
                try:
                    solution = analysis.curtail(point.target_w,
                                                point.ambient_c,
                                                scenarios[k], contexts[k])
                except Exception as exc:    # any raise is a failed operation
                    self.run.attempted += 1
                    self.run.fail(f"curtail {point}: {exc!r}")
                    continue
                batch.append((clock() - t0) * 1e-9)
                samples.work += 1
                self.run.check(checker.check_curtail,
                               solution.required_utilisation,
                               solution.achieved_total_w, solution.feasible,
                               point.target_w, point.ambient_c,
                               self.references[k], point.floor_w,
                               point.peak_w)
            scale = CALIBRATION_REFERENCE_S / calibration_s()
            samples.ops.extend(wall * scale for wall in batch)
            samples.wall.extend(batch)
            if not samples.peak_rss_mb and i >= len(self.points):
                samples.peak_rss_mb = self_peak_rss_mb()
        samples.peak_rss_mb = samples.peak_rss_mb or self_peak_rss_mb()
        return samples

    def report(self, samples: Samples) -> dict[str, tuple[float, str, int]]:
        n = len(samples.ops)
        return {"solves_per_s": (samples.work_per_s, "1/s", n),
                "solve_p50_us": (statistics.median(samples.ops) * 1e6, "us", n),
                "solve_p99_us": (quantile(samples.ops, 99) * 1e6, "us", n)}


WORKLOADS = {
    "annual_cli": AnnualCli,
    "scenario_sweep": ScenarioSweep,
    "curtail_grid": CurtailGrid,
}


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and the named workload report."""
    workload = WORKLOADS[run.workload](run)
    setup = measure_setup(run, workload.modules, workload.texts)
    samples = workload.loop(seconds)
    n = len(samples.ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (samples.peak_rss_mb, "MB", 1),
        "work_per_s": (samples.work_per_s, "1/s", n),
        "op_p50_ms": (statistics.median(samples.ops) * 1e3, "ms", n),
    }
    report = workload.report(samples)
    report["wall_op_p50_ms"] = (statistics.median(samples.wall) * 1e3, "ms", n)
    return metrics, report


LAYER_UNITS = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_self_ms": "ms",
    "config.parse_scenario_config_us": "us",
    "profiles.parse_utilisation_csv_ms": "ms",
    "profiles.parse_temperature_csv_ms": "ms",
    "profiles.write_results_csv_ms": "ms",
    "profiles.bytes_out": "bytes",
    "svg.render_stacked_area_ms": "ms",
    "svg.render_lines_ms": "ms",
    "svg.bytes_out": "bytes",
    "analysis.compare_architectures_ms": "ms",
    "analysis.curtail_us": "us",
    "analysis.step_power_calls_per_solve": "count",
    "analysis.curtail_feasible_ratio": "ratio",
    "engine.peak_context_us": "us",
    "engine.simulate_us_per_hour": "us",
    "engine.summarize_energy_ms": "ms",
    "engine.step_power_us": "us",
    "engine.step_power_calls_per_hour": "count",
    "engine.simulate_alloc_mb": "MB",
    "engine.self_us_per_hour": "us",
    "cooling.eer_lookup_calls_per_hour": "count",
    "cooling.self_us_per_hour": "us",
    "server_farm.farm_power_calls_per_hour": "count",
    "server_farm.self_us_per_hour": "us",
    "power_chain.supply_loss_calls_per_hour": "count",
    "power_chain.self_us_per_hour": "us",
    "trace.overhead_pct": "%",
}


def _per_call(tracer: Tracer, name: str, scale: float) -> float | None:
    calls, total, _ = tracer.select(name)
    return total / calls / scale if calls else None


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer figures from spans; None where the layer did not run."""
    hours = tracer.counters.get("engine.hours", 0)

    def per_hour(prefix: str, self_time: bool) -> float | None:
        calls, _, own = tracer.select(prefix, in_sim=True)
        if not hours:
            return None
        return own / hours / 1e3 if self_time else calls / hours

    def ratio(numerator: float, function: str) -> float | None:
        calls = tracer.select(function)[0]
        return numerator / calls if calls else None

    curtail_calls = tracer.select("analysis.curtail")[0]
    simulate_ns = tracer.select("engine.simulate")[1]
    cli_calls, _, cli_self = tracer.select("cli.run")
    return {
        "cli.run_self_ms": cli_self / cli_calls / 1e6 if cli_calls else None,
        "config.parse_scenario_config_us":
            _per_call(tracer, "config.parse_scenario_config", 1e3),
        "profiles.parse_utilisation_csv_ms":
            _per_call(tracer, "profiles.parse_utilisation_csv", 1e6),
        "profiles.parse_temperature_csv_ms":
            _per_call(tracer, "profiles.parse_temperature_csv", 1e6),
        "profiles.write_results_csv_ms":
            _per_call(tracer, "profiles.write_results_csv", 1e6),
        "profiles.bytes_out": ratio(tracer.counters.get("profiles.bytes", 0),
                                    "profiles.write_results_csv"),
        "svg.render_stacked_area_ms":
            _per_call(tracer, "svg.render_stacked_area", 1e6),
        "svg.render_lines_ms": _per_call(tracer, "svg.render_lines", 1e6),
        "svg.bytes_out": ratio(tracer.counters.get("svg.bytes", 0), "svg."),
        "analysis.compare_architectures_ms":
            _per_call(tracer, "analysis.compare_architectures", 1e6),
        "analysis.curtail_us": _per_call(tracer, "analysis.curtail", 1e3),
        "analysis.step_power_calls_per_solve":
            tracer.select("engine.step_power", parent="analysis.curtail")[0]
            / curtail_calls if curtail_calls else None,
        "analysis.curtail_feasible_ratio":
            ratio(tracer.counters.get("analysis.curtail_feasible", 0),
                  "analysis.curtail"),
        "engine.peak_context_us": _per_call(tracer, "engine.peak_context", 1e3),
        "engine.simulate_us_per_hour":
            simulate_ns / hours / 1e3 if hours else None,
        "engine.summarize_energy_ms":
            _per_call(tracer, "engine.summarize_energy", 1e6),
        "engine.step_power_us": _per_call(tracer, "engine.step_power", 1e3),
        "engine.step_power_calls_per_hour":
            per_hour("engine.step_power", self_time=False),
        "engine.self_us_per_hour": per_hour("engine.", self_time=True),
        "cooling.eer_lookup_calls_per_hour":
            per_hour("cooling.eer_lookup", self_time=False),
        "cooling.self_us_per_hour": per_hour("cooling.", self_time=True),
        "server_farm.farm_power_calls_per_hour":
            per_hour("server_farm.farm_power", self_time=False),
        "server_farm.self_us_per_hour": per_hour("server_farm.",
                                                 self_time=True),
        "power_chain.supply_loss_calls_per_hour":
            per_hour("power_chain.supply_loss", self_time=False),
        "power_chain.self_us_per_hour": per_hour("power_chain.",
                                                 self_time=True),
    }


def census(run: Run) -> Tracer:
    """One traced in-process pass over every layer: the four subcommands
    through ``cli.run`` and one ``simulate()`` + ``summarize_energy()``.
    Fills the per-layer figures of layers a workload does not exercise."""
    tracer = Tracer()
    annual = AnnualCli(run)
    year = annual.inputs.climate
    utilisation = UtilisationProfile(year.stamps, year.utilisation)
    ambient = AmbientProfile(year.stamps, year.ambient_c)
    tracer.install()
    try:
        annual.round(Samples(), tracer, in_process=True)
        scenario = config.parse_scenario_config(annual.inputs.config_text)
        result = engine.simulate(utilisation, ambient, scenario)
        summary = engine.summarize_energy(result)
    finally:
        tracer.uninstall()
    run.check(checker.check_simulation, result, summary, year,
              annual.reference, run.sample_hours())
    return tracer


def traced(run: Run, seconds: float) -> tuple[dict, dict, Tracer]:
    """Per-layer metrics, the tracing overhead and the workload's spans."""
    workload = WORKLOADS[run.workload](run)
    layers = start_probes(run)
    layers["engine.simulate_alloc_mb"] = simulate_alloc_mb(
        inputs.cli_inputs(run.workload, run.seed, _reference_total))
    plain = workload.loop(seconds / 2)
    tracer = Tracer()
    if run.workload == "annual_cli":    # the children install the wrappers
        with_spans = workload.loop(seconds / 2, tracer)
    else:
        tracer.install()
        try:
            with_spans = workload.loop(seconds / 2, tracer)
        finally:
            tracer.uninstall()
    measured = layer_metrics(tracer)
    if any(value is None for value in measured.values()):
        filled = layer_metrics(census(run))
        measured = {name: filled[name] if value is None else value
                    for name, value in measured.items()}
    layers.update(measured)
    untraced_op = statistics.median(plain.ops)
    layers["trace.overhead_pct"] = (
        (statistics.median(with_spans.ops) - untraced_op) / untraced_op * 100.0)
    n = {"untraced ops": len(plain.ops), "traced ops": len(with_spans.ops)}
    return {name: layers[name] for name in LAYER_UNITS}, n, tracer
