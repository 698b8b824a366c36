"""Seeded inputs for the benchmark workloads.

Every input the program receives is made here from ``--seed``: the same
seed gives byte-identical files and equal objects.  A seed changes values
and order, never the shape of a distribution, so run-to-run cost does not
depend on which seed was drawn: the architecture mix, EER-table sizes,
farm sizes and consolidation levels are stratified and only shuffled.

Why each workload
-----------------
``annual_cli``
    What a user pays: one process per subcommand (``simulate --svg``,
    ``compare --svg``, ``curtail``, ``curve --svg``) on one year of hourly
    input.  Interpreter start-up, import, CSV parsing, CSV and SVG writing
    and ``compare`` dominate; the engine is a minority.  It is the workload
    on which the I/O layers (columnar results, cheaper parsing, SVG
    decimation, lazy imports) show, and it covers reads beside writes.
``scenario_sweep``
    In-process ``simulate()`` + ``summarize_energy()`` over annual profiles
    for many scenarios, with no file I/O.  ``engine``, ``cooling``,
    ``server_farm`` and ``power_chain`` do nearly all the work, so a
    compiled per-scenario model shows here and the I/O changes should not.
``curtail_grid``
    In-process ``analysis.curtail`` point solves.  The same engine is used
    point-wise rather than along a series, and bisection dominates, so a
    closed-form root shows here and series-side changes should not.

Why each input property
-----------------------
* Utilisation follows the acceptance suite's annual profile (weekdays
  0.2-1.0, weekends 0.2-0.7, one diurnal cycle a day) plus seeded jitter,
  clipped to [0, 1]; the peaks clip to exactly 1.0, the design point.
* Ambient is a seasonal sine plus a diurnal swing plus jitter, running
  from below -5 C to above 40 C, so every EER table used is left at both
  ends and both clamp branches run, as well as interpolation.
* All three cooling architectures, in equal numbers, because each one
  takes a different path through ``step_power``.
* Consolidation spans [0, 1] with both end points included exactly: 0
  takes the packed-farm branch, 1 the load-balanced one.
* Farm sizes from 500 to 200,000 servers: the model is scale-free, so
  this guards against results that only hold at one magnitude.
* EER tables of 2 to 40 breakpoints: the lookup scans the table, so its
  cost grows with size, and a faster lookup should show.
* Curtail targets are uniform in [0.8 floor, 1.1 peak] at ambients in
  [-10, 45] C.  About a fifth are infeasible (20-22% measured over these
  scenarios, whose floor is near 40% of peak) and take the early returns;
  the rest run the full solve.
"""

from __future__ import annotations

import datetime as dt
import math
import random
from dataclasses import dataclass

HOURS = 8760
START = "2016-01-01T00:00"
STAMP_FORMAT = "%Y-%m-%dT%H:%M"

SWEEP_SCENARIOS = 24
SWEEP_PROFILES = 4
CURTAIL_SCENARIOS = 32
CURTAIL_POINTS = 4096
CURVE_POINTS = 21

ARCHITECTURES = ("crah_chiller", "crac", "free_air")
FARM_SIZES = (500, 5000, 40000, 200000)
EER_SIZES = (2, 40)


@dataclass(frozen=True)
class Climate:
    """One year of hourly inputs as plain values."""

    stamps: tuple[str, ...]
    utilisation: tuple[float, ...]
    ambient_c: tuple[float, ...]


@dataclass(frozen=True)
class CliInputs:
    """Files and arguments for one round of the four CLI subcommands."""

    config_text: str
    climate: Climate
    curtail_ambient_c: float
    curtail_target_w: float
    curve_temps: tuple[float, ...]


@dataclass(frozen=True)
class CurtailPoint:
    """One solve; floor and peak are the reference bounds at that ambient."""

    scenario: int
    ambient_c: float
    target_w: float
    floor_w: float
    peak_w: float


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def hourly_stamps(n: int, start: str = START) -> tuple[str, ...]:
    t0 = dt.datetime.strptime(start, STAMP_FORMAT)
    return tuple((t0 + dt.timedelta(hours=h)).strftime(STAMP_FORMAT)
                 for h in range(n))


def climate(rng: random.Random, stamps: tuple[str, ...]) -> Climate:
    """Annual utilisation and ambient, shaped as in the acceptance suite."""
    phase = rng.uniform(-0.05, 0.05)
    mean_c = rng.uniform(17.0, 19.0)
    seasonal_c = rng.uniform(16.5, 17.5)
    diurnal_c = rng.uniform(6.5, 7.5)
    us, ts = [], []
    for h in range(len(stamps)):
        day = (h // 24) % 7
        mean, amplitude = (0.6, 0.4) if day < 5 else (0.45, 0.25)
        u = (mean - amplitude * math.cos(2 * math.pi * (h % 24) / 24.0)
             + rng.gauss(0.0, 0.03))
        us.append(min(1.0, max(0.0, u)))
        season = math.cos(2 * math.pi * (h / len(stamps) + phase))
        daily = math.cos(2 * math.pi * ((h % 24) - 3) / 24.0)
        ts.append(mean_c - seasonal_c * season - diurnal_c * daily
                  + rng.gauss(0.0, 1.5))
    return Climate(stamps, tuple(us), tuple(ts))


def _eer_table(rng: random.Random, size: int) -> str:
    """``size`` breakpoints between a cold and a hot end inside the climate."""
    low_c = rng.uniform(-2.0, 6.0)
    high_c = rng.uniform(28.0, 36.0)
    inner = sorted(rng.uniform(low_c, high_c) for _ in range(size - 2))
    temps = [low_c, *inner, high_c]
    eer = rng.uniform(5.2, 6.2)
    points = []
    for temp in temps:
        points.append(f"{temp!r}:{eer!r}")
        eer -= rng.uniform(0.0, 3.0 / size)
    return ";".join(points)


def scenario_text(rng: random.Random, architecture: str, consolidation: float,
                  count: int, eer_size: int | None) -> str:
    """A complete scenario config with seeded, valid parameters."""
    p_idle = rng.uniform(80.0, 160.0)
    values = {
        "server.count": count,
        "server.p_idle_w": p_idle,
        "server.p_peak_w": p_idle + rng.uniform(80.0, 220.0),
        "architecture": architecture,
        "consolidation": consolidation,
        "chiller.alpha": rng.uniform(0.25, 0.4),
        "chiller.beta": rng.uniform(0.08, 0.14),
        "chiller.gamma": rng.uniform(0.5, 0.7),
        "chiller.sizing_factor": rng.uniform(0.6, 0.8),
        "crah.idle_frac": rng.uniform(0.07, 0.1),
        "crac.idle_frac": rng.uniform(0.1, 0.3),
        "crac.cop": rng.uniform(3.0, 6.0),
        "pump_fraction": rng.uniform(0.02, 0.06),
        "misc_fraction": rng.uniform(0.03, 0.08),
        "reference_ambient_c": rng.uniform(22.0, 32.0),
    }
    lines = [f"{key}={value!r}" if isinstance(value, float)
             else f"{key}={value}" for key, value in values.items()]
    if eer_size is not None:
        lines.append(f"eer.table={_eer_table(rng, eer_size)}")
    return "\n".join(lines) + "\n"


def _stratified(rng: random.Random, n: int, low: float, high: float
                ) -> list[float]:
    """One value per stratum of [low, high], end points exact, shuffled."""
    values = [low + (high - low) * (k + rng.random()) / n for k in range(n)]
    values[0], values[-1] = low, high
    rng.shuffle(values)
    return values


def scenario_set(rng: random.Random, n: int) -> list[str]:
    archs = [ARCHITECTURES[k % 3] for k in range(n)]
    rng.shuffle(archs)
    sizes = [round(EER_SIZES[0] + (EER_SIZES[1] - EER_SIZES[0]) * k / (n - 1))
             for k in range(n)]
    rng.shuffle(sizes)
    counts = [FARM_SIZES[k % len(FARM_SIZES)] for k in range(n)]
    rng.shuffle(counts)
    consolidation = _stratified(rng, n, 0.0, 1.0)
    return [scenario_text(rng, archs[k], consolidation[k], counts[k], sizes[k])
            for k in range(n)]


def cli_inputs(workload: str, seed: int, reference_total) -> CliInputs:
    """One chilled-water scenario with the default EER table, one year.

    ``reference_total(config_text, u, ambient_c)`` places the curtail
    target strictly between floor and peak, so the solve is feasible.
    """
    rng = _rng(workload, seed, "cli")
    config = scenario_text(rng, "crah_chiller", rng.uniform(0.0, 1.0),
                           rng.choice(FARM_SIZES), None)
    year = climate(rng, hourly_stamps(HOURS))
    ambient = rng.uniform(-5.0, 40.0)
    floor = reference_total(config, 0.0, ambient)
    peak = reference_total(config, 1.0, ambient)
    target = floor + rng.uniform(0.1, 0.9) * (peak - floor)
    temps = tuple(sorted(rng.uniform(-5.0, 45.0) for _ in range(5)))
    return CliInputs(config, year, ambient, target, temps)


def sweep_inputs(workload: str, seed: int
                 ) -> tuple[list[str], list[Climate]]:
    rng = _rng(workload, seed, "sweep")
    stamps = hourly_stamps(HOURS)
    years = [climate(rng, stamps) for _ in range(SWEEP_PROFILES)]
    return scenario_set(rng, SWEEP_SCENARIOS), years


def curtail_scenarios(workload: str, seed: int) -> list[str]:
    return scenario_set(_rng(workload, seed, "curtail-scenarios"),
                        CURTAIL_SCENARIOS)


def curtail_points(workload: str, seed: int, reference_bounds
                   ) -> list[CurtailPoint]:
    """A shuffled pool of (scenario, ambient, target) points.

    ``reference_bounds(k, ambient_c)`` gives the floor and peak total of
    scenario ``k``, between which each target is drawn.
    """
    rng = _rng(workload, seed, "curtail-points")
    points = []
    for i in range(CURTAIL_POINTS):
        k = i % CURTAIL_SCENARIOS
        ambient = rng.uniform(-10.0, 45.0)
        floor, peak = reference_bounds(k, ambient)
        points.append(CurtailPoint(k, ambient,
                                   rng.uniform(0.8 * floor, 1.1 * peak),
                                   floor, peak))
    rng.shuffle(points)
    return points


def profile_csv(header: str, stamps: tuple[str, ...],
                values: tuple[float, ...]) -> str:
    """Full-precision CSV, so the parsed floats equal the generated ones."""
    rows = [header]
    rows.extend(f"{stamp},{value!r}" for stamp, value in zip(stamps, values))
    return "\n".join(rows) + "\n"
