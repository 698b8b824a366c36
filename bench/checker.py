"""Output checks against the independent reference model.

Every check uses a tolerance rather than byte identity, so a rewrite whose
arithmetic differs in the last bits (for example a scenario compiled into
polynomials, ~4e-16 relative) still passes, while a component that is off
by 1e-6 relative does not.  Each check raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import io
import math
import xml.etree.ElementTree as ET

from reference import COMPONENTS, ReferenceModel

# Sampled hours and curve points agree with the reference to this, relative.
REL_TOL = 1e-9
# A CSV value carries 10 significant digits (<= 5e-10 relative rounding),
# so a printed total and the sum of its printed parts may differ by two
# roundings.
CSV_SUM_TOL = 2e-9
# In memory the total is the plain sum of eight parts: a few ulps.
MEMORY_SUM_TOL = 1e-12
# The curtail solver's own contract on the achieved total.
CURTAIL_TOL = 1e-6

RESULTS_HEADER = ("timestamp", "utilisation", "ambient_c",
                  *(f"{name}_w" for name in COMPONENTS), "total_w")
COMPARE_HEADER = ("timestamp", "utilisation", "ambient_c",
                  "crah_chiller_cooling_w", "crac_cooling_w")
CURVE_HEADER = ("temp_c", "utilisation", "total_w")
SVG_ROOT = "{http://www.w3.org/2000/svg}svg"


class CheckFailed(Exception):
    """An output disagrees with the reference or breaks an invariant."""


def _close(got: float, want: float, rel: float, what: str,
           floor: float = 0.0) -> None:
    if not abs(got - want) <= rel * max(abs(got), abs(want)) + floor:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _additive(parts: list[float], total: float, rel: float,
              what: str) -> None:
    _close(total, math.fsum(parts), rel, f"{what}: total vs sum of parts")


def _agree(got: dict[str, float], want: dict[str, float], what: str) -> None:
    # Parts that are exactly zero in the model may come out as a few ulps
    # of the hour's total from rearranged arithmetic.
    floor = 1e-15 * math.fsum(want.values())
    for name in COMPONENTS:
        _close(got[name], want[name], REL_TOL, f"{what} {name}", floor)


def _rows(text: str, header: tuple[str, ...], n: int, what: str
          ) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != header:
        raise CheckFailed(f"{what}: header {rows[0] if rows else None!r}")
    body = rows[1:]
    if len(body) != n:
        raise CheckFailed(f"{what}: {len(body)} rows, expected {n}")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise CheckFailed(f"{what}: row {i + 1} has {len(row)} fields")
    return body


def _inputs_echoed(row: list[str], year, h: int, what: str) -> None:
    if row[0] != year.stamps[h]:
        raise CheckFailed(f"{what} hour {h}: timestamp {row[0]!r}")
    _close(float(row[1]), year.utilisation[h], REL_TOL, f"{what} hour {h} u")
    _close(float(row[2]), year.ambient_c[h], REL_TOL, f"{what} hour {h} t")


def check_simulation(result, summary, year, reference: ReferenceModel,
                     hours: list[int]) -> None:
    """An in-memory ``simulate()`` result and its ``summarize_energy()``."""
    steps = result.steps
    if len(steps) != len(year.stamps):
        raise CheckFailed(f"{len(steps)} steps, expected {len(year.stamps)}")
    columns = {name: [] for name in COMPONENTS}
    for h, step in enumerate(steps):
        if (step.timestamp != year.stamps[h]
                or step.utilisation != year.utilisation[h]
                or step.ambient_c != year.ambient_c[h]):
            raise CheckFailed(f"hour {h}: inputs not echoed")
        parts = step.power.as_dict()
        _additive(list(parts.values()), step.power.total_w, MEMORY_SUM_TOL,
                  f"hour {h}")
        for name in COMPONENTS:
            columns[name].append(parts[name])
    for h in hours:
        _agree(steps[h].power.as_dict(),
               reference.breakdown(year.utilisation[h], year.ambient_c[h]),
               f"hour {h}")
    for name in COMPONENTS:
        _close(summary.energy_wh[name], math.fsum(columns[name]), REL_TOL,
               f"energy of {name}")
    _close(summary.total_energy_wh,
           math.fsum(math.fsum(c) for c in columns.values()), REL_TOL,
           "total energy")


def check_results_csv(text: str, year, reference: ReferenceModel,
                      hours: list[int]) -> None:
    """The CSV written by ``simulate``: one additive row per input hour."""
    body = _rows(text, RESULTS_HEADER, len(year.stamps), "results csv")
    for h, row in enumerate(body):
        _inputs_echoed(row, year, h, "results csv")
        values = [float(cell) for cell in row[3:]]
        _additive(values[:-1], values[-1], CSV_SUM_TOL, f"results csv hour {h}")
    for h in hours:
        got = dict(zip(COMPONENTS, (float(c) for c in body[h][3:11])))
        _agree(got, reference.breakdown(year.utilisation[h],
                                        year.ambient_c[h]),
               f"results csv hour {h}")


def parse_key_values(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition(",")
        if not sep:
            raise CheckFailed(f"stdout line {line!r} is not key,value")
        pairs[key] = value
    return pairs


def check_compare(csv_text: str, stdout: str, year,
                  baseline: ReferenceModel, alternative: ReferenceModel,
                  hours: list[int]) -> None:
    """The ``compare`` CSV, and the energies it prints, against both models."""
    body = _rows(csv_text, COMPARE_HEADER, len(year.stamps), "compare csv")
    base, alt = [], []
    for h, row in enumerate(body):
        _inputs_echoed(row, year, h, "compare csv")
        base.append(float(row[3]))
        alt.append(float(row[4]))
    for h in hours:
        u, t = year.utilisation[h], year.ambient_c[h]
        _close(base[h], baseline.cooling(u, t), REL_TOL, f"baseline hour {h}")
        _close(alt[h], alternative.cooling(u, t), REL_TOL,
               f"alternative hour {h}")
    printed = parse_key_values(stdout)
    try:
        base_wh = float(printed["baseline_cooling_energy_wh"])
        alt_wh = float(printed["alternative_cooling_energy_wh"])
        increase = float(printed["relative_increase"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"compare stdout: {exc!r}") from None
    _close(base_wh, math.fsum(base), CSV_SUM_TOL, "baseline energy")
    _close(alt_wh, math.fsum(alt), CSV_SUM_TOL, "alternative energy")
    _close(increase + 1.0, alt_wh / base_wh, CSV_SUM_TOL, "relative increase")


def check_curtail(utilisation: float, achieved_w: float, feasible: bool,
                  target_w: float, ambient_c: float,
                  reference: ReferenceModel, floor_w: float | None = None,
                  peak_w: float | None = None, printed: bool = False) -> None:
    """A curtail solution: on target if feasible, else outside [floor, peak].

    ``printed`` values carry 10 significant digits, which moves the
    utilisation by up to 5e-10 relative; that slack is added.
    """
    if floor_w is None:
        floor_w = reference.total(0.0, ambient_c)
    if peak_w is None:
        peak_w = reference.total(1.0, ambient_c)
    slack = REL_TOL * peak_w if printed else 0.0
    tolerance = CURTAIL_TOL * target_w
    if not feasible:
        if target_w < floor_w:
            expected_u, expected_w = 0.0, floor_w
        elif target_w > peak_w:
            expected_u, expected_w = 1.0, peak_w
        else:
            raise CheckFailed(f"target {target_w!r} inside [{floor_w!r}, "
                              f"{peak_w!r}] reported infeasible")
        if utilisation != expected_u:
            raise CheckFailed(f"infeasible target: utilisation {utilisation!r}"
                              f", expected {expected_u}")
        _close(achieved_w, expected_w, REL_TOL, "infeasible achieved total")
        return
    if not floor_w - tolerance <= target_w <= peak_w + tolerance:
        raise CheckFailed(f"target {target_w!r} outside [{floor_w!r}, "
                          f"{peak_w!r}] reported feasible")
    if not 0.0 <= utilisation <= 1.0:
        raise CheckFailed(f"utilisation {utilisation!r} outside [0, 1]")
    at_solution = reference.total(utilisation, ambient_c)
    _close(at_solution, target_w, 0.0, "total at the solved utilisation",
           tolerance + slack)
    _close(achieved_w, at_solution, REL_TOL, "reported achieved total", slack)


def check_curtail_stdout(stdout: str, target_w: float, ambient_c: float,
                         reference: ReferenceModel) -> None:
    printed = parse_key_values(stdout)
    try:
        utilisation = float(printed["utilisation"])
        achieved = float(printed["achieved_total_w"])
        echoed = float(printed["target_total_w"])
        feasible = {"true": True, "false": False}[printed["feasible"]]
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"curtail stdout: {exc!r}") from None
    _close(echoed, target_w, REL_TOL, "echoed target")
    check_curtail(utilisation, achieved, feasible, target_w, ambient_c,
                  reference, printed=True)


def check_curve_csv(text: str, temps: tuple[float, ...], points: int,
                    reference: ReferenceModel) -> None:
    body = _rows(text, CURVE_HEADER, len(temps) * points, "curve csv")
    for j, temp in enumerate(temps):
        for i in range(points):
            row = body[j * points + i]
            u = i / (points - 1)
            where = f"curve {temp!r} C point {i}"
            _close(float(row[0]), temp, REL_TOL, where + " temperature")
            _close(float(row[1]), u, REL_TOL, where + " utilisation")
            _close(float(row[2]), reference.total(u, temp), REL_TOL,
                   where + " total")


def check_svg(text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"svg does not parse: {exc}") from None
    if root.tag != SVG_ROOT:
        raise CheckFailed(f"svg root element is {root.tag!r}")
