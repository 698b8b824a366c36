"""Derived analyses on top of the engine.

Curtailment inverts the forward model in closed form: at one outdoor
temperature the facility total is c0 + c1*U + c2*U^2 with every c >= 0
(see ``engine``), solved by the cancellation-free root
U = 2d / (c1 + sqrt(c1^2 + 4*c2*d)), d = target - c0, or by its equal
form U = sqrt(d / c2) when c1 = 0 and 4*c2*d underflows to 0, which
leaves the root no denominator.  One comparison per endpoint decides
which of the three a target takes: one at most the tolerance above the
floor load (everything idle) takes the floor, one at most the tolerance
below the full-load total takes the peak, and every other target takes
the root.  Whichever it takes, a solution is feasible only if its
achieved total lies within the tolerance of the target.  So a target
beyond an endpoint is reported infeasible with the nearest achievable
total rather than raising, and so is a subnormal target whose root total
rounds away from it.  A solve takes the adjustment a from one
``cooling.eer_lookup`` call and evaluates the compiled total pair at it
in place.  It builds its record at one site by ``tuple.__new__``, as the
NamedTuple's own ``__new__`` does, without that Python-level call, which
was about a fifth of a solve.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import cooling
from .config import COMPONENTS, CoolingArchitecture, ScenarioConfig
from .engine import PeakContext, peak_context, simulate, step_power
from .errors import LARGEST, OutOfRange, _shown, check

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .profiles import AmbientProfile, UtilisationProfile

CURTAIL_RELATIVE_TOLERANCE = 1e-6


class CurtailmentSolution(NamedTuple):
    target_total_w: float
    required_utilisation: float
    achieved_total_w: float
    feasible: bool


class PowerCurve(NamedTuple):
    """Facility total versus utilisation at one outdoor temperature."""

    temperature_c: float
    points: tuple[tuple[float, float], ...]   # (utilisation, total watts)


class ArchitectureComparison(NamedTuple):
    baseline: CoolingArchitecture
    alternative: CoolingArchitecture
    timestamps: tuple[str, ...]
    baseline_cooling_w: tuple[float, ...]
    alternative_cooling_w: tuple[float, ...]
    baseline_cooling_energy_wh: float
    alternative_cooling_energy_wh: float

    @property
    def relative_increase(self) -> float:
        if self.baseline_cooling_energy_wh == 0.0:
            raise OutOfRange(
                f"baseline {self.baseline.value} draws no cooling energy; "
                "the relative increase is undefined")
        return (self.alternative_cooling_energy_wh
                / self.baseline_cooling_energy_wh - 1.0)


def curtail(target_total_w: float, ambient_c: float,
            scenario: ScenarioConfig, ctx: PeakContext) -> CurtailmentSolution:
    """Find the utilisation whose facility total matches a curtailment target.

    A target within the relative tolerance of the floor or peak snaps to
    that endpoint; one beyond them is infeasible at the nearest endpoint.
    """
    if not 0.0 < target_total_w <= LARGEST:
        raise OutOfRange(
            f"curtailment target must be positive and finite, got "
            f"{_shown(target_total_w)}")
    a = ctx.reference_eer / cooling.eer_lookup(ambient_c, ctx.eer)
    (f0, f1, f2), (r0, r1, r2) = ctx.total_fixed, ctx.total_refrigeration
    c0, c1, c2 = f0 + a * r0, f1 + a * r1, f2 + a * r2
    tolerance_w = CURTAIL_RELATIVE_TOLERANCE * target_total_w
    if target_total_w - c0 <= tolerance_w:
        u, total_w = 0.0, c0
    elif (peak_w := c0 + c1 + c2) - target_total_w <= tolerance_w:
        u, total_w = 1.0, peak_w
    else:
        d = target_total_w - c0
        try:
            u = 2.0 * d / (c1 + math.sqrt(c1 * c1 + 4.0 * c2 * d))
        except ZeroDivisionError:   # c1 = 0 and 4 * c2 * d underflowed
            u = math.sqrt(d / c2)
        total_w = c0 + u * (c1 + u * c2)
    return tuple.__new__(CurtailmentSolution, (
        target_total_w, u, total_w,
        abs(total_w - target_total_w) <= tolerance_w))


def peak_breakdown(scenario: ScenarioConfig) -> dict[str, float]:
    """Fractional component shares at full load and reference temperature."""
    ctx = peak_context(scenario)
    breakdown = step_power(1.0, scenario.reference_ambient_c, ctx)
    return {name: watts / breakdown.total_w
            for name, watts in breakdown.as_dict().items()}


def power_curve(temps_c: list[float], scenario: ScenarioConfig,
                n_points: int) -> list[PowerCurve]:
    """Facility total as a function of utilisation, one curve per temperature."""
    check(OutOfRange, n_points=(
        n_points, (lambda n: isinstance(n, int) and n >= 2, "be an int >= 2")))
    ctx = peak_context(scenario)
    grid = [i / (n_points - 1) for i in range(n_points)]
    curves = []
    for temp_c in temps_c:
        points = tuple(
            (u, step_power(u, temp_c, ctx).total_w) for u in grid)
        curves.append(PowerCurve(temperature_c=temp_c, points=points))
    return curves


def compare_architectures(
    utilisation: UtilisationProfile,
    ambient: AmbientProfile,
    scenario: ScenarioConfig,
    baseline: CoolingArchitecture = CoolingArchitecture.CRAH_CHILLER,
    alternative: CoolingArchitecture = CoolingArchitecture.CRAC,
) -> ArchitectureComparison:
    """Run the same profiles under two cooling architectures.

    Each run uses its own design peak (the misc constant and pump gating
    follow the architecture); the comparison reports the per-step cooling
    draw and the relative cooling-energy increase of the alternative.
    """
    def cooling_series(arch: CoolingArchitecture) -> tuple[float, ...]:
        run = simulate(utilisation, ambient, scenario.with_architecture(arch))
        # A load the architecture excludes is exact zeros; adding 0.0 is exact.
        return tuple(map(sum, zip(*[
            load for load, component in zip(run.components, COMPONENTS)
            if component.group == "cooling"])))

    base_series, alt_series = map(cooling_series, (baseline, alternative))
    return ArchitectureComparison(
        baseline=baseline,
        alternative=alternative,
        timestamps=utilisation.timestamps,
        baseline_cooling_w=base_series,
        alternative_cooling_w=alt_series,
        baseline_cooling_energy_wh=sum(base_series),
        alternative_cooling_energy_wh=sum(alt_series),
    )
