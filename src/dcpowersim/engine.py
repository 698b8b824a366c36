"""Composition engine: a scenario compiled into quadratics, run per hour.

Which loads a cooling architecture includes is read from the component
table, ``config.COMPONENTS``; the loads it excludes are exactly 0.

At one outdoor temperature every load is a quadratic c0 + c1*U + c2*U^2
in utilisation U with every coefficient >= 0.  :func:`peak_context`
expands the component formulas once per scenario, in one pass over the
rows below, into (c0, c1, c2) triples, with F the farm peak and L the
consolidation.  The six loads above misc come straight from the specs;
misc, then pumps, follow from them:

    farm      count * (p_idle * L + (p_peak - p_idle * L) * U)
    PDU, UPS  quadratic and linear in the farm draw
    chiller   a * sizing * F * (gamma + beta * U + alpha * U^2)
    CRAH      idle_frac * F + fan * U
    CRAC      idle_frac * F + a * (1 + COP) * fan * U
    misc      mu * total_peak, a constant
    pumps     phi / (1 - phi) * (the sum of the other seven loads)

Misc is a fraction mu of the design peak and pumps a fraction phi of the
instantaneous total.  With S the sum of the first six loads at design
conditions (U = 1, a = 1), total_peak = S / (1 - phi - mu), and the total
of any hour is the sum of all eight loads.  That total is itself one
(fixed, refrigeration) pair, the column sums of the eight, compiled once
per scenario; a curtail solve evaluates it at one a.  :func:`peak_context`
only builds the pairs: :class:`PeakContext` checks their coefficients, its
reference EER and its full-load total on construction, and so on
``_replace``.  Loads are held in ``COMPONENT_NAMES`` order, as one value
each in a :class:`PowerBreakdown` and one column each in a
:class:`SimulationResult`, which sums its energy and shares when it is
built and its hourly totals on their first read.  A -0 setting passes
every >= 0 check, so ``PeakContext.loads`` starts each load from c0 + 0.0:
no load is -0, even at a U of -0.0.  It then evaluates each load by the
cheapest kernel for its shape, with the bits of the full form: a constant
(misc), linear (farm, CRAH) or quadratic (PDU, UPS) fixed side alone, a
refrigeration side alone on a constant (chiller), ``c0 + a * (U * r1)``
(CRAC), or the full form (pumps).

Outdoor temperature enters only through a = EER(reference) / EER(ambient),
which multiplies the chiller, the CRAC condenser term and the pumps' share
of both, never the CRAC idle floor.  :func:`step_power` and
``analysis.curtail`` take a for one ambient from one call of the scalar
``cooling.eer_lookup``, which rejects a non-finite ambient.
:func:`simulate` takes the whole column from
``cooling._adjustment_column``, with the same bits and no check of its
own: a non-finite ambient has already failed :func:`simulate`'s range
check with ``OutOfRange``.  The column reads the ambient profile's
ascending view, which the profile sorts on first use and keeps, so the
EER table is bisected once per breakpoint, not once per hour.  One
ambient looked up through a column of one took about six times as long
as through the scalar (see ``cooling``).  When the compiled
refrigeration total is zero (free air, or a CRAC without airflow), no
load depends on a, and :func:`simulate` reads no EER table past the
reference and builds no view.  The range check reads a verdict that each
profile computes on first use and keeps, so a profile run under many
scenarios is tested once; a false verdict, by the rule the row search
tests, has the rows searched on every call to name the row that failed.  The
per-component functions of ``server_farm``, ``power_chain`` and
``cooling`` remain the reference model the compiled form is tested
against.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import cooling
from .config import COMPONENTS, ScenarioConfig
from .errors import (FINITE, LARGEST, NONNEGATIVE, POSITIVE, UNIT,
                     EmptyProfile, EmptyResult, InvariantViolation,
                     OutOfRange, ProfileMismatch, _Record, _shown, check)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .profiles import AmbientProfile, UtilisationProfile

COMPONENT_NAMES = tuple(component.name for component in COMPONENTS)

Quadratic = tuple[float, float, float]   # (c0, c1, c2) in U
_ZERO: Quadratic = (0.0, 0.0, 0.0)


class PowerBreakdown(_Record):
    """Power at one instant, watts: one load per component in
    ``COMPONENT_NAMES`` order, and ``total_w``, their ``sum()`` from 0.0
    (compensated from Python 3.12) computed on construction."""

    def __init__(self, components: tuple[float, ...]) -> None:
        if len(components) != len(COMPONENT_NAMES):
            raise InvariantViolation(f"{len(COMPONENT_NAMES)} components, "
                                     f"got {len(components)}")
        for name, value in zip(COMPONENT_NAMES, components):
            if not 0.0 <= value <= LARGEST:
                raise InvariantViolation(
                    f"component {name} must be finite and nonnegative, "
                    f"got {_shown(value)}")
        self._set(components=components, total_w=sum(components, 0.0))

    def as_dict(self) -> dict[str, float]:
        """Components by name in the canonical order, without the total."""
        return dict(zip(COMPONENT_NAMES, self.components))


class PeakContext(_Record):
    """A scenario compiled into its quadratic form.

    Load i, the i-th of ``COMPONENT_NAMES``, draws
    ``fixed[i](U) + a * refrigeration[i](U)``: ``refrigeration`` holds the
    terms the ambient adjustment ``a`` scales.  The facility total is
    compiled once, on construction, into one pair of column sums from
    0.0, ``total_fixed`` and ``total_refrigeration``.

    Each side must hold one (c0, c1, c2) triple per load, and every
    coefficient must be finite and >= 0, so every load is finite,
    >= 0 and non-decreasing in U and a, and ``reference_eer`` positive and
    finite (``InvariantViolation``).  No lookup goes below the smallest
    EER of ``eer``, so a finite full-load total there bounds every hour at
    every ambient (else ``OutOfRange``).
    """

    def __init__(self, eer: cooling.EerTable, reference_eer: float,
                 fixed: tuple[Quadratic, ...],
                 refrigeration: tuple[Quadratic, ...]) -> None:
        if not (len(fixed) == len(refrigeration) == len(COMPONENT_NAMES)
                and all(len(c) == 3 for c in fixed + refrigeration)):
            raise InvariantViolation(
                f"compiled model needs {len(COMPONENT_NAMES)} (c0, c1, c2) "
                "triples on each side")
        if not all(map(NONNEGATIVE[0], sum(fixed + refrigeration, ()))):
            raise InvariantViolation(
                "compiled coefficients must be finite, >= 0")
        check(InvariantViolation, reference_eer=(reference_eer, POSITIVE))
        f0, f1, f2 = total_fixed = tuple(sum(c, 0.0) for c in zip(*fixed))
        r0, r1, r2 = total_refrigeration = tuple(
            sum(c, 0.0) for c in zip(*refrigeration))
        min_eer = eer.ascending_eer[-1]
        a = reference_eer / min_eer
        if not sum((f0 + a * r0, f1 + a * r1, f2 + a * r2)) <= LARGEST:
            raise OutOfRange(f"EER table: its smallest EER, {min_eer!r}, "
                             "makes the full-load total overflow")
        self._set(eer=eer, reference_eer=reference_eer, fixed=fixed,
                  refrigeration=refrigeration, total_fixed=total_fixed,
                  total_refrigeration=total_refrigeration)

    def loads(self, us: Sequence[float], adjustments: Sequence[float]):
        """Unchecked load columns, ``COMPONENT_NAMES`` order, per (U, a)."""
        return tuple([_load(f, r, us, adjustments)
                      for f, r in zip(self.fixed, self.refrigeration)])


def _load(fixed: Quadratic, refrigeration: Quadratic, us: Sequence[float],
          adjustments: Sequence[float]) -> tuple[float, ...]:
    """One load's column by the cheapest kernel with the full form's bits:
    a +-0 term adds +-0 to a sum from f0 >= +0.0, for U in [-0, 1]."""
    (f0, f1, f2), (r0, r1, r2) = fixed, refrigeration
    f0 += 0.0   # -0.0 to 0.0; every other f0 keeps its bits
    if r0 == r1 == r2 == 0.0:   # a * 0 would add exactly 0
        if f2 != 0.0:
            return tuple([f0 + u * (f1 + u * f2) for u in us])
        if f1 != 0.0:
            return tuple([f0 + u * f1 for u in us])
        return (f0,) * len(us)
    if f1 == f2 == 0.0:
        if r0 == r2 == 0.0:
            return tuple([f0 + a * (u * r1) for u, a in zip(us, adjustments)])
        return tuple([f0 + a * (r0 + u * (r1 + u * r2))
                      for u, a in zip(us, adjustments)])
    return tuple([f0 + u * (f1 + u * f2) + a * (r0 + u * (r1 + u * r2))
                  for u, a in zip(us, adjustments)])


class SimulationStep(NamedTuple):
    timestamp: str
    utilisation: float
    ambient_c: float
    power: PowerBreakdown


class SimulationResult(_Record):
    """A run of at least one hour as columns: the inputs and one load per
    component in ``COMPONENT_NAMES`` order.  Per-component energy
    (``energy_wh``, watt-hours), ``shares`` of the total and
    ``total_energy_wh`` derive on construction; the hourly totals,
    ``total_w``, on first read."""

    def __init__(self, timestamps: tuple[str, ...],
                 utilisation: tuple[float, ...], ambient_c: tuple[float, ...],
                 components: tuple[tuple[float, ...], ...]) -> None:
        columns = (timestamps, utilisation, ambient_c, *components)
        if (len(columns) != 3 + len(COMPONENT_NAMES)
                or len(set(map(len, columns))) > 1):
            raise InvariantViolation(
                f"3 input and {len(COMPONENT_NAMES)} load columns, one length")
        if not timestamps:
            raise EmptyResult("a simulation result needs at least one hour")
        # Summed by sum() from 0.0, so each load becomes a float and an int
        # that no float can hold raises here; 1-hour steps: W = Wh.
        try:
            energy_wh = dict(zip(COMPONENT_NAMES,
                                 [sum(column, 0.0) for column in components]))
        except OverflowError:
            raise InvariantViolation(
                "every load must be a number a float can hold") from None
        total_wh = sum(energy_wh.values())
        self._set(timestamps=timestamps, utilisation=utilisation,
                  ambient_c=ambient_c, components=components,
                  energy_wh=energy_wh,
                  shares={name: e / total_wh if total_wh > 0.0 else 0.0
                          for name, e in energy_wh.items()},
                  total_energy_wh=total_wh)

    @cached_property
    def total_w(self) -> tuple[float, ...]:
        """Hourly totals, summed as :class:`PowerBreakdown` sums them.

        Built on the first read and kept: an annual run read only for its
        energy skips 8,760 sums.  Each sums from 0.0 and cannot fail: the
        eager column sums have already converted every load to a float."""
        return tuple([sum(hour, 0.0) for hour in zip(*self.components)])

    @property
    def steps(self) -> tuple[SimulationStep, ...]:
        """The run hour by hour, built on each access."""
        return tuple(SimulationStep(stamp, u, t, PowerBreakdown(parts))
                     for stamp, u, t, parts in zip(
                         self.timestamps, self.utilisation, self.ambient_c,
                         zip(*self.components)))


def peak_context(scenario: ScenarioConfig) -> PeakContext:
    """Compile a scenario into its quadratics in U."""
    server, supply = scenario.server, scenario.supply
    farm_peak_w = server.farm_peak_w
    idle_w = server.p_idle_w * scenario.consolidation
    farm = (server.count * idle_w, server.count * (server.p_peak_w - idle_w),
            0.0)
    k = supply.lambda_pdu_per_w / supply.pdu_count
    # calibrate_supply squared the farm peak, and no farm[i] exceeds it.
    pdu = (supply.pdu_idle_total_w + k * farm[0] ** 2,
           2.0 * k * farm[0] * farm[1], k * farm[1] ** 2)
    ups = (supply.ups_idle_w + supply.lambda_ups * (farm[0] + pdu[0]),
           supply.lambda_ups * (farm[1] + pdu[1]), supply.lambda_ups * pdu[2])
    # Fan power is proportional to U, so its slope is its draw at U = 1.
    fan_w = cooling.airflow_heat_power(1.0, farm_peak_w, scenario.crah)
    chiller, crac = scenario.chiller, scenario.crac
    size_w = chiller.sizing_factor * farm_peak_w
    table = (   # (fixed, refrigeration) per load, in COMPONENTS order
        (farm, _ZERO), (pdu, _ZERO), (ups, _ZERO),
        (_ZERO, (size_w * chiller.gamma, size_w * chiller.beta,
                 size_w * chiller.alpha)),
        ((scenario.crah.idle_frac * farm_peak_w, fan_w, 0.0), _ZERO),
        ((crac.idle_frac * farm_peak_w, 0.0, 0.0),
         (0.0, (1.0 + crac.cop) * fan_w, 0.0)),
        (_ZERO, _ZERO), (_ZERO, _ZERO))   # pumps and misc, filled in below
    included = [scenario.architecture in c.architectures for c in COMPONENTS]
    fixed, refrigeration = map(list, zip(*(
        pair if kept else (_ZERO, _ZERO)   # an excluded load is zero
        for pair, kept in zip(table, included))))
    phi = scenario.pump_fraction if included[-2] else 0.0   # pumps
    mu = scenario.misc_fraction   # misc is in every architecture
    # At U = 1 and a = 1 each load is its coefficient sum; ScenarioConfig
    # keeps pump_fraction + misc_fraction below 1.  The zero slots add
    # +0.0, which is exact, here and in the pump sums.
    total_peak_w = sum(map(sum, fixed + refrigeration)) / (1.0 - phi - mu)
    fixed[-1] = (mu * total_peak_w, 0.0, 0.0)
    ratio = phi / (1.0 - phi)   # pumps over the other seven loads
    fixed[-2], refrigeration[-2] = (tuple(ratio * sum(c) for c in zip(*side))
                                    for side in (fixed, refrigeration))
    return PeakContext(
        eer=scenario.eer,
        reference_eer=cooling.eer_lookup(scenario.reference_ambient_c,
                                         scenario.eer),
        fixed=tuple(fixed),
        refrigeration=tuple(refrigeration),
    )


def step_power(utilisation: float, ambient_c: float,
               ctx: PeakContext) -> PowerBreakdown:
    """Power breakdown for one hour; ``ctx`` holds the compiled model."""
    check(OutOfRange, utilisation=(utilisation, UNIT))
    a = ctx.reference_eer / cooling.eer_lookup(ambient_c, ctx.eer)
    loads = ctx.loads((utilisation,), (a,))
    return PowerBreakdown(tuple(column[0] for column in loads))


def _check_rows(utilisation: UtilisationProfile,
                ambient: AmbientProfile) -> None:
    """Raise naming the first row that differs or breaks a profile's rule."""
    rows = zip(utilisation.timestamps, ambient.timestamps,
               utilisation.values, ambient.values)
    for row, (stamp, other, u, t) in enumerate(rows, 1):
        if stamp != other:
            raise ProfileMismatch(
                f"row {row}: timestamps diverge ({stamp!r} vs {other!r})")
        if not (UNIT[0](u) and FINITE[0](t)):
            raise OutOfRange(f"row {row}: utilisation must {UNIT[1]} and "
                             f"ambient {FINITE[1]}, got {_shown(u)}, "
                             f"{_shown(t)}")


def simulate(utilisation: UtilisationProfile, ambient: AmbientProfile,
             scenario: ScenarioConfig) -> SimulationResult:
    """Run the full model over aligned hourly profiles.  Their values are
    tested once per profile, whose verdict is kept, and the ambients of a
    refrigerated run sorted once per profile; their timestamps are
    compared on each call."""
    if len(utilisation) == 0 or len(ambient) == 0:
        raise EmptyProfile("profiles must be non-empty")
    if len(utilisation) != len(ambient):
        raise ProfileMismatch(
            f"profile lengths differ: {len(utilisation)} utilisation rows "
            f"vs {len(ambient)} weather rows")
    # Each profile keeps its range verdict, so a profile run under many
    # scenarios is tested once.  The search tests the verdicts' rules, so
    # it always finds a row to name, and raises.
    if not (utilisation.timestamps == ambient.timestamps
            and utilisation._in_domain and ambient._in_domain):
        _check_rows(utilisation, ambient)
    us, ts = utilisation.values, ambient.values
    ctx = peak_context(scenario)
    # Coefficients are >= 0, so a zero total means no load reads a, and
    # the profile's ascending view is not built.  The ambients have passed
    # the finite check, so the view can sort them.
    adjustments = (cooling._adjustment_column(ambient._ascending, ctx.eer,
                                              ctx.reference_eer)
                   if ctx.total_refrigeration != _ZERO else ())
    result = SimulationResult(utilisation.timestamps, us, ts,
                              ctx.loads(us, adjustments))
    if not result.total_energy_wh <= LARGEST:
        raise OutOfRange(f"total energy over {len(us)} hours overflows")
    return result


def summarize_energy(result: SimulationResult) -> SimulationResult:
    """The result itself, which carries its energy and shares."""
    return result
