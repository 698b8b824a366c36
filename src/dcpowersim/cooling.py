"""Cooling component models.

A chilled-water plant, CRAH air handlers and direct-expansion CRAC units
with their own condensers; which cooling architecture uses which is the
component table, ``config.COMPONENTS``.

Key relations, with U the farm utilisation and F the farm design peak:

    chiller     P = sizing * F * (alpha*U^2 + beta*U + gamma)
    fan power   P_heat = n_units * 1.33e-5 * (unit_kw / eta) * airflow(U)
    CRAH        P = idle_frac * F + P_heat
    CRAC        P = idle_frac * F + (1 + COP) * P_heat

Outdoor temperature enters through an energy-efficiency-ratio table:
refrigeration terms are scaled by EER(reference) / EER(ambient), so the
model is exact at the reference temperature and degrades in hotter air.
Fan power is independent of outdoor conditions and is never scaled.

The table is read two ways, by one rule, from one set of operands: each
``EerTable`` derives its ``segments`` once, on construction.
:func:`eer_lookup` takes one ambient and rejects a non-finite one;
``engine.step_power``, ``analysis.curtail``, ``engine.peak_context`` (the
reference EER) and :func:`ambient_adjustment` use it.
``_adjustment_column`` gives the whole column of adjustments
EER(reference) / EER(ambient) for ``engine.simulate``, bit for bit the
scalar's, and checks no ambient: it relies on ``simulate``'s
finite-ambient check.  It reads a profile's ambients in ascending order
(``AmbientProfile._ascending``, sorted once per profile), so it bisects
once per breakpoint, not once per hour, and evaluates each segment's run
of hours in one comprehension.  Each lookup is the faster on its own
work.  On an annual profile, mapping the scalar over its 8760 hours took
about 3.1 ms against 0.6 ms for the column; a column of one took about
1.5 µs against 0.25 µs for the scalar (minimums, on a 2-vCPU Xeon with
Python 3.11).
"""

from __future__ import annotations

import bisect
import math

from .errors import (FINITE, FRACTION, LARGEST, NONNEGATIVE, POSITIVE, UNIT,
                     InvariantViolation, OutOfRange, _Record, _shown, check)

# Fan power per unit of (heat capacity / removal efficiency) and airflow,
# in kW per (kW * CMH).  Together with the 14000 CMH standard flow of a
# 7.5 kW unit this reproduces measured air-handler consumption.
FAN_POWER_COEFF = 1.33e-5

# EER of a chiller plant versus outdoor ambient, breakpoints in descending
# ambient order.  Values outside the covered range clamp to the end points.
DEFAULT_EER_BREAKPOINTS = (
    (41.0, 2.66),
    (35.0, 3.12),
    (30.0, 3.52),
    (25.0, 3.93),
    (20.0, 4.34),
    (15.0, 4.74),
    (10.0, 5.13),
    (5.0, 5.49),
    (0.0, 5.82),
)


class ChillerSpec(_Record):
    """Quadratic utilisation fit for a chilled-water plant.

    The default coefficients come from curve fits over plants supplying
    7.22 C chilled water; the model does not take that temperature.
    """

    def __init__(self, alpha: float = 0.32, beta: float = 0.11,
                 gamma: float = 0.63, sizing_factor: float = 0.7) -> None:
        check(InvariantViolation, alpha=(alpha, NONNEGATIVE),
              beta=(beta, NONNEGATIVE), gamma=(gamma, POSITIVE),
              sizing_factor=(sizing_factor, POSITIVE))
        self._set(alpha=alpha, beta=beta, gamma=gamma,
                  sizing_factor=sizing_factor)


class CrahSpec(_Record):
    """Air-handler bank: idle floor plus airflow-proportional fan power.

    ``idle_frac`` is of farm peak, typically 0.07-0.10.
    ``unit_capacity_kw`` cancels out of fan power: the bank has farm peak
    over unit capacity units, each drawing in proportion to its capacity.
    """

    def __init__(self, idle_frac: float = 0.08, eta_heat: float = 1.0,
                 unit_capacity_kw: float = 7.5,
                 unit_airflow_cmh: float = 14000.0) -> None:
        check(InvariantViolation, idle_frac=(idle_frac, NONNEGATIVE),
              eta_heat=(eta_heat, FRACTION),
              unit_capacity_kw=(unit_capacity_kw, POSITIVE),
              unit_airflow_cmh=(unit_airflow_cmh, NONNEGATIVE))
        self._set(idle_frac=idle_frac, eta_heat=eta_heat,
                  unit_capacity_kw=unit_capacity_kw,
                  unit_airflow_cmh=unit_airflow_cmh)


class CracSpec(_Record):
    """Direct-expansion unit: idle floor plus condenser stage.

    Field condensers typically run a COP between 3 and 6 and an idle draw
    of 10-30% of farm peak; both are free parameters here.
    """

    def __init__(self, idle_frac: float = 0.25, cop: float = 6.0) -> None:
        check(InvariantViolation, idle_frac=(idle_frac, NONNEGATIVE),
              cop=(cop, NONNEGATIVE))
        self._set(idle_frac=idle_frac, cop=cop)


class EerTable(_Record):
    """Piecewise-linear EER versus ambient temperature, descending ambient.

    Derived once, on construction, for both lookups: the ambient and EER
    columns in ascending ambient order, ``ascending_c`` and
    ``ascending_eer``, for bisection, and ``segments``.  ``segments[hi]``
    holds the operands of the segment that ends at ``ascending_c[hi]``,
    ``(t_lo, eer_lo, eer_hi, eer_hi - eer_lo, span)``; ``segments[0]`` is
    ``None``.
    """

    def __init__(self, breakpoints: tuple[tuple[float, float], ...]
                 = DEFAULT_EER_BREAKPOINTS) -> None:
        if len(breakpoints) == 0:
            raise InvariantViolation("EER table needs at least one breakpoint")
        # No point that passes the rules is out of order after this one.
        previous = (math.inf, 0.0)
        for ambient_c, eer in breakpoints:
            check(InvariantViolation, ambient_c=(ambient_c, FINITE),
                  eer=(eer, POSITIVE))
            if ambient_c >= previous[0]:
                raise InvariantViolation(
                    "breakpoints must be in strictly descending ambient "
                    f"order, got {previous!r} then {(ambient_c, eer)!r}")
            if eer < previous[1]:
                raise InvariantViolation(
                    "EER must be nonincreasing in ambient temperature, got "
                    f"{previous!r} then {(ambient_c, eer)!r}")
            previous = (ambient_c, eer)
        temps, eers = zip(*breakpoints[::-1])
        self._set(breakpoints=breakpoints, ascending_c=temps,
                  ascending_eer=eers,
                  segments=(None, *((temps[hi - 1], eers[hi - 1], eers[hi],
                                     eers[hi] - eers[hi - 1],
                                     temps[hi] - temps[hi - 1])
                                    for hi in range(1, len(temps)))))


def chiller_power(utilisation: float, farm_peak_w: float,
                  spec: ChillerSpec) -> float:
    """Chilled-water plant draw at one utilisation, watts."""
    check(OutOfRange, utilisation=(utilisation, UNIT),
          farm_peak_w=(farm_peak_w, POSITIVE))
    curve = (spec.alpha * utilisation ** 2 + spec.beta * utilisation
             + spec.gamma)
    power_w = spec.sizing_factor * farm_peak_w * curve
    check(OutOfRange, chiller_power_w=(power_w, NONNEGATIVE))
    return power_w


def airflow_heat_power(utilisation: float, farm_peak_w: float,
                       spec: CrahSpec) -> float:
    """Fan power moving the heat of the farm at one utilisation, watts.

    Each unit's airflow scales linearly with utilisation; the bank is sized
    so combined unit capacity matches the farm peak (unit count may be
    fractional).
    """
    check(OutOfRange, utilisation=(utilisation, UNIT),
          farm_peak_w=(farm_peak_w, NONNEGATIVE))
    farm_peak_kw = farm_peak_w / 1000.0
    unit_count = farm_peak_kw / spec.unit_capacity_kw
    airflow_cmh = spec.unit_airflow_cmh * utilisation
    per_unit_kw = (FAN_POWER_COEFF
                   * (spec.unit_capacity_kw / spec.eta_heat) * airflow_cmh)
    power_w = unit_count * per_unit_kw * 1000.0
    check(OutOfRange, airflow_heat_power_w=(power_w, NONNEGATIVE))
    return power_w


def crah_power(utilisation: float, farm_peak_w: float,
               spec: CrahSpec) -> float:
    """Air-handler bank draw: idle floor plus fan power, watts."""
    fan_w = airflow_heat_power(utilisation, farm_peak_w, spec)
    power_w = spec.idle_frac * farm_peak_w + fan_w
    check(OutOfRange, crah_power_w=(power_w, NONNEGATIVE))
    return power_w


def crac_power(utilisation: float, farm_peak_w: float, spec: CracSpec,
               airflow: CrahSpec, condenser_adjustment: float = 1.0) -> float:
    """Direct-expansion unit draw, watts.

    The fan term reuses the air-handler airflow constants; the condenser
    multiplies it by the COP.  ``condenser_adjustment`` scales the whole
    refrigeration term for off-reference outdoor temperature; the idle
    floor is never scaled.
    """
    check(OutOfRange, condenser_adjustment=(condenser_adjustment, NONNEGATIVE))
    fan_w = airflow_heat_power(utilisation, farm_peak_w, airflow)
    power_w = (spec.idle_frac * farm_peak_w
               + (1.0 + spec.cop) * fan_w * condenser_adjustment)
    check(OutOfRange, crac_power_w=(power_w, NONNEGATIVE))
    return power_w


def eer_lookup(ambient_c: float, table: EerTable) -> float:
    """EER at one outdoor temperature, interpolated between breakpoints."""
    if not -LARGEST <= ambient_c <= LARGEST:
        raise OutOfRange(
            f"ambient temperature must be finite, got {_shown(ambient_c)}")
    temps = table.ascending_c
    if ambient_c <= temps[0]:
        return table.ascending_eer[0]
    if ambient_c >= temps[-1]:
        return table.ascending_eer[-1]
    # The first segment whose upper breakpoint is >= ambient_c.
    t_lo, eer_lo, eer_hi, rise, span = table.segments[
        bisect.bisect_left(temps, ambient_c)]
    eer = eer_lo + rise * (ambient_c - t_lo) / span
    if not -LARGEST <= eer <= LARGEST:   # the product overflowed: divide first
        eer = eer_lo + rise * ((ambient_c - t_lo) / span)
    # Rounding can land below eer_hi near temps[hi] (never above eer_lo),
    # and EER must not rise as ambient rises.
    return eer if eer >= eer_hi else eer_hi


def _adjustment_column(view, table: EerTable,
                       reference_eer: float) -> tuple[float, ...]:
    """``reference_eer / eer_lookup(t, table)`` for each ambient t of a
    profile, with the same bits, from the profile's ascending view.

    ``view`` is ``AmbientProfile._ascending``: the ambients in ascending
    order, and the ``itemgetter`` that puts a column in that order back
    into hour order.  One bisection per breakpoint splits the ambients
    into the clamped runs at either end and one run per segment, and each
    segment's run is one comprehension of the scalar's expression.  Inside
    a segment the interpolation is monotone in t, as every correctly
    rounded step is, so it is finite at every hour of the run when it is
    finite at the hottest; only a run where it is not goes through
    :func:`eer_lookup` hour by hour, for its divide-first form.

    Precondition: every ambient is finite.  Unlike :func:`eer_lookup` it
    does not check; its one caller, ``engine.simulate``, has rejected
    every non-finite ambient with ``OutOfRange`` before it reads the view.
    """
    ascending, restore = view
    temps, eers = table.ascending_c, table.ascending_eer
    last = len(temps) - 1
    start = bisect.bisect_right(ascending, temps[0])
    column = [reference_eer / eers[0]] * start
    for hi in range(1, last + 1):
        # An ambient at the hottest breakpoint clamps, as in the scalar.
        end = (bisect.bisect_right if hi < last else bisect.bisect_left)(
            ascending, temps[hi], start)
        run = ascending[start:end]
        if not run:
            continue
        t_lo, eer_lo, eer_hi, rise, span = table.segments[hi]
        if -LARGEST <= eer_lo + rise * (run[-1] - t_lo) / span <= LARGEST:
            column += [reference_eer / (eer if eer >= eer_hi else eer_hi)
                       for t in run
                       for eer in (eer_lo + rise * (t - t_lo) / span,)]
        else:   # not finite at some hour: the scalar, hour by hour
            column += [reference_eer / eer_lookup(t, table) for t in run]
        start = end
    column += [reference_eer / eers[-1]] * (len(ascending) - start)
    return restore(column)


def ambient_adjustment(ambient_c: float, reference_c: float,
                       table: EerTable) -> float:
    """Refrigeration multiplier for off-reference outdoor temperature.

    Exactly 1 at the reference, above 1 in hotter air, below 1 in colder
    air.  Multiplies chiller power and the CRAC condenser term.
    """
    return eer_lookup(reference_c, table) / eer_lookup(ambient_c, table)
