"""Cooling model tests: chiller quadratic, fan power, CRAC, EER table."""

import bisect
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcpowersim.cooling import (ChillerSpec, CracSpec, CrahSpec, EerTable,
                                _adjustment_column, airflow_heat_power,
                                ambient_adjustment, chiller_power, crac_power,
                                crah_power, eer_lookup)
from dcpowersim.errors import InvariantViolation, OutOfRange
from dcpowersim.profiles import AmbientProfile
from strategies import EER_TABLES, LARGEST, eer_tables, stamps

FARM_PEAK = 10e6
CHILLER = ChillerSpec()
CRAH = CrahSpec()
CRAC = CracSpec()
EER = EerTable()

TABLE_I = ((41.0, 2.66), (35.0, 3.12), (30.0, 3.52), (25.0, 3.93),
           (20.0, 4.34), (15.0, 4.74), (10.0, 5.13), (5.0, 5.49),
           (0.0, 5.82))
# Interpolated at its end breakpoints, this table lands one ulp above the
# breakpoint's EER: only the clamps give the exact value there.
ROUNDING_TABLE = ((40.0, 1.03), (20.0, 3.04), (0.0, 3.06))


# --- chiller ---

@pytest.mark.parametrize("u,expected", [
    (0.0, 0.7 * 10e6 * 0.63),              # 4.41 MW
    (0.5, 0.7 * 10e6 * (0.32 * 0.25 + 0.11 * 0.5 + 0.63)),  # 5.355 MW
    (1.0, 0.7 * 10e6 * (0.32 + 0.11 + 0.63)),               # 7.42 MW
])
def test_chiller_hand_values(u, expected):
    assert chiller_power(u, FARM_PEAK, CHILLER) == pytest.approx(
        expected, rel=1e-12)


def test_chiller_monotone_and_convex():
    grid = [i / 20 for i in range(21)]
    powers = [chiller_power(u, FARM_PEAK, CHILLER) for u in grid]
    assert all(b > a for a, b in zip(powers, powers[1:]))
    second = [powers[i + 1] - 2 * powers[i] + powers[i - 1]
              for i in range(1, len(powers) - 1)]
    assert all(d >= -1e-6 for d in second)


def test_chiller_validation():
    with pytest.raises(OutOfRange):
        chiller_power(1.5, FARM_PEAK, CHILLER)
    with pytest.raises(OutOfRange):
        chiller_power(0.5, 0.0, CHILLER)
    with pytest.raises(InvariantViolation):
        ChillerSpec(gamma=0.0)


# --- CRAH / CRAC ---

def test_fan_power_full_load():
    # 1333.33 units * 1.33e-5 * 7.5 kW * 14000 CMH = 1862 kW
    assert airflow_heat_power(1.0, FARM_PEAK, CRAH) == pytest.approx(
        1.862e6, rel=1e-9)


def test_crah_full_and_idle():
    assert crah_power(1.0, FARM_PEAK, CRAH) == pytest.approx(
        2.662e6, rel=1e-9)
    assert crah_power(0.0, FARM_PEAK, CRAH) == pytest.approx(
        800e3, rel=1e-12)


def test_crah_efficiency_scales_fan_power():
    half_eta = CrahSpec(eta_heat=0.5)
    assert crah_power(1.0, FARM_PEAK, half_eta) == pytest.approx(
        800e3 + 2 * 1.862e6, rel=1e-9)


def test_fan_power_linear_in_utilisation():
    for u in (0.1, 0.25, 0.4):
        assert airflow_heat_power(2 * u, FARM_PEAK, CRAH) == \
            2.0 * airflow_heat_power(u, FARM_PEAK, CRAH)


@pytest.mark.parametrize("u", [1.5, -0.1, float("nan")])
def test_fan_power_rejects_utilisation_outside_unit_interval(u):
    with pytest.raises(OutOfRange, match="utilisation must lie in"):
        airflow_heat_power(u, FARM_PEAK, CRAH)


def test_crac_full_load():
    # 2.5 MW idle + 7 * 1862 kW condenser+fan = 15.534 MW
    assert crac_power(1.0, FARM_PEAK, CRAC, CRAH) == pytest.approx(
        15.534e6, rel=1e-9)


def test_crac_idle_only_at_zero():
    assert crac_power(0.0, FARM_PEAK, CRAC, CRAH) == pytest.approx(
        2.5e6, rel=1e-12)


def test_crac_zero_cop_degenerates_to_fan_plus_idle():
    no_condenser = CracSpec(idle_frac=0.25, cop=0.0)
    assert crac_power(1.0, FARM_PEAK, no_condenser, CRAH) == pytest.approx(
        2.5e6 + 1.862e6, rel=1e-9)


def test_crac_costs_more_than_crah():
    # Holds whenever cop > 0 and the CRAC idle floor is at least the CRAH one.
    for u in (0.0, 0.3, 0.7, 1.0):
        assert crac_power(u, FARM_PEAK, CRAC, CRAH) > \
            crah_power(u, FARM_PEAK, CRAH)


@given(st.floats(min_value=0.0, max_value=0.95),
       st.floats(min_value=0.001, max_value=0.05))
def test_cooling_units_nondecreasing_in_utilisation(u, step):
    assert crah_power(u + step, FARM_PEAK, CRAH) >= crah_power(
        u, FARM_PEAK, CRAH)
    assert crac_power(u + step, FARM_PEAK, CRAC, CRAH) >= crac_power(
        u, FARM_PEAK, CRAC, CRAH)


# --- EER table ---

def test_every_breakpoint_reproduced_exactly():
    assert EER.breakpoints == TABLE_I
    for breakpoints in (TABLE_I, ROUNDING_TABLE):
        table = EerTable(breakpoints)
        for ambient_c, eer in breakpoints:
            assert eer_lookup(ambient_c, table) == eer


def test_interpolation_midpoint():
    assert eer_lookup(27.5, EER) == pytest.approx(3.725, rel=1e-12)


def test_clamping_outside_range():
    assert eer_lookup(50.0, EER) == 2.66
    assert eer_lookup(-10.0, EER) == 5.82


def test_interpolation_between_eers_near_the_largest_float():
    # (eer_hi - eer_lo) * (ambient_c - t_lo) overflows before the division.
    midpoint = (1.7e308 + 1e300) / 2
    table = EerTable(((40.0, 1e300), (0.0, 1.7e308)))
    assert eer_lookup(20.0, table) == pytest.approx(midpoint, rel=1e-12)
    table = EerTable(((50.0, 1e300), (10.0, 1.7e308)))
    assert eer_lookup(30.0, table) == pytest.approx(midpoint, rel=1e-12)


@pytest.mark.parametrize("ambient_c", [float("nan"), float("inf"),
                                       float("-inf")])
def test_lookup_rejects_non_finite_ambient(ambient_c):
    with pytest.raises(OutOfRange):
        eer_lookup(ambient_c, EER)


def test_lookup_continuous_and_nonincreasing():
    previous = None
    for i in range(-50, 510):
        t = i / 10.0
        value = eer_lookup(t, EER)
        if previous is not None:
            assert value <= previous + 1e-12
            assert abs(value - previous) < 0.02   # no jumps on a 0.1 C grid
        previous = value


def test_adjustment_identity_at_reference():
    assert ambient_adjustment(30.0, 30.0, EER) == 1.0


def test_adjustment_hand_values():
    assert ambient_adjustment(41.0, 30.0, EER) == pytest.approx(
        3.52 / 2.66, rel=1e-12)
    assert ambient_adjustment(0.0, 30.0, EER) == pytest.approx(
        3.52 / 5.82, rel=1e-12)


def test_adjustment_nondecreasing_in_ambient():
    values = [ambient_adjustment(t, 30.0, EER) for t in range(-5, 55)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# --- the column lookup that simulate uses, against the scalar one ---

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Everyday tables, and tables whose spans and EER steps reach the ends of
# the float range, where the interpolation overflows.
TABLES = EER_TABLES | eer_tables(temps=FINITE,
                                 eers=st.floats(5e-324, 1.7e308))


def probe_ambients(table):
    """Each breakpoint, its neighbours and the midpoints between them,
    +-0.0, points beyond both ends, and huge finite values."""
    temps = table.ascending_c
    probes = [*temps,
              *(math.nextafter(t, side) for t in temps
                for side in (-math.inf, math.inf)),
              *(a / 2 + b / 2 for a, b in zip(temps, temps[1:])),
              0.0, -0.0, temps[0] - 1.0, temps[-1] + 1.0,
              1e308, -1e308, 1.7e308, -1.7e308, LARGEST, -LARGEST]
    return [t for t in probes if math.isfinite(t)]


@settings(max_examples=300, deadline=None)
@given(table=TABLES,
       drawn=st.lists(FINITE, max_size=20), reference_c=FINITE)
@example(table=EER, drawn=[], reference_c=30.0)
@example(table=EerTable(ROUNDING_TABLE), drawn=[], reference_c=30.0)
# The product overflows: the divide-first branch.
@example(table=EerTable(((40.0, 1e300), (0.0, 1.7e308))), drawn=[20.0],
         reference_c=10.0)
# The span overflows and the interpolation is NaN: only the clamp's
# ``eer if eer >= eer_hi else eer_hi`` turns it into eer_hi.
@example(table=EerTable(((1.7e308, 2.0), (-1.7e308, 3.0))), drawn=[1e308],
         reference_c=30.0)
# The interpolation rounds to exactly the largest float, which is finite:
# the divide-first branch, one ulp lower, must not be taken.
@example(table=EerTable(((7.0, LARGEST - 3 * 2.0 ** 971), (0.0, LARGEST))),
         drawn=[1.1666666666666665], reference_c=30.0)
def test_adjustment_column_matches_the_scalar_lookup_bit_for_bit(
        table, drawn, reference_c):
    reference_eer = eer_lookup(reference_c, table)
    ambients = probe_ambients(table) + drawn
    profile = AmbientProfile(stamps(len(ambients)), ambients)
    column = _adjustment_column(profile._ascending, table, reference_eer)
    assert [a.hex() for a in column] == [
        (reference_eer / eer_lookup(t, table)).hex() for t in ambients]


# An hour is a drawn float, or a pick among the first table's probes: its
# breakpoints and their neighbours, +-0.0 and points beyond both ends,
# repeated and in any order.
HOURS = st.lists(FINITE | st.integers(0, 2 ** 16), min_size=1, max_size=40)
ONE_BREAKPOINT = EerTable(((20.0, 3.0),))


@settings(max_examples=300, deadline=None)
@given(table=TABLES, other=TABLES, hours=HOURS, reference_c=FINITE)
@example(table=EER, other=EerTable(ROUNDING_TABLE), hours=[25.0],
         reference_c=30.0)
@example(table=EER, other=ONE_BREAKPOINT, hours=[-0.0, 5.0, 0.0, -0.0, 5.0],
         reference_c=30.0)
@example(table=EER, other=ONE_BREAKPOINT, hours=[-30.0, 0.0, -1e308, -0.0],
         reference_c=30.0)
@example(table=EER, other=ONE_BREAKPOINT, hours=[41.0, 1e308, 50.0, 41.0],
         reference_c=30.0)
@example(table=ONE_BREAKPOINT, other=EER, hours=[20.0, 19.0, 21.0, 20.0],
         reference_c=10.0)
@example(table=EerTable(((40.0, 1e300), (0.0, 1.7e308))), other=EER,
         hours=[20.0, 39.0, 1.0, 20.0], reference_c=10.0)
# The divide-first branch in a segment that starts below 0 C.
@example(table=EerTable(((30.0, 1e300), (-10.0, 1.7e308))), other=EER,
         hours=[10.0], reference_c=30.0)
@example(table=EerTable(((1.7e308, 2.0), (-1.7e308, 3.0))), other=EER,
         hours=[1e308, -1e308, 0.0], reference_c=30.0)
@example(table=EerTable(((7.0, LARGEST - 3 * 2.0 ** 971), (0.0, LARGEST))),
         other=EER, hours=[1.1666666666666665, 6.0, 0.5], reference_c=30.0)
def test_adjustment_column_over_a_profiles_view_matches_the_scalar(
        table, other, hours, reference_c):
    probes = probe_ambients(table)
    ambients = tuple(probes[h % len(probes)] if type(h) is int else h
                     for h in hours)
    profile = AmbientProfile(stamps(len(ambients)), ambients)
    for each in (table, other):   # one view serves every table
        reference_eer = eer_lookup(reference_c, each)
        column = _adjustment_column(profile._ascending, each, reference_eer)
        assert type(column) is tuple
        assert [a.hex() for a in column] == [
            (reference_eer / eer_lookup(t, each)).hex() for t in ambients]


def reference_eer_lookup(ambient_c, table):
    """``eer_lookup`` of a finite ambient as of 0.7.1, which read only the
    ascending columns, not ``segments``."""
    temps, eers = table.ascending_c, table.ascending_eer
    if ambient_c <= temps[0]:
        return eers[0]
    if ambient_c >= temps[-1]:
        return eers[-1]
    hi = bisect.bisect_left(temps, ambient_c)
    t_lo, eer_lo, eer_hi = temps[hi - 1], eers[hi - 1], eers[hi]
    span = temps[hi] - t_lo
    eer = eer_lo + (eer_hi - eer_lo) * (ambient_c - t_lo) / span
    if not math.isfinite(eer):
        eer = eer_lo + (eer_hi - eer_lo) * ((ambient_c - t_lo) / span)
    return eer if eer >= eer_hi else eer_hi


# The column is held to the scalar, so the scalar is held to a reference
# of its own: a wrong segment would otherwise pass both.
@settings(max_examples=300, deadline=None)
@given(table=TABLES,
       drawn=st.lists(FINITE, max_size=20))
@example(table=EER, drawn=[])
@example(table=EerTable(ROUNDING_TABLE), drawn=[])
@example(table=EerTable(((40.0, 1e300), (0.0, 1.7e308))), drawn=[20.0])
@example(table=EerTable(((1.7e308, 2.0), (-1.7e308, 3.0))), drawn=[1e308])
@example(table=EerTable(((7.0, LARGEST - 3 * 2.0 ** 971), (0.0, LARGEST))),
         drawn=[1.1666666666666665])
def test_scalar_lookup_matches_the_reference_bit_for_bit(table, drawn):
    assert len(table.segments) == len(table.ascending_c)
    assert table.segments[0] is None
    ambients = probe_ambients(table) + drawn
    assert [eer_lookup(t, table).hex() for t in ambients] == [
        reference_eer_lookup(t, table).hex() for t in ambients]


def test_table_validation():
    with pytest.raises(InvariantViolation):
        EerTable(breakpoints=())
    with pytest.raises(InvariantViolation):
        EerTable(breakpoints=((30.0, 3.5), (35.0, 3.1)))   # ascending order
    with pytest.raises(InvariantViolation):
        EerTable(breakpoints=((35.0, 3.1), (30.0, 2.9)))   # EER drops when colder
    with pytest.raises(InvariantViolation):
        EerTable(breakpoints=((35.0, 0.0),))
    with pytest.raises(InvariantViolation):
        EerTable(breakpoints=((35.0, math.inf),))


@pytest.mark.parametrize("breakpoints", [
    ((30.0, 3.5), (35.0, 3.5)),   # ascending, EER flat
    ((30.0, 3.5), (35.0, 3.1)),   # ascending, EER falling: order first
    ((30.0, 3.5), (30.0, 3.5)),   # a repeated ambient
])
def test_table_ambients_must_strictly_descend(breakpoints):
    first, second = breakpoints
    with pytest.raises(InvariantViolation, match="^" + re.escape(
            "breakpoints must be in strictly descending ambient order, "
            f"got {first!r} then {second!r}") + "$"):
        EerTable(breakpoints)


# --- arguments outside the domain, and overflow ---

@pytest.mark.parametrize("farm_peak_w", [-1e6, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("power", [
    lambda peak: airflow_heat_power(0.5, peak, CRAH),
    lambda peak: crah_power(0.5, peak, CRAH),
    lambda peak: crac_power(0.5, peak, CRAC, CRAH),
])
def test_fan_powers_reject_bad_farm_peak(power, farm_peak_w):
    with pytest.raises(OutOfRange,
                       match="^farm_peak_w must be finite and nonnegative"):
        power(farm_peak_w)


@pytest.mark.parametrize("adjustment", [math.nan, math.inf, -math.inf, -1.0])
def test_crac_rejects_bad_condenser_adjustment(adjustment):
    with pytest.raises(OutOfRange, match="^condenser_adjustment must"):
        crac_power(0.5, FARM_PEAK, CRAC, CRAH, adjustment)


@pytest.mark.parametrize("call", [
    lambda: crac_power(1.0, FARM_PEAK, CRAC, CRAH, condenser_adjustment=1e308),
    lambda: chiller_power(1.0, 1e10, ChillerSpec(sizing_factor=1e300)),
    lambda: crah_power(1.0, 1e10, CrahSpec(idle_frac=1e300)),
    lambda: airflow_heat_power(1.0, 1e10, CrahSpec(eta_heat=1e-300)),
])
def test_overflowing_cooling_power_is_out_of_range(call):
    with pytest.raises(OutOfRange, match="must be finite and nonnegative"):
        call()
