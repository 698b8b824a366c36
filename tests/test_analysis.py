"""Curtailment, peak breakdown, power curves and architecture comparison."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcpowersim.analysis import (CURTAIL_RELATIVE_TOLERANCE,
                                 CurtailmentSolution, compare_architectures,
                                 curtail, peak_breakdown, power_curve)
from dcpowersim.config import (CoolingArchitecture, ScenarioConfig,
                               default_scenario)
from dcpowersim.cooling import CrahSpec, eer_lookup
from dcpowersim.engine import COMPONENT_NAMES, peak_context, step_power
from dcpowersim.errors import OutOfRange
from dcpowersim.server_farm import ServerSpec
from strategies import profiles_from

SCENARIO = default_scenario()
CTX = peak_context(SCENARIO)


def one_load(fixed):
    """CTX with its first load drawing the quadratic ``fixed`` and every
    other load nothing."""
    zero = (0.0, 0.0, 0.0)
    rest = (zero,) * (len(COMPONENT_NAMES) - 1)
    return CTX._replace(fixed=(fixed, *rest), refrigeration=(zero, *rest))


def compiled_total(ambient, ctx):
    """The (c0, c1, c2) of the facility total at ``ambient``, as curtail
    computes them."""
    a = ctx.reference_eer / eer_lookup(ambient, ctx.eer)
    (f0, f1, f2), (r0, r1, r2) = ctx.total_fixed, ctx.total_refrigeration
    return f0 + a * r0, f1 + a * r1, f2 + a * r2


# --- curtailment ---

def test_target_at_peak_returns_full_utilisation():
    peak_total = step_power(1.0, 30.0, CTX).total_w
    solution = curtail(peak_total, 30.0, SCENARIO, CTX)
    assert solution.feasible
    assert solution.required_utilisation == 1.0


def test_target_below_floor_is_infeasible_with_nearest_bound():
    floor_total = step_power(0.0, 30.0, CTX).total_w
    solution = curtail(1e6, 30.0, SCENARIO, CTX)
    assert not solution.feasible
    assert solution.required_utilisation == 0.0
    assert solution.achieved_total_w == pytest.approx(floor_total, rel=1e-12)


def test_target_below_one_watt_is_infeasible_not_rejected():
    solution = curtail(0.5, 30.0, SCENARIO, CTX)
    assert (solution.feasible, solution.required_utilisation) == (False, 0.0)


def test_target_above_peak_is_infeasible_with_nearest_bound():
    peak_total = step_power(1.0, 30.0, CTX).total_w
    solution = curtail(2 * peak_total, 30.0, SCENARIO, CTX)
    assert not solution.feasible
    assert solution.required_utilisation == 1.0
    assert solution.achieved_total_w == pytest.approx(peak_total, rel=1e-12)


@pytest.mark.parametrize("c0, u", [(999_999.0, 0.0), (999_997.0, 1.0)],
                         ids=["floor", "peak"])
def test_target_exactly_at_the_tolerance_snaps(c0, u):
    # The total c0 + 2U puts a 1e6 W target exactly its tolerance, 1 W,
    # from the floor (c0 = 999,999) or from the peak (c0 = 999,997).
    assert CURTAIL_RELATIVE_TOLERANCE * 1e6 == 1.0
    solution = curtail(1e6, 30.0, SCENARIO, one_load((c0, 2.0, 0.0)))
    assert solution == CurtailmentSolution(1e6, u, c0 + 2.0 * u, True)


FLOOR_W, PEAK_W = (step_power(u, 30.0, CTX).total_w
                   for u in (0.0, 1.0))


@pytest.mark.parametrize("target_w, branch", [
    (FLOOR_W, (0.0, FLOOR_W, True)), (PEAK_W, (1.0, PEAK_W, True)),
    (FLOOR_W / 2, (0.0, FLOOR_W, False)), (PEAK_W * 2, (1.0, PEAK_W, False)),
    ((FLOOR_W + PEAK_W) / 2, None),
], ids=["floor", "peak", "below_floor", "above_peak", "root"])
def test_each_curtail_branch_returns_the_record_its_constructor_builds(
        target_w, branch):
    solution = curtail(target_w, 30.0, SCENARIO, CTX)
    built = CurtailmentSolution(*solution)
    assert type(solution) is type(built) is CurtailmentSolution
    assert solution._fields == built._fields == (
        "target_total_w", "required_utilisation", "achieved_total_w",
        "feasible")
    assert repr(solution) == repr(built)
    assert hash(solution) == hash(built)
    assert solution == built
    if branch is None:   # the root, strictly inside [0, 1]
        assert 0.0 < solution.required_utilisation < 1.0 and solution.feasible
    else:
        assert solution[1:3] == pytest.approx(branch[:2], rel=1e-12)
        assert solution.feasible is branch[2]


def test_feasible_solution_hits_tolerance():
    target = step_power(0.37, 30.0, CTX).total_w
    solution = curtail(target, 30.0, SCENARIO, CTX)
    assert solution.feasible
    assert abs(solution.achieved_total_w - target) <= 1e-6 * target


@pytest.mark.parametrize("ambient", [0.0, 15.0, 30.0, 41.0])
def test_round_trip_recovers_utilisation(ambient):
    for tenths in range(1, 10):
        u0 = tenths / 10.0
        target = step_power(u0, ambient, CTX).total_w
        solution = curtail(target, ambient, SCENARIO, CTX)
        assert solution.feasible
        assert solution.required_utilisation == pytest.approx(u0, abs=1e-5)


def test_rejects_nonpositive_target():
    with pytest.raises(OutOfRange):
        curtail(0.0, 30.0, SCENARIO, CTX)


@pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan])
def test_rejects_non_finite_target(target):
    # An infinite target once made the tolerance infinite (feasible at
    # U = 0), and a NaN one came back feasible at U ~ 5e-20.
    with pytest.raises(OutOfRange):
        curtail(target, 30.0, SCENARIO, CTX)


@pytest.mark.parametrize("ambient", [math.inf, -math.inf, math.nan])
def test_curtail_rejects_non_finite_ambient(ambient):
    with pytest.raises(OutOfRange):
        curtail(15e6, ambient, SCENARIO, CTX)


@settings(max_examples=400, deadline=None)
@given(architecture=st.sampled_from(CoolingArchitecture),
       consolidation=st.floats(0.0, 1.0) | st.just(0.0) | st.just(1.0),
       u=st.floats(0.0, 1.0) | st.just(0.0) | st.just(1.0),
       ambient=st.floats(-60.0, 60.0))
def test_round_trip_property(architecture, consolidation, u, ambient):
    scenario = default_scenario(architecture)._replace(
        consolidation=consolidation)
    ctx = peak_context(scenario)
    target = step_power(u, ambient, ctx).total_w
    solution = curtail(target, ambient, scenario, ctx)
    assert solution.feasible
    tolerance = CURTAIL_RELATIVE_TOLERANCE * target
    assert abs(solution.achieved_total_w - target) <= tolerance
    # An endpoint within the tolerance of the target is returned as is.
    expected = u
    for endpoint in (0.0, 1.0):
        endpoint_w = step_power(endpoint, ambient, ctx).total_w
        if abs(endpoint_w - target) <= tolerance:
            expected = endpoint
            break
    assert solution.required_utilisation == pytest.approx(expected,
                                                          abs=1e-9)


def test_largest_unsnapped_target_solves_below_full_load():
    # curtail does not clamp its root: a target within the tolerance of the
    # peak snaps to U = 1, so every solved root must stay below 1.
    contexts = [peak_context(default_scenario(architecture)._replace(
                    consolidation=consolidation))
                for architecture in CoolingArchitecture
                for consolidation in (0.0, 0.5, 1.0)]
    # The steepest totals at full load, relative to the peak: all linear
    # and all quadratic in U.
    contexts += [one_load(shape)
                 for shape in ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
    table = SCENARIO.eer.ascending_c
    ambients = (table[0] - 20.0, *table, table[-1] + 20.0)
    for ctx in contexts:
        for ambient in ambients:
            c0, c1, c2 = compiled_total(ambient, ctx)
            peak = c0 + c1 + c2
            target = peak / (1.0 + CURTAIL_RELATIVE_TOLERANCE)
            for _ in range(4):
                target = math.nextafter(target, math.inf)
            assert abs(peak - target) <= CURTAIL_RELATIVE_TOLERANCE * target
            while abs(peak - target) <= CURTAIL_RELATIVE_TOLERANCE * target:
                target = math.nextafter(target, 0.0)
            solution = curtail(target, ambient, SCENARIO, ctx)
            assert solution.feasible
            assert 0.0 < solution.required_utilisation < 1.0
            assert (abs(solution.achieved_total_w - target)
                    <= CURTAIL_RELATIVE_TOLERANCE * target)


def test_root_with_an_underflowed_denominator_takes_its_equal_form():
    # With c1 = 0, 4 * c2 * d underflows to 0 for a subnormal target above
    # a zero floor, which left 2d / (c1 + sqrt(c1^2 + 4 c2 d)) a division
    # by 0; d = c2 * U^2 gives U = sqrt(d / c2) instead.
    c2 = 1_000_001 * 2.0 ** -23
    target = 5e-324
    assert 4.0 * c2 * target == 0.0
    solution = curtail(target, 30.0, SCENARIO, one_load((0.0, 0.0, c2)))
    u = math.sqrt(target / c2)
    assert solution == CurtailmentSolution(target, u, u * (u * c2), True)
    assert 0.0 < u < 1.0


def five_branch_curtail(target_total_w, ambient_c, ctx):
    """``curtail`` as 0.10.2 wrote it: both snaps, then both clamps, each
    an early return, then the root, which takes its equal form
    sqrt(d / c2) when its denominator underflows to 0, as 0.10.4 does, and
    is feasible only within the tolerance of the target, as 0.10.5 is."""
    c0, c1, c2 = compiled_total(ambient_c, ctx)
    floor_w, peak_w = c0, c0 + c1 + c2
    tolerance_w = CURTAIL_RELATIVE_TOLERANCE * target_total_w
    if abs(floor_w - target_total_w) <= tolerance_w:
        return CurtailmentSolution(target_total_w, 0.0, floor_w, True)
    if abs(peak_w - target_total_w) <= tolerance_w:
        return CurtailmentSolution(target_total_w, 1.0, peak_w, True)
    if target_total_w < floor_w:
        return CurtailmentSolution(target_total_w, 0.0, floor_w, False)
    if target_total_w > peak_w:
        return CurtailmentSolution(target_total_w, 1.0, peak_w, False)
    d = target_total_w - c0
    denominator = c1 + math.sqrt(c1 * c1 + 4.0 * c2 * d)
    u = 2.0 * d / denominator if denominator else math.sqrt(d / c2)
    total_w = c0 + u * (c1 + u * c2)
    return CurtailmentSolution(target_total_w, u, total_w,
                               abs(total_w - target_total_w) <= tolerance_w)


# One-load totals for which a 1e6 W target lies exactly one tolerance,
# 1 W, from an endpoint (999,999 or 1,000,001 W), or from both when the
# total is flat.  Scaling the shape and the target by 2**j keeps it exact.
SHAPES = {"flat-below": (999_999.0, 0.0, 0.0),
          "flat-above": (1_000_001.0, 0.0, 0.0),
          "zero-floor-linear": (0.0, 999_999.0, 0.0),
          "zero-floor-quadratic": (0.0, 0.0, 1_000_001.0),
          "linear-floor": (999_999.0, 2.0, 0.0),
          "linear-peak": (999_997.0, 2.0, 0.0),
          "quadratic-floor": (1_000_001.0, 0.0, 2.0),
          "quadratic-peak": (999_997.0, 0.0, 2.0)}
DEFAULT_CONTEXTS = {architecture.value: peak_context(
                        default_scenario(architecture))
                    for architecture in CoolingArchitecture}
TABLE_C = SCENARIO.eer.ascending_c
# The endpoint itself, or the target one tolerance below or above it:
# |e - t| = tol * t at t = e / (1 + tol) and at t = e / (1 - tol).
DIVISORS = (1.0, 1.0 + CURTAIL_RELATIVE_TOLERANCE,
            1.0 - CURTAIL_RELATIVE_TOLERANCE)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from([*DEFAULT_CONTEXTS, *SHAPES]),
       exponent=st.integers(-30, 30),
       ambient=st.sampled_from((TABLE_C[0] - 20.0, TABLE_C[0], TABLE_C[-1],
                                TABLE_C[-1] + 20.0))
       | st.floats(TABLE_C[0] - 20.0, TABLE_C[-1] + 20.0),
       pick=st.sampled_from(("design", "middle"))
       | st.tuples(st.sampled_from(("floor", "peak")),
                   st.sampled_from(DIVISORS), st.integers(-3, 3)))
@example(name="linear-floor", exponent=0, ambient=30.0, pick="design")
@example(name="linear-peak", exponent=0, ambient=30.0, pick="design")
@example(name="flat-above", exponent=0, ambient=30.0, pick="design")
def test_curtail_keeps_the_records_of_the_five_branch_rule(
        name, exponent, ambient, pick):
    # The target is an endpoint, or one tolerance from it, moved by up to
    # 3 ulps; the design target 1e6 * 2**j of the shape; or the midpoint.
    scale = 2.0 ** exponent
    ctx = (one_load(tuple(c * scale for c in SHAPES[name]))
           if name in SHAPES else DEFAULT_CONTEXTS[name])
    c0, c1, c2 = compiled_total(ambient, ctx)
    floor_w, peak_w = c0, c0 + c1 + c2
    if pick == "design":
        target = 1e6 * scale
    elif pick == "middle":
        target = (floor_w + peak_w) / 2
    else:
        endpoint, divisor, ulps = pick
        target = (floor_w if endpoint == "floor" else peak_w) / divisor
        for _ in range(abs(ulps)):
            target = math.nextafter(target, math.copysign(math.inf, ulps))
    target = max(target, math.ulp(0.0))   # curtail takes only a target > 0
    assert (repr(curtail(target, ambient, SCENARIO, ctx))
            == repr(five_branch_curtail(target, ambient, ctx)))


# --- peak breakdown ---

def test_default_peak_shares():
    shares = peak_breakdown(SCENARIO)
    total_peak = (10e6 + 1.5e6 + 7.42e6 + 2.662e6) / 0.90
    assert shares["server_farm"] == pytest.approx(10e6 / total_peak,
                                                  rel=1e-9)
    assert shares["chiller"] == pytest.approx(7.42e6 / total_peak, rel=1e-9)
    assert shares["crah"] == pytest.approx(2.662e6 / total_peak, rel=1e-9)
    assert shares["pumps"] == pytest.approx(0.04, rel=1e-9)
    assert shares["misc"] == pytest.approx(0.06, rel=1e-9)
    assert shares["pdu_loss"] + shares["ups_loss"] == pytest.approx(
        1.5e6 / total_peak, rel=1e-9)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)


def test_two_component_scenario_shares():
    # The supply losses are calibrated for the farm peak, never zero.
    scenario = ScenarioConfig(
        server=ServerSpec(count=1000, p_idle_w=100.0, p_peak_w=200.0),
        architecture=CoolingArchitecture.FREE_AIR,
        pump_fraction=0.0, misc_fraction=0.0)
    shares = peak_breakdown(scenario)
    assert sum(shares[name] for name in ("server_farm", "pdu_loss",
                                         "ups_loss", "crah")) == \
        pytest.approx(1.0, abs=1e-12)
    assert shares["chiller"] == shares["crac"] == shares["pumps"] == \
        shares["misc"] == 0.0


def test_shares_invariant_under_farm_scaling():
    small = peak_breakdown(default_scenario(count=400))
    large = peak_breakdown(default_scenario(count=40000))
    for name in small:
        assert small[name] == pytest.approx(large[name], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("architecture", list(CoolingArchitecture))
def test_zero_design_peak_breakdown_is_out_of_range(architecture):
    # A zero farm peak cannot be calibrated, so no scenario that
    # peak_breakdown could take has a design peak of 0 W.
    with pytest.raises(OutOfRange, match=re.escape(
            "farm_peak_w must be positive and finite, got 0.0")):
        ScenarioConfig(server=ServerSpec(1, 0.0, 0.0),
                       architecture=architecture)


# --- power curve ---

def test_two_point_curve_matches_endpoints():
    (curve,) = power_curve([30.0], SCENARIO, 2)
    assert curve.points[0] == (
        0.0, step_power(0.0, 30.0, CTX).total_w)
    assert curve.points[1] == (
        1.0, step_power(1.0, 30.0, CTX).total_w)


def test_curve_strictly_increasing():
    (curve,) = power_curve([30.0], SCENARIO, 33)
    totals = [total for _, total in curve.points]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_idle_to_peak_decrease_band_at_reference():
    (curve,) = power_curve([30.0], SCENARIO, 2)
    decrease = 1.0 - curve.points[0][1] / curve.points[1][1]
    assert 0.45 <= decrease <= 0.65


def test_hotter_curve_dominates_colder():
    hot, cold = power_curve([41.0, 0.0], SCENARIO, 11)
    for (_, hot_total), (_, cold_total) in zip(hot.points, cold.points):
        assert hot_total >= cold_total


def test_curve_needs_two_points():
    with pytest.raises(OutOfRange):
        power_curve([30.0], SCENARIO, 1)


@pytest.mark.parametrize("n_points", [math.nan, math.inf, -math.inf, 2.5,
                                      2.0, 1])
def test_curve_point_count_must_be_an_int_of_at_least_2(n_points):
    with pytest.raises(OutOfRange, match=re.escape(
            f"n_points must be an int >= 2, got {n_points!r}")):
        power_curve([30.0], SCENARIO, n_points)


@pytest.mark.parametrize("temp", [math.inf, -math.inf, math.nan])
def test_curve_rejects_non_finite_temperature(temp):
    with pytest.raises(OutOfRange):
        power_curve([30.0, temp], SCENARIO, 5)


# --- architecture comparison ---

def test_self_comparison_has_zero_increase():
    utilisation, ambient = profiles_from([0.8] * 6, [30.0] * 6)
    comparison = compare_architectures(
        utilisation, ambient, SCENARIO,
        baseline=CoolingArchitecture.CRAH_CHILLER,
        alternative=CoolingArchitecture.CRAH_CHILLER)
    assert comparison.relative_increase == pytest.approx(0.0, abs=1e-12)


def test_full_load_increase_hand_value():
    # Chilled water at design point: 7.42 + 2.662 + 0.04 * 23.98 MW pumps;
    # CRAC at design point: 2.5 + 7 * 1.862 MW.
    utilisation, ambient = profiles_from([1.0] * 24, [30.0] * 24)
    comparison = compare_architectures(utilisation, ambient, SCENARIO)
    chilled = 7.42e6 + 2.662e6 + 0.04 * (21.582e6 / 0.90)
    crac = 2.5e6 + 7 * 1.862e6
    assert comparison.relative_increase == pytest.approx(
        crac / chilled - 1.0, rel=1e-9)
    assert comparison.relative_increase == pytest.approx(0.40691, abs=5e-4)


def test_crac_dominates_at_high_utilisation():
    # The DX stack overtakes the chilled-water stack once utilisation
    # clears the high-thirties; check the upper half of the range.
    crac_scenario = SCENARIO.with_architecture(CoolingArchitecture.CRAC)
    ctx_crac = peak_context(crac_scenario)
    for u in (0.5, 0.7, 0.9, 1.0):
        chilled = step_power(u, 30.0, CTX).as_dict()
        crac = step_power(u, 30.0, ctx_crac).as_dict()
        assert crac["crac"] > \
            chilled["chiller"] + chilled["crah"] + chilled["pumps"]


def test_swapping_roles_negates_differences():
    utilisation, ambient = profiles_from([0.9] * 8, [32.0] * 8)
    forward = compare_architectures(utilisation, ambient, SCENARIO)
    backward = compare_architectures(
        utilisation, ambient, SCENARIO,
        baseline=CoolingArchitecture.CRAC,
        alternative=CoolingArchitecture.CRAH_CHILLER)
    for i in range(8):
        forward_diff = (forward.alternative_cooling_w[i]
                        - forward.baseline_cooling_w[i])
        backward_diff = (backward.alternative_cooling_w[i]
                         - backward.baseline_cooling_w[i])
        assert backward_diff == pytest.approx(-forward_diff, rel=1e-12)


def test_zero_baseline_cooling_energy_is_out_of_range():
    # Free air with no fan idle floor draws nothing at U = 0.
    scenario = SCENARIO._replace(crah=CrahSpec(idle_frac=0.0))
    utilisation, ambient = profiles_from([0.0], [30.0])
    comparison = compare_architectures(
        utilisation, ambient, scenario,
        baseline=CoolingArchitecture.FREE_AIR,
        alternative=CoolingArchitecture.CRAC)
    assert comparison.baseline_cooling_energy_wh == 0.0
    assert comparison.alternative_cooling_energy_wh > 0.0
    with pytest.raises(OutOfRange, match="baseline free_air"):
        comparison.relative_increase
