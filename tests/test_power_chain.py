"""Supply-chain loss and calibration tests.

The default calibration targets a 10 MW farm: 15% total loss at peak,
idle floors of 1.5% (PDUs) and 3% (UPS), non-idle budget split 3:4.
Hand-solved coefficients: lambda_pdu = 450 kW * 100 / (10 MW)^2 = 4.5e-7,
lambda_ups = 600 kW / 10.6 MW.
"""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcpowersim.errors import InfeasibleTarget, InvariantViolation, OutOfRange
from dcpowersim.power_chain import (SupplyChainSpec, SupplyTargets,
                                    calibrate_supply, pdu_loss, supply_loss,
                                    ups_loss)

FARM_PEAK = 10e6
DEFAULT = calibrate_supply(FARM_PEAK)


def test_calibrated_coefficients_match_hand_solution():
    assert DEFAULT.pdu_idle_total_w == pytest.approx(150e3, rel=1e-12)
    assert DEFAULT.ups_idle_w == pytest.approx(300e3, rel=1e-12)
    assert DEFAULT.lambda_pdu_per_w == pytest.approx(4.5e-7, rel=1e-9)
    assert DEFAULT.lambda_ups == pytest.approx(600e3 / 10.6e6, rel=1e-9)


def test_pdu_idle_only_at_zero_load():
    assert pdu_loss(0.0, DEFAULT) == pytest.approx(150e3, rel=1e-12)


def test_pdu_loss_at_peak():
    # 150 kW idle + 100 PDUs * 4.5e-7 * (100 kW each)^2 = 600 kW
    assert pdu_loss(FARM_PEAK, DEFAULT) == pytest.approx(600e3, rel=1e-9)


def test_pdu_quadratic_term_at_half_peak():
    quad = pdu_loss(5e6, DEFAULT) - DEFAULT.pdu_idle_total_w
    assert quad == pytest.approx(112.5e3, rel=1e-9)


def test_quadratic_scaling_law_is_exact():
    for load in (1e6, 2.5e6, 5e6):
        small = pdu_loss(load, DEFAULT) - DEFAULT.pdu_idle_total_w
        large = pdu_loss(2 * load, DEFAULT) - DEFAULT.pdu_idle_total_w
        assert large == 4.0 * small


def test_ups_with_quoted_coefficient():
    spec = SupplyChainSpec(pdu_count=100, pdu_idle_total_w=150e3,
                           ups_idle_w=300e3, lambda_pdu_per_w=4.5e-7,
                           lambda_ups=0.0566)
    assert ups_loss(0.0, 150e3, spec) == pytest.approx(308490.0, rel=1e-12)


def test_ups_zero_coefficient_is_idle_only():
    spec = SupplyChainSpec(pdu_count=100, pdu_idle_total_w=150e3,
                           ups_idle_w=300e3, lambda_pdu_per_w=4.5e-7,
                           lambda_ups=0.0)
    assert ups_loss(5e6, 200e3, spec) == 300e3


def test_ups_loss_at_peak_closes_the_budget():
    # 300 kW idle + (600/10600) * 10.6 MW throughput = 900 kW
    assert ups_loss(FARM_PEAK, 600e3, DEFAULT) == pytest.approx(
        900e3, rel=1e-9)


def test_calibration_round_trip_hits_target_exactly():
    for frac in (0.10, 0.15, 0.25):
        spec = calibrate_supply(FARM_PEAK,
                                SupplyTargets(peak_loss_frac=frac))
        total = supply_loss(FARM_PEAK, spec).total_w
        assert total == pytest.approx(frac * FARM_PEAK, rel=1e-9)


def test_calibration_round_trip_other_farm_sizes():
    for peak in (100e3, 1e6, 40e6):
        spec = calibrate_supply(peak)
        assert supply_loss(peak, spec).total_w == pytest.approx(
            0.15 * peak, rel=1e-9)


def test_infeasible_when_idle_floors_exceed_target():
    with pytest.raises(InfeasibleTarget, match=re.escape(
            "idle fractions alone exceed the peak loss target (0.2 > 0.15)")
            ) as raised:
        calibrate_supply(FARM_PEAK, SupplyTargets(
            pdu_idle_total_frac=0.10, ups_idle_frac=0.10,
            peak_loss_frac=0.15))
    assert isinstance(raised.value, InvariantViolation)


def test_calibration_input_validation():
    with pytest.raises(OutOfRange):
        calibrate_supply(-1.0)
    # With no idle floors, 0 and 1 would otherwise calibrate.
    for frac in (0.0, 1.0, 1.5):
        with pytest.raises(InvariantViolation, match="peak_loss_frac"):
            calibrate_supply(FARM_PEAK, SupplyTargets(
                pdu_idle_total_frac=0.0, ups_idle_frac=0.0,
                peak_loss_frac=frac))


def test_loss_functions_reject_negative_power():
    with pytest.raises(OutOfRange):
        pdu_loss(-1.0, DEFAULT)
    with pytest.raises(OutOfRange):
        ups_loss(-1.0, 0.0, DEFAULT)


@given(st.floats(min_value=0.0, max_value=9.9e6),
       st.floats(min_value=1e3, max_value=1e5))
def test_total_loss_strictly_increasing(load, step):
    lower = supply_loss(load, DEFAULT).total_w
    upper = supply_loss(load + step, DEFAULT).total_w
    assert upper > lower


def test_total_loss_convex_in_load():
    grid = [i * 0.5e6 for i in range(21)]
    totals = [supply_loss(x, DEFAULT).total_w for x in grid]
    second_differences = [totals[i + 1] - 2 * totals[i] + totals[i - 1]
                          for i in range(1, len(totals) - 1)]
    assert all(d >= -1e-6 for d in second_differences)


def test_supply_loss_total_is_component_sum():
    loss = supply_loss(7.3e6, DEFAULT)
    assert loss.total_w == loss.pdu_loss_w + loss.ups_loss_w


def test_spec_validation():
    with pytest.raises(InvariantViolation):
        SupplyChainSpec(pdu_count=0, pdu_idle_total_w=0, ups_idle_w=0,
                        lambda_pdu_per_w=0, lambda_ups=0)
    with pytest.raises(InvariantViolation):
        SupplyChainSpec(pdu_count=1, pdu_idle_total_w=-5, ups_idle_w=0,
                        lambda_pdu_per_w=0, lambda_ups=0)


@pytest.mark.parametrize("power_w", [math.nan, math.inf])
def test_loss_functions_reject_non_finite_power(power_w):
    for call in (lambda: pdu_loss(power_w, DEFAULT),
                 lambda: ups_loss(power_w, 0.0, DEFAULT),
                 lambda: ups_loss(0.0, power_w, DEFAULT),
                 lambda: supply_loss(power_w, DEFAULT)):
        with pytest.raises(OutOfRange, match="must be finite and nonneg"):
            call()


@pytest.mark.parametrize("call,message", [
    (lambda: pdu_loss(1e308, DEFAULT), "farm power 1e+308 W is too large"),
    (lambda: supply_loss(1e308, DEFAULT), "farm power 1e+308 W is too large"),
    (lambda: pdu_loss(1e10, SupplyChainSpec(1, 0.0, 0.0, 1e300, 0.0)),
     "pdu_loss_w must be finite and nonnegative, got inf"),
    (lambda: ups_loss(1.7e308, 1.7e308, DEFAULT),
     "ups_loss_w must be finite and nonnegative, got inf"),
    (lambda: supply_loss(0.0, SupplyChainSpec(1, 1e308, 1e308, 0.0, 0.0)),
     "supply_loss_w must be finite and nonnegative, got inf"),
])
def test_overflowing_loss_is_out_of_range(call, message):
    with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("farm_peak_w", [1e-200, 5e-324])
def test_calibration_rejects_a_farm_peak_whose_square_underflows(farm_peak_w):
    with pytest.raises(OutOfRange, match="too small"):
        calibrate_supply(farm_peak_w)


def test_calibration_names_a_pdu_count_past_the_float_range():
    # The int-to-float overflow once landed in the farm-peak handler.
    for pdu_count, bits in ((10**400, 1329), (10**5000, 16610)):
        with pytest.raises(InvariantViolation, match=(
                f"^pdu_count must be >= 1 and finite, got <int of {bits} "
                "bits>$")):
            calibrate_supply(1e6, SupplyTargets(pdu_count=pdu_count))
