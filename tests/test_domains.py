"""Argument domains of the public component functions.

Every number argument is drawn from all floats, NaN and +-inf included,
and from all ints, among them ints that no float can hold: each call
returns only finite numbers >= 0 or raises a SimulationError.  Such an
int passed to any public entry point raises a named SimulationError,
never ``OverflowError``.  The messages of the shared rules are pinned in
full, and a non-finite ambient is out of range in ``simulate``.
"""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcpowersim.analysis import curtail, power_curve
from dcpowersim.config import CoolingArchitecture, default_scenario
from dcpowersim.cooling import (ChillerSpec, CracSpec, CrahSpec, EerTable,
                                airflow_heat_power, ambient_adjustment,
                                chiller_power, crac_power, crah_power,
                                eer_lookup)
from dcpowersim.engine import (PowerBreakdown, SimulationResult,
                               peak_context, simulate, step_power)
from dcpowersim.errors import (AT_LEAST_ONE, NONNEGATIVE, POSITIVE,
                               InvariantViolation, OutOfRange,
                               SimulationError, _shown)
from dcpowersim.power_chain import (SupplyChainSpec, SupplyLoss,
                                    SupplyTargets, calibrate_supply,
                                    pdu_loss, supply_loss, ups_loss)
from dcpowersim.profiles import AmbientProfile, UtilisationProfile
from dcpowersim.server_farm import (ServerSpec, effective_server_utilisation,
                                    farm_power, farm_state, server_power)
from strategies import LARGEST

SERVER = ServerSpec(40000, 120.0, 250.0)
SUPPLY = calibrate_supply(SERVER.farm_peak_w)
CHILLER, CRAH, CRAC, EER = ChillerSpec(), CrahSpec(), CracSpec(), EerTable()
SCENARIO = default_scenario()

# Every float (NaN, +-inf and subnormals included) and every int, with
# ints past the float range and one too long for repr() drawn often.
F = (st.floats() | st.integers()
     | st.sampled_from([2**1024, -(2**1024), 10**5000]))

# Each public component function with its specs bound, and a strategy
# for each remaining argument.
CALLS = {
    "server_power": (lambda u: server_power(u, SERVER), [F]),
    "farm_state": (lambda u, c: farm_state(u, c, SERVER), [F, F]),
    "farm_power": (lambda u, c: farm_power(u, c, SERVER), [F, F]),
    "effective_server_utilisation": (effective_server_utilisation, [F, F]),
    "pdu_loss": (lambda p: pdu_loss(p, SUPPLY), [F]),
    "ups_loss": (lambda p, q: ups_loss(p, q, SUPPLY), [F, F]),
    "supply_loss": (lambda p: supply_loss(p, SUPPLY), [F]),
    "calibrate_supply": (
        lambda p, *targets: calibrate_supply(p, SupplyTargets(*targets)),
        [F, F, F, F, F]),
    "chiller_power": (lambda u, f: chiller_power(u, f, CHILLER), [F, F]),
    "airflow_heat_power": (lambda u, f: airflow_heat_power(u, f, CRAH),
                           [F, F]),
    "crah_power": (lambda u, f: crah_power(u, f, CRAH), [F, F]),
    "crac_power": (lambda u, f, a: crac_power(u, f, CRAC, CRAH, a),
                   [F, F, F]),
    "eer_lookup": (lambda t: eer_lookup(t, EER), [F]),
    "ambient_adjustment": (lambda t, r: ambient_adjustment(t, r, EER),
                           [F, F]),
}


def numbers(value) -> list:
    """The numbers a result holds: itself, or its fields and total."""
    if not hasattr(value, "_fields"):
        return [value]
    held = [getattr(value, name) for name in value._fields]
    return held + [value.total_w] if isinstance(value, SupplyLoss) else held


def test_numbers_reads_every_field_of_both_record_kinds():
    # The property test above reaches each record only when Hypothesis
    # draws arguments a call accepts; this pins the walk on each kind.
    spec = calibrate_supply(1e6, SupplyTargets(100, 0.015, 0.03, 0.15))
    assert numbers(spec) == [spec.pdu_count, spec.pdu_idle_total_w,
                             spec.ups_idle_w, spec.lambda_pdu_per_w,
                             spec.lambda_ups]
    loss = supply_loss(5e5, spec)
    assert numbers(loss) == [*loss, loss.total_w]
    state = farm_state(0.5, 0.5, SERVER)
    assert numbers(state) == [*state]
    assert numbers(2.5) == [2.5]


@pytest.mark.parametrize("name", sorted(CALLS))
@given(data=st.data())
def test_component_gives_finite_nonnegative_numbers_or_raises(name, data):
    function, strategies = CALLS[name]
    args = [data.draw(strategy) for strategy in strategies]
    try:
        result = function(*args)
    except SimulationError:
        return
    for number in numbers(result):
        assert 0.0 <= number < math.inf, (args, result)


@pytest.mark.parametrize("call,error,message", [
    (lambda: CracSpec(cop=-1.0), InvariantViolation,
     "cop must be finite and nonnegative, got -1.0"),
    (lambda: ChillerSpec(gamma=0.0), InvariantViolation,
     "gamma must be positive and finite, got 0.0"),
    (lambda: ServerSpec(0, 1.0, 2.0), InvariantViolation,
     "count must be >= 1 and finite, got 0"),
    (lambda: CrahSpec(eta_heat=2.0), InvariantViolation,
     "eta_heat must be in (0, 1], got 2.0"),
    (lambda: step_power(1.5, 30.0, peak_context(SCENARIO)),
     OutOfRange, "utilisation must lie in [0, 1], got 1.5"),
    (lambda: farm_power(1.5, 0.5, SERVER), OutOfRange,
     "utilisation must lie in [0, 1], got 1.5"),
    # repr of an int past 4300 digits raises a plain ValueError
    (lambda: SupplyChainSpec(-10**5000, 0.0, 0.0, 0.0, 0.0),
     InvariantViolation,
     "pdu_count must be >= 1 and finite, got -<int of 16610 bits>"),
    (lambda: ServerSpec(count=-10**5000, p_idle_w=1.0, p_peak_w=2.0),
     InvariantViolation,
     "count must be >= 1 and finite, got -<int of 16610 bits>"),
    # an int that no float can hold is shown by its size; these two ids
    # name the case, as they did when the message was this text
    pytest.param(
        lambda: default_scenario(count=10**400), InvariantViolation,
        "count must be >= 1 and finite, got <int of 1329 bits>",
        id="<lambda>-InvariantViolation-count is too large for a float"),
    pytest.param(
        lambda: ServerSpec(count=10**5000, p_idle_w=1.0, p_peak_w=2.0),
        InvariantViolation,
        "count must be >= 1 and finite, got <int of 16610 bits>",
        id="<lambda>-InvariantViolation-count is too large for a float"),
    # the checks that were written by hand, each now naming its value
    pytest.param(lambda: SCENARIO._replace(consolidation=1.5),
                 InvariantViolation,
                 "consolidation must lie in [0, 1], got 1.5",
                 id="ScenarioConfig-consolidation"),
    pytest.param(lambda: SCENARIO._replace(reference_ambient_c=-math.inf),
                 InvariantViolation,
                 "reference_ambient_c must be finite, got -inf",
                 id="ScenarioConfig-reference_ambient_c"),
    pytest.param(lambda: calibrate_supply(1e6, SupplyTargets(
        peak_loss_frac=1.0)), InvariantViolation,
                 "peak_loss_frac must lie in (0, 1), got 1.0",
                 id="calibrate_supply-peak_loss_frac"),
    pytest.param(lambda: ServerSpec(1, -1.0, 2.0), InvariantViolation,
                 "p_idle_w must be finite and nonnegative, got -1.0",
                 id="ServerSpec-p_idle_w"),
    pytest.param(lambda: ServerSpec(1, 1.0, math.nan), InvariantViolation,
                 "p_peak_w must be finite and nonnegative, got nan",
                 id="ServerSpec-p_peak_w"),
    pytest.param(lambda: ServerSpec(1, 300.0, 200.0), InvariantViolation,
                 "p_idle_w must be <= p_peak_w, got 300.0 > 200.0",
                 id="ServerSpec-p_idle_w-above-p_peak_w"),
    pytest.param(lambda: EerTable(((35.0, 3.1), (math.nan, 3.5))),
                 InvariantViolation, "ambient_c must be finite, got nan",
                 id="EerTable-ambient_c"),
    pytest.param(lambda: EerTable(((35.0, 0.0),)), InvariantViolation,
                 "eer must be positive and finite, got 0.0",
                 id="EerTable-eer"),
    pytest.param(lambda: EerTable(((30.0, 3.5), (35.0, 3.1))),
                 InvariantViolation,
                 "breakpoints must be in strictly descending ambient order, "
                 "got (30.0, 3.5) then (35.0, 3.1)", id="EerTable-order"),
    pytest.param(lambda: EerTable(((35.0, 3.1), (30.0, 2.9))),
                 InvariantViolation,
                 "EER must be nonincreasing in ambient temperature, "
                 "got (35.0, 3.1) then (30.0, 2.9)", id="EerTable-eer-order"),
])
def test_rule_messages(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("ambient_c", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("architecture", CoolingArchitecture,
                         ids=[a.value for a in CoolingArchitecture])
def test_simulate_rejects_a_non_finite_ambient(architecture, ambient_c):
    # simulate's column lookup checks no ambient, so its column check must;
    # step_power and curtail reject one through the scalar lookup
    # (test_engine.py, test_analysis.py).
    stamp = ("2016-06-01T00:00",)
    with pytest.raises(OutOfRange, match="ambient be finite"):
        simulate(UtilisationProfile(stamp, (0.5,)),
                 AmbientProfile(stamp, (ambient_c,)),
                 SCENARIO.with_architecture(architecture))


BIG = 10**400   # an int that no float can hold; math.isfinite(BIG) raises
STAMPS = ("2016-06-01T00:00", "2016-06-01T01:00")

# Each entry point given BIG in one argument or field: (call, error).
PAST_THE_FLOAT_RANGE = {
    "EerTable-ambient": (lambda: EerTable(((BIG, 3.0),)), InvariantViolation),
    "EerTable-eer": (lambda: EerTable(((30.0, BIG),)), InvariantViolation),
    "ScenarioConfig-reference_ambient_c": (
        lambda: SCENARIO._replace(reference_ambient_c=BIG),
        InvariantViolation),
    "ScenarioConfig-pump_fraction": (
        lambda: SCENARIO._replace(pump_fraction=BIG), InvariantViolation),
    "ScenarioConfig-misc_fraction": (
        lambda: SCENARIO._replace(misc_fraction=BIG), InvariantViolation),
    "peak_context-alpha": (lambda: peak_context(SCENARIO._replace(
        chiller=ChillerSpec(alpha=BIG))), InvariantViolation),
    "peak_context-cop": (lambda: peak_context(SCENARIO._replace(
        crac=CracSpec(cop=BIG))), InvariantViolation),
    "peak_context-unit_airflow_cmh": (lambda: peak_context(SCENARIO._replace(
        crah=CrahSpec(unit_airflow_cmh=BIG))), InvariantViolation),
    "calibrate_supply-pdu_idle_total_frac": (lambda: calibrate_supply(
        1e6, SupplyTargets(pdu_idle_total_frac=BIG)), InvariantViolation),
    "calibrate_supply-ups_idle_frac": (lambda: calibrate_supply(
        1e6, SupplyTargets(ups_idle_frac=BIG)), InvariantViolation),
    "calibrate_supply-farm_peak_w": (lambda: calibrate_supply(BIG),
                                     OutOfRange),
    "ServerSpec-p_peak_w": (lambda: default_scenario(p_peak_w=BIG),
                            InvariantViolation),
    # Both fields fit a float; their product does not.
    "ServerSpec-count_times_p_peak_w": (lambda: default_scenario(
        count=10**300, p_idle_w=1, p_peak_w=10**10), OutOfRange),
    "step_power": (lambda: step_power(0.5, BIG, peak_context(SCENARIO)),
                   OutOfRange),
    "curtail-target": (lambda: curtail(BIG, 20.0, SCENARIO,
                                       peak_context(SCENARIO)), OutOfRange),
    "curtail-ambient": (lambda: curtail(1e7, BIG, SCENARIO,
                                        peak_context(SCENARIO)), OutOfRange),
    "power_curve": (lambda: power_curve([BIG], SCENARIO, 3), OutOfRange),
    "eer_lookup": (lambda: eer_lookup(BIG, EER), OutOfRange),
    "ambient_adjustment": (lambda: ambient_adjustment(BIG, 30.0, EER),
                           OutOfRange),
    "chiller_power": (lambda: chiller_power(0.5, BIG, CHILLER), OutOfRange),
    "crah_power": (lambda: crah_power(0.5, BIG, CRAH), OutOfRange),
    "crac_power": (lambda: crac_power(0.5, BIG, CRAC, CRAH), OutOfRange),
    "pdu_loss": (lambda: pdu_loss(BIG, SUPPLY), OutOfRange),
    "ups_loss": (lambda: ups_loss(BIG, 0.0, SUPPLY), OutOfRange),
    "simulate": (lambda: simulate(UtilisationProfile(STAMPS, (0.5, 0.5)),
                                  AmbientProfile(STAMPS, (20.0, BIG)),
                                  SCENARIO), OutOfRange),
    "SimulationResult-load": (lambda: SimulationResult(
        STAMPS, (0.5, 0.5), (20.0, 20.0), ((1.0, BIG),) + ((0.0, 0.0),) * 7),
        InvariantViolation),
    # BIG and -BIG sum to the int 0, so only a sum of floats sees them.
    "SimulationResult-cancelling-loads": (lambda: SimulationResult(
        STAMPS, (0.5, 0.5), (20.0, 20.0), ((BIG, -BIG),) + ((0.0, 0.0),) * 7),
        InvariantViolation),
}


@pytest.mark.parametrize("name", sorted(PAST_THE_FLOAT_RANGE))
def test_an_int_no_float_can_hold_raises_a_named_error(name):
    call, error = PAST_THE_FLOAT_RANGE[name]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error


@pytest.mark.parametrize("ambient,utilisation,row", [
    ((BIG, -BIG), (0.5, 0.5), 1),   # BIG and -BIG cancel in a sum of ints
    ((-BIG, BIG), (0.5, 0.5), 1),
    ((20.0, -BIG), (0.5, 0.5), 2),
    ((10**5000, 20.0), (0.5, 0.5), 1),   # too long for repr()
    ((LARGEST, 20.0), (0.5, 1.5), 2),    # the search passes a row at the bound
    ((-LARGEST, 20.0), (0.5, 1.5), 2),
])
def test_simulate_names_the_first_row_out_of_range(ambient, utilisation, row):
    with pytest.raises(OutOfRange, match=f"^row {row}: "):
        simulate(UtilisationProfile(STAMPS, utilisation),
                 AmbientProfile(STAMPS, ambient), SCENARIO)


@pytest.mark.parametrize("call", [
    lambda: all(holds(LARGEST) for holds, _ in (AT_LEAST_ONE, NONNEGATIVE,
                                                POSITIVE)),
    lambda: ServerSpec(1, LARGEST, LARGEST),
    lambda: EerTable(((LARGEST, 2.0), (-LARGEST, LARGEST))),
    lambda: SCENARIO._replace(reference_ambient_c=LARGEST)._replace(
        reference_ambient_c=-LARGEST),
    lambda: eer_lookup(LARGEST, EER) + eer_lookup(-LARGEST, EER),
    lambda: curtail(LARGEST, -LARGEST, SCENARIO, peak_context(SCENARIO)),
    lambda: PowerBreakdown((LARGEST,) * 8),
    lambda: simulate(UtilisationProfile(STAMPS, (0.5, 0.5)),
                     AmbientProfile(STAMPS, (LARGEST, -LARGEST)), SCENARIO),
    # The CRAH idle load is exactly LARGEST, and the other loads are too
    # small to round it, the full-load total or one hour's energy to inf.
    lambda: simulate(UtilisationProfile(STAMPS[:1], (1.0,)),
                     AmbientProfile(STAMPS[:1], (40.0,)), default_scenario(
                         count=1, p_idle_w=0.0, p_peak_w=2.0**100)._replace(
                         crah=CrahSpec(idle_frac=LARGEST / 2**100),
                         pump_fraction=0.0, misc_fraction=0.0)),
], ids=["rules", "ServerSpec", "EerTable", "ScenarioConfig", "eer_lookup",
        "curtail", "PowerBreakdown", "simulate", "load"])
def test_the_largest_float_is_finite(call):
    # Every bound includes LARGEST itself; the ints past it fail above.
    assert call()


def test_an_int_is_shown_by_its_size_only_past_the_largest_float():
    largest = int(LARGEST)
    assert [_shown(v) for v in (largest, -largest, largest + 1,
                                -largest - 1)] == [
        repr(largest), repr(-largest), "<int of 1024 bits>",
        "-<int of 1024 bits>"]
