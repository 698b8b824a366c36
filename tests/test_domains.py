"""Argument domains of the public component functions.

Every float argument is drawn from all floats, NaN and +-inf included:
each call returns only finite numbers >= 0 or raises a SimulationError.
The messages of the shared rules are pinned in full, and a non-finite
ambient is out of range in ``simulate``.
"""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcpowersim.config import CoolingArchitecture, default_scenario
from dcpowersim.cooling import (ChillerSpec, CracSpec, CrahSpec, EerTable,
                                airflow_heat_power, ambient_adjustment,
                                chiller_power, crac_power, crah_power,
                                eer_lookup)
from dcpowersim.engine import peak_context, simulate, step_power
from dcpowersim.errors import (InvariantViolation, OutOfRange,
                               SimulationError)
from dcpowersim.power_chain import (SupplyChainSpec, SupplyLoss,
                                    SupplyTargets, calibrate_supply,
                                    pdu_loss, supply_loss, ups_loss)
from dcpowersim.profiles import AmbientProfile, UtilisationProfile
from dcpowersim.server_farm import (ServerSpec, effective_server_utilisation,
                                    farm_power, farm_state, server_power)

SERVER = ServerSpec(40000, 120.0, 250.0)
SUPPLY = calibrate_supply(SERVER.farm_peak_w)
CHILLER, CRAH, CRAC, EER = ChillerSpec(), CrahSpec(), CracSpec(), EerTable()
SCENARIO = default_scenario()

F = st.floats()   # every float, NaN, +-inf and subnormals included

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
        [F, st.integers(), F, F, F]),
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
    (lambda: step_power(1.5, 30.0, SCENARIO, peak_context(SCENARIO)),
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
    # float() of an int past the float range raises OverflowError
    (lambda: default_scenario(count=10**400), InvariantViolation,
     "count is too large for a float"),
    (lambda: ServerSpec(count=10**5000, p_idle_w=1.0, p_peak_w=2.0),
     InvariantViolation, "count is too large for a float"),
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
