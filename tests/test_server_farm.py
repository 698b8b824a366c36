"""Server-farm model tests.

Frozen expected values are hand evaluations of the closed-form expressions;
the brute-force check rebuilds the farm server by server.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcpowersim.errors import InvariantViolation, OutOfRange
from dcpowersim.server_farm import (FarmState, ServerSpec,
                                    effective_server_utilisation, farm_power,
                                    farm_state, server_power)

SPEC = ServerSpec(count=40000, p_idle_w=120.0, p_peak_w=250.0)
SMALL = ServerSpec(count=8, p_idle_w=120.0, p_peak_w=250.0)

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def brute_force_farm_power(utilisation: float, consolidation: float,
                           spec: ServerSpec) -> float:
    """Explicit per-server sum; only exact when the running count is whole.

    Consolidation 1 runs every server at the aggregate utilisation;
    consolidation 0 runs the minimum number of servers flat out and powers
    the rest off.
    """
    if consolidation == 1.0:
        per_server = [utilisation] * spec.count
    elif consolidation == 0.0:
        running = round(spec.count * utilisation)
        assert abs(running - spec.count * utilisation) < 1e-9
        per_server = [1.0] * running
    else:
        raise AssertionError("brute force covers the two pure policies only")
    return sum(spec.p_idle_w + (spec.p_peak_w - spec.p_idle_w) * u
               for u in per_server)


# --- effective_server_utilisation ---

def test_perfect_balancing_keeps_utilisation():
    assert effective_server_utilisation(0.5, 1.0) == pytest.approx(0.5)


def test_perfect_consolidation_saturates_running_servers():
    assert effective_server_utilisation(0.5, 0.0) == pytest.approx(1.0)


def test_partial_consolidation_hand_value():
    # 0.5 / (0.5 * 0.5 + 0.5) = 2/3
    assert effective_server_utilisation(0.5, 0.5) == pytest.approx(
        2.0 / 3.0, rel=1e-12)


def test_zero_utilisation_convention():
    assert effective_server_utilisation(0.0, 0.0) == 0.0
    assert effective_server_utilisation(0.0, 1.0) == 0.0


def test_effective_utilisation_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        effective_server_utilisation(1.5, 0.5)
    with pytest.raises(OutOfRange):
        effective_server_utilisation(0.5, -0.1)


# --- server_power ---

@pytest.mark.parametrize("u,expected", [(0.0, 120.0), (0.5, 185.0),
                                        (1.0, 250.0)])
def test_server_power_linear(u, expected):
    assert server_power(u, SPEC) == pytest.approx(expected, rel=1e-12)


# --- farm_power ---

def test_farm_power_balanced_half_load():
    # 40000 servers at u=0.5 drawing 185 W each
    assert farm_power(0.5, 1.0, SPEC) == pytest.approx(
        40000 * 185.0, rel=1e-12)


def test_farm_power_consolidated_half_load():
    # 20000 running servers flat out, the rest off
    assert farm_power(0.5, 0.0, SPEC) == pytest.approx(
        20000 * 250.0, rel=1e-12)


def test_farm_power_all_idle():
    assert farm_power(0.0, 1.0, SPEC) == pytest.approx(
        40000 * 120.0, rel=1e-12)


def test_farm_power_empty_packed_farm_draws_nothing():
    assert farm_power(0.0, 0.0, SPEC) == 0.0


def test_farm_power_partial_consolidation_idles_fraction():
    # At zero load, consolidation 0.5 keeps half the farm idling.
    assert farm_power(0.0, 0.5, SPEC) == pytest.approx(
        20000 * 120.0, rel=1e-12)


@given(u=fractions, cons=fractions)
def test_conservation_of_work(u, cons):
    state = farm_state(u, cons, SPEC)
    assert state.running_count * state.per_server_utilisation == pytest.approx(
        SPEC.count * u, rel=1e-12, abs=1e-9)


@given(u=st.floats(min_value=0.01, max_value=0.99), cons=fractions)
def test_state_bounds(u, cons):
    state = farm_state(u, cons, SPEC)
    assert u - 1e-12 <= state.per_server_utilisation <= 1.0 + 1e-12
    assert SPEC.count * u - 1e-6 <= state.running_count <= SPEC.count + 1e-6


@given(cons=fractions)
def test_full_load_is_nameplate_for_any_consolidation(cons):
    assert farm_power(1.0, cons, SPEC) == pytest.approx(
        SPEC.count * SPEC.p_peak_w, rel=1e-12)


def test_monotone_in_utilisation():
    for cons in (0.0, 0.3, 1.0):
        powers = [farm_power(i / 20, cons, SPEC) for i in range(21)]
        assert all(b >= a for a, b in zip(powers, powers[1:]))


def test_per_server_load_nonincreasing_in_consolidation():
    levels = [effective_server_utilisation(0.4, i / 10) for i in range(11)]
    assert all(b <= a for a, b in zip(levels, levels[1:]))


@given(u=fractions)
def test_consolidation_saves_power(u):
    assert farm_power(u, 0.0, SPEC) <= farm_power(u, 1.0, SPEC) + 1e-9


def test_farm_power_bounds():
    for u in (0.1, 0.5, 0.9):
        for cons in (0.0, 0.5, 1.0):
            p = farm_power(u, cons, SPEC)
            assert p <= SPEC.count * SPEC.p_peak_w + 1e-9
            assert p >= SPEC.count * u * SPEC.p_idle_w - 1e-9


@pytest.mark.parametrize("cons", [0.0, 1.0])
@pytest.mark.parametrize("eighths", range(9))
def test_matches_per_server_brute_force(cons, eighths):
    u = eighths / 8.0
    if u == 0.0 and cons == 0.0:
        assert farm_power(u, cons, SMALL) == 0.0
        return
    assert farm_power(u, cons, SMALL) == pytest.approx(
        brute_force_farm_power(u, cons, SMALL), rel=1e-12)


def test_spec_validation():
    with pytest.raises(InvariantViolation):
        ServerSpec(count=0, p_idle_w=120.0, p_peak_w=250.0)
    with pytest.raises(InvariantViolation):
        ServerSpec(count=10, p_idle_w=260.0, p_peak_w=250.0)
    with pytest.raises(InvariantViolation):
        ServerSpec(count=10, p_idle_w=-1.0, p_peak_w=250.0)
    with pytest.raises(InvariantViolation):
        ServerSpec(count=10, p_idle_w=120.0, p_peak_w=math.inf)
    # Both power bounds are inclusive: no idle draw, and idle at peak.
    for p_idle_w in (0.0, 250.0):
        spec = ServerSpec(count=10, p_idle_w=p_idle_w, p_peak_w=250.0)
        assert spec.farm_peak_w == 2500.0


def test_farm_state_is_plain_record():
    state = farm_state(0.5, 0.5, SPEC)
    assert state == FarmState(2.0 / 3.0, 30000.0)
