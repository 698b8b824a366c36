"""Engine composition tests.

The default scenario used throughout: 40,000 servers at 120/250 W
(10 MW farm peak), chilled-water cooling, 15% supply loss at peak,
pumps 4% of total, misc 6% of design peak, reference outdoor 30 C.
Design peak solves to (10 + 1.5 + 7.42 + 2.662) MW / 0.90 = 23.98 MW.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcpowersim import analysis, cooling, engine, power_chain, server_farm
from dcpowersim.analysis import (compare_architectures, curtail,
                                 peak_breakdown, power_curve)
from dcpowersim.config import (COMPONENTS, CoolingArchitecture,
                               default_scenario, parse_scenario_config)
from dcpowersim.engine import (COMPONENT_NAMES, PowerBreakdown,
                               SimulationResult, peak_context, simulate,
                               step_power, summarize_energy)
from dcpowersim.errors import (LARGEST, EmptyProfile, EmptyResult,
                               InvariantViolation, OutOfRange, ProfileMismatch,
                               SimulationError)
from dcpowersim.profiles import AmbientProfile, UtilisationProfile
from strategies import (EER_TABLES, INDEX, eer_tables, outcome,
                        profiles_from, stamps)

SCENARIO = default_scenario()
CTX = peak_context(SCENARIO)

TOTAL_PEAK_W = (10e6 + 1.5e6 + 7.42e6 + 2.662e6) / 0.90


# --- peak context ---

def test_peak_context_hand_value():
    assert SCENARIO.server.farm_peak_w == 10e6
    design = step_power(1.0, SCENARIO.reference_ambient_c, CTX)
    assert design.total_w == pytest.approx(TOTAL_PEAK_W, rel=1e-9)
    misc = COMPONENT_NAMES.index("misc")
    assert CTX.fixed[misc][0] == pytest.approx(0.06 * TOTAL_PEAK_W, rel=1e-9)


def test_peak_context_without_self_referential_loads():
    bare = SCENARIO._replace(pump_fraction=0.0, misc_fraction=0.0)
    ctx = peak_context(bare)
    design = step_power(1.0, bare.reference_ambient_c, ctx)
    assert design.total_w == pytest.approx(10e6 + 1.5e6 + 7.42e6 + 2.662e6,
                                           rel=1e-9)


def test_saturating_fractions_rejected():
    with pytest.raises(InvariantViolation):
        SCENARIO._replace(pump_fraction=0.5, misc_fraction=0.5)


# --- step power ---

def test_peak_step_reproduces_design_peak():
    breakdown = step_power(1.0, 30.0, CTX)
    assert breakdown.total_w == pytest.approx(TOTAL_PEAK_W, rel=1e-9)
    assert breakdown.as_dict()["pumps"] == pytest.approx(
        0.04 * TOTAL_PEAK_W, rel=1e-9)


def test_idle_step_full_component_chain():
    # Independent hand evaluation through every module.
    farm = 40000 * 120.0
    pdu = 150e3 + 100 * 4.5e-7 * (farm / 100) ** 2
    ups = 300e3 + (600e3 / 10.6e6) * (farm + pdu)
    chiller = 0.7 * 10e6 * 0.63
    crah = 0.08 * 10e6
    misc = 0.06 * TOTAL_PEAK_W
    total = (farm + pdu + ups + chiller + crah + misc) / 0.96

    breakdown = step_power(0.0, 30.0, CTX)
    loads = breakdown.as_dict()
    assert loads["server_farm"] == pytest.approx(farm, rel=1e-9)
    assert loads["pdu_loss"] == pytest.approx(pdu, rel=1e-9)
    assert loads["ups_loss"] == pytest.approx(ups, rel=1e-9)
    assert loads["chiller"] == pytest.approx(chiller, rel=1e-9)
    assert loads["crah"] == pytest.approx(crah, rel=1e-9)
    assert loads["crac"] == 0.0
    assert loads["misc"] == pytest.approx(misc, rel=1e-9)
    assert breakdown.total_w == pytest.approx(total, rel=1e-9)


def test_architecture_gating():
    crah_run = step_power(0.7, 30.0, CTX).as_dict()
    assert crah_run["crac"] == 0.0 and crah_run["pumps"] > 0.0

    crac_scenario = SCENARIO.with_architecture(CoolingArchitecture.CRAC)
    crac_run = step_power(0.7, 30.0, peak_context(crac_scenario)).as_dict()
    assert crac_run["chiller"] == 0.0
    assert crac_run["crah"] == 0.0
    assert crac_run["pumps"] == 0.0
    assert crac_run["crac"] > 0.0

    free = SCENARIO.with_architecture(CoolingArchitecture.FREE_AIR)
    free_run = step_power(0.7, 30.0, peak_context(free)).as_dict()
    assert free_run["chiller"] == 0.0
    assert free_run["crac"] == 0.0
    assert free_run["pumps"] == 0.0
    assert free_run["crah"] > 0.0


def test_additivity_is_exact():
    for u in (0.0, 0.33, 0.77, 1.0):
        for t in (0.0, 22.5, 41.0):
            breakdown = step_power(u, t, CTX)
            assert breakdown.total_w == sum(breakdown.as_dict().values())


def test_total_strictly_increasing_in_utilisation():
    totals = [step_power(i / 40, 30.0, CTX).total_w
              for i in range(41)]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_total_nondecreasing_in_ambient():
    for scenario in (SCENARIO,
                     SCENARIO.with_architecture(CoolingArchitecture.CRAC)):
        ctx = peak_context(scenario)
        totals = [step_power(0.6, float(t), ctx).total_w
                  for t in range(-5, 46)]
        assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_free_air_ignores_ambient():
    free = SCENARIO.with_architecture(CoolingArchitecture.FREE_AIR)
    ctx = peak_context(free)
    assert step_power(0.6, 0.0, ctx) == step_power(0.6, 40.0, ctx)


def test_negative_component_rejected():
    with pytest.raises(InvariantViolation):
        PowerBreakdown((-1.0, 0, 0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", range(len(COMPONENT_NAMES)))
def test_non_finite_component_rejected(index, bad):
    parts = [1.0] * len(COMPONENT_NAMES)
    parts[index] = bad
    with pytest.raises(InvariantViolation, match=(
            f"^component {COMPONENT_NAMES[index]} must be finite and "
            f"nonnegative, got {bad!r}$")):
        PowerBreakdown(tuple(parts))


def test_non_finite_ambient_rejected():
    for ambient in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRange):
            step_power(0.5, ambient, CTX)


@pytest.mark.parametrize("u", [1.5, -0.1, math.nan])
def test_utilisation_outside_unit_interval_rejected(u):
    with pytest.raises(OutOfRange, match="utilisation must lie in"):
        step_power(u, 30.0, CTX)


# --- compiled quadratics vs the per-component reference chain ---

def reference_breakdown(u, ambient_c, scenario):
    """The eight components through the per-component model functions."""
    farm_peak_w = scenario.server.farm_peak_w
    chilled = scenario.architecture is CoolingArchitecture.CRAH_CHILLER
    phi = scenario.pump_fraction if chilled else 0.0

    def loads(u, ambient_c):
        farm = server_farm.farm_power(u, scenario.consolidation,
                                      scenario.server)
        supply = power_chain.supply_loss(farm, scenario.supply)
        adjustment = cooling.ambient_adjustment(
            ambient_c, scenario.reference_ambient_c, scenario.eer)
        chiller = crah = crac = 0.0
        if chilled:
            chiller = cooling.chiller_power(
                u, farm_peak_w, scenario.chiller) * adjustment
            crah = cooling.crah_power(u, farm_peak_w, scenario.crah)
        elif scenario.architecture is CoolingArchitecture.CRAC:
            crac = cooling.crac_power(u, farm_peak_w, scenario.crac,
                                      scenario.crah,
                                      condenser_adjustment=adjustment)
        else:
            crah = cooling.crah_power(u, farm_peak_w, scenario.crah)
        return [farm, supply.pdu_loss_w, supply.ups_loss_w, chiller, crah,
                crac]

    design_w = math.fsum(loads(1.0, scenario.reference_ambient_c))
    misc = (scenario.misc_fraction * design_w
            / (1.0 - phi - scenario.misc_fraction))
    parts = loads(u, ambient_c)
    pumps = phi * math.fsum([*parts, misc]) / (1.0 - phi)
    return [*parts, pumps, misc]


ARCHITECTURES = st.sampled_from(CoolingArchitecture)
UNIT_INTERVAL = (st.floats(0.0, 1.0, allow_subnormal=False) | st.just(0.0)
                 | st.just(1.0))


@settings(max_examples=400, deadline=None)
@given(architecture=ARCHITECTURES,
       consolidation=UNIT_INTERVAL, u=UNIT_INTERVAL,
       ambient=st.floats(-100.0, 100.0) | st.sampled_from([-100.0, 100.0]),
       table=EER_TABLES)
def test_compiled_step_power_matches_reference_chain(architecture,
                                                     consolidation, u,
                                                     ambient, table):
    scenario = default_scenario(architecture)._replace(
        consolidation=consolidation, eer=table)
    got = step_power(u, ambient, peak_context(scenario))
    want = reference_breakdown(u, ambient, scenario)
    for (name, g), w in zip(got.as_dict().items(), want):
        if w == 0.0:
            assert g == 0.0, name
        else:
            assert g == pytest.approx(w, rel=1e-12), name
    assert got.total_w == pytest.approx(math.fsum(want), rel=1e-12)


# --- simulate ---

def test_constant_profiles_hold_the_peak():
    utilisation, ambient = profiles_from([1.0] * 24, [30.0] * 24)
    result = simulate(utilisation, ambient, SCENARIO)
    assert len(result.steps) == 24
    for step in result.steps:
        assert step.power.total_w == pytest.approx(TOTAL_PEAK_W, rel=1e-9)
    assert result.total_energy_wh == pytest.approx(24 * TOTAL_PEAK_W,
                                                   rel=1e-9)


def test_shares_sum_to_one():
    utilisation, ambient = profiles_from([0.4, 0.9, 0.6], [28.0, 33.0, 35.0])
    result = simulate(utilisation, ambient, SCENARIO)
    assert sum(result.shares.values()) == pytest.approx(1.0, abs=1e-9)


def test_length_mismatch_rejected():
    utilisation, _ = profiles_from([0.5] * 3, [30.0] * 3)
    _, ambient = profiles_from([0.5] * 4, [30.0] * 4)
    with pytest.raises(ProfileMismatch):
        simulate(utilisation, ambient, SCENARIO)


def test_timestamp_mismatch_rejected():
    utilisation, _ = profiles_from([0.5] * 3, [30.0] * 3)
    ambient = AmbientProfile(
        ("2016-06-01T06:00", "2016-06-01T07:00", "2016-06-01T08:00"),
        (30.0, 30.0, 30.0))
    with pytest.raises(ProfileMismatch):
        simulate(utilisation, ambient, SCENARIO)


@pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
def test_out_of_range_utilisation_at_any_row_rejected(bad):
    for row in (0, 7, 11):
        us = [0.5] * 12
        us[row] = bad
        utilisation, ambient = profiles_from(us, [30.0] * 12)
        with pytest.raises(OutOfRange, match=f"row {row + 1}:"):
            simulate(utilisation, ambient, SCENARIO)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_ambient_at_any_row_rejected(bad):
    ts = [30.0] * 12
    ts[5] = bad
    utilisation, ambient = profiles_from([0.5] * 12, ts)
    # Free air looks up no hourly EER: the column check is its only guard.
    for architecture in CoolingArchitecture:
        with pytest.raises(OutOfRange, match="row 6:"):
            simulate(utilisation, ambient,
                     SCENARIO.with_architecture(architecture))


def simulate_checking_rows(utilisation, ambient, scenario):
    """simulate with every row checked first, as it ran before it checked
    whole columns."""
    rows = zip(utilisation.timestamps, ambient.timestamps,
               utilisation.values, ambient.values)
    for row, (stamp, other, u, t) in enumerate(rows, 1):
        if stamp != other:
            raise ProfileMismatch(
                f"row {row}: timestamps diverge ({stamp!r} vs {other!r})")
        if not (0.0 <= u <= 1.0 and math.isfinite(t)):
            raise OutOfRange(f"row {row}: utilisation must lie in [0, 1] and "
                             f"ambient be finite, got {u!r}, {t!r}")
    return simulate(utilisation, ambient, scenario)


# Edge values, valid and not: 1e308 is finite, but two of them overflow
# the column sum.
EDGE_UTILISATIONS = st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf,
                                     -math.inf, -1e-300, 1.0000000000000002,
                                     2.0])
EDGE_AMBIENTS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308,
                                 -1e308, 1.7e308, -0.0, 60.0])
EDGE_STAMPS = st.sampled_from(["2016-06-30T00:00", ""])
DEFECTIVE_LENGTHS = st.integers(1, 12)
DEFECTIVE_UTILISATIONS = {n: st.lists(st.floats(0.0, 1.0), min_size=n,
                                      max_size=n) for n in range(1, 13)}
DEFECTIVE_AMBIENTS = {n: st.lists(st.floats(-60.0, 60.0), min_size=n,
                                  max_size=n) for n in range(1, 13)}
DEFECTS = st.integers(0, 2)   # per column


@st.composite
def defective_profiles(draw):
    n = draw(DEFECTIVE_LENGTHS)
    us = draw(DEFECTIVE_UTILISATIONS[n])
    ts = draw(DEFECTIVE_AMBIENTS[n])
    other = list(stamps(n))
    for column, edges in ((us, EDGE_UTILISATIONS), (ts, EDGE_AMBIENTS),
                          (other, EDGE_STAMPS)):
        for _ in range(draw(DEFECTS)):
            column[draw(INDEX[n])] = draw(edges)
    return (UtilisationProfile(stamps(n), tuple(us)),
            AmbientProfile(tuple(other), tuple(ts)))


def test_valid_profiles_at_both_bounds_skip_the_row_search(monkeypatch):
    # The rows are searched only to name what failed.
    monkeypatch.setattr(engine, "_check_rows", lambda *profiles: pytest.fail(
        "searched the rows of valid profiles"))
    simulate(*profiles_from([0.0, 1.0, 0.5], [-40.0, 50.0, 20.0]), SCENARIO)


@settings(max_examples=400, deadline=None)
@given(pair=defective_profiles())
def test_column_check_agrees_with_the_row_checks(pair):
    for architecture in CoolingArchitecture:
        scenario = SCENARIO.with_architecture(architecture)
        assert outcome(simulate, *pair, scenario) == \
            outcome(simulate_checking_rows, *pair, scenario)


def column_hexes(result):
    return [[x.hex() for x in column]
            for column in (result.utilisation, result.ambient_c,
                           *result.components, result.total_w)]


DAY_US = [((h * 7) % 24) / 23 for h in range(24)]
DAY_TS = [-5.0 + 2.5 * h for h in range(24)]


def test_a_checked_profile_runs_the_next_scenario_as_a_fresh_one(
        monkeypatch):
    # Each profile tests its values on its first simulate and keeps the
    # verdict; a later scenario reads it and computes nothing again.
    tested = {UtilisationProfile: [], AmbientProfile: []}
    for kind, values in tested.items():
        holds, requirement = kind._DOMAIN
        monkeypatch.setattr(kind, "_DOMAIN", (
            lambda v, holds=holds, values=values: values.append(v)
            or holds(v), requirement))
    utilisation, ambient = profiles_from(DAY_US, DAY_TS)
    simulate(utilisation, ambient, SCENARIO)
    assert tested == {UtilisationProfile: DAY_US, AmbientProfile: DAY_TS}
    assert vars(utilisation)["_in_domain"] is vars(ambient)["_in_domain"] \
        is True
    for architecture in CoolingArchitecture:
        scenario = SCENARIO.with_architecture(architecture)
        again = simulate(utilisation, ambient, scenario)
        fresh = simulate(*profiles_from(DAY_US, DAY_TS), scenario)
        assert column_hexes(again) == column_hexes(fresh)
    # Only the fresh profiles were tested again, once each.
    runs = 1 + len(CoolingArchitecture)
    assert tested == {UtilisationProfile: DAY_US * runs,
                      AmbientProfile: DAY_TS * runs}


def test_finite_ambients_whose_sum_overflows_are_never_searched(
        monkeypatch):
    # Two ambients of 1e308 are finite, so they pass, though their sum is
    # not; above the table's hottest breakpoint they draw what 41 C draws.
    pair = profiles_from([0.5, 0.5], [1e308, 1e308])
    clamped = profiles_from([0.5, 0.5], [41.0, 41.0])
    monkeypatch.setattr(engine, "_check_rows", lambda *profiles: pytest.fail(
        "searched the rows of valid profiles"))
    for architecture in CoolingArchitecture:
        scenario = SCENARIO.with_architecture(architecture)
        result = simulate(*pair, scenario)
        assert result.ambient_c == (1e308, 1e308)
        assert column_hexes(result)[2:] == \
            column_hexes(simulate(*clamped, scenario))[2:]


@settings(max_examples=400, deadline=None)
@given(pair=defective_profiles())
@example(pair=profiles_from([0.5, 0.5], [1e308, 1e308]))
def test_the_row_search_never_returns(pair):
    # simulate searches the rows only when a row's stamps differ or its
    # values break a rule, so the search always finds that row and raises.
    search = engine._check_rows

    def must_raise(*profiles):
        search(*profiles)
        pytest.fail("the row search returned")

    with mock.patch.object(engine, "_check_rows", must_raise):
        outcome(simulate, *pair, SCENARIO)


@pytest.mark.parametrize("column, bad", [
    ("utilisation", 1.5), ("utilisation", math.nan),
    ("utilisation", math.inf), ("utilisation", -math.inf),
    ("ambient", math.nan), ("ambient", math.inf), ("ambient", -math.inf)],
    ids=["u-1.5", "u-nan", "u-inf", "u--inf", "t-nan", "t-inf", "t--inf"])
def test_a_bad_profile_names_its_row_on_every_call(column, bad):
    us, ts = list(DAY_US), list(DAY_TS)
    (us if column == "utilisation" else ts)[6] = bad
    utilisation, ambient = profiles_from(us, ts)
    first = outcome(simulate, utilisation, ambient, SCENARIO)
    assert first[0] is OutOfRange and first[1].startswith("row 7: ")
    bad_profile = utilisation if column == "utilisation" else ambient
    assert vars(bad_profile)["_in_domain"] is False
    assert outcome(simulate, utilisation, ambient, SCENARIO) == first


def test_a_profile_built_from_lists_holds_tuples():
    timestamps, us, ts = list(stamps(24)), list(DAY_US), list(DAY_TS)
    utilisation = UtilisationProfile(timestamps, us)
    ambient = AmbientProfile(timestamps, ts)
    for profile in (utilisation, ambient):
        assert type(profile.timestamps) is type(profile.values) is tuple
    first = simulate(utilisation, ambient, SCENARIO)
    # The verdict holds for the values the profile kept, not the lists.
    us[3], ts[4], timestamps[5] = 1.5, math.nan, ""
    assert utilisation.values == tuple(DAY_US)
    assert ambient.values == tuple(DAY_TS)
    assert utilisation.timestamps == ambient.timestamps == stamps(24)
    assert column_hexes(simulate(utilisation, ambient, SCENARIO)) == \
        column_hexes(first)


def test_empty_profiles_rejected():
    empty_u = UtilisationProfile((), ())
    empty_t = AmbientProfile((), ())
    with pytest.raises(EmptyProfile):
        simulate(empty_u, empty_t, SCENARIO)


def test_determinism_bitwise():
    utilisation, ambient = profiles_from(
        [0.2 + 0.6 * (h % 24) / 23 for h in range(48)],
        [20.0 + 0.5 * (h % 24) for h in range(48)])
    first = simulate(utilisation, ambient, SCENARIO)
    second = simulate(utilisation, ambient, SCENARIO)
    assert first == second


def parent_breakdown(ctx, u, adjustment):
    """One hour as the per-hour engine evaluated it before results were
    stored as columns: each of the eight compiled pairs at (U, a)."""
    return [f0 + u * (f1 + u * f2) + adjustment * (r0 + u * (r1 + u * r2))
            for (f0, f1, f2), (r0, r1, r2) in zip(ctx.fixed, ctx.refrigeration)]


@settings(max_examples=200, deadline=None)
@given(architecture=ARCHITECTURES,
       consolidation=UNIT_INTERVAL, table=EER_TABLES,
       hours=st.lists(st.tuples(UNIT_INTERVAL, st.floats(-100.0, 100.0)),
                      min_size=1, max_size=30))
def test_columns_are_bit_identical_to_per_hour_evaluation(
        architecture, consolidation, table, hours):
    scenario = default_scenario(architecture)._replace(
        consolidation=consolidation, eer=table)
    ctx = peak_context(scenario)
    utilisation, ambient = profiles_from(*zip(*hours))
    result = simulate(utilisation, ambient, scenario)
    pumps = COMPONENT_NAMES.index("pumps")
    phi = (scenario.pump_fraction
           if architecture in COMPONENTS[pumps].architectures else 0.0)
    for h, (u, t) in enumerate(hours):
        adjustment = ctx.reference_eer / cooling.eer_lookup(t, ctx.eer)
        want = parent_breakdown(ctx, u, adjustment)
        got = [column[h] for column in result.components]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert result.total_w[h] == sum(want)
        # The pump rule stated independently of the compiled pump pair.
        others = want[:pumps] + want[pumps + 1:]
        assert want[pumps] == pytest.approx(phi * sum(others) / (1.0 - phi),
                                            rel=1e-12)


@pytest.mark.parametrize("slope", [1.0, 2.0])
def test_only_a_load_without_u_terms_is_a_constant_column(slope):
    # Equal, nonzero U coefficients must not take the constant shortcut.
    zero = (0.0, 0.0, 0.0)
    rest = (zero,) * (len(COMPONENT_NAMES) - 2)
    ctx = CTX._replace(fixed=((0.5, slope, slope), (0.5, 0.0, 0.0), *rest),
                       refrigeration=(zero, zero, *rest))
    assert ctx.loads((0.0, 0.5, 1.0), ())[:2] == (
        (0.5, 0.5 + 0.75 * slope, 0.5 + 2.0 * slope), (0.5, 0.5, 0.5))


NO_AIRFLOW_CRAC = SCENARIO._replace(
    architecture=CoolingArchitecture.CRAC,
    crah=SCENARIO.crah._replace(unit_airflow_cmh=0.0))


@pytest.mark.parametrize("scenario, hourly", [
    (SCENARIO.with_architecture(CoolingArchitecture.FREE_AIR), False),
    (NO_AIRFLOW_CRAC, False),   # its condenser term is 0 * (1 + COP)
    (SCENARIO, True),
    (SCENARIO.with_architecture(CoolingArchitecture.CRAC), True),
], ids=["free_air", "crac_without_airflow", "crah_chiller", "crac"])
def test_simulate_looks_up_eer_only_when_a_load_is_refrigerated(
        monkeypatch, scenario, hourly):
    ts = [-40.0 + 7.0 * h for h in range(13)]   # never the 30 C reference
    utilisation, ambient = profiles_from([h / 12 for h in range(13)], ts)
    constant = simulate(utilisation, AmbientProfile(ambient.timestamps,
                                                    (30.0,) * 13), scenario)
    lookup, looked_up = cooling.eer_lookup, []
    column, columns = cooling._adjustment_column, []

    def eer_lookup(ambient_c, table):
        looked_up.append(ambient_c)
        return lookup(ambient_c, table)

    def adjustment_column(view, table, reference_eer):
        columns.append((view, column(view, table, reference_eer)))
        return columns[-1][1]

    monkeypatch.setattr(cooling, "eer_lookup", eer_lookup)
    monkeypatch.setattr(cooling, "_adjustment_column", adjustment_column)
    result = simulate(utilisation, ambient, scenario)
    assert looked_up == [30.0]   # peak_context's reference lookup only
    if hourly:   # then one column of every hour, from the profile's view
        [(view, adjustments)] = columns
        assert view is vars(ambient)["_ascending"]
        assert view[0] == tuple(sorted(ts))
        reference_eer = peak_context(scenario).reference_eer
        assert adjustments == tuple(reference_eer / lookup(t, scenario.eer)
                                    for t in ts)
        assert result.components != constant.components
    else:   # no column, and no sort of the ambients
        assert columns == []
        assert "_ascending" not in vars(ambient)
        assert result.components == constant.components


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_a_non_finite_ambient_names_its_row_and_builds_no_view(bad):
    ts = list(DAY_TS)
    ts[6] = bad
    utilisation, ambient = profiles_from(DAY_US, ts)
    for _ in range(2):
        kind, message = outcome(simulate, utilisation, ambient, SCENARIO)
        assert kind is OutOfRange and message.startswith("row 7: ")
    assert "_ascending" not in vars(ambient)


def test_the_ascending_view_holds_tuples():
    timestamps, ts = list(stamps(24)), list(DAY_TS[::-1])
    ambient = AmbientProfile(timestamps, ts)
    simulate(UtilisationProfile(timestamps, DAY_US), ambient, SCENARIO)
    view = vars(ambient)["_ascending"]
    ascending, restore = view
    assert type(view) is type(ascending) is tuple
    assert ascending == tuple(sorted(ts))
    # The ranks it restores by are a tuple in the itemgetter itself.
    assert restore.__reduce__()[1] == tuple(23 - h for h in range(24))
    assert type(restore(list(ascending))) is tuple
    assert restore(list(ascending)) == tuple(ts)


def test_fractions_of_minus_zero_give_loads_of_plus_zero():
    scenario = SCENARIO._replace(pump_fraction=-0.0, misc_fraction=-0.0)
    power = step_power(0.5, 25.0, peak_context(scenario))
    assert math.copysign(1.0, power.as_dict()["pumps"]) == 1.0
    assert math.copysign(1.0, power.as_dict()["misc"]) == 1.0


@pytest.mark.parametrize("architecture", CoolingArchitecture)
def test_a_utilisation_of_minus_zero_gives_loads_of_plus_zero(architecture):
    # Each of these -0 settings compiles to a constant term of -0.0 beside
    # a U term, which a U of -0.0 would leave at -0.0.
    scenario = default_scenario(architecture)._replace(
        consolidation=-0.0, crah=SCENARIO.crah._replace(idle_frac=-0.0),
        crac=SCENARIO.crac._replace(idle_frac=-0.0))
    power = step_power(-0.0, 25.0, peak_context(scenario))
    result = simulate(*profiles_from([-0.0], [25.0]), scenario)
    for loads in (power.components, sum(result.components, ())):
        assert [math.copysign(1.0, w) for w in loads] == [1.0] * 8


FRACTIONS = st.floats(0.0, 0.45) | st.sampled_from([-0.0, 0.0])


@settings(max_examples=300, deadline=None)
@given(architecture=ARCHITECTURES,
       consolidation=UNIT_INTERVAL, table=EER_TABLES,
       phi=FRACTIONS, mu=FRACTIONS,
       ambient=st.floats(-100.0, 100.0) | st.sampled_from([-100.0, 100.0]))
def test_compiled_total_is_bit_identical_to_the_per_pair_sum(
        architecture, consolidation, table, phi, mu, ambient):
    scenario = default_scenario(architecture)._replace(
        consolidation=consolidation, eer=table, pump_fraction=phi,
        misc_fraction=mu)
    ctx = peak_context(scenario)
    adjustment = ctx.reference_eer / cooling.eer_lookup(ambient, ctx.eer)
    c0, c1, c2 = [sum(f) + adjustment * sum(r) for f, r in
                  zip(zip(*ctx.fixed), zip(*ctx.refrigeration))]
    # A target beyond an endpoint reports the endpoint curtail evaluated.
    floor = curtail(c0 / 2.0, ambient, scenario, ctx)
    peak = curtail(2.0 * (c0 + c1 + c2), ambient, scenario, ctx)
    assert not floor.feasible and not peak.feasible
    assert floor.achieved_total_w.hex() == c0.hex()
    assert peak.achieved_total_w.hex() == (c0 + c1 + c2).hex()


def test_steps_view_matches_step_power_every_hour():
    us = [(h % 24) / 23 for h in range(72)]
    ts = [18.0 + 0.4 * (h % 24) for h in range(72)]
    utilisation, ambient = profiles_from(us, ts)
    for architecture in CoolingArchitecture:
        scenario = SCENARIO.with_architecture(architecture)
        ctx = peak_context(scenario)
        first = simulate(utilisation, ambient, scenario)
        steps = first.steps
        assert len(steps) == 72
        for step, stamp, u, t in zip(steps, utilisation.timestamps, us, ts):
            assert (step.timestamp, step.utilisation, step.ambient_c) == \
                (stamp, u, t)
            assert step.power == step_power(u, t, ctx)
        second = simulate(utilisation, ambient, scenario)
        assert second == first
        assert second.steps == steps


def test_result_shares_its_input_columns():
    utilisation, ambient = profiles_from([0.5] * 4, [20.0] * 4)
    result = simulate(utilisation, ambient, SCENARIO)
    assert result.timestamps is utilisation.timestamps
    assert result.utilisation is utilisation.values
    assert result.ambient_c is ambient.values
    assert summarize_energy(result) is result


WEEK = profiles_from([((h * 7) % 24) / 23 for h in range(168)],
                     [-5.0 + 0.37 * (h % 120) for h in range(168)])


def test_energy_runs_never_read_the_hourly_total(monkeypatch):
    def unread(result):
        pytest.fail("total_w read")

    monkeypatch.setattr(SimulationResult, "total_w", property(unread))
    for architecture in CoolingArchitecture:
        scenario = SCENARIO.with_architecture(architecture)
        summary = summarize_energy(simulate(*WEEK, scenario))
        assert sum(summary.shares.values()) == pytest.approx(1.0)
        assert summary.total_energy_wh > 0.0
    comparison = compare_architectures(*WEEK, SCENARIO)
    assert comparison.relative_increase != 0.0


def test_hourly_total_is_built_once_with_the_per_hour_bits():
    for architecture in CoolingArchitecture:
        result = simulate(*WEEK, SCENARIO.with_architecture(architecture))
        total_w = result.total_w
        assert [x.hex() for x in total_w] == [
            x.hex() for x in map(sum, zip(*result.components))]
        for watts, parts in zip(total_w, zip(*result.components)):
            assert watts.hex() == PowerBreakdown(parts).total_w.hex()
        assert result.total_w is total_w


def test_hourly_total_cannot_be_assigned_or_deleted():
    result = simulate(*WEEK, SCENARIO)
    for _ in range(2):   # before the first read, then after it
        with pytest.raises(AttributeError):
            result.total_w = ()
        with pytest.raises(AttributeError):
            del result.total_w
        total_w = result.total_w
        assert len(total_w) == 168
    assert result.total_w is total_w


def test_reading_the_total_leaves_the_record_as_it_was():
    read, unread = simulate(*WEEK, SCENARIO), simulate(*WEEK, SCENARIO)
    assert read.total_w
    assert SimulationResult._fields == (
        "timestamps", "utilisation", "ambient_c", "components")
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread)
    doubled = tuple(tuple(2.0 * x for x in column)
                    for column in read.components)
    assert read._replace() == unread._replace()
    replaced = read._replace(components=doubled)
    assert replaced == unread._replace(components=doubled)
    assert replaced.total_w == tuple(map(sum, zip(*doubled)))
    assert replaced.total_w != read.total_w


@pytest.mark.parametrize("components", [
    ((1.0,),) * 7,                        # a component missing
    ((1.0,),) * 7 + ((1.0, 2.0),),        # a column longer than the inputs
])
def test_misaligned_result_rejected(components):
    with pytest.raises(InvariantViolation):
        SimulationResult(("2016-06-01T00:00",), (0.5,), (30.0,), components)


def generic_loads(pairs, us, adjustments):
    """``PeakContext.loads`` as of 0.7.1, over (fixed, refrigeration)
    pairs: one form for every load, with the constant and no-refrigeration
    shortcuts."""
    zero, n = (0.0, 0.0, 0.0), len(us)

    def column(fixed, refrigeration):
        (f0, f1, f2), (r0, r1, r2) = fixed, refrigeration
        f0 += 0.0
        if refrigeration == zero:
            return ((f0,) * n if f1 == f2 == 0.0 else
                    tuple([f0 + u * (f1 + u * f2) for u in us]))
        return tuple([f0 + u * (f1 + u * f2) + a * (r0 + u * (r1 + u * r2))
                      for u, a in zip(us, adjustments)])

    return tuple(column(fixed, refrigeration)
                 for fixed, refrigeration in pairs)


COEFFICIENTS = (st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1e308])
                | st.floats(1e-6, 1e9))
TRIPLES = st.tuples(COEFFICIENTS, COEFFICIENTS, COEFFICIENTS)
KERNEL_HOURS = st.lists(st.tuples(
    st.sampled_from([-0.0, 0.0, 1.0])
    | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e300, exclude_min=True)), min_size=1, max_size=12)
CRAC_CTX = peak_context(SCENARIO.with_architecture(CoolingArchitecture.CRAC))


# Every shape: constant, linear, quadratic, refrigeration only,
# c0 + a * (U * r1) and the full form, with +-0 in each dropped term.
# The kernels run outside a PeakContext, whose full-load bound would
# reject the 1e308 coefficients.
@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(TRIPLES, TRIPLES), min_size=1, max_size=8),
       hours=KERNEL_HOURS)
@example(pairs=list(zip(CTX.fixed, CTX.refrigeration)),
         hours=[(-0.0, 1.0), (0.5, 1e300), (1.0, 5e-324)])
@example(pairs=list(zip(CRAC_CTX.fixed, CRAC_CTX.refrigeration)),
         hours=[(-0.0, 1.0), (0.5, 1e300), (1.0, 5e-324)])
@example(pairs=[((-0.0, -0.0, -0.0), (0.0, 0.0, 0.0)),
                ((0.0, 1e308, -0.0), (-0.0, 0.0, 0.0)),
                ((5e-324, -0.0, 1e308), (0.0, -0.0, -0.0)),
                ((-0.0, 0.0, 0.0), (1e308, 5e-324, 1e308)),
                ((5e-324, -0.0, 0.0), (-0.0, 1e308, -0.0)),
                ((0.0, 5e-324, 0.0), (0.0, 5e-324, 0.0))],
         hours=[(-0.0, 1e300), (0.0, 1e-300), (1e-300, 5e-324), (1.0, 1.0)])
# Equal nonzero coefficients, and coefficients of 1, in each shape.
@example(pairs=[((0.5, 1.0, 0.0), (0.0, 0.0, 0.0)),
                ((0.5, 1.0, 1.0), (0.0, 0.0, 0.0)),
                ((0.5, 1.0, 1.0), (0.0, 2.0, 0.0)),
                ((0.5, 0.0, 0.0), (1.0, 2.0, 1.0)),
                ((0.5, 0.0, 0.0), (1.0, 2.0, 0.0)),
                ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))],
         hours=[(0.25, 0.5), (1.0, 1.0)])
def test_load_kernels_match_the_generic_form_bit_for_bit(pairs, hours):
    us, adjustments = zip(*hours)

    def hexes(loads):
        return [[x.hex() for x in column] for column in loads]

    assert hexes(engine._load(fixed, refrigeration, us, adjustments)
                 for fixed, refrigeration in pairs) == hexes(
        generic_loads(pairs, us, adjustments))


def test_plain_records_are_named_tuples():
    """The six records that check nothing behave as NamedTuples."""
    utilisation, ambient = profiles_from([0.5, 1.0], [20.0, 35.0])
    comparison = compare_architectures(utilisation, ambient, SCENARIO)
    records = {
        curtail(15e6, 30.0, SCENARIO, CTX): (
            "target_total_w", "required_utilisation", "achieved_total_w",
            "feasible"),
        power_curve([30.0], SCENARIO, 3)[0]: ("temperature_c", "points"),
        comparison: (
            "baseline", "alternative", "timestamps", "baseline_cooling_w",
            "alternative_cooling_w", "baseline_cooling_energy_wh",
            "alternative_cooling_energy_wh"),
        simulate(utilisation, ambient, SCENARIO).steps[0]: (
            "timestamp", "utilisation", "ambient_c", "power"),
        power_chain.supply_loss(5e6, SCENARIO.supply): (
            "pdu_loss_w", "ups_loss_w"),
        SCENARIO.supply_targets: (
            "pdu_count", "pdu_idle_total_frac", "ups_idle_frac",
            "peak_loss_frac"),
        server_farm.farm_state(0.5, 0.5, SCENARIO.server): (
            "per_server_utilisation", "running_count"),
    }
    for record, names in records.items():
        assert isinstance(record, tuple) and record._fields == names
        with pytest.raises(AttributeError):
            setattr(record, names[0], record[0])
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record)
    assert repr(analysis.CurtailmentSolution(1e6, 0.5, 1e6, True)) == (
        "CurtailmentSolution(target_total_w=1000000.0, "
        "required_utilisation=0.5, achieved_total_w=1000000.0, "
        "feasible=True)")
    assert comparison.relative_increase == (
        comparison.alternative_cooling_energy_wh
        / comparison.baseline_cooling_energy_wh - 1.0)
    assert power_chain.SupplyLoss(1.5, 2.25).total_w == 3.75


def test_checked_records_are_immutable_and_rechecked_on_replace():
    """The eleven records that check or derive a field: frozen, compared
    and hashed by their constructor fields, and ``_replace`` checks again."""
    utilisation, ambient = profiles_from([0.5, 1.0], [20.0, 35.0])
    records = [   # record, its fields in order, one bad value and its error
        (cooling.ChillerSpec(), ("alpha", "beta", "gamma", "sizing_factor"),
         "gamma", 0.0, InvariantViolation),
        (cooling.CrahSpec(), ("idle_frac", "eta_heat", "unit_capacity_kw",
                              "unit_airflow_cmh"),
         "eta_heat", 1.5, InvariantViolation),
        (cooling.CracSpec(), ("idle_frac", "cop"), "cop", -1.0,
         InvariantViolation),
        (SCENARIO.eer, ("breakpoints",), "breakpoints", (),
         InvariantViolation),
        (SCENARIO.server, ("count", "p_idle_w", "p_peak_w"),
         "p_idle_w", 1e9, InvariantViolation),
        (SCENARIO.supply, ("pdu_count", "pdu_idle_total_w", "ups_idle_w",
                           "lambda_pdu_per_w", "lambda_ups"),
         "lambda_ups", math.nan, InvariantViolation),
        (SCENARIO, ("server", "architecture", "supply_targets", "chiller",
                    "crah", "crac", "eer", "pump_fraction", "misc_fraction",
                    "reference_ambient_c", "consolidation"),
         "consolidation", 2.0, OutOfRange),
        (step_power(0.5, 30.0, CTX), ("components",),
         "components", (1.0,), InvariantViolation),
        (CTX, ("eer", "reference_eer", "fixed", "refrigeration"),
         "reference_eer", math.nan, InvariantViolation),
        (simulate(utilisation, ambient, SCENARIO),
         ("timestamps", "utilisation", "ambient_c", "components"),
         "timestamps", (), InvariantViolation),
        (utilisation, ("timestamps", "values"), "values", (),
         InvariantViolation),
    ]
    for record, names, field, bad, error in records:
        assert record._fields == names
        with pytest.raises(AttributeError):
            setattr(record, names[0], getattr(record, names[0]))
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        values = {name: getattr(record, name) for name in names}
        twin = type(record)(**values)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)
        with pytest.raises(error) as built:
            type(record)(**{**values, field: bad})
        with pytest.raises(error) as replaced:
            record._replace(**{field: bad})
        assert str(replaced.value) == str(built.value)
    assert repr(cooling.CracSpec()) == "CracSpec(idle_frac=0.25, cop=6.0)"
    assert utilisation != AmbientProfile(utilisation.timestamps,
                                         utilisation.values)
    swapped = CTX._replace(fixed=CTX.refrigeration,
                           refrigeration=CTX.fixed)
    assert swapped.total_fixed == CTX.total_refrigeration


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_peak_context_rejects_a_bad_compiled_coefficient(value):
    # The spec validators reject these values; bypass them to reach the
    # check that proves every hour nonnegative.
    chiller = cooling.ChillerSpec()
    object.__setattr__(chiller, "alpha", value)
    with pytest.raises(InvariantViolation):
        peak_context(SCENARIO._replace(chiller=chiller))


CHILLER = COMPONENT_NAMES.index("chiller")


def with_coefficient(side, value):
    """``side`` with its first coefficient, the farm's idle draw or the
    chiller's constant term, set to ``value``."""
    load = 0 if side == "fixed" else CHILLER
    pairs = list(getattr(CTX, side))
    pairs[load] = (value, *pairs[load][1:])
    return {side: tuple(pairs)}


COEFFICIENT_ERROR = "^compiled coefficients must be finite, >= 0$"
SHAPE_ERROR = (rf"^compiled model needs {len(COMPONENT_NAMES)} \(c0, c1, c2\) "
               "triples on each side$")
BAD_CONTEXTS = {
    "three-fixed-pairs": ({"fixed": CTX.fixed[:3]}, InvariantViolation,
                          SHAPE_ERROR),
    "no-pairs": ({"fixed": (), "refrigeration": ()}, InvariantViolation,
                 SHAPE_ERROR),
    "two-number-triple": ({"fixed": ((1.0, 2.0), *CTX.fixed[1:])},
                          InvariantViolation, SHAPE_ERROR),
    **{f"{side}-{value}": (with_coefficient(side, value), InvariantViolation,
                           COEFFICIENT_ERROR)
       for side in ("fixed", "refrigeration")
       for value in (math.nan, -1.0, math.inf)},
    # The default id would print all 401 digits.
    **{f"{side}-int-past-float-range": (
        with_coefficient(side, 10**400), InvariantViolation, COEFFICIENT_ERROR)
       for side in ("fixed", "refrigeration")},
    **{f"reference_eer-{value}": (
        {"reference_eer": value}, InvariantViolation,
        f"^reference_eer must be positive and finite, got {value!r}$")
       for value in (math.nan, 0.0, -1.0, math.inf)},
    "full-load-overflow": (
        {"refrigeration": tuple(
            (1e308, 1e308, 0.0) if load == CHILLER else pair
            for load, pair in enumerate(CTX.refrigeration))}, OutOfRange,
        f"^EER table: its smallest EER, {CTX.eer.ascending_eer[-1]!r}, "
        "makes the full-load total overflow$"),
}


@pytest.mark.parametrize("change, error, message", BAD_CONTEXTS.values(),
                         ids=BAD_CONTEXTS.keys())
def test_a_bad_context_raises_on_construction_and_on_replace(change, error,
                                                             message):
    fields = {name: getattr(CTX, name) for name in CTX._fields}
    with pytest.raises(error, match=message):
        engine.PeakContext(**{**fields, **change})
    with pytest.raises(error, match=message):
        CTX._replace(**change)


def test_cooling_follows_utilisation_over_a_week():
    us = [0.6 - 0.4 * math.cos(2 * math.pi * (h % 24) / 24)
          for h in range(168)]
    ts = [27.5 - 7.5 * math.cos(2 * math.pi * (h % 24) / 24)
          for h in range(168)]
    utilisation, ambient = profiles_from(us, ts)
    result = simulate(utilisation, ambient, SCENARIO)
    cooling = [sum(map(s.power.as_dict().get, ("chiller", "crah", "pumps")))
               for s in result.steps]
    busiest = max(range(168), key=lambda i: us[i])
    quietest = min(range(168), key=lambda i: us[i])
    assert cooling[busiest] == max(cooling)
    assert cooling[quietest] == min(cooling)


# --- summarize ---

def test_int_loads_sum_as_floats():
    # Two ints that each fit a float sum past the float range as ints.
    big = int(LARGEST)
    result = SimulationResult(
        timestamps=("2016-06-01T00:00",), utilisation=(0.5,),
        ambient_c=(30.0,), components=((big,), (big,), (1,)) + ((0,),) * 5)
    assert type(result.energy_wh["ups_loss"]) is float
    assert result.energy_wh["ups_loss"] == 1.0
    assert result.total_energy_wh == result.total_w[0] == math.inf


def test_two_component_split():
    result = SimulationResult(
        timestamps=("2016-06-01T00:00",), utilisation=(0.5,),
        ambient_c=(30.0,),
        components=((50.0,), (20.0,), (30.0,)) + ((0.0,),) * 5)
    summary = summarize_energy(result)
    assert summary.shares["server_farm"] == pytest.approx(0.5)
    assert summary.total_energy_wh == pytest.approx(100.0)


@pytest.mark.parametrize("watts", [0.0, 0.25])
def test_shares_of_a_run_of_at_most_one_watt_hour(watts):
    result = SimulationResult(
        timestamps=("2016-06-01T00:00",), utilisation=(0.5,),
        ambient_c=(30.0,), components=((watts,), (watts,)) + ((0.0,),) * 6)
    want = 0.5 if watts else 0.0   # no energy: every share is 0
    assert list(result.shares.values()) == [want, want] + [0.0] * 6


def test_constant_run_shares_equal_single_step_shares():
    utilisation, ambient = profiles_from([0.7] * 12, [25.0] * 12)
    result = simulate(utilisation, ambient, SCENARIO)
    single = step_power(0.7, 25.0, CTX)
    for name, watts in single.as_dict().items():
        assert result.shares[name] == pytest.approx(
            watts / single.total_w, rel=1e-9)


def test_summarize_rejects_empty():
    with pytest.raises(EmptyResult, match="^a simulation result needs at "
                       "least one hour$"):
        SimulationResult(timestamps=(), utilisation=(), ambient_c=(),
                         components=((),) * 8)


# --- overflow ---

@pytest.mark.parametrize("p_idle_w", [1e200, 0.0])
def test_overflowing_farm_peak_is_out_of_range(p_idle_w):
    # Building a scenario calibrates its supply, which squares the farm
    # peak; a _replace builds one too.
    server = server_farm.ServerSpec(count=1, p_idle_w=p_idle_w,
                                    p_peak_w=1e200)
    text = (f"server.count=1\nserver.p_idle_w={p_idle_w!r}\n"
            "server.p_peak_w=1e200\narchitecture=crah_chiller\n")
    for call in (lambda: SCENARIO._replace(server=server),
                 lambda: parse_scenario_config(text)):
        with pytest.raises(OutOfRange,
                           match="^farm peak 1e\\+200 W is too large$"):
            call()


# --- metamorphic properties, independent of both reference evaluations ---

def test_breakdown_fields_follow_the_component_order():
    breakdown = PowerBreakdown(tuple(map(float, range(len(COMPONENT_NAMES)))))
    assert tuple(breakdown.as_dict()) == COMPONENT_NAMES
    assert tuple(breakdown.as_dict().values()) == breakdown.components
    for n in (len(COMPONENT_NAMES) - 1, len(COMPONENT_NAMES) + 1):
        with pytest.raises(InvariantViolation, match=(
                f"^{len(COMPONENT_NAMES)} components, got {n}$")):
            PowerBreakdown((1.0,) * n)


PEAK_W = st.floats(1.0, 1000.0)
IDLE_SHARES = st.floats(0.0, 1.0)
SERVER_COUNTS = st.integers(1, 100_000)


@st.composite
def small_scenarios(draw):
    p_peak_w = draw(PEAK_W)
    p_idle_w = draw(IDLE_SHARES) * p_peak_w
    return default_scenario(draw(ARCHITECTURES),
                            count=draw(SERVER_COUNTS),
                            p_idle_w=p_idle_w, p_peak_w=p_peak_w)._replace(
        consolidation=draw(UNIT_INTERVAL))


hourly = st.lists(st.tuples(UNIT_INTERVAL, st.floats(-60.0, 60.0)),
                  min_size=1, max_size=24)


@settings(max_examples=200, deadline=None)
@given(scenario=small_scenarios(), k=st.integers(2, 1000), hours=hourly)
def test_scaling_the_server_count_scales_every_column(scenario, k, hours):
    server = scenario.server
    scaled = default_scenario(scenario.architecture, count=server.count * k,
                              p_idle_w=server.p_idle_w,
                              p_peak_w=server.p_peak_w)._replace(
        consolidation=scenario.consolidation)
    utilisation, ambient = profiles_from(*zip(*hours))
    one = simulate(utilisation, ambient, scenario)
    many = simulate(utilisation, ambient, scaled)
    for small, big in zip((*one.components, one.total_w),
                          (*many.components, many.total_w)):
        for x, y in zip(small, big):
            assert math.isclose(y, k * x, rel_tol=1e-12, abs_tol=0.0)


# EER used to dip one ulp just below this table's upper breakpoint.
ROUNDING_EER = cooling.EerTable(((4.662621963345, 0.777693613315),
                                 (-24.405436, 6.39064)))


@given(table=EER_TABLES)
@example(table=cooling.EerTable())
@example(table=ROUNDING_EER)
def test_eer_is_nonincreasing_across_every_breakpoint(table):
    for t, _ in table.breakpoints:
        below, at, above = (cooling.eer_lookup(x, table) for x in (
            math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)))
        assert below >= at >= above, t


@settings(max_examples=200, deadline=None)
@given(scenario=small_scenarios(), table=EER_TABLES, u=UNIT_INTERVAL,
       t=st.floats(-60.0, 60.0),
       us=st.lists(UNIT_INTERVAL, min_size=2, max_size=24),
       ts=st.lists(st.floats(-60.0, 60.0), min_size=2, max_size=24))
@example(scenario=default_scenario(CoolingArchitecture.CRAC),
         table=ROUNDING_EER, u=0.5, t=30.0, us=[0.0, 1.0],
         ts=[math.nextafter(4.662621963345, -math.inf), 4.662621963345])
def test_total_is_nondecreasing_in_utilisation_and_ambient(scenario, table,
                                                           u, t, us, ts):
    scenario = scenario._replace(eer=table)
    us, ts = sorted(us), sorted(ts)
    by_u = simulate(*profiles_from(us, [t] * len(us)), scenario).total_w
    by_t = simulate(*profiles_from([u] * len(ts), ts), scenario).total_w
    assert all(b >= a for a, b in zip(by_u, by_u[1:])), by_u
    assert all(b >= a for a, b in zip(by_t, by_t[1:])), by_t


@settings(max_examples=200, deadline=None)
@given(scenario=small_scenarios(), table=EER_TABLES, hours=hourly)
def test_architecture_leaves_it_and_supply_columns_bit_identical(
        scenario, table, hours):
    utilisation, ambient = profiles_from(*zip(*hours))
    runs = [simulate(utilisation, ambient,
                     scenario._replace(architecture=architecture, eer=table))
            for architecture in CoolingArchitecture]
    for run in runs[1:]:
        for name in ("server_farm", "pdu_loss", "ups_loss"):
            column = COMPONENT_NAMES.index(name)
            assert [x.hex() for x in run.components[column]] == \
                [x.hex() for x in runs[0].components[column]], name


# --- extreme EER tables ---

TINY_EER = cooling.EerTable(((41.0, 1e-310), (0.0, 5.0)))


def test_tiny_eer_is_out_of_range():
    scenario = SCENARIO._replace(eer=TINY_EER)
    with pytest.raises(OutOfRange, match="smallest EER"):
        peak_context(scenario)


def test_full_load_total_that_only_overflows_as_a_sum_is_out_of_range():
    # At the largest adjustment each of c0, c1, c2 is finite, and their sum
    # passes LARGEST by less than twice the smallest: the bound must add
    # all three.
    r = CTX.total_refrigeration
    table = cooling.EerTable(((41.0, 3.52 * sum(r) / LARGEST / 1.05),
                              (30.0, 3.52), (0.0, 5.82)))
    a = cooling.eer_lookup(30.0, table) / table.ascending_eer[-1]
    c = [f + a * ri for f, ri in zip(CTX.total_fixed, r)]
    half_sum = sum(x / 2.0 for x in c)
    assert max(c) <= LARGEST
    assert half_sum - min(c) < LARGEST / 2.0 < half_sum
    with pytest.raises(OutOfRange, match="smallest EER"):
        peak_context(SCENARIO._replace(eer=table))


def test_overflowing_energy_total_is_out_of_range():
    # About 1e307 W at full load and 41 C: finite per hour, not summed.
    scenario = SCENARIO._replace(eer=cooling.EerTable(
        ((41.0, 1e-300), (0.0, 5.0))))
    ctx = peak_context(scenario)
    a = ctx.reference_eer / cooling.eer_lookup(41.0, ctx.eer)
    (f0, f1, f2), (r0, r1, r2) = ctx.total_fixed, ctx.total_refrigeration
    assert math.isfinite(sum((f0 + a * r0, f1 + a * r1, f2 + a * r2)))
    with pytest.raises(OutOfRange, match="overflows"):
        simulate(*profiles_from([1.0] * 40, [41.0] * 40), scenario)


def finite_outputs(scenario, u, t, hours, target):
    """One call per public entry point, each giving every number it returns."""
    def run():
        result = simulate(*profiles_from(*zip(*hours)), scenario)
        return (*sum(result.components, ()), *result.total_w,
                *result.shares.values(), result.total_energy_wh)

    def compared():
        c = compare_architectures(*profiles_from(*zip(*hours)), scenario)
        return (*c.baseline_cooling_w, *c.alternative_cooling_w,
                c.baseline_cooling_energy_wh, c.alternative_cooling_energy_wh,
                c.relative_increase)

    def solved():
        solution = curtail(target, t, scenario, peak_context(scenario))
        return solution.required_utilisation, solution.achieved_total_w

    def stepped():
        breakdown = step_power(u, t, peak_context(scenario))
        return *breakdown.components, breakdown.total_w

    return (run, compared, solved, stepped,
            lambda: sum(power_curve([t], scenario, 3)[0].points, ()),
            lambda: tuple(peak_breakdown(scenario).values()))


@settings(max_examples=200, deadline=None)
@given(scenario=small_scenarios(),
       table=eer_tables(eers=st.floats(5e-324, allow_infinity=False)),
       hours=hourly, target=st.floats(1.0, 1e308))
@example(scenario=SCENARIO, table=TINY_EER, hours=[(0.5, 41.0)],
         target=1e7)
def test_extreme_eer_tables_give_finite_numbers_or_simulation_errors(
        scenario, table, hours, target):
    scenario = scenario._replace(eer=table)
    u, t = hours[0]
    for call in finite_outputs(scenario, u, t, hours, target):
        try:
            values = call()
        except SimulationError:
            continue
        assert all(map(math.isfinite, values)), (call, values)
