"""Scenario config parsing tests."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpowersim import config, cooling, server_farm
from dcpowersim.config import (CoolingArchitecture, default_scenario,
                               parse_scenario_config)
from dcpowersim.engine import peak_context, step_power
from dcpowersim.errors import (InvalidFractions, InvariantViolation,
                               MalformedRow, MissingRequired,
                               SimulationError, UnknownKey)
from dcpowersim.power_chain import SupplyTargets
from strategies import FLOAT_KEYS

MINIMAL = """\
server.count=40000
server.p_idle_w=120
server.p_peak_w=250
architecture=crah_chiller
"""


def test_minimal_config_defaults():
    scenario = parse_scenario_config(MINIMAL)
    assert scenario.server.farm_peak_w == 10e6
    assert scenario.architecture is CoolingArchitecture.CRAH_CHILLER
    assert scenario.consolidation == 1.0
    assert scenario.pump_fraction == 0.04
    assert scenario.misc_fraction == 0.06
    assert scenario.reference_ambient_c == 30.0
    assert scenario.chiller.alpha == 0.32
    assert scenario.crah.unit_airflow_cmh == 14000.0
    assert scenario.eer.breakpoints[0] == (41.0, 2.66)


def test_minimal_config_matches_programmatic_default():
    assert parse_scenario_config(MINIMAL) == default_scenario()


def test_supply_calibration_applied():
    scenario = parse_scenario_config(MINIMAL)
    assert scenario.supply.pdu_idle_total_w == pytest.approx(150e3)
    assert scenario.supply.lambda_pdu_per_w == pytest.approx(4.5e-7,
                                                             rel=1e-9)
    assert scenario.supply.lambda_ups == pytest.approx(600e3 / 10.6e6,
                                                       rel=1e-9)


SMALL = """\
server.count=500
server.p_idle_w=120
server.p_peak_w=250
architecture=crah_chiller
supply.pdu_idle_total_frac=0.02
supply.peak_loss_frac=0.12
"""


def compiled_bits(scenario):
    """Every number peak_context compiles, as float.hex."""
    ctx = peak_context(scenario)
    numbers = (ctx.reference_eer,
               *sum(ctx.fixed + ctx.refrigeration, ()), *ctx.total_fixed,
               *ctx.total_refrigeration)
    return [float(x).hex() for x in numbers]


def test_replace_of_the_server_calibrates_the_supply_again():
    scenario = parse_scenario_config(SMALL)
    tripled = parse_scenario_config(SMALL.replace("count=500", "count=1500"))
    replaced = scenario._replace(server=scenario.server._replace(count=1500))
    assert replaced == tripled and replaced.supply == tripled.supply
    assert compiled_bits(replaced) == compiled_bits(tripled)
    # The coefficients are derived, so they cannot be passed.
    with pytest.raises(TypeError, match="supply"):
        scenario._replace(supply=tripled.supply)


NUMERIC_KEYS = sorted(config._KEYS.keys() - {"architecture", "eer.table"})
SERVER_KEYS = ("server.count", "server.p_idle_w", "server.p_peak_w")
# Values that every scenario accepts, together; other keys take (0.01, 10).
ACCEPTED = {
    "server.count": st.integers(1, 10**6),
    "server.p_idle_w": st.floats(0.0, 100.0),
    "server.p_peak_w": st.floats(100.0, 1000.0),
    "supply.pdu_count": st.integers(1, 1000),
    "supply.pdu_idle_total_frac": st.floats(0.0, 0.05),
    "supply.ups_idle_frac": st.floats(0.0, 0.05),
    "supply.peak_loss_frac": st.floats(0.1, 0.9),
    "pump_fraction": st.floats(0.0, 0.45),
    "misc_fraction": st.floats(0.0, 0.45),
    "consolidation": st.floats(0.0, 1.0),
    "crah.eta_heat": st.floats(0.01, 1.0),
    "reference_ambient_c": st.floats(-50.0, 50.0),
}


def accepted(key):
    return ACCEPTED.get(key, st.floats(0.01, 10.0))


def edited(key):
    """An accepted value, or one of the key's type that may be rejected."""
    return accepted(key) | (st.integers(-2, 10**7) if key in config._INT_KEYS
                            else st.floats(-1.0, 1e4))


CONFIG_VALUES = st.fixed_dictionaries(
    {key: accepted(key) for key in SERVER_KEYS}
    | {"architecture": st.sampled_from([a.value for a
                                        in CoolingArchitecture])},
    optional={key: accepted(key) for key in NUMERIC_KEYS
              if key not in SERVER_KEYS})


def config_text(values):
    return "".join(f"{key}={value}\n" for key, value in values.items())


def replaced(scenario, key, value):
    """``scenario`` with config key ``key`` set to ``value`` by _replace.
    A spec record's error names the field by its key, as a parsed config's
    does; the supply targets are checked under their own names."""
    record, _, field = key.rpartition(".")
    if not record:   # a top-level float
        return scenario._replace(**{key: value})
    if record == "supply":
        return scenario._replace(supply_targets=scenario.supply_targets
                                 ._replace(**{field: value}))
    try:
        spec = getattr(scenario, record)._replace(**{field: value})
    except InvariantViolation as error:
        raise type(error)(f"{record}.{error}") from None
    return scenario._replace(**{record: spec})


@settings(deadline=None)
@given(values=CONFIG_VALUES,
       edits=st.fixed_dictionaries({key: edited(key)
                                    for key in NUMERIC_KEYS}))
def test_replace_of_any_numeric_key_equals_the_reparsed_config(values,
                                                               edits):
    scenario = parse_scenario_config(config_text(values))
    for key, value in edits.items():
        outcomes = []
        for build in (
                lambda: parse_scenario_config(
                    config_text({**values, key: value})),
                lambda: replaced(scenario, key, value)):
            try:
                built = build()
                outcomes.append((built, compiled_bits(built)))
            except SimulationError as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1], (key, value)


def test_crac_architecture_defaults_cop():
    scenario = parse_scenario_config(MINIMAL.replace(
        "architecture=crah_chiller", "architecture=crac"))
    assert scenario.architecture is CoolingArchitecture.CRAC
    assert scenario.crac.cop == 6.0
    assert scenario.crac.idle_frac == 0.25


def test_fraction_invariant():
    with pytest.raises(InvariantViolation):
        parse_scenario_config(MINIMAL + "pump_fraction=0.5\n"
                                        "misc_fraction=0.6\n")


@pytest.mark.parametrize("lines, error", [
    ("pump_fraction=0\nmisc_fraction=0\nconsolidation=0\n", None),
    ("pump_fraction=0.5\nmisc_fraction=0.5\n", InvalidFractions),
    ("consolidation=1.5\n", InvariantViolation),
])
def test_scenario_bounds_are_exact(lines, error):
    if error is None:
        parse_scenario_config(MINIMAL + lines)
    else:
        with pytest.raises(error):
            parse_scenario_config(MINIMAL + lines)


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey):
        parse_scenario_config(MINIMAL + "server.p_standby_w=5\n")


def test_duplicate_key_rejected():
    with pytest.raises(MalformedRow):
        parse_scenario_config(MINIMAL + "server.count=2\n")


def test_missing_required():
    with pytest.raises(MissingRequired):
        parse_scenario_config("server.count=40000\narchitecture=crac\n")


def test_missing_architecture():
    with pytest.raises(MissingRequired):
        parse_scenario_config("server.count=1\nserver.p_idle_w=1\n"
                              "server.p_peak_w=2\n")


def test_bad_architecture_value():
    with pytest.raises(MalformedRow):
        parse_scenario_config(MINIMAL.replace("crah_chiller", "chilled"))


def test_bad_number_names_line():
    with pytest.raises(MalformedRow) as excinfo:
        parse_scenario_config(MINIMAL.replace("=120", "=lots"))
    assert "line 2" in str(excinfo.value)


def test_line_without_equals():
    with pytest.raises(MalformedRow):
        parse_scenario_config(MINIMAL + "crac\n")


def test_order_independence():
    shuffled = "\n".join(reversed(MINIMAL.strip().split("\n")))
    assert parse_scenario_config(shuffled) == parse_scenario_config(MINIMAL)


def test_comments_and_blank_lines_ignored():
    text = "# reference scenario\n\n" + MINIMAL + "\n# end\n"
    assert parse_scenario_config(text) == parse_scenario_config(MINIMAL)


def test_deterministic():
    assert parse_scenario_config(MINIMAL) == parse_scenario_config(MINIMAL)


def test_custom_eer_table():
    scenario = parse_scenario_config(
        MINIMAL + "eer.table=40:2.5;20:4.0;0:6.0\n")
    assert scenario.eer.breakpoints == ((40.0, 2.5), (20.0, 4.0), (0.0, 6.0))


def test_custom_eer_table_sorted_descending():
    scenario = parse_scenario_config(
        MINIMAL + "eer.table=0:6.0;40:2.5;20:4.0\n")
    assert scenario.eer.breakpoints == ((40.0, 2.5), (20.0, 4.0), (0.0, 6.0))


def test_empty_eer_table_entry_is_skipped():
    assert (parse_scenario_config(MINIMAL + "eer.table=41:2.66;;0:5.82\n")
            == parse_scenario_config(MINIMAL + "eer.table=41:2.66;0:5.82\n"))


def test_blank_eer_table_entry_is_skipped():
    assert (parse_scenario_config(MINIMAL + "eer.table=41:2.66; \t ;0:5.82\n")
            == parse_scenario_config(MINIMAL + "eer.table=41:2.66;0:5.82\n"))


def test_bad_eer_pair():
    with pytest.raises(MalformedRow):
        parse_scenario_config(MINIMAL + "eer.table=40=2.5\n")


def test_overrides_take_effect():
    scenario = parse_scenario_config(MINIMAL + "crac.cop=3\n"
                                               "consolidation=0.5\n"
                                               "reference_ambient_c=25\n")
    assert scenario.crac.cop == 3.0
    assert scenario.consolidation == 0.5
    assert scenario.reference_ambient_c == 25.0


# --- non-finite values ---

def with_value(key, raw):
    lines = [line for line in MINIMAL.splitlines()
             if not line.startswith(f"{key}=")]
    return "\n".join([*lines, f"{key}={raw}"]) + "\n"


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(FLOAT_KEYS),
       value=st.floats(allow_nan=True, allow_infinity=True),
       spelling=st.sampled_from([repr, lambda x: repr(x).upper(),
                                 lambda x: f" +{x!r} ".replace("+-", "-")]))
def test_every_numeric_key_rejects_non_finite(key, value, spelling):
    text = with_value(key, spelling(value))
    if not math.isfinite(value):
        with pytest.raises(MalformedRow, match="not finite"):
            parse_scenario_config(text)
        return
    # A finite value either fails as a data error or yields finite power.
    try:
        scenario = parse_scenario_config(text)
        ctx = peak_context(scenario)
        breakdown = step_power(1.0, scenario.reference_ambient_c, ctx)
    except SimulationError:
        return
    assert math.isfinite(breakdown.total_w)


@pytest.mark.parametrize("key", ["server.count", "supply.pdu_count"])
def test_int_key_past_the_float_range_is_not_finite(key):
    with pytest.raises(MalformedRow, match="not finite"):
        parse_scenario_config(with_value(key, "1" + "0" * 400))


@pytest.mark.parametrize("raw", ["1.7976931348623157e308",
                                 "-1.7976931348623157e308"])
def test_the_largest_float_is_a_finite_config_value(raw):
    scenario = parse_scenario_config(with_value("reference_ambient_c", raw))
    assert scenario.reference_ambient_c == float(raw)


@pytest.mark.parametrize("table", ["30:nan", "nan:3.5", "inf:3;20:4",
                                   "30:3.5;20:inf"])
def test_eer_table_rejects_non_finite(table):
    with pytest.raises(MalformedRow, match="not finite"):
        parse_scenario_config(MINIMAL + f"eer.table={table}\n")


@pytest.mark.parametrize("table, message", [
    ("", "at least one breakpoint"),
    ("30:3.5;30:4", "strictly descending ambient order"),
    ("40:6;0:2.5", "nonincreasing in ambient temperature")])
def test_eer_table_error_names_its_line(table, message):
    with pytest.raises(InvariantViolation) as raised:
        parse_scenario_config(MINIMAL + f"eer.table={table}\n")
    assert type(raised.value) is InvariantViolation
    assert re.fullmatch(rf"line 5: eer\.table: .*{message}"
                        r"(, got \(.+\) then \(.+\))?", str(raised.value))


@pytest.mark.parametrize("key, raw, message", [
    pytest.param("crah.idle_frac", "-1",
                 "crah.idle_frac must be finite and nonnegative, got -1.0",
                 id="crah.idle_frac"),
    pytest.param("crac.idle_frac", "-1",
                 "crac.idle_frac must be finite and nonnegative, got -1.0",
                 id="crac.idle_frac"),
    pytest.param("server.p_idle_w", "300",
                 "server.p_idle_w must be <= p_peak_w, got 300.0 > 250.0",
                 id="server.p_idle_w-above-p_peak_w")])
def test_a_spec_error_names_the_key_as_configured(key, raw, message):
    # The same field of two records, or a relation of two fields, is told
    # apart by the key's prefix; a record built in Python names the field.
    with pytest.raises(InvariantViolation,
                       match=f"^{re.escape(message)}$"):
        parse_scenario_config(with_value(key, raw))


@pytest.mark.parametrize("text", [
    pytest.param("crac.cop=-1\n" + with_value("server.p_idle_w", "-1"),
                 id="server.p_idle_w-before-crac.cop")])
def test_the_first_record_in_build_order_names_the_error(text):
    # The server is built before any cooling spec, whatever the line order.
    with pytest.raises(InvariantViolation, match=r"^server\.p_idle_w must be "
                       r"finite and nonnegative, got -1\.0$"):
        parse_scenario_config(text)


@pytest.mark.parametrize("key, raw, kind", [
    ("server.count", "1e3", "an integer"),
    ("server.count", "1.5", "an integer"),
    ("supply.pdu_count", "1e3", "an integer"),
    ("supply.pdu_count", "ten", "an integer"),
    ("server.p_peak_w", "ten", "a number")])
def test_a_value_that_does_not_parse_names_the_kind_it_needs(key, raw, kind):
    with pytest.raises(MalformedRow,
                       match=rf"value for '{key}' is not {kind}: '{raw}'"):
        parse_scenario_config(with_value(key, raw))


def test_one_leading_byte_order_mark_is_ignored():
    for text in (MINIMAL, "# scenario\n" + MINIMAL,
                 MINIMAL.replace("\n", "\r\n")):
        assert (parse_scenario_config("\ufeff" + text)
                == parse_scenario_config(text))
    with pytest.raises(UnknownKey, match="line 1"):   # one mark, not two
        parse_scenario_config("\ufeff\ufeff" + MINIMAL)


SUPPLY = default_scenario().supply


def targeted(**targets):
    """The default scenario with some supply targets set."""
    return default_scenario()._replace(supply_targets=SupplyTargets(**targets))


SPEC_FIELDS = {
    "chiller.alpha": lambda v: cooling.ChillerSpec(alpha=v),
    "chiller.beta": lambda v: cooling.ChillerSpec(beta=v),
    "chiller.gamma": lambda v: cooling.ChillerSpec(gamma=v),
    "chiller.sizing_factor": lambda v: cooling.ChillerSpec(sizing_factor=v),
    "crah.idle_frac": lambda v: cooling.CrahSpec(idle_frac=v),
    "crah.eta_heat": lambda v: cooling.CrahSpec(eta_heat=v),
    "crah.unit_capacity_kw": lambda v: cooling.CrahSpec(unit_capacity_kw=v),
    "crah.unit_airflow_cmh": lambda v: cooling.CrahSpec(unit_airflow_cmh=v),
    "crac.idle_frac": lambda v: cooling.CracSpec(idle_frac=v),
    "crac.cop": lambda v: cooling.CracSpec(cop=v),
    "eer.ambient": lambda v: cooling.EerTable(((v, 3.0),)),
    "eer.eer": lambda v: cooling.EerTable(((30.0, v),)),
    "server.count": lambda v: server_farm.ServerSpec(v, 1.0, 2.0),
    "server.p_idle_w": lambda v: server_farm.ServerSpec(1, v, 2.0),
    "server.p_peak_w": lambda v: server_farm.ServerSpec(1, 1.0, v),
    "supply.pdu_count": lambda v: SUPPLY._replace(pdu_count=v),
    "supply.pdu_idle_total_w": lambda v: SUPPLY._replace(pdu_idle_total_w=v),
    "supply.ups_idle_w": lambda v: SUPPLY._replace(ups_idle_w=v),
    "supply.lambda_pdu_per_w": lambda v: SUPPLY._replace(lambda_pdu_per_w=v),
    "supply.lambda_ups": lambda v: SUPPLY._replace(lambda_ups=v),
    "supply_targets.pdu_count": lambda v: targeted(pdu_count=v),
    "supply_targets.pdu_idle_total_frac":
        lambda v: targeted(pdu_idle_total_frac=v),
    "supply_targets.ups_idle_frac": lambda v: targeted(ups_idle_frac=v),
    "supply_targets.peak_loss_frac": lambda v: targeted(peak_loss_frac=v),
    "pump_fraction": lambda v: default_scenario()._replace(pump_fraction=v),
    "misc_fraction": lambda v: default_scenario()._replace(misc_fraction=v),
    "consolidation": lambda v: default_scenario()._replace(consolidation=v),
    "reference_ambient_c":
        lambda v: default_scenario()._replace(reference_ambient_c=v),
}


@pytest.mark.parametrize("field", sorted(SPEC_FIELDS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_specs_reject_non_finite(field, value):
    with pytest.raises(SimulationError):
        SPEC_FIELDS[field](value)


@pytest.mark.parametrize("architecture", ["crac", None, 1])
def test_architecture_must_be_a_cooling_architecture(architecture):
    with pytest.raises(InvariantViolation, match=re.escape(
            f"architecture must be a CoolingArchitecture, got "
            f"{architecture!r}")):
        default_scenario().with_architecture(architecture)


def test_readme_config_block_parses_to_the_default_scenario():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"has defaults:\n\n```\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    assert parse_scenario_config(block.group(1)) == default_scenario()


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", readme,
                      re.DOTALL)
    assert block is not None
    namespace = {}
    exec(block.group(1), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 2
    stated = re.search(r"design peak ([0-9.]+) MW", block.group(1))
    assert round(namespace["design"].total_w / 1e6, 2) == \
        float(stated.group(1)) == 23.98
