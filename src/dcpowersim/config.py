"""Scenario configuration: flat key=value parsing and defaults.

A scenario is described by a small, diff-friendly text format with dotted
namespaces, e.g.::

    server.count=40000
    server.p_idle_w=120
    server.p_peak_w=250
    architecture=crah_chiller
    consolidation=1.0

One table, ``_KEYS``, maps each key to the one record field it sets
(``chiller.alpha`` is the ``alpha`` of ``ChillerSpec``), and the parser
files each value straight into that record's arguments.  Server sizing
and the architecture are mandatory; every other key falls back to its
field's default.  The ``supply.*`` keys set ``power_chain.SupplyTargets``,
from which ``ScenarioConfig`` solves the supply-loss coefficients.

``COMPONENTS`` is the component table: each load's name, group and the
cooling architectures that include it.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from . import cooling, power_chain, server_farm
from .errors import (FINITE, LARGEST, NONNEGATIVE, UNIT, InvalidFractions,
                     InvariantViolation, MalformedRow, MissingRequired,
                     OutOfRange, UnknownKey, _Record, check)


class CoolingArchitecture(enum.Enum):
    CRAH_CHILLER = "crah_chiller"
    CRAC = "crac"
    FREE_AIR = "free_air"


class Component(NamedTuple):
    name: str
    group: str                  # "it", "supply", "cooling" or "overhead"
    architectures: frozenset    # the CoolingArchitectures that include it


_EVERY = frozenset(CoolingArchitecture)
_CHILLED = frozenset({CoolingArchitecture.CRAH_CHILLER})

# The eight loads, in the column order of every result.
COMPONENTS = (
    Component("server_farm", "it", _EVERY),
    Component("pdu_loss", "supply", _EVERY),
    Component("ups_loss", "supply", _EVERY),
    Component("chiller", "cooling", _CHILLED),
    Component("crah", "cooling", _CHILLED | {CoolingArchitecture.FREE_AIR}),
    Component("crac", "cooling", frozenset({CoolingArchitecture.CRAC})),
    Component("pumps", "cooling", _CHILLED),
    Component("misc", "overhead", _EVERY),
)


class ScenarioConfig(_Record):
    """Full description of one data centre.

    All three cooling specs are always populated (from defaults when not
    configured) so analyses can switch architectures on the same scenario;
    the engine only consults the specs the architecture calls for.  The
    default specs are shared instances, which is safe because records are
    immutable.

    ``supply``, the loss coefficients, is solved from ``supply_targets``
    for the farm peak on construction, so ``_replace`` calibrates again.
    """

    def __init__(self, server: server_farm.ServerSpec,
                 architecture: CoolingArchitecture,
                 supply_targets: power_chain.SupplyTargets = (
                     power_chain.SupplyTargets()),
                 chiller: cooling.ChillerSpec = cooling.ChillerSpec(),
                 crah: cooling.CrahSpec = cooling.CrahSpec(),
                 crac: cooling.CracSpec = cooling.CracSpec(),
                 eer: cooling.EerTable = cooling.EerTable(),
                 pump_fraction: float = 0.04, misc_fraction: float = 0.06,
                 reference_ambient_c: float = 30.0,
                 consolidation: float = 1.0) -> None:
        supply = power_chain.calibrate_supply(server.farm_peak_w,
                                              supply_targets)
        if not isinstance(architecture, CoolingArchitecture):
            raise InvariantViolation(
                "architecture must be a CoolingArchitecture, got "
                f"{architecture!r}")
        check(InvariantViolation, pump_fraction=(pump_fraction, NONNEGATIVE),
              misc_fraction=(misc_fraction, NONNEGATIVE))
        if pump_fraction + misc_fraction >= 1.0:
            raise InvalidFractions(
                "pump_fraction + misc_fraction must be < 1, got "
                f"{pump_fraction} + {misc_fraction}"
            )
        check(OutOfRange, consolidation=(consolidation, UNIT),
              reference_ambient_c=(reference_ambient_c, FINITE))
        self._set(server=server, architecture=architecture,
                  supply_targets=supply_targets, supply=supply,
                  chiller=chiller, crah=crah, crac=crac, eer=eer,
                  pump_fraction=pump_fraction, misc_fraction=misc_fraction,
                  reference_ambient_c=reference_ambient_c,
                  consolidation=consolidation)

    def with_architecture(self, architecture: CoolingArchitecture
                          ) -> "ScenarioConfig":
        return self._replace(architecture=architecture)


# The records a config builds, by the prefix of their keys, in build order.
_RECORDS = {"server": server_farm.ServerSpec, "chiller": cooling.ChillerSpec,
            "crah": cooling.CrahSpec, "crac": cooling.CracSpec,
            "supply": power_chain.SupplyTargets}
# Config key -> (prefix, field); the scenario's own arguments have the
# prefix "scenario".  Only the keys present are passed, so every default
# lives in the record whose field the key names.
_KEYS = {**{f"{prefix}.{name}": (prefix, name)
            for prefix, record in _RECORDS.items() for name in record._fields},
         **{key: ("scenario", key) for key in (
             "architecture", "pump_fraction", "misc_fraction",
             "reference_ambient_c", "consolidation")},
         "eer.table": ("scenario", "eer")}

_INT_KEYS = frozenset({"server.count", "supply.pdu_count"})
_REQUIRED_KEYS = ("server.count", "server.p_idle_w", "server.p_peak_w",
                  "architecture")


def _parse_number(key: str, raw: str, line_no: int) -> float | int:
    try:
        value = int(raw) if key in _INT_KEYS else float(raw)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise MalformedRow(
            f"line {line_no}: value for {key!r} is not {kind}: {raw!r}"
        ) from None
    if not -LARGEST <= value <= LARGEST:
        raise MalformedRow(
            f"line {line_no}: value for {key!r} is not finite: {raw!r}")
    return value


def _parse_eer_table(raw: str, line_no: int) -> cooling.EerTable:
    breakpoints = []
    for pair in raw.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        try:
            t_text, eer_text = pair.split(":")
            point = (float(t_text), float(eer_text))
        except ValueError:
            raise MalformedRow(
                f"line {line_no}: eer.table entry {pair!r} is not 'T:EER'"
            ) from None
        if not all(map(math.isfinite, point)):
            raise MalformedRow(
                f"line {line_no}: eer.table entry {pair!r} is not finite")
        breakpoints.append(point)
    breakpoints.sort(key=lambda point: -point[0])
    try:
        return cooling.EerTable(breakpoints=tuple(breakpoints))
    except InvariantViolation as exc:
        raise InvariantViolation(f"line {line_no}: eer.table: {exc}") from None


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Parse a key=value scenario description into a validated config."""
    given = {prefix: {} for prefix in (*_RECORDS, "scenario")}
    # One leading byte-order mark, as Notepad writes.
    text = text.removeprefix("\ufeff")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise MalformedRow(f"line {line_no}: expected key=value, "
                               f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise UnknownKey(f"line {line_no}: unknown config key {key!r}")
        prefix, name = _KEYS[key]
        if name in given[prefix]:
            raise MalformedRow(f"line {line_no}: duplicate key {key!r}")
        if key == "architecture":
            try:
                given[prefix][name] = CoolingArchitecture(raw)
            except ValueError:
                names = ", ".join(a.value for a in CoolingArchitecture)
                raise MalformedRow(
                    f"line {line_no}: architecture must be one of {names}, "
                    f"got {raw!r}") from None
        elif key == "eer.table":
            given[prefix][name] = _parse_eer_table(raw, line_no)
        else:
            given[prefix][name] = _parse_number(key, raw, line_no)

    for key in _REQUIRED_KEYS:
        prefix, name = _KEYS[key]
        if name not in given[prefix]:
            raise MissingRequired(f"missing required config key {key!r}")

    records = {}
    for prefix, record in _RECORDS.items():
        try:
            records[prefix] = record(**given[prefix])
        except InvariantViolation as exc:   # name the field as its key
            raise type(exc)(f"{prefix}.{exc}") from None
    return ScenarioConfig(supply_targets=records.pop("supply"), **records,
                          **given["scenario"])


def default_scenario(
    architecture: CoolingArchitecture = CoolingArchitecture.CRAH_CHILLER,
    count: int = 40000,
    p_idle_w: float = 120.0,
    p_peak_w: float = 250.0,
) -> ScenarioConfig:
    """Reference scenario: a 40,000-server, 10 MW farm with defaults."""
    return ScenarioConfig(
        server=server_farm.ServerSpec(count=count, p_idle_w=p_idle_w,
                                      p_peak_w=p_peak_w),
        architecture=architecture,
    )
