"""Scenario configuration: flat key=value parsing and defaults.

A scenario is described by a small, diff-friendly text format with dotted
namespaces, e.g.::

    server.count=40000
    server.p_idle_w=120
    server.p_peak_w=250
    architecture=crah_chiller
    consolidation=1.0

Server sizing and the architecture are mandatory; everything else falls
back to documented defaults.  Supply-loss coefficients are not configured
directly: the config carries the calibration targets (idle fractions and
the peak loss fraction) and the concrete coefficients are solved when the
scenario is built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from . import cooling, power_chain, server_farm
from .errors import (InvalidFractions, InvariantViolation, MalformedRow,
                     MissingRequired, OutOfRange, UnknownKey)


class CoolingArchitecture(enum.Enum):
    CRAH_CHILLER = "crah_chiller"
    CRAC = "crac"
    FREE_AIR = "free_air"


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one data centre.

    All three cooling specs are always populated (from defaults when not
    configured) so analyses can switch architectures on the same scenario;
    the engine only consults the specs the architecture calls for.
    """

    server: server_farm.ServerSpec
    supply: power_chain.SupplyChainSpec
    architecture: CoolingArchitecture
    chiller: cooling.ChillerSpec = field(default_factory=cooling.ChillerSpec)
    crah: cooling.CrahSpec = field(default_factory=cooling.CrahSpec)
    crac: cooling.CracSpec = field(default_factory=cooling.CracSpec)
    eer: cooling.EerTable = field(default_factory=cooling.EerTable)
    pump_fraction: float = 0.04
    misc_fraction: float = 0.06
    reference_ambient_c: float = 30.0
    consolidation: float = 1.0

    def __post_init__(self) -> None:
        if not (self.pump_fraction >= 0.0 and self.misc_fraction >= 0.0):
            raise InvariantViolation("pump and misc fractions must be >= 0")
        if self.pump_fraction + self.misc_fraction >= 1.0:
            raise InvalidFractions(
                "pump_fraction + misc_fraction must be < 1, got "
                f"{self.pump_fraction} + {self.misc_fraction}"
            )
        if not 0.0 <= self.consolidation <= 1.0:
            raise OutOfRange("consolidation must lie in [0, 1]")
        if not math.isfinite(self.reference_ambient_c):
            raise OutOfRange("reference_ambient_c must be finite")

    def with_architecture(self, architecture: CoolingArchitecture
                          ) -> "ScenarioConfig":
        return replace(self, architecture=architecture)


# Calibration targets for the supply chain; consumed at scenario build time.
_SUPPLY_DEFAULTS = {
    "supply.pdu_count": 100,
    "supply.pdu_idle_total_frac": 0.015,
    "supply.ups_idle_frac": 0.03,
    "supply.peak_loss_frac": 0.15,
}

_FLOAT_DEFAULTS = {
    "consolidation": 1.0,
    "chiller.alpha": 0.32,
    "chiller.beta": 0.11,
    "chiller.gamma": 0.63,
    "chiller.sizing_factor": 0.7,
    "crah.idle_frac": 0.08,
    "crah.eta_heat": 1.0,
    "crah.unit_capacity_kw": 7.5,
    "crah.unit_airflow_cmh": 14000.0,
    "crac.idle_frac": 0.25,
    "crac.cop": 6.0,
    "pump_fraction": 0.04,
    "misc_fraction": 0.06,
    "reference_ambient_c": 30.0,
}

_INT_KEYS = frozenset({"server.count", "supply.pdu_count"})
_REQUIRED_KEYS = ("server.count", "server.p_idle_w", "server.p_peak_w",
                  "architecture")
_KNOWN_KEYS = (frozenset(_SUPPLY_DEFAULTS) | frozenset(_FLOAT_DEFAULTS)
               | frozenset(_REQUIRED_KEYS)
               | frozenset({"server.p_idle_w", "server.p_peak_w",
                            "eer.table"}))


def _parse_number(key: str, raw: str, line_no: int) -> float | int:
    try:
        value = int(raw) if key in _INT_KEYS else float(raw)
    except ValueError:
        raise MalformedRow(
            f"line {line_no}: value for {key!r} is not a number: {raw!r}"
        ) from None
    if not math.isfinite(value):
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
    return cooling.EerTable(breakpoints=tuple(breakpoints))


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Parse a key=value scenario description into a validated config."""
    values: dict[str, object] = {}
    eer_table = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise MalformedRow(f"line {line_no}: expected key=value, "
                               f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise UnknownKey(f"line {line_no}: unknown config key {key!r}")
        if key in values or (key == "eer.table" and eer_table is not None):
            raise MalformedRow(f"line {line_no}: duplicate key {key!r}")
        if key == "architecture":
            try:
                values[key] = CoolingArchitecture(raw)
            except ValueError:
                names = ", ".join(a.value for a in CoolingArchitecture)
                raise MalformedRow(
                    f"line {line_no}: architecture must be one of {names}, "
                    f"got {raw!r}") from None
        elif key == "eer.table":
            eer_table = _parse_eer_table(raw, line_no)
        else:
            values[key] = _parse_number(key, raw, line_no)

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise MissingRequired(f"missing required config key {key!r}")

    def get(key: str) -> object:
        if key in values:
            return values[key]
        return _SUPPLY_DEFAULTS.get(key, _FLOAT_DEFAULTS.get(key))

    server = server_farm.ServerSpec(
        count=int(values["server.count"]),
        p_idle_w=float(values["server.p_idle_w"]),
        p_peak_w=float(values["server.p_peak_w"]),
    )
    supply = power_chain.calibrate_supply(
        farm_peak_w=server.farm_peak_w,
        pdu_count=int(get("supply.pdu_count")),
        pdu_idle_frac=float(get("supply.pdu_idle_total_frac")),
        ups_idle_frac=float(get("supply.ups_idle_frac")),
        peak_loss_frac=float(get("supply.peak_loss_frac")),
    )
    return ScenarioConfig(
        server=server,
        supply=supply,
        architecture=values["architecture"],
        chiller=cooling.ChillerSpec(
            alpha=float(get("chiller.alpha")),
            beta=float(get("chiller.beta")),
            gamma=float(get("chiller.gamma")),
            sizing_factor=float(get("chiller.sizing_factor")),
        ),
        crah=cooling.CrahSpec(
            idle_frac=float(get("crah.idle_frac")),
            eta_heat=float(get("crah.eta_heat")),
            unit_capacity_kw=float(get("crah.unit_capacity_kw")),
            unit_airflow_cmh=float(get("crah.unit_airflow_cmh")),
        ),
        crac=cooling.CracSpec(
            idle_frac=float(get("crac.idle_frac")),
            cop=float(get("crac.cop")),
        ),
        eer=eer_table if eer_table is not None else cooling.EerTable(),
        pump_fraction=float(get("pump_fraction")),
        misc_fraction=float(get("misc_fraction")),
        reference_ambient_c=float(get("reference_ambient_c")),
        consolidation=float(get("consolidation")),
    )


def default_scenario(
    architecture: CoolingArchitecture = CoolingArchitecture.CRAH_CHILLER,
    count: int = 40000,
    p_idle_w: float = 120.0,
    p_peak_w: float = 250.0,
) -> ScenarioConfig:
    """Reference scenario: a 40,000-server, 10 MW farm with defaults."""
    server = server_farm.ServerSpec(count=count, p_idle_w=p_idle_w,
                                    p_peak_w=p_peak_w)
    return ScenarioConfig(
        server=server,
        supply=power_chain.calibrate_supply(server.farm_peak_w),
        architecture=architecture,
    )
