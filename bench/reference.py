"""Independent reference for the facility total, used by the checker.

It composes the per-component public functions (``server_farm.farm_power``,
``power_chain.supply_loss`` and ``cooling.*``) with the closed-form pump and
misc terms documented in ``dcpowersim.engine``:

    total_peak = S / (1 - phi - mu)      misc = mu * total_peak
    pumps(t)   = phi * (components(t) + misc) / (1 - phi)

where S is the component sum at full load and reference ambient, phi the
pump fraction (chilled-water loops only) and mu the misc fraction.  It never
calls ``engine``, so a rewrite of the engine is checked against it.  The
functions are bound at import, before any tracing wrapper is installed, so
reference work never shows in a trace.
"""

from __future__ import annotations

import math

from dcpowersim.config import CoolingArchitecture, ScenarioConfig
from dcpowersim.cooling import (ambient_adjustment, chiller_power, crac_power,
                                crah_power)
from dcpowersim.power_chain import supply_loss
from dcpowersim.server_farm import farm_power

COMPONENTS = ("server_farm", "pdu_loss", "ups_loss", "chiller", "crah",
              "crac", "pumps", "misc")

COOLING_COMPONENTS = {
    CoolingArchitecture.CRAH_CHILLER: ("chiller", "crah", "pumps"),
    CoolingArchitecture.CRAC: ("crac",),
    CoolingArchitecture.FREE_AIR: ("crah",),
}


class ReferenceModel:
    """Per-component breakdown of one scenario at any (utilisation, ambient)."""

    def __init__(self, scenario: ScenarioConfig) -> None:
        self.scenario = scenario
        self.farm_peak_w = scenario.server.count * scenario.server.p_peak_w
        chilled = scenario.architecture is CoolingArchitecture.CRAH_CHILLER
        self.phi = scenario.pump_fraction if chilled else 0.0
        design = self._loads(1.0, scenario.reference_ambient_c)
        total_peak_w = math.fsum(design) / (
            1.0 - self.phi - scenario.misc_fraction)
        self.misc_w = scenario.misc_fraction * total_peak_w

    def _loads(self, u: float, ambient_c: float) -> list[float]:
        """Farm, PDU, UPS, chiller, CRAH and CRAC draw, watts."""
        s = self.scenario
        farm = farm_power(u, s.consolidation, s.server)
        supply = supply_loss(farm, s.supply)
        adjustment = ambient_adjustment(ambient_c, s.reference_ambient_c,
                                        s.eer)
        chiller = crah = crac = 0.0
        if s.architecture is CoolingArchitecture.CRAH_CHILLER:
            chiller = chiller_power(u, self.farm_peak_w, s.chiller) * adjustment
            crah = crah_power(u, self.farm_peak_w, s.crah)
        elif s.architecture is CoolingArchitecture.CRAC:
            crac = crac_power(u, self.farm_peak_w, s.crac, s.crah,
                              condenser_adjustment=adjustment)
        else:
            crah = crah_power(u, self.farm_peak_w, s.crah)
        return [farm, supply.pdu_loss_w, supply.ups_loss_w, chiller, crah, crac]

    def breakdown(self, u: float, ambient_c: float) -> dict[str, float]:
        loads = self._loads(u, ambient_c)
        pumps = self.phi * math.fsum([*loads, self.misc_w]) / (1.0 - self.phi)
        return dict(zip(COMPONENTS, [*loads, pumps, self.misc_w]))

    def total(self, u: float, ambient_c: float) -> float:
        return math.fsum(self.breakdown(u, ambient_c).values())

    def cooling(self, u: float, ambient_c: float) -> float:
        parts = self.breakdown(u, ambient_c)
        return math.fsum(parts[name] for name in
                         COOLING_COMPONENTS[self.scenario.architecture])
