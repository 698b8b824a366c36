"""Modular hourly power simulator for data centres.

Composes per-component power models (server farm, PDU/UPS losses, chiller,
CRAH/CRAC cooling, pumps, miscellaneous load) over utilisation and outdoor
temperature profiles, with curtailment solving and cooling-architecture
comparison on top.
"""

import importlib

# Where each public name lives; ``__getattr__`` imports its module on first
# use (PEP 562), so ``import dcpowersim`` loads no submodule.
_HOMES = {
    "analysis": ("ArchitectureComparison", "CurtailmentSolution", "PowerCurve",
                 "compare_architectures", "curtail", "peak_breakdown",
                 "power_curve"),
    "config": ("CoolingArchitecture", "ScenarioConfig", "default_scenario",
               "parse_scenario_config"),
    "cooling": ("ChillerSpec", "CracSpec", "CrahSpec", "EerTable",
                "ambient_adjustment", "chiller_power", "crac_power",
                "crah_power", "eer_lookup"),
    "engine": ("PeakContext", "PowerBreakdown", "SimulationResult",
               "SimulationStep", "peak_context", "simulate", "step_power",
               "summarize_energy"),
    "errors": ("SimulationError",),
    "power_chain": ("SupplyChainSpec", "SupplyLoss", "SupplyTargets",
                    "calibrate_supply", "pdu_loss", "supply_loss", "ups_loss"),
    "profiles": ("AmbientProfile", "UtilisationProfile",
                 "parse_temperature_csv", "parse_utilisation_csv",
                 "write_results_csv"),
    "server_farm": ("FarmState", "ServerSpec", "effective_server_utilisation",
                    "farm_power", "farm_state", "server_power"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.11.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
