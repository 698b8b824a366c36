"""Set-up of one workload in a fresh interpreter; the caller times it.

    python3 bench/setup_probe.py MODULE[,MODULE...] CONFIGS_JSON

Imports the package modules the workload's program uses, then parses each
scenario config in CONFIGS_JSON (a JSON list of texts) and computes its
design peak with ``peak_context``.
"""

import importlib
import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> None:
    modules, configs_path = sys.argv[1:]
    for module in modules.split(","):
        importlib.import_module(module)
    from dcpowersim.config import parse_scenario_config
    from dcpowersim.engine import peak_context
    with open(configs_path, encoding="utf-8") as handle:
        texts = json.load(handle)
    for text in texts:
        peak_context(parse_scenario_config(text))


if __name__ == "__main__":
    main()
