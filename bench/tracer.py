"""Spans around the calls into each package module, recorded from outside.

``install`` replaces each public function where its caller looks it up
(``analysis`` binds ``step_power`` at import, so ``analysis.step_power`` is
wrapped beside ``engine.step_power``).  A span is named after the function's
home module, records start, end, parent span and operation id, and stays in
memory.  Per (name, parent, inside-simulate) the tracer keeps call count,
inclusive time and self time (inclusive minus the time child spans cover);
raw spans are kept up to a cap and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute) pairs, each the binding some caller looks up.
TARGETS = (
    ("cli", "run"),
    ("cli", "parse_scenario_config"),
    ("config", "parse_scenario_config"),
    ("profiles", "parse_utilisation_csv"),
    ("profiles", "parse_temperature_csv"),
    ("profiles", "write_results_csv"),
    ("svg", "render_stacked_area"),
    ("svg", "render_lines"),
    ("analysis", "curtail"),
    ("analysis", "power_curve"),
    ("analysis", "compare_architectures"),
    ("analysis", "simulate"),
    ("analysis", "step_power"),
    ("analysis", "peak_context"),
    ("engine", "simulate"),
    ("engine", "summarize_energy"),
    ("engine", "step_power"),
    ("engine", "peak_context"),
    ("cooling", "chiller_power"),
    ("cooling", "crah_power"),
    ("cooling", "crac_power"),
    ("cooling", "ambient_adjustment"),
    ("cooling", "eer_lookup"),
    ("server_farm", "farm_power"),
    ("power_chain", "supply_loss"),
    ("power_chain", "calibrate_supply"),
)

SIMULATE = "engine.simulate"
RAW_SPAN_LIMIT = 20_000


def _observe_simulate(tracer, args, result):
    tracer.add("engine.hours", len(args[0]))


def _observe_text(counter):
    def observe(tracer, args, result):
        tracer.add(counter, len(result))
    return observe


def _observe_curtail(tracer, args, result):
    tracer.add("analysis.curtail_feasible", int(result.feasible))


OBSERVERS = {
    "engine.simulate": _observe_simulate,
    "profiles.write_results_csv": _observe_text("profiles.bytes"),
    "svg.render_stacked_area": _observe_text("svg.bytes"),
    "svg.render_lines": _observe_text("svg.bytes"),
    "analysis.curtail": _observe_curtail,
}


class Tracer:
    def __init__(self) -> None:
        # (name, parent name, inside simulate) -> [calls, total ns, self ns]
        self.stats: dict[tuple[str, str, bool], list[int]] = {}
        self.counters: dict[str, int] = {}
        # (name, start ns, end ns, parent index, op id); -1 for no parent
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op_id = 0
        self._stack: list[list] = []   # [name, raw index, child ns, in sim]
        self._installed: list[tuple[object, str, object]] = []

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            in_sim = name == SIMULATE or (parent is not None and parent[3])
            index = -1
            if len(tracer.spans) < RAW_SPAN_LIMIT:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [name, index, 0, in_sim]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[2] += elapsed
                key = (name, parent[0] if parent else "", in_sim)
                entry = tracer.stats.get(key)
                if entry is None:
                    entry = tracer.stats[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[2]
                if index >= 0:
                    tracer.spans[index] = (name, start, end,
                                           parent[1] if parent else -1,
                                           tracer.op_id)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"dcpowersim.{module_name}")
            fn = getattr(module, attr)
            home = fn.__module__.rsplit(".", 1)[-1]
            self._installed.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, f"{home}.{fn.__name__}"))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    # Merging spans recorded in another process.

    def dump(self) -> dict:
        return {"stats": [[*key, *value] for key, value in self.stats.items()],
                "counters": self.counters,
                "spans": self.spans}

    def merge(self, dumped: dict) -> None:
        for name, parent, in_sim, calls, total, own in dumped["stats"]:
            entry = self.stats.setdefault((name, parent, in_sim), [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for counter, amount in dumped["counters"].items():
            self.add(counter, amount)
        offset = len(self.spans)
        for name, start, end, parent, op in dumped["spans"]:
            if len(self.spans) >= RAW_SPAN_LIMIT:
                break
            self.spans.append((name, start, end,
                               parent + offset if parent >= 0 else -1, op))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle)

    # Aggregates.

    def select(self, prefix: str, parent: str | None = None,
               in_sim: bool | None = None) -> tuple[int, int, int]:
        """Calls, inclusive ns and self ns over spans whose name starts with
        ``prefix`` (a module ``"cooling."`` or a function)."""
        calls = total = own = 0
        for (name, par, sim), (c, t, s) in self.stats.items():
            if (name.startswith(prefix)
                    and (parent is None or par == parent)
                    and (in_sim is None or sim == in_sim)):
                calls += c
                total += t
                own += s
        return calls, total, own
