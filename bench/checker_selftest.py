"""Self-tests for the output checker.

    python3 bench/checker_selftest.py

The checker must accept what the CLI writes at this commit and reject a
results CSV with one component off by 1e-6 relative, a truncated SVG and a
wrong curtail utilisation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = BENCH.parent / ".bench_work"
sys.path.insert(0, str(BENCH.parent / "src"))

from dcpowersim import cli, config, engine  # noqa: E402
from dcpowersim.profiles import (AmbientProfile,  # noqa: E402
                                 UtilisationProfile)

import checker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
PERTURBATION = 1e-6


class CheckerSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        WORK.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
        cls.run_ = workloads.Run("annual_cli", SEED, cls.workdir)
        cls.annual = workloads.AnnualCli(cls.run_)
        cls.stdout = {}
        for kind, args in cls.annual.commands.items():
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                assert cli.run(args) == 0, kind
            cls.stdout[kind] = captured.getvalue()
        cls.texts = {name: path.read_text(encoding="utf-8")
                     for name, path in cls.annual.out.items()}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def results_csv(self, text: str, hours: list[int]) -> None:
        checker.check_results_csv(text, self.annual.inputs.climate,
                                  self.annual.reference, hours)

    def perturbed_csv(self, hour: int, keep_additive: bool) -> str:
        rows = list(csv.reader(io.StringIO(self.texts["simulate.csv"])))
        row = rows[1 + hour]
        farm = rows[0].index("server_farm_w")
        delta = float(row[farm]) * PERTURBATION
        row[farm] = format(float(row[farm]) + delta, ".10g")
        if keep_additive:
            row[-1] = format(float(row[-1]) + delta, ".10g")
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()

    def test_accepts_this_commits_outputs(self):
        for kind in self.annual.commands:
            with self.subTest(kind=kind):
                # Rewrite the files each check reads, then check.
                for name, text in self.texts.items():
                    self.annual.out[name].write_text(text, encoding="utf-8")
                self.annual.check_output(kind, self.stdout[kind])

    def test_accepts_in_memory_simulation(self):
        year = self.annual.inputs.climate
        scenario = config.parse_scenario_config(self.annual.inputs.config_text)
        result = engine.simulate(UtilisationProfile(year.stamps,
                                                    year.utilisation),
                                 AmbientProfile(year.stamps, year.ambient_c),
                                 scenario)
        checker.check_simulation(result, engine.summarize_energy(result),
                                 year, self.annual.reference,
                                 self.run_.sample_hours())

    def test_rejects_component_off_by_1e6_in_any_row(self):
        # The row is not sampled: the row's additivity catches it.
        with self.assertRaisesRegex(checker.CheckFailed, "sum of parts"):
            self.results_csv(self.perturbed_csv(4321, keep_additive=False),
                             hours=[0])

    def test_rejects_component_off_by_1e6_in_a_sampled_row(self):
        # Total moved too, so the row stays additive: the reference catches it.
        with self.assertRaisesRegex(checker.CheckFailed, "server_farm"):
            self.results_csv(self.perturbed_csv(4321, keep_additive=True),
                             hours=[0, 4321])

    def test_rejects_truncated_svg(self):
        for name in ("simulate.svg", "compare.svg", "curve.svg"):
            text = self.texts[name]
            checker.check_svg(text)
            with self.subTest(name=name), \
                    self.assertRaises(checker.CheckFailed):
                checker.check_svg(text[:len(text) // 2])

    def test_rejects_wrong_curtail_utilisation(self):
        printed = checker.parse_key_values(self.stdout["curtail"])
        wrong = float(printed["utilisation"]) + 0.01
        stdout = self.stdout["curtail"].replace(
            f"utilisation,{printed['utilisation']}",
            f"utilisation,{wrong:.10g}")
        ins = self.annual.inputs
        with self.assertRaisesRegex(checker.CheckFailed, "solved utilisation"):
            checker.check_curtail_stdout(stdout, ins.curtail_target_w,
                                         ins.curtail_ambient_c,
                                         self.annual.reference)


if __name__ == "__main__":
    unittest.main()
