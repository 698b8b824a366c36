"""CLI contract tests: exit codes, file outputs, atomicity, determinism,
and what each subcommand imports."""

import datetime as dt
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcpowersim
from dcpowersim.analysis import compare_architectures, power_curve
from dcpowersim.cli import run
from dcpowersim.config import _KEYS, CoolingArchitecture, default_scenario
from dcpowersim.profiles import parse_temperature_csv, parse_utilisation_csv
from strategies import BOMS, FLOAT_KEYS, LAST_HOUR, spelled, stamps

CONFIG = """\
server.count=40000
server.p_idle_w=120
server.p_peak_w=250
architecture=crah_chiller
"""


def write_inputs(tmp_path, hours=24, utilisation=0.5, ambient=30.0):
    config = tmp_path / "scenario.cfg"
    config.write_text(CONFIG)
    util_lines = ["timestamp,utilisation"]
    temp_lines = ["timestamp,temperature_c"]
    for stamp in stamps(hours):
        util_lines.append(f"{stamp},{utilisation}")
        temp_lines.append(f"{stamp},{ambient}")
    util = tmp_path / "util.csv"
    util.write_text("\n".join(util_lines) + "\n")
    weather = tmp_path / "weather.csv"
    weather.write_text("\n".join(temp_lines) + "\n")
    return config, util, weather


def test_simulate_writes_one_row_per_hour(tmp_path):
    config, util, weather = write_inputs(tmp_path, hours=24)
    out = tmp_path / "result.csv"
    status = run(["simulate", "--config", str(config),
                  "--utilisation", str(util), "--weather", str(weather),
                  "--out", str(out)])
    assert status == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 24
    assert lines[0].startswith("timestamp,utilisation,ambient_c,")


def test_simulate_svg_is_well_formed(tmp_path):
    config, util, weather = write_inputs(tmp_path, hours=12)
    out = tmp_path / "result.csv"
    chart = tmp_path / "result.svg"
    status = run(["simulate", "--config", str(config),
                  "--utilisation", str(util), "--weather", str(weather),
                  "--out", str(out), "--svg", str(chart)])
    assert status == 0
    root = ET.fromstring(chart.read_text())
    assert root.tag.endswith("svg")


def test_missing_flag_is_usage_error(tmp_path, capsys):
    config, util, _ = write_inputs(tmp_path)
    status = run(["simulate", "--config", str(config),
                  "--utilisation", str(util),
                  "--out", str(tmp_path / "x.csv")])
    assert status == 1
    assert "--weather" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run(["meltdown"]) == 1


def test_no_subcommand_is_usage_error():
    assert run([]) == 1


def test_bad_config_is_data_error(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(CONFIG + "mystery.key=1\n")
    status = run(["peak", "--config", str(config)])
    assert status == 2
    err = capsys.readouterr().err
    assert "scenario.cfg" in err and "mystery.key" in err


def test_bad_csv_row_is_data_error_and_writes_nothing(tmp_path, capsys):
    config, util, weather = write_inputs(tmp_path, hours=3)
    weather.write_text("timestamp,temperature_c\n"
                       "2016-06-01T00:00,30\n"
                       "2016-06-01T01:00,99\n")
    out = tmp_path / "result.csv"
    status = run(["simulate", "--config", str(config),
                  "--utilisation", str(util), "--weather", str(weather),
                  "--out", str(out)])
    assert status == 2
    assert "row 2" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_missing_input_file_is_data_error(tmp_path, capsys):
    config, util, weather = write_inputs(tmp_path)
    status = run(["simulate", "--config", str(config),
                  "--utilisation", str(tmp_path / "nope.csv"),
                  "--weather", str(weather),
                  "--out", str(tmp_path / "x.csv")])
    assert status == 2
    assert "nope.csv" in capsys.readouterr().err


def test_unwritable_out_is_data_error(tmp_path, capsys):
    config, util, weather = write_inputs(tmp_path, hours=2)
    status = run(["simulate", "--config", str(config),
                  "--utilisation", str(util), "--weather", str(weather),
                  "--out", str(tmp_path / "no_dir" / "x.csv")])
    assert status == 2


def test_identical_invocations_are_byte_identical(tmp_path):
    config, util, weather = write_inputs(tmp_path, hours=48, utilisation=0.77)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    common = ["simulate", "--config", str(config), "--utilisation", str(util),
              "--weather", str(weather)]
    assert run(common + ["--out", str(out_a)]) == 0
    assert run(common + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_peak_prints_breakdown(tmp_path, capsys):
    config, _, _ = write_inputs(tmp_path)
    assert run(["peak", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "component,power_w,share"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert float(rows["total"].split(",")[0]) == pytest.approx(
        23.98e6, rel=1e-9)
    assert float(rows["server_farm"].split(",")[1]) == pytest.approx(
        10.0 / 23.98, rel=1e-9)


def test_peak_arch_override(tmp_path, capsys):
    config, _, _ = write_inputs(tmp_path)
    assert run(["peak", "--config", str(config), "--arch", "crac"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert float(rows["crac"].split(",")[0]) == pytest.approx(15.534e6,
                                                              rel=1e-9)
    assert float(rows["chiller"].split(",")[0]) == 0.0


def test_peak_prints_fractions_of_minus_zero_as_zero(tmp_path, capsys):
    config, _, _ = write_inputs(tmp_path)
    config.write_text(CONFIG + "pump_fraction=-0\nmisc_fraction=-0\n")
    assert run(["peak", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert "pumps,0,0" in lines
    assert "misc,0,0" in lines


def test_curtail_prints_solution(tmp_path, capsys):
    config, _, _ = write_inputs(tmp_path)
    status = run(["curtail", "--config", str(config),
                  "--ambient-c", "30", "--target-w", "15000000"])
    assert status == 0
    out_lines = capsys.readouterr().out.strip().split("\n")
    values = dict(line.split(",") for line in out_lines)
    assert values["feasible"] == "true"
    achieved = float(values["achieved_total_w"])
    assert achieved == pytest.approx(15e6, rel=1e-5)
    assert 0.0 < float(values["utilisation"]) < 1.0


def test_curve_writes_long_format(tmp_path):
    config, _, _ = write_inputs(tmp_path)
    out = tmp_path / "curve.csv"
    status = run(["curve", "--config", str(config), "--temps", "0,30,41",
                  "--points", "5", "--out", str(out)])
    assert status == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "temp_c,utilisation,total_w"
    assert len(lines) == 1 + 3 * 5


def test_compare_writes_series_and_summary(tmp_path, capsys):
    config, util, weather = write_inputs(tmp_path, hours=24, utilisation=1.0)
    out = tmp_path / "compare.csv"
    status = run(["compare", "--config", str(config),
                  "--utilisation", str(util), "--weather", str(weather),
                  "--out", str(out)])
    assert status == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("timestamp,utilisation,ambient_c,"
                        "crah_chiller_cooling_w,crac_cooling_w")
    assert len(lines) == 1 + 24
    summary = dict(line.split(",")
                   for line in capsys.readouterr().out.strip().split("\n"))
    assert float(summary["relative_increase"]) == pytest.approx(0.40691,
                                                                abs=5e-4)


def test_compare_prints_both_cooling_energies(tmp_path, capsys):
    config, util, weather = write_inputs(tmp_path, hours=24, utilisation=0.7)
    assert run(["compare", "--config", str(config), "--utilisation",
                str(util), "--weather", str(weather),
                "--out", str(tmp_path / "compare.csv")]) == 0
    comparison = compare_architectures(
        parse_utilisation_csv(util.read_text()),
        parse_temperature_csv(weather.read_text()), default_scenario())
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"baseline_cooling_energy_wh,"
        f"{comparison.baseline_cooling_energy_wh:.10g}",
        f"alternative_cooling_energy_wh,"
        f"{comparison.alternative_cooling_energy_wh:.10g}"]


def test_zero_baseline_compare_writes_and_prints_nothing(tmp_path, capsys):
    # The chiller's draw underflows to 0 and the CRAH has no load, so the
    # baseline cooling energy is 0 and the relative increase undefined.
    config, util, weather = write_inputs(tmp_path, hours=3)
    config.write_text(
        "server.count=100\nserver.p_idle_w=100\nserver.p_peak_w=200\n"
        "architecture=crah_chiller\nchiller.sizing_factor=1e-320\n"
        "chiller.gamma=1e-10\nchiller.alpha=0\nchiller.beta=0\n"
        "crah.idle_frac=0\ncrah.unit_airflow_cmh=0\npump_fraction=0\n")
    out, chart = tmp_path / "compare.csv", tmp_path / "compare.svg"
    assert run(["compare", "--config", str(config), "--utilisation",
                str(util), "--weather", str(weather), "--out", str(out),
                "--svg", str(chart)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dcpowersim: error: baseline crah_chiller draws no cooling energy; "
        "the relative increase is undefined\n")
    assert not out.exists() and not chart.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_curtail_prints_its_target(tmp_path, capsys):
    config, _, _ = write_inputs(tmp_path)
    assert run(["curtail", "--config", str(config),
                "--ambient-c", "30", "--target-w", "1.5e7"]) == 0
    keys, values = zip(*(line.split(",") for line in
                         capsys.readouterr().out.splitlines()))
    assert keys == ("utilisation", "achieved_total_w", "target_total_w",
                    "feasible")
    assert values[2] == "15000000"


def test_curve_arch_override(tmp_path):
    config, _, _ = write_inputs(tmp_path)
    out = tmp_path / "curve.csv"
    assert run(["curve", "--config", str(config), "--temps", "0,41",
                "--points", "3", "--out", str(out), "--arch", "crac"]) == 0
    curves = power_curve([0.0, 41.0],
                         default_scenario(CoolingArchitecture.CRAC), 3)
    assert out.read_text().splitlines()[1:] == [
        f"{curve.temperature_c:.10g},{u:.10g},{total_w:.10g}"
        for curve in curves for u, total_w in curve.points]


def test_repeated_eer_ambient_is_data_error(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(CONFIG + "eer.table=30:3.5;30:3.5\n")
    assert run(["peak", "--config", str(config)]) == 2
    assert "strictly descending ambient order" in capsys.readouterr().err


SRC = str(Path(dcpowersim.__file__).resolve().parents[1])


def run_python(args):
    """A fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def run_process(args):
    """The CLI as a separate process."""
    return run_python(["-m", "dcpowersim.cli", *args])


@pytest.mark.parametrize("command", [
    ["curtail", "--ambient-c", "nan", "--target-w", "15000000"],
    ["curtail", "--ambient-c", "30", "--target-w", "inf"],
    ["curve", "--temps", "nan", "--out", "{tmp}/curve.csv"],
])
def test_non_finite_input_is_data_error_without_traceback(tmp_path,
                                                          command):
    config, _, _ = write_inputs(tmp_path)
    args = [arg.format(tmp=tmp_path) for arg in command]
    done = run_process([args[0], "--config", str(config), *args[1:]])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("dcpowersim: error:")
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("line", ["chiller.alpha=nan", "pump_fraction=nan",
                                  "server.p_peak_w=inf", "eer.table=30:nan",
                                  "server.p_peak_w=1e300"])
def test_non_finite_config_is_data_error_without_traceback(tmp_path, line):
    config = tmp_path / "scenario.cfg"
    config.write_text("\n".join(
        kept for kept in CONFIG.splitlines()
        if kept.split("=")[0] != line.split("=")[0]) + f"\n{line}\n")
    done = run_process(["peak", "--config", str(config)])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("dcpowersim: error:")
    assert done.stdout == ""


def simulate_args(tmp_path, *extra):
    config, util, weather = write_inputs(tmp_path, hours=6)
    return ["simulate", "--config", str(config), "--utilisation", str(util),
            "--weather", str(weather), *extra]


@pytest.mark.parametrize("mask", [0o022, 0o077])
def test_outputs_respect_the_umask(tmp_path, mask):
    out, chart = tmp_path / "result.csv", tmp_path / "result.svg"
    previous = os.umask(mask)
    try:
        status = run(simulate_args(tmp_path, "--out", str(out),
                                   "--svg", str(chart)))
    finally:
        os.umask(previous)
    assert status == 0
    for path in (out, chart):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask


def test_failed_rename_removes_every_temp_and_exits_2(tmp_path, capsys,
                                                     monkeypatch):
    out, chart = tmp_path / "result.csv", tmp_path / "result.svg"
    real_replace, calls = os.replace, []

    def replace_failing_on_second(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_on_second)
    status = run(simulate_args(tmp_path, "--out", str(out),
                               "--svg", str(chart)))
    assert status == 2
    assert "cannot write output" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.tmp"))
    # The first output was renamed before the failure; the second was not.
    assert out.read_text().startswith("timestamp,")
    assert not chart.exists()


def test_unwritable_second_output_leaves_nothing(tmp_path, capsys):
    out = tmp_path / "result.csv"
    status = run(simulate_args(tmp_path, "--out", str(out), "--svg",
                               str(tmp_path / "no_dir" / "result.svg")))
    assert status == 2
    assert "cannot write output" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_bom_prefixed_inputs_give_the_same_outputs(tmp_path):
    args = simulate_args(tmp_path)
    plain = tmp_path / "plain.csv"
    assert run([*args, "--out", str(plain)]) == 0
    for flag in ("--utilisation", "--weather"):
        path = Path(args[args.index(flag) + 1])
        path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
    bom = tmp_path / "bom.csv"
    assert run([*args, "--out", str(bom)]) == 0
    assert bom.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("temps", [",", "", " , "])
def test_empty_temperature_list_is_usage_error(tmp_path, temps):
    config, _, _ = write_inputs(tmp_path)
    out = tmp_path / "curve.csv"
    done = run_process(["curve", "--config", str(config), "--temps", temps,
                        "--out", str(out)])
    assert done.returncode == 1
    assert "--temps expects" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_temp_name_in_use_is_skipped(tmp_path):
    # A temp left behind under the name this process would try first.
    taken = tmp_path / f"dcpowersim-{os.getpid()}-0.tmp"
    taken.write_text("someone else's\n")
    out = tmp_path / "result.csv"
    assert run(simulate_args(tmp_path, "--out", str(out))) == 0
    assert out.read_text().startswith("timestamp,")
    assert taken.read_text() == "someone else's\n"
    assert list(tmp_path.glob("*.tmp")) == [taken]


COMMANDS_WITH_CHART = {
    "simulate": lambda tmp_path: simulate_args(tmp_path),
    "curve": lambda tmp_path: ["curve", "--config",
                               str(write_inputs(tmp_path)[0]),
                               "--temps", "0,30"],
    "compare": lambda tmp_path: ["compare", *simulate_args(tmp_path)[1:]],
}


@pytest.mark.parametrize("chart", ["o.txt", "./o.txt"])
@pytest.mark.parametrize("command", sorted(COMMANDS_WITH_CHART))
def test_out_and_svg_naming_one_file_is_usage_error(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    chart):
    monkeypatch.chdir(tmp_path)
    args = COMMANDS_WITH_CHART[command](tmp_path)
    assert run([*args, "--out", "o.txt", "--svg", chart]) == 1
    assert "name the same file" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()
    # Rejected before any input is read.
    args[args.index("--config") + 1] = str(tmp_path / "nope.cfg")
    assert run([*args, "--out", "o.txt", "--svg", chart]) == 1


@pytest.mark.parametrize("flags", [["--out="], ["--out=o.txt", "--svg="]])
@pytest.mark.parametrize("command", sorted(COMMANDS_WITH_CHART))
def test_empty_output_path_is_usage_error(tmp_path, capsys, monkeypatch,
                                          command, flags):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    args = COMMANDS_WITH_CHART[command](tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run([*args, *flags]) == 1
    assert "is empty; it must name a file" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    # Rejected before any input is read.
    args[args.index("--config") + 1] = str(tmp_path / "nope.cfg")
    assert run([*args, *flags]) == 1


@pytest.mark.parametrize("command", ["compare", "curve"])
def test_line_chart_has_one_polyline_per_series_and_repeats(tmp_path,
                                                            command):
    args = COMMANDS_WITH_CHART[command](tmp_path)
    chart = tmp_path / "chart.svg"
    charts = []
    for _ in range(2):
        assert run([*args, "--out", str(tmp_path / "out.csv"),
                    "--svg", str(chart)]) == 0
        charts.append(chart.read_bytes())
    root = ET.fromstring(charts[0])
    # Two architectures for compare; two temperatures for curve.
    assert len(list(root.iter("{http://www.w3.org/2000/svg}polyline"))) == 2
    assert charts[0] == charts[1]


def test_curve_chart_of_one_temperature_has_one_polyline(tmp_path):
    chart = tmp_path / "chart.svg"
    assert run(["curve", "--config", str(write_inputs(tmp_path)[0]),
                "--temps", "30", "--out", str(tmp_path / "out.csv"),
                "--svg", str(chart)]) == 0
    root = ET.fromstring(chart.read_bytes())
    assert len(list(root.iter("{http://www.w3.org/2000/svg}polyline"))) == 1


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: dcpowersim")


def test_non_numeric_temperature_list_is_usage_error(tmp_path, capsys):
    config, _, _ = write_inputs(tmp_path)
    out = tmp_path / "curve.csv"
    assert run(["curve", "--config", str(config), "--temps=a,b",
                "--out", str(out)]) == 1
    assert ("--temps expects a comma-separated list of numbers, got 'a,b'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_unreadable_input_names_its_path_once(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert run(["peak", "--config", str(missing)]) == 2
    assert capsys.readouterr().err.count(str(missing)) == 1


def test_input_that_is_not_utf8_is_data_error_without_traceback(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(b"\xff\xfe" + CONFIG.encode())
    done = run_process(["peak", "--config", str(config)])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"dcpowersim: error: {config}: not UTF-8")


@pytest.mark.parametrize("command", [
    ["simulate", "--utilisation", "{util}", "--weather", "{weather}",
     "--out", "{tmp}/out.csv"],
    ["compare", "--utilisation", "{util}", "--weather", "{weather}",
     "--out", "{tmp}/out.csv"],
    ["curtail", "--ambient-c", "41", "--target-w", "15000000"],
])
def test_tiny_eer_is_data_error_without_traceback(tmp_path, command):
    config, util, weather = write_inputs(tmp_path, hours=3, ambient=41.0)
    config.write_text(CONFIG + "eer.table=41:1e-310;0:5\n")
    args = [arg.format(tmp=tmp_path, util=util, weather=weather)
            for arg in command]
    done = run_process([args[0], "--config", str(config), *args[1:]])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("dcpowersim: error:")
    assert done.stdout == ""
    assert not (tmp_path / "out.csv").exists()


def test_farm_peak_whose_square_underflows_is_data_error(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("server.count=1\nserver.p_idle_w=0\n"
                      "server.p_peak_w=1e-200\narchitecture=crac\n")
    done = run_process(["peak", "--config", str(config)])
    assert done.returncode == 2
    assert done.stderr == (f"dcpowersim: error: {config}: "
                           "farm peak 1e-200 W is too small\n")


def test_negative_ups_idle_fraction_is_named_as_configured(tmp_path, capsys):
    # Once reported as the derived ups_idle_w, in watts.
    config = tmp_path / "scenario.cfg"
    config.write_text(CONFIG + "supply.ups_idle_frac=-0.5\n")
    assert run(["peak", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"dcpowersim: error: {config}: "
        "ups_idle_frac must be finite and nonnegative, got -0.5\n")


def test_field_past_the_csv_limit_is_data_error_without_traceback(tmp_path):
    config, util, weather = write_inputs(tmp_path, hours=1)
    util.write_text("timestamp,utilisation\n2016-06-01T00:00," + "1" * 140_000)
    done = run_process(["simulate", "--config", str(config),
                        "--utilisation", str(util), "--weather", str(weather),
                        "--out", str(tmp_path / "out.csv")])
    assert done.returncode == 2
    assert done.stderr == (f"dcpowersim: error: {util}: row 1: field larger "
                           "than field limit (131072)\n")
    assert not (tmp_path / "out.csv").exists()


# --- what a process imports: each module it loads costs it time ---

# Modules a subcommand could load without using them.
WATCHED = ("csv", "dataclasses", "html", "inspect", "_strptime")


def modules_after(code):
    """Sorted package modules, and the WATCHED ones, that a fresh
    interpreter holds after running ``code``."""
    probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted("
             f"name for name in sys.modules if name.startswith('dcpowersim')"
             f" or name in {WATCHED!r})))")
    done = run_python(["-c", probe])
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    assert modules_after("import dcpowersim") == ["dcpowersim"]


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from dcpowersim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == \
        sorted(dcpowersim.__all__)
    for name in dcpowersim.__all__:
        assert namespace[name].__module__.startswith("dcpowersim.")
        assert namespace[name] is getattr(dcpowersim, name)
    assert set(dcpowersim.__all__) <= set(dir(dcpowersim))


def test_each_public_name_resolves_on_first_access():
    done = run_python(["-c", "import dcpowersim, json\nprint(json.dumps("
                       "[getattr(dcpowersim, name).__name__ "
                       "for name in dcpowersim.__all__]))"])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == dcpowersim.__all__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'simulator'"):
        getattr(dcpowersim, "simulator")


def test_package_version_matches_pyproject():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "(.+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == dcpowersim.__version__


CORE = ["config", "cooling", "engine", "errors", "power_chain",
        "server_farm"]
LOADED = {   # subcommand: its package modules beyond cli and CORE
    "peak": [],
    "curtail": ["analysis"],
    "simulate": ["profiles", "svg"],
    "curve": ["analysis", "profiles", "svg"],
    "compare": ["analysis", "profiles", "svg"],
}
ARGS = {
    "peak": [],
    "curtail": ["--ambient-c", "20", "--target-w", "15000000"],
    "simulate": ["--utilisation", "{util}", "--weather", "{weather}",
                 "--out", "{tmp}/out.csv", "--svg", "{tmp}/out.svg"],
    "curve": ["--temps", "10,30", "--out", "{tmp}/out.csv",
              "--svg", "{tmp}/out.svg"],
    "compare": ["--utilisation", "{util}", "--weather", "{weather}",
                "--out", "{tmp}/out.csv", "--svg", "{tmp}/out.svg"],
}


@pytest.mark.parametrize("command", sorted(LOADED))
def test_each_subcommand_loads_only_what_it_uses(tmp_path, command):
    config, util, weather = write_inputs(tmp_path)
    argv = [command, "--config", str(config), *(
        arg.format(tmp=tmp_path, util=util, weather=weather)
        for arg in ARGS[command])]
    loaded = modules_after(
        f"from dcpowersim.cli import run\nassert run({argv!r}) == 0")
    expected = ["dcpowersim", *(f"dcpowersim.{name}" for name in
                                ["cli", *CORE, *LOADED[command]])]
    # The parse reads canonical stamps without strptime, the charts
    # escape text without html, and no record is a dataclass; only the
    # CSV parse needs csv.
    if "profiles" in LOADED[command]:
        expected.append("csv")
    assert loaded == sorted(expected)


# --- profile text through simulate and compare ---

FIRST_HOURS = st.sampled_from([dt.datetime(2016, 2, 28, 21, 30),
                               LAST_HOUR - dt.timedelta(hours=2)])
ROWS = st.integers(0, 8)
# Each row spells its hour canonically or as another stamp strptime reads,
# or is blank, or holds a bad value.
ROW_KINDS = st.sampled_from(["canonical"] * 5 + ["unpadded", "spaced",
                                                 "blank", "bad_value",
                                                 "jump"])
QUOTED = st.booleans()
NEWLINES = st.sampled_from(["\n", "\r\n"])


@st.composite
def profile_pairs(draw):
    """Utilisation and weather texts over one drawn run of rows: CRLF or
    LF, quoted stamps, a BOM, and the last hour there is."""
    when = draw(FIRST_HOURS)
    rows = []
    for row in range(draw(ROWS)):
        kind = draw(ROW_KINDS)
        if kind != "blank" and row:
            try:
                when += dt.timedelta(hours=2 if kind == "jump" else 1)
            except OverflowError:   # past 9999-12-31: the last hour again
                when = LAST_HOUR
        rows.append((when, kind))
    texts = []
    for header, good, bad in (("timestamp,utilisation", "0.25", "1.5"),
                              ("timestamp,temperature_c", "21", "nan")):
        quote = '"' if draw(QUOTED) else ""
        lines = [header] + [
            "" if kind == "blank" else
            f"{quote}{spelled(when, kind)}{quote},"
            f"{bad if kind == 'bad_value' else good}"
            for when, kind in rows]
        newline = draw(NEWLINES)
        texts.append(draw(BOMS) + newline.join(lines) + newline)
    return texts


@settings(max_examples=100, deadline=None)
@given(texts=profile_pairs(), command=st.sampled_from(["simulate",
                                                       "compare"]))
def test_profile_text_through_the_cli_exits_0_1_or_2(texts, command):
    with tempfile.TemporaryDirectory() as tmp:
        config, util, weather = write_inputs(Path(tmp), hours=1)
        util.write_bytes(texts[0].encode())
        weather.write_bytes(texts[1].encode())
        outputs = [Path(tmp, "out.csv"), Path(tmp, "out.svg")]
        status = run([command, "--config", str(config), "--utilisation",
                      str(util), "--weather", str(weather),
                      "--out", str(outputs[0]), "--svg", str(outputs[1])])
        assert status in (0, 1, 2)
        if status == 2:
            assert not any(path.exists() for path in outputs)
            assert not list(Path(tmp).glob("*.tmp"))


# --- config text through every subcommand ---

NUMBER_TEXT = (
    st.integers(-10**400, 10**400).map(str)
    | st.floats().map(repr)   # NaN, +-inf and subnormals included
    | st.floats(0.0, 1.0).map(repr)
    | st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "+INF", "1e309",
                       "5e-324", "2.225e-308", "\uff11\uff12\uff10",
                       "\uff10.\uff15", "0x10", "1_000", ""]))
EER_POINT = st.tuples(st.floats(-100.0, 100.0) | st.just(math.nan),
                      st.floats(0.0, 1e308) | st.just(5e-324))
EER_TEXT = st.lists(EER_POINT, max_size=4).map(
    lambda points: ";".join(f"{t!r}:{eer!r}" for t, eer in points)) \
    | st.sampled_from(["30:3.5;30:4", "30", "a:b", ""])
ARCHITECTURE_TEXT = st.sampled_from(
    [a.value for a in CoolingArchitecture] + ["CRAC", ""])


def config_value(key):
    return {"architecture": ARCHITECTURE_TEXT,
            "eer.table": EER_TEXT}.get(key, NUMBER_TEXT)


KEPT = st.integers(0, 9)   # a line is dropped at 0
KEYS = st.lists(st.sampled_from(sorted(_KEYS) + ["server.speed"]),
                max_size=6)


@st.composite
def config_texts(draw):
    """The minimal config with each line kept 9 times in 10, then drawn
    lines for any key, an unknown one included, repeats allowed."""
    lines = [line for line in CONFIG.splitlines() if draw(KEPT)]
    for key in draw(KEYS):
        lines.append(f"{key}={draw(config_value(key))}")
    return "\n".join(lines) + "\n"


CONFIG_COMMANDS = {
    "peak": [],
    "curtail": ["--ambient-c=30", "--target-w=1.5e7"],
    "curve": ["--temps=0,30", "--points=3", "--out={d}/curve.csv",
              "--svg={d}/curve.svg"],
    "simulate": ["--utilisation={d}/util.csv", "--weather={d}/weather.csv",
                 "--out={d}/simulate.csv", "--svg={d}/simulate.svg"],
    "compare": ["--utilisation={d}/util.csv", "--weather={d}/weather.csv",
                "--out={d}/compare.csv", "--svg={d}/compare.svg"],
}


@settings(max_examples=40, deadline=None)
@given(text=config_texts())
def test_config_text_through_every_subcommand_exits_0_1_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = write_inputs(Path(tmp), hours=2)[0]
        config.write_bytes(text.encode())
        for command, flags in CONFIG_COMMANDS.items():
            status = run([command, f"--config={config}",
                          *(flag.format(d=tmp) for flag in flags)])
            assert status in (0, 1, 2)
            if status == 2:
                assert not list(Path(tmp).glob(f"{command}.*"))
                assert not list(Path(tmp).glob("*.tmp"))


MINUS_ZERO_COMMANDS = {   # --temps=: argparse reads a leading - as a flag
    "peak": [], "curtail": ["--ambient-c=30", "--target-w=1.5e7"],
    "curve": ["--temps=-10,20,50", "--points=3", "--out={d}/out.csv"],
    "simulate": ["--utilisation={d}/util.csv", "--weather={d}/weather.csv",
                 "--out={d}/out.csv"],
    "compare": ["--utilisation={d}/util.csv", "--weather={d}/weather.csv",
                "--out={d}/out.csv"],
}


def is_minus_zero(field: str) -> bool:
    try:
        return field.startswith("-") and float(field) == 0.0
    except ValueError:
        return False


@pytest.mark.parametrize("airflow", ["", "crah.unit_airflow_cmh=0\n"],
                         ids=["airflow", "no_airflow"])
@pytest.mark.parametrize("architecture", [a.value for a in CoolingArchitecture])
def test_no_output_field_is_minus_zero(tmp_path, capsys, architecture,
                                       airflow):
    config = write_inputs(tmp_path, hours=2)[0]
    base = dict(line.split("=") for line in
                (CONFIG.replace("crah_chiller", architecture)
                 + airflow).splitlines())
    for key in FLOAT_KEYS:   # -0 in place of the key's line, if it has one
        lines = {**base, key: "-0"}.items()
        config.write_text("".join(f"{k}={v}\n" for k, v in lines))
        for command, flags in MINUS_ZERO_COMMANDS.items():
            out = tmp_path / "out.csv"
            out.unlink(missing_ok=True)
            status = run([command, f"--config={config}",
                          *(flag.format(d=tmp_path) for flag in flags)])
            stdout = capsys.readouterr().out
            if status != 0:
                continue
            text = stdout + (out.read_text() if out.exists() else "")
            fields = re.split("[,\n]", text)
            assert not any(map(is_minus_zero, fields)), (key, command, text)


@pytest.mark.parametrize("quote", ["", '"'], ids=["columns", "rows"])
def test_no_output_echoes_a_minus_zero_input(tmp_path, capsys, quote):
    # A quoted cell sends the profile through the row loop.
    config, util, weather = write_inputs(tmp_path, hours=2)
    for path, header in ((util, "utilisation"), (weather, "temperature_c")):
        path.write_text(f"timestamp,{header}\n2016-06-01T00:00,{quote}-0"
                        f"{quote}\n2016-06-01T01:00,0.5\n")
    series = [f"--utilisation={util}", f"--weather={weather}"]
    for command, flags in {"simulate": series, "compare": series,
                           "curve": ["--temps=-0,20", "--points=2"]}.items():
        out, chart = tmp_path / "out.csv", tmp_path / "out.svg"
        assert run([command, f"--config={config}", f"--out={out}",
                    f"--svg={chart}", *flags]) == 0
        text = capsys.readouterr().out + out.read_text()
        assert not any(map(is_minus_zero, re.split("[,\n]", text))), text
        assert "-0 C" not in chart.read_text()
