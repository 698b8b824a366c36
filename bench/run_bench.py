"""dcpowersim benchmark: one workload, one seed, every metric by name.

    python3 bench/run_bench.py --workload annual_cli --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Workloads (the why of each is in ``inputs.py``): ``annual_cli``,
``scenario_sweep`` and ``curtail_grid``.  With ``--trace 0`` the run
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
measures the per-layer metrics and the tracing overhead.  Every output is
checked against an independent reference.  The report and a provenance
block come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a
traced run are written to ``.bench_work/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("annual_cli", "scenario_sweep", "curtail_grid")


def load_program():
    """Import the package from this checkout's ``src``, or exit 2."""
    if not (SRC / "dcpowersim" / "__init__.py").is_file():
        sys.exit(f"run_bench: no dcpowersim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dcpowersim
    if SRC.resolve() not in Path(dcpowersim.__file__).resolve().parents:
        sys.exit(f"run_bench: dcpowersim imported from {dcpowersim.__file__}")
    import workloads
    return workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's own repository, read from ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, samples: dict[str, int]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "samples": samples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = load_program()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        run = workloads.Run(args.workload, args.seed, workdir)
        if args.trace:
            layers, samples, tracer = workloads.traced(run, args.seconds)
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json")
            metrics = {name: (value, workloads.LAYER_UNITS[name])
                       for name, value in layers.items()}
            report = {}
        else:
            measured, report = workloads.untraced(run, args.seconds)
            metrics = {name: (value, unit)
                       for name, (value, unit, _) in measured.items()}
            samples = {name: n for name, (_, _, n)
                       in {**measured, **report}.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = run.failed / run.attempted
    for name, (value, unit, n) in report.items():
        print(f"{name:24} {value:14.6g} {unit:5} n={n}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40} {value:14.6g} {unit}")
    print(f"{'error_rate':24} {error_rate:14.6g} ratio n={run.attempted}")
    print("provenance " + json.dumps(provenance(args, samples)))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
