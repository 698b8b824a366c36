"""Mutation testing with the standard library alone.

Each mutant changes one site of one module with one of these operators:

    Add->Sub, Sub->Add, Mult->Div, Div->Mult   swap an arithmetic operator,
                                               also in ``x += y`` and the like
    Lt->LtE, LtE->Lt, Gt->GtE, GtE->Gt         move a comparison's boundary
    Eq->NotEq, NotEq->Eq                       negate an equality test
    const+1                                    add 1 to an int or float
    drop-not                                   replace ``not x`` with ``x``

The mutated module is written with ``ast.unparse`` into a fresh copy of
the tree, and the chosen tests run there with ``pytest -x`` and a fixed
hypothesis seed.  A mutant is killed when the tests fail or time out.
One JSON line per mutant goes to stdout, in site order::

    {"file": "src/dcpowersim/engine.py", "line": 113, "col": 15,
     "operator": "Add->Sub", "killed": true, "seconds": 3.2}

and the score goes to stderr at the end.  Before any mutant, the tests
run once on the unmutated modules written back by ``ast.unparse``; if
they fail there, no mutant is run.  Example::

    python tools/mutate.py src/dcpowersim/engine.py --jobs 2 \\
        --tests tests/test_engine.py tests/test_analysis.py

With no file, every module of ``src/dcpowersim`` is mutated; with no
``--tests``, the whole suite runs on each mutant.  A test run longer than
``TIMEOUT_S`` counts as killed.  Each job is one pytest process: on a
2-CPU machine run at most two.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq}
ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600.0
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                              ".pytest_cache", ".bench_work")


def _swap_name(op: ast.AST) -> str:
    return f"{type(op).__name__}->{SWAPS[type(op)].__name__}"


def sites(source: str) -> list[tuple[int, int, dict]]:
    """(node index in ``ast.walk`` order, comparison slot, where and what)
    for every mutation of one module."""
    found = []
    for index, node in enumerate(ast.walk(ast.parse(source))):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and type(node.op) in SWAPS):
            operators = [(0, _swap_name(node.op))]
        elif isinstance(node, ast.Compare):
            operators = [(slot, _swap_name(op))
                         for slot, op in enumerate(node.ops)
                         if type(op) in SWAPS]
        elif (isinstance(node, ast.Constant)
              and type(node.value) in (int, float)):
            operators = [(0, "const+1")]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            operators = [(0, "drop-not")]
        else:
            continue
        found.extend((index, slot, {"line": node.lineno,
                                    "col": node.col_offset,
                                    "operator": operator})
                     for slot, operator in operators)
    return found


def mutated(source: str, index: int | None, slot: int = 0) -> str:
    """The module with the site at ``index`` mutated; None mutates nothing."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    if index is None:
        return ast.unparse(tree)
    node = nodes[index]
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:   # not x: put x where the UnaryOp was
        for parent in nodes:
            for name, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, name, node.operand)
                elif isinstance(value, list) and node in value:
                    value[value.index(node)] = node.operand
    return ast.unparse(tree)


def run_tests(files: dict[str, str], tests: list[str]) -> tuple[bool, float]:
    """Copy this checkout under the temp dir (``TMPDIR``), write ``files``
    (path -> text) into the copy and run the tests there; returns
    (passed, seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "tree")
        shutil.copytree(ROOT, copy, ignore=SKIP)
        for path, text in files.items():
            (copy / path).write_text(text, encoding="utf-8")
        pythonpath = os.pathsep.join(
            filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath,
               "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests],
                cwd=copy, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
            passed = done.returncode == 0
        except subprocess.TimeoutExpired:
            passed = False
        return passed, time.perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*",
                        help="modules to mutate, relative to the checkout "
                             "(default: every module of src/dcpowersim)")
    parser.add_argument("--tests", nargs="+", default=[],
                        help="test paths to run (default: the whole suite)")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    files = args.files or sorted(
        str(path.relative_to(ROOT))
        for path in (ROOT / "src" / "dcpowersim").glob("*.py"))
    sources = {path: (ROOT / path).read_text(encoding="utf-8")
               for path in files}
    jobs = [(path, *site) for path in files for site in sites(sources[path])]
    passed, seconds = run_tests({path: mutated(source, None)
                                 for path, source in sources.items()},
                                args.tests)
    if not passed:
        print(f"the tests fail on the unmutated modules ({seconds:.1f} s); "
              "no mutant was run", file=sys.stderr)
        return 1

    def one(job: tuple[str, int, int, dict]) -> dict:
        path, index, slot, where = job
        passed, seconds = run_tests(
            {path: mutated(sources[path], index, slot)}, args.tests)
        return {"file": path, **where, "killed": not passed,
                "seconds": round(seconds, 2)}

    killed = 0
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for result in pool.map(one, jobs):
            killed += result["killed"]
            print(json.dumps(result), flush=True)
    print(f"killed {killed} of {len(jobs)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
