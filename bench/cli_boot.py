"""Run one dcpowersim CLI invocation with the tracing wrappers installed.

    python3 bench/cli_boot.py SPANS_JSON OP_ID -- ARGS...

Installs the wrappers, calls ``dcpowersim.cli.run(ARGS)``, writes the spans
to SPANS_JSON and exits with the CLI's status.
"""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, op_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        sys.exit("usage: cli_boot.py SPANS_JSON OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.op_id = int(op_id)
    tracer.install()
    from dcpowersim import cli
    status = cli.run(argv)
    tracer.write(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
