"""Run one ``rispa`` command with tracing on, for the traced passes of cli_chain.

Usage: ``PERFBENCH_SPANS=<file> python3 perfbench/cli_shim.py <rispa arguments>``.
Installs the tracer, calls ``rispa.cli.main`` with the arguments, writes the
spans to ``$PERFBENCH_SPANS`` and exits with the command's exit code.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from rispa import cli  # noqa: E402

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracing.dump(tracer.spans, os.environ["PERFBENCH_SPANS"])
    sys.exit(code)
