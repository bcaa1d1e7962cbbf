"""``python -m starsections.cli`` with the tracing wrappers installed.

    python3 perfbench/traced_cli.py TRACE_FILE OP_NAME CLI_ARGS...

Used by the traced run of the cli-cold workload.  The wrappers go in after
import (import time is measured separately, with ``-X importtime``); the
tracer totals and spans are written to TRACE_FILE and the CLI's exit code is
passed through.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    trace_file, op_name, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    import starsections.cli as cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = op_name
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_file, "w") as fh:
            json.dump({"op": op_name, "raw": tracer.raw(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
