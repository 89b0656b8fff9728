"""Run one dualweyl entry point with the layer tracer installed.

    python3 perfbench/traced.py OUT_DIR cli ARGS...   # like python -m dualweyl.cli ARGS
    python3 perfbench/traced.py OUT_DIR modops        # job JSON on stdin

Stats of this process (and of every pool worker it forks) land in OUT_DIR
as <pid>.json. Output and exit code are those of the wrapped entry point.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import modops  # bound before the hooks go in, so its checks call the originals
import tracer


def main(argv: list[str]) -> int:
    out_dir, mode, rest = Path(argv[0]), argv[1], argv[2:]
    tr = tracer.install(out_dir)
    try:
        if mode == "cli":
            from dualweyl import cli

            return cli.main(rest)
        result = modops.main(json.load(sys.stdin), quiet=tr.suspended)
        sys.stdout.write(json.dumps(result) + "\n")
        return 0
    finally:
        tr.dump_own()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
