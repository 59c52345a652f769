"""Run one ``metd`` command with spans around metd's public functions.

Usage: python perfbench/traced_cli.py STATS_JSON metd-arguments...

Behaves like ``python -m metd metd-arguments...`` (same output, same exit
code) and writes the per-name span counters to STATS_JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv) -> int:
    stats_path, metd_args = argv[0], argv[1:]
    import metd.cli

    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        code = metd.cli.main(metd_args)
    finally:
        installed.restore()
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
