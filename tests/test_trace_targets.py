"""The benchmark's traced functions exist in metd.

The benchmark under ``perfbench/`` wraps metd functions by module and
attribute name, but its own tests are not part of this suite.  This
check loads the target list read-only, so a renamed or removed traced
function fails here and not only in a traced benchmark run.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_exists_in_metd():
    # Compiled from the text, so nothing (not even bytecode) is written there.
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing)
    targets = tracing["TARGETS"]
    missing = [
        f"metd.{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(f"metd.{module}"), attr, None))
    ]
    assert targets and missing == []
