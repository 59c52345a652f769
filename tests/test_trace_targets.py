"""The benchmark's traced functions exist in metd and are still called.

The benchmark under ``perfbench/`` wraps metd functions by module and
attribute name, and a traced run fails when a binding its workload
expects records no call.  Its own tests are not part of this suite, so
these checks load its target list and expected calls read-only: a
renamed or removed traced function, or a kernel that no longer goes
through a traced binding, fails here and not only in a traced benchmark
run.
"""

import ast
import importlib
from pathlib import Path

import metd.training
from metd.data import SynthConfig, generate_synthetic
from metd.model import build_model
from metd.training import StageConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load_tracing() -> dict:
    # Compiled from the text, so nothing (not even bytecode) is written there.
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing)
    return tracing


def _expected_calls(class_name: str) -> tuple:
    """A workload class's EXPECTED_CALLS, read from the source without importing it."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and [
                    getattr(t, "id", None) for t in stmt.targets
                ] == ["EXPECTED_CALLS"]:
                    return ast.literal_eval(stmt.value)
    raise LookupError(f"{class_name}.EXPECTED_CALLS not found in {WORKLOADS.name}")


def test_every_traced_target_exists_in_metd():
    targets = _load_tracing()["TARGETS"]
    missing = [
        f"metd.{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(f"metd.{module}"), attr, None))
    ]
    assert targets and missing == []


def test_training_and_fd_check_call_every_expected_kernel():
    expected = sorted(
        {
            name
            for workload in ("TrainDefault", "FdCheck")
            for name in _expected_calls(workload)
            if name.startswith(("losses.", "numerics."))
        }
    )
    assert "losses.total_loss" in expected and "numerics.log_sum_exp" in expected
    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=2, samples_per_subcluster=8,
                    feature_dim=8, sigma=0.2, intra_class_angle=90.0, seed=3)
    )
    assert len(train.units()) == 24
    tracing = _load_tracing()
    tracer = tracing["Tracer"]()
    installed = tracing["install"](tracer)
    try:
        model = build_model(
            n_classes=2, n_subclasses=2, n_tokens=2, token_dim=8, embed_dim=8,
            feature_dim=8, context_length=2, temperature=0.055, seed=3,
        )
        metd.training.run_stage1(model, train, StageConfig.stage_one(epochs=1, batch_size=8))
        metd.training.run_stage2(model, train, StageConfig.stage_two(epochs=1, batch_size=8))
        model, sample, counts = metd.training.random_fd_instance(seed=1, stage=1)
        metd.training.fd_check(model, sample, target_counts=counts, stage=1)
    finally:
        installed.restore()
    assert tracing["missing_calls"](tracer.stats(), expected) == []
