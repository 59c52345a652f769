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
from dataclasses import replace
from pathlib import Path

import metd.harness
import metd.inference
import metd.model
import metd.training
from metd.data import SynthConfig, generate_synthetic
from metd.model import build_model

from conftest import SYNTHETIC, run_config

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


def _expected_kernels(workloads, prefixes) -> list:
    return sorted(
        {
            name
            for workload in workloads
            for name in _expected_calls(workload)
            if name.startswith(prefixes)
        }
    )


def _tiny_splits():
    splits = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=2, samples_per_subcluster=8,
                    feature_dim=8, sigma=0.2, intra_class_angle=90.0, seed=3)
    )
    assert len(splits[0].units()) == 24
    return splits


def test_training_and_fd_check_call_every_expected_kernel():
    expected = _expected_kernels(("TrainDefault", "FdCheck"), ("losses.", "numerics."))
    assert "losses.total_loss" in expected and "numerics.log_sum_exp" in expected
    train, _ = _tiny_splits()
    tracing = _load_tracing()
    tracer = tracing["Tracer"]()
    installed = tracing["install"](tracer)
    try:
        model = build_model(
            n_classes=2, n_subclasses=2, n_tokens=2, token_dim=8, embed_dim=8,
            feature_dim=8, context_length=2, temperature=0.055, seed=3,
        )
        metd.training.run_stage1(model, train, run_config(stage1_epochs=1, stage1_batch_size=8))
        metd.training.run_stage2(model, train, run_config(stage2_epochs=1, stage2_batch_size=8))
        model, sample, counts = metd.training.random_fd_instance(seed=1, stage=1)
        metd.training.fd_check(model, sample, target_counts=counts, stage=1)
    finally:
        installed.restore()
    assert tracing["missing_calls"](tracer.stats(), expected) == []


def test_fd_sweep_calls_every_expected_library_function():
    # `metd fdcheck` is fd_sweep plus printing.  fd_check checks each
    # instance's sample through one unit_embedding call, in both stages.
    expected = _expected_kernels(
        ("FdCheck",), ("training.", "model.", "inference.", "losses.", "numerics.")
    )
    assert "training.fd_check" in expected and "inference.unit_embedding" in expected
    tracing = _load_tracing()
    tracer = tracing["Tracer"]()
    installed = tracing["install"](tracer)
    try:
        metd.training.fd_sweep(seed=7, instances=1, h=1e-5)
    finally:
        installed.restore()
    assert tracing["missing_calls"](tracer.stats(), expected) == []


def test_eval_and_baselines_call_every_expected_kernel(tmp_path):
    expected = _expected_kernels(
        ("EvalClips", "CompareBaselines"), ("inference.", "model.", "numerics.", "losses.")
    )
    assert "model.load_checkpoint" in expected and "inference.predict" in expected
    train, test = _tiny_splits()
    config = replace(
        SYNTHETIC, seed=3, token_dim=8, embed_dim=8, feature_dim=8, n_tokens=2,
        probe_epochs=1, stage1_epochs=1, stage1_batch_size=8,
    )
    tracing = _load_tracing()
    tracer = tracing["Tracer"]()
    installed = tracing["install"](tracer)
    try:
        # what `metd eval` runs, then each baseline of `metd compare`
        model = build_model(
            n_classes=2, n_subclasses=2, n_tokens=2, token_dim=8, embed_dim=8,
            feature_dim=8, context_length=2, temperature=0.055, seed=3,
        )
        metd.model.save_checkpoint(model, str(tmp_path / "tiny.ckpt"))
        model = metd.model.load_checkpoint(str(tmp_path / "tiny.ckpt"))
        metd.inference.subclass_report(test, metd.inference.evaluate(test, model))
        for kind in tracing["STRATEGY_KINDS"]:
            metd.harness.run_strategy(metd.harness.Strategy(kind), (train, test), config)
    finally:
        installed.restore()
    assert tracing["missing_calls"](tracer.stats(), expected) == []
