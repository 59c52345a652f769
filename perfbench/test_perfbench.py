"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_once_and_nesting_counts_once():
    spans = [
        (0, "a", 0.0, 10.0, -1),
        (1, "b", 1.0, 6.0, 0),
        (2, "b", 2.0, 4.0, 1),  # b nested in itself
        (3, "c", 2.5, 3.0, 2),
        (4, "c", 7.0, 9.0, 0),
    ]
    stats = tracing.span_stats(spans).stats()["names"]
    assert stats["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    # the outer b covers the inner one: total 5, not 5 + 2
    assert stats["b"] == {"calls": 2, "s": 5.0, "self_s": 3.0 + 1.5}
    assert stats["c"] == {"calls": 2, "s": 2.5, "self_s": 2.5}


def test_span_stats_rejects_a_span_outside_its_parent():
    with pytest.raises(ValueError):
        tracing.span_stats([(0, "a", 0.0, 1.0, -1), (1, "b", 2.0, 3.0, 0)])


def test_batch_gaps_stay_within_an_epoch():
    spans = [
        (0, "training.run_stage1", 0.0, 20.0, -1),
        (1, "training.optimizer_step", 1.0, 1.5, 0),
        (2, "training.optimizer_step", 3.0, 3.5, 0),
        (3, "inference.evaluate", 4.0, 8.0, 0),
        (4, "training.optimizer_step", 9.0, 9.5, 0),
        (5, "training.optimizer_step", 10.0, 10.5, 0),
        (6, "inference.evaluate", 11.0, 12.0, -1),
    ]
    assert tracing.batch_gaps(spans) == [2.0, 1.0]
    # only the evaluation the stage itself made is per-epoch evaluation
    assert tracing.epoch_eval_seconds(spans) == 4.0


def test_host_factor_averages_the_probe_calls_within_the_interval():
    ref = probe.REFERENCE_KERNEL_S
    samples = [(0.0, 0.1, ref), (2.0, 2.1, 2 * ref), (2.5, 2.6, 4 * ref), (3.9, 4.05, 8 * ref)]
    # only the calls wholly inside [1.9, 4.0] count
    assert probe.host_factor(samples, 1.9, 4.0) == pytest.approx(3.0)
    # a short interval is widened to the second before its end
    assert probe.host_factor(samples, 2.55, 2.7) == pytest.approx(3.0)
    assert probe.host_factor(samples, 10.0, 20.0) == 1.0


def _bindings():
    return {
        (module.__name__, key): id(value)
        for module in tracing.metd_modules()
        for key, value in vars(module).items()
    }


def test_install_wraps_every_binding_and_restore_puts_them_back():
    import metd.cli
    import metd.inference
    import metd.training

    before = _bindings()
    original = metd.inference.evaluate
    installed = tracing.install(tracing.Tracer())
    try:
        assert metd.training.evaluate is not original
        assert metd.cli.evaluate is metd.inference.evaluate is metd.training.evaluate
    finally:
        installed.restore()
    assert _bindings() == before
    assert metd.training.evaluate is original


def test_wrappers_count_calls_made_through_module_attributes():
    import metd.numerics

    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        metd.numerics.cosine_similarity([1.0, 0.0], [1.0, 1.0])
    finally:
        installed.restore()
    names = tracer.stats()["names"]
    assert names["numerics.cosine_similarity"]["calls"] == 1
    # cosine_similarity validates both inputs, and each norm validates again
    assert names["numerics.as_vector"]["calls"] == 4
    assert tracing.missing_calls(tracer.stats(), ["numerics.cosine_similarity", "numerics.log_sum_exp"]) == [
        "numerics.log_sum_exp"
    ]


def test_install_fails_loudly_on_a_missing_binding_and_restores():
    before = _bindings()
    targets = tracing.TARGETS[:3] + (("losses", "no_such_function", "losses.none", True),)
    with pytest.raises(LookupError):
        tracing.install(tracing.Tracer(), targets)
    assert _bindings() == before


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks_at_smoke_size(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    # The untraced and the traced iteration must agree byte for byte.
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_benchmark_lists_its_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fdcheck", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
