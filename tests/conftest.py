"""Shared fixtures for the expensive end-to-end benchmark runs.

The two-stage training runs on the default benchmark take tens of
seconds each, so they execute once per session here and are shared by
the harness tests and the acceptance suite.
"""

import time
from types import SimpleNamespace

import pytest

from metd.harness import (
    HarnessSettings,
    Strategy,
    default_benchmark,
    distorted_benchmark,
    run_strategy,
    train_metd,
)
from metd.inference import evaluate, subclass_report


@pytest.fixture(scope="session")
def clean_benchmark():
    return default_benchmark(seed=7)


@pytest.fixture(scope="session")
def benchmark_runs(clean_benchmark):
    """Two-descriptor and single-descriptor runs on the default benchmark."""
    train, test = clean_benchmark
    settings = HarnessSettings()
    started = time.perf_counter()
    model_k2, _, _ = train_metd(train, settings, 7, n_subclasses=2)
    model_k1, _, _ = train_metd(train, settings, 7, n_subclasses=1)
    elapsed = time.perf_counter() - started
    report_k2 = evaluate(test, model_k2)
    return SimpleNamespace(
        model_k2=model_k2,
        report_k2=report_k2,
        subclasses_k2=subclass_report(test, report_k2),
        model_k1=model_k1,
        report_k1=evaluate(test, model_k1),
        train_seconds=elapsed,
    )


@pytest.fixture(scope="session")
def clean_probe_row(clean_benchmark):
    return run_strategy(Strategy(kind="linear-probe"), clean_benchmark, seed=7)


@pytest.fixture(scope="session")
def distorted_rows():
    """Descriptor method and linear probe on the distorted benchmark."""
    splits = distorted_benchmark(seed=7)
    return SimpleNamespace(
        metd=run_strategy(Strategy(kind="metd"), splits, seed=7),
        probe=run_strategy(Strategy(kind="linear-probe"), splits, seed=7),
    )
