"""Shared settings, and fixtures for the expensive end-to-end benchmark runs.

``SYNTHETIC`` is the parsed ``configs/synthetic.cfg`` that the harness
and acceptance tests start from, and ``run_config`` gives the default
settings at seed 0; a variant is ``dataclasses.replace`` of either.

The two-stage training runs on the default benchmark take seconds each,
so they execute once per session here and are shared by the harness
tests and the acceptance suite.
"""

import pathlib
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from metd.config import parse_config, parse_config_text
from metd.harness import (
    Strategy,
    default_benchmark,
    distorted_benchmark,
    run_strategy,
    train_metd,
)
from metd.inference import evaluate, subclass_report

# The shipped desk-scale settings: K=2, temperature 0.055, 30+30 epochs, seed 7.
SYNTHETIC_CFG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "synthetic.cfg"
SYNTHETIC = parse_config(str(SYNTHETIC_CFG))


def run_config(**overrides):
    """The default settings at seed 0, with ``overrides``."""
    return replace(parse_config_text(""), **({"seed": 0} | overrides))


@pytest.fixture(scope="session")
def clean_benchmark():
    return default_benchmark(seed=7)


@pytest.fixture(scope="session")
def benchmark_runs(clean_benchmark):
    """Two-descriptor and single-descriptor runs on the default benchmark."""
    train, test = clean_benchmark
    started = time.perf_counter()
    model_k2, _, _ = train_metd(train, SYNTHETIC)
    model_k1, _, _ = train_metd(train, replace(SYNTHETIC, n_subclasses=1))
    elapsed = time.perf_counter() - started
    return SimpleNamespace(
        model_k2=model_k2,
        report_k2=subclass_report(test, evaluate(test, model_k2)),
        model_k1=model_k1,
        report_k1=evaluate(test, model_k1),
        train_seconds=elapsed,
    )


@pytest.fixture(scope="session")
def clean_probe_row(clean_benchmark):
    return run_strategy(Strategy(kind="linear-probe"), clean_benchmark, SYNTHETIC)


@pytest.fixture(scope="session")
def distorted_rows():
    """Descriptor method and linear probe on the distorted benchmark."""
    splits = distorted_benchmark(seed=7)
    return SimpleNamespace(
        metd=run_strategy(Strategy(kind="metd"), splits, SYNTHETIC),
        probe=run_strategy(Strategy(kind="linear-probe"), splits, SYNTHETIC),
    )
