"""Stored outputs: seed-7 runs and the fdcheck draws against pinned sha256s.

The other checks compare a change with its parent, so a drift spread over
several changes would pass them all.  The run hashes are those of
``scripts/same_outputs.sh``'s ``seed7/model.ckpt.log``, ``seed7/eval.txt``
and ``seed7/compare.out``, and of the ``.log`` and ``eval.txt`` of its
``projected-sgd-batch`` case (projected-mean encoder, momentum SGD in both
stages, a cosine stage-1 schedule, ``count_scope = batch`` and
oversampling): between them they cover every ``fit`` caller.  These files,
and the fdcheck draws, are the same on an AVX-512 host and under
``NPY_DISABLE_CPU_FEATURES=X86_V4 OPENBLAS_CORETYPE=Haswell``, which picks
the kernels of an AVX2 host; the checkpoints and the datasets are not, so
they are not pinned here.  A log holds every epoch at 10 significant
digits, so it pins the whole training trajectory.  A change that alters
these outputs on purpose updates the hashes and records old and new in
CHANGES.md.
"""

import hashlib
import re

import numpy as np

from metd.cli import main
from metd.training import random_fd_instance

from conftest import SYNTHETIC_CFG

SEED7_LOG_SHA256 = "5ed2596cd5dcfe175578fd808196f3d0df110a94175f595bc626b6e5c5cd5860"
SEED7_EVAL_SHA256 = "512e09b427545c39743f010f20edac5f2ebe9219fb18feb5528a2286a3bcc04d"
SEED7_COMPARE_SHA256 = "abad4cc503765572bc600eed4bccb77e4fb79773e308339aa93be7df240da01e"
VARIANT_LOG_SHA256 = "4594da66dd968dd33658d0bf58e4b7e6b37f247cef7d4176c3b47ee6f915d555"
VARIANT_EVAL_SHA256 = "9c96a64dae08aed493ba532e1a8dba56090c5ff80f03b0696e0a534f32e0ec45"
FD_INSTANCES_SHA256 = "a749492c280bfe541b11ffec64614b4040711cf2279eb512873e861634679db6"

# same_outputs.sh's projected-sgd-batch case: its overrides of configs/synthetic.cfg.
VARIANT = {
    "seed": "7",
    "encoder_kind": "projected-mean",
    "token_dim": "12",
    "stage1_optimizer": "sgd-momentum",
    "stage2_optimizer": "sgd-momentum",
    "stage1_schedule": "cosine",
    "count_scope": "batch",
    "oversample": "true",
    "stage1_epochs": "4",
    "stage2_epochs": "4",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _train_and_eval(tmp_path, config: str, capsys):
    """Synth, train and ``eval --out`` under ``config``: (the log's bytes, the report's)."""
    data, checkpoint, report = tmp_path / "data", tmp_path / "model.ckpt", tmp_path / "eval.txt"
    assert main(["synth", "--config", config, str(data)]) == 0
    assert main(["train", "--config", config, str(data), str(checkpoint)]) == 0
    assert main(["eval", "--out", str(report), str(checkpoint), str(data / "test.tsv")]) == 0
    capsys.readouterr()
    return (tmp_path / "model.ckpt.log").read_bytes(), report.read_bytes()


def test_the_seed7_log_and_eval_report_match_their_stored_hashes(tmp_path, capsys):
    log, report = _train_and_eval(tmp_path, str(SYNTHETIC_CFG), capsys)
    assert _sha256(log) == SEED7_LOG_SHA256
    assert _sha256(report) == SEED7_EVAL_SHA256


def test_the_seed7_compare_rows_match_their_stored_hash(tmp_path, capsys):
    # Every strategy, the ones that train through fit and the one that does not.
    data = tmp_path / "data"
    assert main(["synth", "--config", str(SYNTHETIC_CFG), str(data)]) == 0
    capsys.readouterr()
    assert main(["compare", "--config", str(SYNTHETIC_CFG), str(data)]) == 0
    rows = re.sub(r" wall_time=[^ ]*", "", capsys.readouterr().out)
    assert _sha256(rows.encode()) == SEED7_COMPARE_SHA256


def test_the_projected_sgd_batch_log_and_eval_report_match_their_stored_hashes(tmp_path, capsys):
    # Each overridden key's line is replaced, as same_outputs.sh's override does.
    lines = SYNTHETIC_CFG.read_text().splitlines()
    kept = [line for line in lines if line.split("=")[0].strip() not in VARIANT]
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(kept + [f"{k} = {v}" for k, v in VARIANT.items()]) + "\n")
    log, report = _train_and_eval(tmp_path, str(config), capsys)
    assert _sha256(log) == VARIANT_LOG_SHA256
    assert _sha256(report) == VARIANT_EVAL_SHA256


def test_the_fdcheck_instances_match_their_stored_hash():
    # Both encoder kinds and both adapter kinds occur among these six draws.
    digest = hashlib.sha256()
    for seed in (0, 7, 101):
        for stage in (1, 2):
            model, sample, counts = random_fd_instance(seed=seed, stage=stage)
            projection = model.encoder.projection
            arrays = (
                model.bank.tokens, model.bank.context, model.adapter.weight, model.adapter.bias,
                np.zeros(0) if projection is None else projection, sample.frames, counts,
                np.array([sample.label]), np.array([model.temperature]),
            )
            for array in arrays:
                digest.update(f"{array.dtype}{array.shape}".encode())
                digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == FD_INSTANCES_SHA256
