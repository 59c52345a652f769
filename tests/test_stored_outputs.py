"""Stored outputs: a seed-7 run's metrics log and eval report against pinned sha256s.

The other checks compare a change with its parent, so a drift spread over
several changes would pass them all.  These hashes are those of
``scripts/same_outputs.sh``'s ``seed7/model.ckpt.log`` and
``seed7/eval.txt``.  Both files are the same on an AVX-512 host and under
``NPY_DISABLE_CPU_FEATURES=X86_V4 OPENBLAS_CORETYPE=Haswell``, which picks
the kernels of an AVX2 host; the checkpoint and the datasets are not, so
they are not pinned here.  The log holds all 60 epochs at 10 significant
digits, so it pins the whole training trajectory.  A change that alters
these outputs on purpose updates the hashes and records old and new in
CHANGES.md.
"""

import hashlib

from metd.cli import main

from conftest import SYNTHETIC_CFG

SEED7_LOG_SHA256 = "5ed2596cd5dcfe175578fd808196f3d0df110a94175f595bc626b6e5c5cd5860"
SEED7_EVAL_SHA256 = "512e09b427545c39743f010f20edac5f2ebe9219fb18feb5528a2286a3bcc04d"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_the_seed7_log_and_eval_report_match_their_stored_hashes(tmp_path, capsys):
    config, data, checkpoint = str(SYNTHETIC_CFG), tmp_path / "data", tmp_path / "model.ckpt"
    report = tmp_path / "eval.txt"
    assert main(["synth", "--config", config, str(data)]) == 0
    assert main(["train", "--config", config, str(data), str(checkpoint)]) == 0
    assert main(["eval", "--out", str(report), str(checkpoint), str(data / "test.tsv")]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "model.ckpt.log") == SEED7_LOG_SHA256
    assert _sha256(report) == SEED7_EVAL_SHA256
