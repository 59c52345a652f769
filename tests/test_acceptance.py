"""Release gate: one test per contract, one printed verdict line each.

Run with ``pytest -v tests/test_acceptance.py``.  Every test prints
``<label>: PASS/FAIL (<measurements>)`` through the capture guard so the
verdict lines always reach the terminal, then asserts.
"""

import subprocess
import sys
import time

import numpy as np

from test_data import _random_dataset_with_sequences
from test_losses import (
    _alpha,
    _clip_ce,
    _mp_alpha,
    _mp_clip,
    _mp_fine_grained,
    _mp_margin,
    _one_loss,
    _random_grid,
)
from test_model import _randomized_model

from metd.data import Unit, load_dataset, save_dataset
from metd.inference import predict, report_from_labels, temporal_mean_pool, unit_embedding
from metd.model import (
    PROJECTED_MEAN,
    bank_embeddings,
    build_model,
    encode_image,
    load_checkpoint,
    save_checkpoint,
)
from metd.training import fd_sweep, random_fd_instance


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_gradients_match_finite_differences(capsys):
    for stage in (1, 2):
        for seed in range(20):
            model, _, _ = random_fd_instance(seed=seed, stage=stage)
            assert model.n_classes <= 5
            assert model.n_subclasses <= 3
            assert model.bank.n_tokens <= 3
            assert model.adapter.feature_dim <= 16
    started = time.perf_counter()
    rows = fd_sweep(seed=0, instances=20, h=1e-5)
    elapsed = time.perf_counter() - started
    worst = max(row[3] for row in rows)
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(
        capsys,
        "analytic vs finite-difference gradients",
        ok,
        f"40 instances, max_rel_err={worst:.3e} < 1e-4, {elapsed:.1f}s < 30s",
    )


def test_single_descriptor_reduces_to_plain_contrastive_loss(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(60)
    worst = 0.0
    alpha_exact = True
    for _ in range(1000):
        grid = _random_grid(rng, k=1)
        target = int(rng.integers(grid.n_classes))
        counts = np.array([int(rng.integers(1, 100))])
        breakdown = _one_loss(grid, target, counts)
        alpha_exact = alpha_exact and breakdown.alpha[0] == 1.0
        fine = breakdown.fg[0]
        plain = float(_mp_clip(grid.values[0, :, 0], grid.temperature, target))
        worst = max(worst, abs(fine - plain))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and alpha_exact and elapsed < 5.0
    _verdict(
        capsys,
        "single-descriptor reduction to plain contrastive loss",
        ok,
        f"1000 instances, max_err vs 50-digit reference={worst:.1e} <= 1e-12, alpha==1 exact, "
        f"{elapsed:.1f}s < 5s",
    )


def test_modulating_factor_identities(capsys):
    equal_ok = True
    for k in range(1, 11):
        counts = np.full(k, 6)
        for closest in range(k):
            equal_ok = equal_ok and abs(_alpha(counts, closest) - 1.0) <= 1e-12
    reference = _alpha([1, 3], 0)
    ref_ok = abs(reference - 2.6430254750632687) <= 1e-9
    order_ok = True
    for n1 in range(1, 21):
        for n2 in range(1, 21):
            counts = np.array([n1, n2])
            rare = _alpha(counts, int(np.argmin(counts)))
            common = _alpha(counts, int(np.argmax(counts)))
            order_ok = order_ok and rare >= common
    ok = equal_ok and ref_ok and order_ok
    _verdict(
        capsys,
        "modulating factor identities",
        ok,
        f"equal-counts==1 for K=1..10, alpha([1,3],0)={reference:.10f}, "
        f"rare>=common on the 20x20 grid",
    )


def test_losses_match_extended_precision_reference(capsys):
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(500):
        grid = _random_grid(rng)
        values, tau = grid.values[0], grid.temperature
        target = int(rng.integers(grid.n_classes))
        counts = rng.integers(0, 9, size=grid.n_subclasses)
        closest = int(grid.best_subclasses[0, target])
        counts[closest] = int(rng.integers(1, 9))
        breakdown = _one_loss(grid, target, counts)
        alpha = _mp_alpha(counts, closest)
        fg = float(_mp_fine_grained(values, tau, target, alpha))
        margin = float(_mp_margin(values, tau, target))
        worst = max(
            worst,
            abs(breakdown.fg[0] - fg),
            abs(breakdown.margin[0] - margin),
            abs(breakdown.total[0] - (fg + margin)),
        )
        sims = rng.uniform(-1.0, 1.0, size=4)
        t2 = int(rng.integers(4))
        worst = max(
            worst,
            abs(_clip_ce(sims, t2, tau) - float(_mp_clip(sims, tau, t2))),
        )
    ok = worst <= 1e-8
    _verdict(
        capsys,
        "loss values vs extended-precision reference",
        ok,
        f"500 instances, max_abs_err={worst:.2e} <= 1e-8",
    )


def test_two_descriptors_on_the_default_benchmark(capsys, benchmark_runs):
    runs = benchmark_runs
    ok = (
        runs.report_k2.war >= 0.95
        and runs.report_k2.subclass_purity >= 0.9
        and runs.report_k2.war > runs.report_k1.war
        and runs.train_seconds < 120.0
    )
    _verdict(
        capsys,
        "default benchmark two-descriptor run",
        ok,
        f"war={runs.report_k2.war:.4f} >= 0.95, "
        f"purity={runs.report_k2.subclass_purity:.4f} >= 0.9, "
        f"K=2 beats K=1 ({runs.report_k2.war:.4f} > {runs.report_k1.war:.4f}), "
        f"{runs.train_seconds:.0f}s < 120s",
    )


def test_adaptation_recovers_the_distorted_benchmark(capsys, distorted_rows):
    rows = distorted_rows
    ok = rows.metd.war >= rows.probe.war
    _verdict(
        capsys,
        "distorted benchmark vs linear probe",
        ok,
        f"metd war={rows.metd.war:.4f} >= probe war={rows.probe.war:.4f}",
    )


def test_accuracy_metrics_hand_checked(capsys):
    report = report_from_labels([0, 0, 1, 1, 2], [0, 0, 1, 0, 1], n_classes=3)
    fixture_ok = abs(report.war - 0.6) <= 1e-12 and abs(report.uar - 0.5) <= 1e-12
    rng = np.random.default_rng(62)
    balanced_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 6))
        per_class = int(rng.integers(1, 9))
        truths = np.repeat(np.arange(n), per_class)
        preds = rng.integers(0, n, size=truths.size)
        rep = report_from_labels(truths.tolist(), preds.tolist(), n)
        balanced_ok = balanced_ok and abs(rep.war - rep.uar) <= 1e-12
    ok = fixture_ok and balanced_ok
    _verdict(
        capsys,
        "hand-checked accuracy metrics",
        ok,
        f"war={report.war:.6f} uar={report.uar:.6f} exact, "
        f"war==uar on 200 balanced draws",
    )


def test_pipeline_is_bit_reproducible(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "seed = 9\nn_classes = 3\nsubclusters_per_class = 1\n"
        "samples_per_subcluster = 10\nfeature_dim = 8\nembed_dim = 8\n"
        "token_dim = 8\nsigma = 0.1\ninter_class_min_angle = 60\n"
        "n_subclasses = 2\nn_tokens = 2\ncontext_length = 2\n"
        "temperature = 0.055\nstage1_epochs = 3\nstage1_batch_size = 8\n"
        "stage2_epochs = 2\nstage2_batch_size = 8\n"
    )

    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "metd", *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        return result

    run("synth", "--config", str(config), str(tmp_path / "data"))
    reports = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        run("train", "--config", str(config), str(tmp_path / "data"), str(ckpt))
        report = tmp_path / f"{tag}.txt"
        run("eval", "--out", str(report), str(ckpt),
            str(tmp_path / "data" / "test.tsv"))
        reports.append(report)
    ckpt_ok = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    log_ok = (tmp_path / "a.ckpt.log").read_bytes() == (
        tmp_path / "b.ckpt.log").read_bytes()
    report_ok = reports[0].read_bytes() == reports[1].read_bytes()
    ok = ckpt_ok and log_ok and report_ok
    _verdict(
        capsys,
        "pipeline bit-reproducibility",
        ok,
        f"checkpoint identical={ckpt_ok}, log identical={log_ok}, "
        f"eval report identical={report_ok}",
    )


def test_sequence_prediction_equals_pooled_prediction(capsys):
    model = build_model(
        n_classes=3, n_subclasses=2, n_tokens=2, token_dim=16, embed_dim=16,
        feature_dim=16, context_length=2, temperature=0.055, seed=63,
    )
    rng = np.random.default_rng(63)
    model.adapter.weight[:] = 0.2 * rng.normal(size=model.adapter.weight.shape)
    model.adapter.bias[:] = 0.2 * rng.normal(size=model.adapter.bias.shape)
    stack = bank_embeddings(model.bank, model.encoder)
    # The adapter is affine, so encoding each frame and then pooling is the
    # same map, rounded differently: its logits may differ in the last bits.
    tolerance = 1e-12
    mismatches = label_changes = 0
    worst = 0.0
    for _ in range(1000):
        n_frames = int(rng.integers(1, 9))
        unit = Unit(frames=rng.normal(size=(n_frames, 16)), label=0)
        direct = predict(unit_embedding(model, unit), stack)
        via_pool = predict(encode_image(model.adapter, temporal_mean_pool(unit.frames)), stack)
        if not (
            np.array_equal(direct.logits, via_pool.logits)
            and direct.label == via_pool.label
        ):
            mismatches += 1
        per_frame = predict(temporal_mean_pool(encode_image(model.adapter, unit.frames)), stack)
        worst = max(worst, float(np.max(np.abs(per_frame.logits - direct.logits))))
        label_changes += per_frame.label != direct.label
    ok = mismatches == 0 and worst <= tolerance and label_changes == 0
    _verdict(
        capsys,
        "sequence vs pooled-embedding prediction",
        ok,
        f"1000 sequences, {mismatches} mismatches (bitwise); encode-then-pool "
        f"max |dlogit|={worst:.1e} <= {tolerance:g}, {label_changes} label changes",
    )


def test_file_round_trips_are_byte_identical(capsys, tmp_path):
    dataset_ok = True
    for seed in range(5):
        dataset = _random_dataset_with_sequences(seed)
        path = tmp_path / f"data_{seed}.tsv"
        save_dataset(dataset, str(path))
        first = path.read_bytes()
        save_dataset(load_dataset(str(path)), str(path))
        dataset_ok = dataset_ok and path.read_bytes() == first
    checkpoint_ok = True
    combos = [
        ("identity-mean", True),
        ("identity-mean", False),
        (PROJECTED_MEAN, True),
        (PROJECTED_MEAN, False),
    ]
    for index, (kind, residual) in enumerate(combos):
        model = _randomized_model(70 + index, encoder_kind=kind, residual=residual)
        path = tmp_path / f"model_{index}.ckpt"
        save_checkpoint(model, str(path))
        first = path.read_bytes()
        save_checkpoint(load_checkpoint(str(path)), str(path))
        checkpoint_ok = checkpoint_ok and path.read_bytes() == first
    ok = dataset_ok and checkpoint_ok
    _verdict(
        capsys,
        "dataset and checkpoint round trips",
        ok,
        f"5 datasets and 4 checkpoint layouts, save->load->save byte-identical",
    )
