"""End-to-end command-line checks, run through fresh interpreter processes."""

import re
import subprocess
import sys

import numpy as np
import pytest

from metd.config import parse_config
from metd.data import (
    Vocabulary,
    generate_synthetic,
    load_dataset,
    load_vocabulary,
    nearest_words,
    save_dataset,
    save_vocabulary,
)
from metd.harness import train_metd
from metd.model import load_checkpoint, save_checkpoint

from conftest import SYNTHETIC_CFG
from test_training import _nan_on_call

COMPACT_CONFIG = """\
seed = 5
n_classes = 3
subclusters_per_class = 1
samples_per_subcluster = 10
feature_dim = 8
embed_dim = 8
token_dim = 8
sigma = 0.1
inter_class_min_angle = 60
n_subclasses = 2
n_tokens = 2
context_length = 2
temperature = 0.055
stage1_epochs = 3
stage1_batch_size = 8
stage2_epochs = 2
stage2_batch_size = 8
"""


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "metd", *argv], capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + train pass shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.cfg"
    config.write_text(COMPACT_CONFIG)
    data = root / "data"
    synth = run_cli("synth", "--config", str(config), str(data))
    assert synth.returncode == 0, synth.stderr
    checkpoint = root / "model.ckpt"
    train = run_cli("train", "--config", str(config), str(data), str(checkpoint))
    assert train.returncode == 0, train.stderr
    return root, config, data, checkpoint


def test_synth_writes_both_splits(workspace):
    root, config, data, _ = workspace
    assert (data / "train.tsv").exists()
    assert (data / "test.tsv").exists()
    again = root / "again"
    result = run_cli("synth", "--config", str(config), str(again))
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("wrote ") for line in lines)
    assert "dim=8" in lines[0] and "classes=3" in lines[0]
    assert (again / "train.tsv").read_bytes() == (data / "train.tsv").read_bytes()
    assert (again / "test.tsv").read_bytes() == (data / "test.tsv").read_bytes()


def test_train_reports_stages_and_writes_artifacts(workspace):
    root, config, data, checkpoint = workspace
    result = run_cli("train", "--config", str(config), str(data),
                     str(root / "second.ckpt"))
    assert result.returncode == 0
    out = result.stdout.splitlines()
    assert out[0].startswith("stage 1: 3 epochs")
    assert out[1].startswith("stage 2: 2 epochs")
    assert out[2] == f"wrote {root / 'second.ckpt'}"
    assert out[3] == f"wrote {root / 'second.ckpt'}.log"
    log_lines = (root / "second.ckpt.log").read_text().splitlines()
    assert log_lines[0] == "epoch\tfg\tmargin\ttotal\twar\tlr"
    assert len(log_lines) == 1 + 3 + 2
    assert [line.split("\t")[0] for line in log_lines[1:]] == ["1", "2", "3", "4", "5"]


def test_train_and_eval_are_deterministic(workspace):
    root, config, data, checkpoint = workspace
    other = root / "repeat.ckpt"
    result = run_cli("train", "--config", str(config), str(data), str(other))
    assert result.returncode == 0
    assert other.read_bytes() == checkpoint.read_bytes()
    assert (root / "repeat.ckpt.log").read_bytes() == (
        root / "model.ckpt.log").read_bytes()
    evals = [
        run_cli("eval", str(checkpoint), str(data / "test.tsv")) for _ in range(2)
    ]
    assert all(e.returncode == 0 for e in evals)
    assert evals[0].stdout == evals[1].stdout


def test_eval_report_content(workspace):
    root, _, data, checkpoint = workspace
    out_path = root / "report.txt"
    result = run_cli("eval", "--out", str(out_path), str(checkpoint),
                     str(data / "test.tsv"))
    assert result.returncode == 0
    assert result.stdout.startswith("confusion (rows true, cols predicted):")
    war_line = next(l for l in result.stdout.splitlines() if l.startswith("war="))
    assert 0.0 <= float(war_line.partition("=")[2]) <= 1.0
    assert "uar=" in result.stdout
    assert "subclass_histogram=" in result.stdout
    purity_line = next(
        l for l in result.stdout.splitlines() if l.startswith("subclass_purity=")
    )
    assert 0.0 <= float(purity_line.partition("=")[2]) <= 1.0
    assert out_path.read_text() == result.stdout


def test_decode_matches_the_nearest_word_ranking(workspace):
    root, _, data, checkpoint = workspace
    rng = np.random.default_rng(23)
    vocab = Vocabulary(
        words=[f"word{i}" for i in range(12)], vectors=rng.normal(size=(12, 8))
    )
    vocab_path = root / "vocab.tsv"
    save_vocabulary(vocab, str(vocab_path))
    result = run_cli("decode", str(checkpoint), str(vocab_path))
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "class\t(k,m)\tnearest words"
    assert len(lines) == 1 + 3 * 2 * 2  # classes * subclasses * tokens
    model = load_checkpoint(str(checkpoint))
    loaded_vocab = load_vocabulary(str(vocab_path))
    row = 1
    for i in range(3):
        for k in range(2):
            for m in range(2):
                ranked = nearest_words(loaded_vocab, model.bank.tokens[i, k, m], 3)
                words = "\t".join(f"{w}:{d:.6f}" for w, d in ranked)
                assert lines[row] == f"{i}\t({k + 1},{m + 1})\t{words}"
                row += 1


def test_compare_prints_one_row_per_strategy(workspace):
    root, _, data, _ = workspace
    config = root / "compare.cfg"
    config.write_text(
        COMPACT_CONFIG + "strategies = zero-shot-fixed, linear-probe\n"
        "probe_epochs = 5\n"
    )
    first = run_cli("compare", "--config", str(config), str(data))
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert lines[0].startswith("strategy")
    assert lines[1].startswith("zero-shot-fixed")
    assert lines[2].startswith("linear-probe")
    detail = [l for l in lines if l.startswith("strategy=")]
    assert len(detail) == 2
    second = run_cli("compare", "--config", str(config), str(data))

    def strip_wall(text):
        return [
            " ".join(tok for tok in line.split() if not tok.startswith("wall_time="))
            for line in text.splitlines()
        ]

    assert strip_wall(first.stdout) == strip_wall(second.stdout)


def test_fdcheck_passes_and_prints_group_lines(tmp_path):
    config = tmp_path / "fd.cfg"
    config.write_text("fdcheck_instances = 3\n")
    result = run_cli("fdcheck", "--config", str(config))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("stage 1\tbank.tokens\tinstances=3")
    assert lines[1].startswith("stage 2\tadapter.bias\tinstances=3")
    assert lines[2].startswith("stage 2\tadapter.weight\tinstances=3")
    assert lines[3].startswith("fdcheck: PASS (max_rel_err=")


def test_fdcheck_detects_a_corrupted_gradient(tmp_path):
    config = tmp_path / "fd.cfg"
    config.write_text("fdcheck_instances = 2\nfdcheck_corrupt = true\n")
    result = run_cli("fdcheck", "--config", str(config))
    assert result.returncode == 1
    assert "fdcheck: FAIL" in result.stdout.splitlines()[-1]


def test_fdcheck_fails_on_a_nan_error(tmp_path, monkeypatch, capsys):
    # Call 3 is the first instance's adapter.weight; every other error is
    # finite and small, so only the NaN can fail the check.
    from metd.cli import main

    _nan_on_call(monkeypatch, 3)
    config = tmp_path / "fd.cfg"
    config.write_text("fdcheck_instances = 2\n")
    assert main(["fdcheck", "--config", str(config)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].endswith("max_rel_err=nan")
    assert lines[3] == "fdcheck: FAIL stage 2 adapter.weight max_rel_err=nan exceeds tolerance 0.0001"


def test_config_errors_exit_2_and_name_the_key(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("sgima = 0.1\n")
    result = run_cli("synth", "--config", str(bad_key), str(tmp_path / "out"))
    assert result.returncode == 2
    assert "config error" in result.stderr and "sgima" in result.stderr

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("sigma = -1\n")
    result = run_cli("synth", "--config", str(bad_value), str(tmp_path / "out"))
    assert result.returncode == 2
    assert "sigma" in result.stderr


def test_a_negative_seed_is_a_config_error_for_every_command(tmp_path):
    # NumPy's generators take no negative seed: the config must refuse it
    # before any command seeds one.
    config = tmp_path / "negative.cfg"
    config.write_text("seed = -1\n")
    data = tmp_path / "data"
    for argv in (("synth", str(data)), ("train", str(data), str(tmp_path / "m.ckpt")),
                 ("fdcheck",)):
        result = run_cli(argv[0], "--config", str(config), *argv[1:])
        assert (result.returncode, result.stdout) == (2, ""), argv
        assert result.stderr == "config error: seed: must be >= 0, got -1 (line 1)\n", argv


def test_train_rejects_a_temperature_whose_reciprocal_overflows(workspace, tmp_path):
    # 1e-320 is positive and finite, but the logits s / tau are not: the
    # error must name the temperature before training, with no warning.
    _, _, data, _ = workspace
    config = tmp_path / "tiny.cfg"
    config.write_text(COMPACT_CONFIG.replace("temperature = 0.055", "temperature = 1e-320"))
    checkpoint = tmp_path / "model.ckpt"
    result = run_cli("train", "--config", str(config), str(data), str(checkpoint))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: temperature 1e-320 is too small: 1/temperature overflows\n"
    assert not checkpoint.exists()


def test_synth_rejects_an_infeasible_geometry_before_writing(tmp_path):
    # 3 classes x 2 subcluster means need 6 orthonormal columns.
    config = tmp_path / "narrow.cfg"
    config.write_text("feature_dim = 5\nembed_dim = 5\ntoken_dim = 5\n")
    out = tmp_path / "out"
    result = run_cli("synth", "--config", str(config), str(out))
    assert result.returncode == 2
    assert result.stderr == (
        "error: feature_dim 5 too small for 3 classes x 2 subcluster means (needs >= 6)\n"
    )
    assert not out.exists()


def test_data_errors_exit_2(workspace, tmp_path):
    root, config, data, checkpoint = workspace
    missing = run_cli("train", "--config", str(config), str(tmp_path / "nowhere"),
                      str(tmp_path / "x.ckpt"))
    assert missing.returncode == 2
    assert "io error" in missing.stderr

    corrupt = tmp_path / "corrupt.tsv"
    corrupt.write_text("not a dataset\n")
    result = run_cli("eval", str(checkpoint), str(corrupt))
    assert result.returncode == 2
    assert "parse error" in result.stderr

    bad_row = tmp_path / "bad_row.tsv"
    bad_row.write_text("metd-embed v1 dim=2 classes=2\n0\t-\t-\t1,2\n7\t-\t-\t1,2\n")
    result = run_cli("eval", str(checkpoint), str(bad_row))
    assert result.returncode == 2
    assert result.stderr == "parse error: line 3: label 7 out of range [0, 2)\n"

    mismatched = tmp_path / "mismatch.cfg"
    mismatched.write_text("seed = 5\n")  # defaults: feature_dim 16 vs data dim 8
    result = run_cli("train", "--config", str(mismatched), str(data),
                     str(tmp_path / "y.ckpt"))
    assert result.returncode == 2
    assert "error" in result.stderr


def test_a_file_that_is_not_utf8_is_a_parse_error_at_its_line(workspace, tmp_path):
    # The reader decodes ahead in blocks; the error still names the line.
    _, _, data, checkpoint = workspace
    lines = (data / "test.tsv").read_bytes().split(b"\n")
    lines[2] = lines[2][:3] + b"\xff" + lines[2][3:]
    not_utf8 = tmp_path / "not_utf8.tsv"
    not_utf8.write_bytes(b"\n".join(lines))
    result = run_cli("eval", str(checkpoint), str(not_utf8))
    assert result.returncode == 2
    assert result.stderr == "parse error: line 3: not UTF-8 text: invalid start byte\n"

    config = tmp_path / "not_utf8.cfg"
    config.write_bytes(b"seed = 5\n# caf\xe9\n")
    result = run_cli("fdcheck", "--config", str(config))
    assert result.returncode == 2
    assert result.stderr == "config error: not UTF-8 text: invalid continuation byte (line 2)\n"


def test_train_rejects_data_of_another_dimension_without_a_residual_adapter(
    workspace, tmp_path
):
    # The model is sized to the data, so a non-residual adapter would fit
    # 8-dim data; the config's feature_dim 16 still has to match it.
    _, _, data, _ = workspace
    config = tmp_path / "nonresidual.cfg"
    config.write_text("seed = 5\nresidual_adapter = false\n")
    result = run_cli("train", "--config", str(config), str(data), str(tmp_path / "z.ckpt"))
    assert result.returncode == 2
    assert "feature_dim 8" in result.stderr and "feature_dim 16" in result.stderr
    assert not (tmp_path / "z.ckpt").exists()


def test_compare_rejects_data_of_another_dimension_before_training(
    workspace, tmp_path, monkeypatch, capsys
):
    # metd compare makes metd train's check: with a non-residual adapter
    # every strategy would fit the 8-dim data, but the config says 16.
    import metd.harness
    from metd.cli import main

    calls = []
    monkeypatch.setattr(metd.harness, "run_strategy", lambda *args, **kw: calls.append(args))
    _, _, data, _ = workspace
    config = tmp_path / "nonresidual.cfg"
    config.write_text("seed = 5\nresidual_adapter = false\n")
    assert main(["compare", "--config", str(config), str(data)]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "feature_dim 8" in captured.err and "feature_dim 16" in captured.err


@pytest.mark.parametrize("empty", ["train", "test"])
def test_compare_on_a_header_only_split_is_a_data_error(workspace, tmp_path, empty):
    # A split file with no rows is exit 2 with one error line, not a
    # traceback from pooling no units.
    root, _, data, _ = workspace
    config = root / "empty.cfg"
    config.write_text(COMPACT_CONFIG + "strategies = linear-probe, metd\n")
    for name in ("train", "test"):
        lines = (data / f"{name}.tsv").read_text().splitlines(keepends=True)
        (tmp_path / f"{name}.tsv").write_text("".join(lines[:1] if name == empty else lines))
    result = run_cli("compare", "--config", str(config), str(tmp_path))
    assert result.returncode == 2
    assert result.stdout == ""
    verb = "train on" if empty == "train" else "evaluate"
    assert result.stderr == f"error: cannot {verb} an empty dataset\n"


@pytest.mark.parametrize("oversample", ["false", "true"])
def test_train_on_a_header_only_split_is_a_data_error(workspace, tmp_path, oversample):
    # With or without oversampling, an empty train split is one error line
    # from the stages, not an oversampling error about class 0.
    _, _, data, _ = workspace
    config = tmp_path / "run.cfg"
    config.write_text(COMPACT_CONFIG + f"oversample = {oversample}\n")
    header = (data / "train.tsv").read_text().splitlines(keepends=True)[0]
    (tmp_path / "train.tsv").write_text(header)
    checkpoint = tmp_path / "model.ckpt"
    result = run_cli("train", "--config", str(config), str(tmp_path), str(checkpoint))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: cannot train on an empty dataset\n"
    assert not checkpoint.exists()


def test_no_metd_module_imports_scipy():
    # SciPy's import costs more than all of metd's own; no command needs it.
    code = (
        "import pkgutil, sys, metd, metd.cli\n"
        "for module in pkgutil.iter_modules(metd.__path__):\n"
        "    if module.name != '__main__':\n"
        "        __import__('metd.' + module.name)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_train_command_and_train_metd_write_the_same_checkpoint(tmp_path):
    # metd train is train_metd plus writing the checkpoint and its log.
    text = re.sub(r"(?m)^(stage[12]_epochs) = .*$", r"\1 = 2", SYNTHETIC_CFG.read_text())
    config_path = tmp_path / "short.cfg"
    config_path.write_text(text)
    config = parse_config(str(config_path))
    train, _ = generate_synthetic(config.synth_config())
    save_dataset(train, str(tmp_path / "train.tsv"))
    result = run_cli("train", "--config", str(config_path), str(tmp_path),
                     str(tmp_path / "cli.ckpt"))
    assert result.returncode == 0, result.stderr
    model, trace1, trace2 = train_metd(load_dataset(str(tmp_path / "train.tsv")), config)
    assert (len(trace1), len(trace2)) == (2, 2)
    save_checkpoint(model, str(tmp_path / "api.ckpt"))
    assert (tmp_path / "cli.ckpt").read_bytes() == (tmp_path / "api.ckpt").read_bytes()


def test_decode_vocab_dim_mismatch_exits_2(workspace, tmp_path):
    _, _, _, checkpoint = workspace
    rng = np.random.default_rng(24)
    small = Vocabulary(words=["a", "b"], vectors=rng.normal(size=(2, 4)))
    vocab_path = tmp_path / "small.tsv"
    save_vocabulary(small, str(vocab_path))
    result = run_cli("decode", str(checkpoint), str(vocab_path))
    assert result.returncode == 2
    assert "vocabulary dim" in result.stderr


def test_eval_has_no_config_option(workspace, tmp_path, capsys):
    # eval reads only the checkpoint and the data: a --config it would not
    # read is a usage error, not silently ignored.
    from metd.cli import main

    _, _, data, checkpoint = workspace
    argv = ["eval", "--config", str(tmp_path / "absent.cfg"), str(checkpoint),
            str(data / "test.tsv")]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_missing_required_argument_exits_2():
    result = run_cli("synth")
    assert result.returncode == 2


def test_eval_and_decode_never_import_numpy_random(workspace, tmp_path):
    # Neither command draws a random number, and numpy.random is the
    # largest module tree an import of metd.cli would otherwise load.
    root, config, data, checkpoint = workspace
    vocab_path = tmp_path / "vocab.tsv"
    save_vocabulary(
        Vocabulary(words=["a", "b", "c"], vectors=np.eye(3, 8)), str(vocab_path)
    )
    commands = [["eval", str(checkpoint), str(data / "test.tsv")],
                ["decode", str(checkpoint), str(vocab_path)]]
    code = (
        "import contextlib, io, sys, metd.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert [metd.cli.main(argv) for argv in {commands!r}] == [0, 0]\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
