"""Key=value config parsing, defaults, diagnostics, and derived objects."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from metd.config import RunConfig, parse_config, parse_config_text
from metd.errors import ConfigError
from metd.harness import STRATEGY_KINDS
from metd.training import cosine_lr, fit

from conftest import SYNTHETIC, SYNTHETIC_CFG


def test_empty_text_yields_all_defaults():
    config = parse_config_text("")
    assert config.seed == 7
    assert config.n_classes == 3
    assert config.subclusters_per_class == 2
    assert config.samples_per_subcluster == 125
    assert config.feature_dim == 16
    assert config.sigma == 0.1
    assert config.inter_class_min_angle == 45.0
    assert config.intra_class_angle == 0.0
    assert (config.token_dim, config.embed_dim) == (16, 16)
    assert config.n_subclasses == 5
    assert config.n_tokens == 4
    assert config.encoder_kind == "identity-mean"
    assert config.residual_adapter is True
    assert config.temperature == 0.01
    assert (config.stage1_epochs, config.stage1_lr) == (2, 0.01)
    assert (config.stage1_weight_decay, config.stage1_schedule) == (0.0, "constant")
    assert (config.stage2_epochs, config.stage2_lr) == (50, 5e-6)
    assert (config.stage2_weight_decay, config.stage2_schedule) == (0.1, "cosine")
    assert config.count_scope == "epoch"
    assert config.oversample is False
    assert config.strategies == STRATEGY_KINDS
    assert (config.probe_epochs, config.probe_lr) == (40, 0.05)
    assert config.decode_top_n == 3
    assert (config.fdcheck_instances, config.fdcheck_step) == (20, 1e-5)
    assert config.fdcheck_tolerance == 1e-4
    assert config.fdcheck_corrupt is False


def test_comments_and_blank_lines_are_ignored():
    config = parse_config_text(
        "# a full-line comment\n"
        "\n"
        "seed = 12  # trailing comment\n"
        "   \n"
        "sigma=0.25\n"
    )
    assert config.seed == 12
    assert config.sigma == 0.25


def _error(text):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    return info.value


def _replace_errors(bad_values):
    """Each ``(key, value)`` fails ``replace`` of the defaults with an error naming the key."""
    defaults = parse_config_text("")
    for key, value in bad_values:
        with pytest.raises(ConfigError) as info:
            replace(defaults, **{key: value})
        assert info.value.key == key and str(info.value).startswith(f"{key}: ")


def test_unknown_key_is_rejected_with_location():
    err = _error("sigmaa = 0.1\n")
    assert err.key == "sigmaa"
    assert err.line == 1


def test_duplicate_key_is_rejected():
    err = _error("seed = 1\nseed = 2\n")
    assert err.key == "seed"
    assert err.line == 2


def test_missing_equals_sign():
    err = _error("seed 5\n")
    assert err.line == 1


def test_empty_value():
    err = _error("seed =\n")
    assert err.key == "seed"


def test_type_errors_name_the_key_and_line():
    err = _error("# comment\nseed = 1.5\n")
    assert err.key == "seed" and err.line == 2
    err = _error("sigma = fast\n")
    assert err.key == "sigma" and err.line == 1
    err = _error("sigma = inf\n")
    assert err.key == "sigma"
    err = _error("oversample = yes\n")
    assert err.key == "oversample"
    _replace_errors([
        ("seed", 1.5), ("seed", "7"), ("seed", True), ("sigma", "fast"),
        ("sigma", math.inf), ("sigma", math.nan), ("oversample", "yes"),
        ("oversample", "no"), ("oversample", 1), ("strategies", "metd"),
    ])


def test_range_errors():
    assert _error("sigma = -1\n").key == "sigma"
    assert _error("inter_class_min_angle = 200\n").key == "inter_class_min_angle"
    # Synthetic cross-class means are orthogonal: 90 degrees is the widest bound.
    err = _error("seed = 1\ninter_class_min_angle = 91\n")
    assert (err.key, err.line) == ("inter_class_min_angle", 2) and "[0, 90]" in str(err)
    assert parse_config_text("inter_class_min_angle = 90\n").inter_class_min_angle == 90
    assert _error("temperature = 0\n").key == "temperature"
    # Every random stream is default_rng([tag, seed, ...]), which takes no negative entry.
    assert str(_error("# comment\nseed = -1\n")) == "seed: must be >= 0, got -1 (line 2)"
    assert parse_config_text("seed = 0\n").seed == 0
    assert _error("n_classes = 0\n").key == "n_classes"
    assert _error("stage1_epochs = -1\n").key == "stage1_epochs"
    assert _error("stage2_lr = -0.5\n").key == "stage2_lr"
    assert _error("decode_top_n = 0\n").key == "decode_top_n"
    assert _error("probe_epochs = 0\n").key == "probe_epochs"
    assert _error("probe_lr = 0\n").key == "probe_lr"
    # zero epochs is a valid no-op
    assert parse_config_text("stage1_epochs = 0\n").stage1_epochs == 0
    _replace_errors([
        ("sigma", -1.0), ("inter_class_min_angle", 200.0), ("temperature", 0.0),
        ("n_classes", 0), ("stage1_epochs", -1), ("stage2_lr", -0.5),
        ("decode_top_n", 0), ("probe_epochs", 0), ("probe_lr", 0.0), ("seed", -1),
    ])
    assert replace(parse_config_text(""), stage1_epochs=0).stage1_epochs == 0


def test_enum_keys():
    assert _error("encoder_kind = mystery\n").key == "encoder_kind"
    assert _error("stage1_optimizer = adam\n").key == "stage1_optimizer"
    assert _error("stage2_schedule = linear\n").key == "stage2_schedule"
    assert _error("count_scope = run\n").key == "count_scope"
    projected = parse_config_text(
        "encoder_kind = projected-mean\ntoken_dim = 8\n"
    )
    assert projected.encoder_kind == "projected-mean"
    _replace_errors([
        ("encoder_kind", "mystery"), ("stage1_optimizer", "adam"),
        ("stage2_schedule", "linear"), ("count_scope", "run"),
    ])


def test_strategy_list_parsing():
    config = parse_config_text("strategies = metd, linear-probe\n")
    assert config.strategies == ("metd", "linear-probe")
    assert _error("strategies = metd, warp\n").key == "strategies"
    assert _error("strategies = metd,,linear-probe\n").key == "strategies"
    err = _error("seed = 1\nstrategies = metd, linear-probe, metd\n")
    assert (err.key, err.line) == ("strategies", 2)
    assert str(err) == "strategies: duplicate strategy 'metd' (line 2)"
    _replace_errors([
        ("strategies", ("metd", "warp")), ("strategies", ("metd", "", "linear-probe")),
        ("strategies", ()), ("strategies", ("metd", "metd")),
    ])


def test_cross_validation():
    err = _error("token_dim = 8\n")  # identity-mean with embed_dim 16
    assert err.key == "encoder_kind"
    err = _error("feature_dim = 8\n")  # residual adapter with embed_dim 16
    assert err.key == "residual_adapter"
    ok = parse_config_text(
        "feature_dim = 8\nembed_dim = 8\ntoken_dim = 8\n"
    )
    assert ok.feature_dim == 8
    defaults = parse_config_text("")
    with pytest.raises(ConfigError) as info:
        replace(defaults, token_dim=8)
    assert info.value.key == "encoder_kind"
    with pytest.raises(ConfigError) as info:
        replace(defaults, feature_dim=8)
    assert info.value.key == "residual_adapter"


def test_synth_config_mapping():
    config = parse_config_text(
        "seed = 3\nn_classes = 4\nsubclusters_per_class = 1\n"
        "samples_per_subcluster = 9\nfeature_dim = 8\nembed_dim = 8\n"
        "token_dim = 8\nsigma = 0.3\ninter_class_min_angle = 30\n"
    )
    synth = config.synth_config()
    assert synth.n_classes == 4
    assert synth.samples_per_subcluster == 9
    assert synth.sigma == 0.3
    assert synth.inter_class_min_angle == 30.0
    assert synth.seed == 3


def test_fit_reads_the_keys_of_its_stage():
    # fit takes the stage<stage>_* keys through RunConfig.stage_settings:
    # epochs, batch size, lr and schedule, weight decay.  A zero gradient
    # leaves only the decay to move the parameter.
    config = parse_config_text(
        "stage1_epochs = 4\nstage1_lr = 0.2\nstage1_batch_size = 9\n"
        "stage2_epochs = 6\nstage2_weight_decay = 0.25\n"
    )
    for stage, epochs, sizes, decay in ((1, 4, [9, 9, 2], 0.0), (2, 6, [20], 0.25)):
        params = {"w": np.ones(1)}
        seen = []

        def zero(batch):
            seen.append(len(batch))
            return {"w": np.zeros(1)}

        rates = [lr for _, lr in fit(params, zero, 20, (0,), **config.stage_settings(stage))]
        assert seen == sizes * epochs
        expected = 1.0
        for step in range(len(seen)):
            lr = cosine_lr(5e-6, step, len(seen)) if stage == 2 else 0.2
            expected -= (lr * decay) * expected
        assert params["w"][0] == expected
        if stage == 1:
            assert rates == [0.2] * 4 and expected == 1.0
        else:
            assert rates == [cosine_lr(5e-6, epoch, 6) for epoch in range(6)]
            assert expected < 1.0


def test_parse_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 21\n")
    assert parse_config(str(path)).seed == 21
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_a_config_that_is_not_utf8_is_an_error_at_the_line_the_parser_counts(tmp_path):
    path = tmp_path / "run.cfg"
    # CRLF and a lone CR each end one line, for the parser as for the error.
    path.write_bytes(b"seed = 21\r\n# \xc3\xa9t\xc3\xa9\rstage1_epochs = 3\n# caf\xff\n")
    with pytest.raises(ConfigError) as caught:
        parse_config(str(path))
    assert str(caught.value) == "not UTF-8 text: invalid start byte (line 4)"
    assert caught.value.line == 4
    path.write_bytes(b"seed = 21\r\n# \xc3\xa9t\xc3\xa9\rstage1_epochs = 3\n")
    config = parse_config(str(path))
    assert (config.seed, config.stage1_epochs) == (21, 3)
    # A sequence the file ends in the middle of; and every line is checked
    # before any is parsed, so line 3's byte comes before line 1's missing "=".
    for data, message in [
        (b"seed = 21\n# caf\xc3", "not UTF-8 text: unexpected end of data (line 2)"),
        (b"seed 21\nseed = 3\n# caf\xff\n", "not UTF-8 text: invalid start byte (line 3)"),
    ]:
        path.write_bytes(data)
        with pytest.raises(ConfigError) as caught:
            parse_config(str(path))
        assert str(caught.value) == message


def test_readme_configuration_table_matches_the_config_keys():
    readme = (SYNTHETIC_CFG.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    shown = {}
    for row in section.splitlines():
        if row.startswith("|"):
            # `key` or `key` (note); a default is the note's first item.
            for key, note in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", row):
                shown[key] = note.split(",")[0]
    assert set(shown) == {key.name for key in fields(RunConfig)}
    parsers = {int: int, float: float, bool: {"true": True, "false": False}.get}
    defaults = RunConfig()
    for key in fields(RunConfig):
        if key.type in parsers:
            value = parsers[key.type](shown[key.name])
            assert value == getattr(defaults, key.name), key.name


def test_shipped_default_config_parses():
    assert isinstance(SYNTHETIC, RunConfig)
    assert SYNTHETIC.n_classes >= 2
