"""Key=value config parsing, defaults, diagnostics, and derived objects."""

import pathlib

import pytest

from metd.config import RunConfig, parse_config, parse_config_text
from metd.errors import ConfigError
from metd.harness import STRATEGY_KINDS


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


def test_range_errors():
    assert _error("sigma = -1\n").key == "sigma"
    assert _error("inter_class_min_angle = 200\n").key == "inter_class_min_angle"
    assert _error("temperature = 0\n").key == "temperature"
    assert _error("n_classes = 0\n").key == "n_classes"
    assert _error("stage1_epochs = -1\n").key == "stage1_epochs"
    assert _error("stage2_lr = -0.5\n").key == "stage2_lr"
    assert _error("decode_top_n = 0\n").key == "decode_top_n"
    # zero epochs is a valid no-op
    assert parse_config_text("stage1_epochs = 0\n").stage1_epochs == 0


def test_enum_keys():
    assert _error("encoder_kind = mystery\n").key == "encoder_kind"
    assert _error("stage1_optimizer = adam\n").key == "stage1_optimizer"
    assert _error("stage2_schedule = linear\n").key == "stage2_schedule"
    assert _error("count_scope = run\n").key == "count_scope"
    projected = parse_config_text(
        "encoder_kind = projected-mean\ntoken_dim = 8\n"
    )
    assert projected.encoder_kind == "projected-mean"


def test_strategy_list_parsing():
    config = parse_config_text("strategies = metd, linear-probe\n")
    assert config.strategies == ("metd", "linear-probe")
    strategies = config.strategy_list()
    assert [s.kind for s in strategies] == ["metd", "linear-probe"]
    assert _error("strategies = metd, warp\n").key == "strategies"
    assert _error("strategies = metd,,linear-probe\n").key == "strategies"


def test_cross_validation():
    err = _error("token_dim = 8\n")  # identity-mean with embed_dim 16
    assert err.key == "encoder_kind"
    err = _error("feature_dim = 8\n")  # residual adapter with embed_dim 16
    assert err.key == "residual_adapter"
    ok = parse_config_text(
        "feature_dim = 8\nembed_dim = 8\ntoken_dim = 8\n"
    )
    assert ok.feature_dim == 8


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


def test_stage_config_mapping():
    config = parse_config_text(
        "seed = 5\nstage1_epochs = 4\nstage1_lr = 0.2\nstage1_batch_size = 9\n"
        "stage2_epochs = 6\nstage2_weight_decay = 0.25\ncount_scope = batch\n"
    )
    one = config.stage_config(1)
    assert (one.stage, one.epochs, one.learning_rate, one.batch_size) == (1, 4, 0.2, 9)
    assert (one.seed, one.count_scope) == (5, "batch")
    two = config.stage_config(2)
    assert (two.stage, two.epochs, two.weight_decay) == (2, 6, 0.25)
    assert two.lr_schedule == "cosine"
    with pytest.raises(ConfigError):
        config.stage_config(3)


def test_harness_settings_mapping():
    config = parse_config_text(
        "n_subclasses = 2\nn_tokens = 3\ntemperature = 0.06\n"
        "probe_epochs = 7\noversample = true\n"
    )
    settings = config.harness_settings()
    assert settings.n_subclasses == 2
    assert settings.n_tokens == 3
    assert settings.temperature == 0.06
    assert settings.probe_epochs == 7
    assert settings.oversample is True
    assert settings.stage1.stage == 1 and settings.stage2.stage == 2


def test_parse_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 21\n")
    assert parse_config(str(path)).seed == 21
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_shipped_default_config_parses():
    shipped = pathlib.Path(__file__).resolve().parent.parent / "configs" / "synthetic.cfg"
    config = parse_config(str(shipped))
    assert isinstance(config, RunConfig)
    assert config.n_classes >= 2
