"""The package: its lazily executed submodules and its public names.

``import metd`` registers every submodule in ``sys.modules`` but executes
each one only when one of its attributes is first read, so these checks
run commands in fresh interpreters and record which module files they
actually execute.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metd
from metd.data import Vocabulary, generate_synthetic, save_dataset, save_vocabulary
from metd.model import build_model, save_checkpoint

from test_cli import COMPACT_CONFIG
from test_trace_targets import _load_tracing

METD_DIR = Path(metd.__file__).resolve().parent
NUMPY_MA_DIR = Path(np.ma.__file__).resolve().parent

# ``python -m metd ARGS``, printing to stderr, one a line, the file of
# every code object the interpreter executes with exec(): each module body.
RUN_RECORDING_EXECS = """
import runpy, sys
executed = set()
def record(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        executed.add(args[0].co_filename)
sys.addaudithook(record)
sys.argv = ["metd", *sys.argv[1:]]
try:
    runpy.run_module("metd", run_name="__main__", alter_sys=True)
finally:
    print(*sorted(executed), sep="\\n", file=sys.stderr)
"""

# Each public name the package bound before its submodules became lazy,
# under the module that defines it.
PUBLIC = {
    "errors": ["ConfigError", "ContractViolation", "ParseError", "ZeroNormError"],
    "losses": ["LossBreakdown", "SimilarityGrid", "loss_gradients", "modulating_factor",
               "similarity_grid", "total_loss"],
    "model": ["DescriptorBank", "ImageAdapter", "Model", "TextEncoder", "bank_embeddings",
              "build_adapter", "build_bank", "build_model", "build_text_encoder",
              "encode_image", "encode_text", "load_checkpoint", "save_checkpoint"],
    "data": ["EmbeddingDataset", "Sample", "SynthConfig", "Unit", "Vocabulary",
             "apply_linear_map", "generate_synthetic", "load_dataset", "load_vocabulary",
             "nearest_words", "oversample_balance", "save_dataset", "save_vocabulary",
             "temporal_mean_pool"],
    "inference": ["EvalReport", "Prediction", "evaluate", "format_eval_report", "predict",
                  "subclass_report", "unit_embedding"],
    "training": ["cosine_lr", "fd_check", "fd_sweep", "optimizer_step", "run_stage1",
                 "run_stage2", "train_metd"],
    "harness": ["Strategy", "StrategyResult", "compare_all", "default_benchmark",
                "distorted_benchmark", "format_comparison", "run_strategy"],
    "config": ["RunConfig", "parse_config", "parse_config_text"],
}


def _executed_files(*argv) -> set:
    result = subprocess.run(
        [sys.executable, "-c", RUN_RECORDING_EXECS, *argv], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return {Path(line).resolve() for line in result.stderr.splitlines()}


def _executed_modules(*argv) -> set:
    return {path.stem for path in _executed_files(*argv) if path.parent == METD_DIR}


def test_eval_executes_only_the_modules_it_runs_and_train_executes_the_rest(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(COMPACT_CONFIG)
    train, test = generate_synthetic(metd.parse_config(str(config)).synth_config())
    save_dataset(train, str(tmp_path / "train.tsv"))
    save_dataset(test, str(tmp_path / "test.tsv"))
    checkpoint = str(tmp_path / "model.ckpt")
    trained = _executed_modules("train", "--config", str(config), str(tmp_path), checkpoint)
    assert trained == {
        "__init__", "__main__", "cli", "config", "data", "errors", "inference", "losses",
        "model", "numerics", "training",
    }
    evaluated = _executed_modules("eval", checkpoint, str(tmp_path / "test.tsv"))
    assert evaluated == {
        "__init__", "__main__", "cli", "errors", "numerics", "model", "data", "inference"
    }


def test_synth_decode_and_fdcheck_execute_no_trainer_they_do_not_call(tmp_path):
    # config declares every key's allowed values itself, so reading a
    # config executes neither training nor harness.
    config = tmp_path / "run.cfg"
    config.write_text(COMPACT_CONFIG + "fdcheck_instances = 1\n")
    checkpoint = str(tmp_path / "model.ckpt")
    save_checkpoint(build_model(3, 2, 2, 8, 8, 8, 2, seed=5), checkpoint)
    vocab = str(tmp_path / "vocab.tsv")
    save_vocabulary(Vocabulary(words=["a", "b"], vectors=np.eye(2, 8)), vocab)
    reading = {
        "__init__", "__main__", "cli", "errors", "numerics", "model", "data", "inference", "config"
    }
    assert _executed_modules("synth", "--config", str(config), str(tmp_path / "data")) == reading
    assert _executed_modules("decode", "--config", str(config), checkpoint, vocab) == reading
    checked = _executed_modules("fdcheck", "--config", str(config))
    assert checked == reading | {"training", "losses"}


def test_train_eval_compare_and_fdcheck_execute_nothing_of_numpy_ma(tmp_path):
    # np.unique without a return_* flag calls np.ma.is_masked, which imports
    # numpy.ma, a package no metd command needs.
    config = tmp_path / "run.cfg"
    config.write_text(COMPACT_CONFIG + "fdcheck_instances = 1\n")
    train, test = generate_synthetic(metd.parse_config(str(config)).synth_config())
    save_dataset(train, str(tmp_path / "train.tsv"))
    save_dataset(test, str(tmp_path / "test.tsv"))
    checkpoint = str(tmp_path / "model.ckpt")
    for argv in (
        ("train", "--config", str(config), str(tmp_path), checkpoint),
        ("eval", checkpoint, str(tmp_path / "test.tsv")),
        ("compare", "--config", str(config), str(tmp_path)),
        ("fdcheck", "--config", str(config)),
    ):
        masked = [path for path in _executed_files(*argv) if NUMPY_MA_DIR in path.parents]
        assert masked == [], argv[0]


def test_importing_the_cli_registers_every_module_the_benchmark_traces():
    # The benchmark's tracer, right after `import metd.cli`, looks up each
    # traced module in sys.modules and wraps every binding of each traced
    # function; the eval workload's binding is metd.cli.evaluate.
    modules = sorted({f"metd.{module}" for module, _, _, _ in _load_tracing()["TARGETS"]})
    assert "metd.config" in modules and "metd.training" in modules
    code = (
        "import sys, metd.cli, metd.inference\n"
        f"print([name for name in {modules!r} if name not in sys.modules])\n"
        "print(vars(metd.cli).get('evaluate') is metd.inference.evaluate)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\nTrue\n"


def test_every_public_name_is_its_defining_modules_object():
    names = [name for names in PUBLIC.values() for name in names]
    assert sorted(metd.__all__) == sorted(names)
    for module_name, module_names in PUBLIC.items():
        module = importlib.import_module(f"metd.{module_name}")
        assert getattr(metd, module_name) is module is sys.modules[f"metd.{module_name}"]
        for name in module_names:
            assert getattr(metd, name) is getattr(module, name), name
    namespace = {}
    exec("from metd import *", namespace)
    assert all(namespace[name] is getattr(metd, name) for name in names)
    assert set(names) <= set(dir(metd))
    assert metd.__version__ == "0.1.0"


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'metd' has no attribute 'no_such_name'$"):
        metd.no_such_name
