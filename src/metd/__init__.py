"""Multi-descriptor cosine classifier with count-modulated contrastive training.

Importing the package registers every submodule in ``sys.modules``
through ``importlib.util.LazyLoader``: a module executes the first time
one of its attributes is read, so each command executes only the modules
it runs (``metd eval`` never executes ``training``, ``harness``,
``config`` or ``losses``).  The public names resolve through the PEP 562
``__getattr__`` below, from ``_PUBLIC``.  ``LazyLoader`` is not
thread-safe (Python 3.11): two threads that read a module's first
attribute at once can both execute it.  metd is single-threaded.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The defining submodule of each public name; cli and numerics export none.
_PUBLIC = {
    "errors": ("ConfigError", "ContractViolation", "ParseError", "ZeroNormError"),
    "losses": (
        "LossBreakdown", "SimilarityGrid", "loss_gradients", "modulating_factor",
        "similarity_grid", "total_loss",
    ),
    "model": (
        "DescriptorBank", "ImageAdapter", "Model", "TextEncoder", "bank_embeddings",
        "build_adapter", "build_bank", "build_model", "build_text_encoder",
        "encode_image", "encode_text", "load_checkpoint", "save_checkpoint",
    ),
    "data": (
        "EmbeddingDataset", "Sample", "SynthConfig", "Unit", "Vocabulary",
        "apply_linear_map", "generate_synthetic", "load_dataset", "load_vocabulary",
        "nearest_words", "oversample_balance", "save_dataset", "save_vocabulary",
        "temporal_mean_pool",
    ),
    "inference": (
        "EvalReport", "Prediction", "evaluate", "format_eval_report", "predict",
        "subclass_report", "unit_embedding",
    ),
    "training": (
        "cosine_lr", "fd_check", "fd_sweep", "optimizer_step", "run_stage1", "run_stage2",
        "train_metd",
    ),
    "harness": (
        "Strategy", "StrategyResult", "compare_all", "default_benchmark",
        "distorted_benchmark", "format_comparison", "run_strategy",
    ),
    "config": ("RunConfig", "parse_config", "parse_config_text"),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_SOURCE)

for _name in (*_PUBLIC, "numerics", "cli"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__():
    return sorted([*globals(), *__all__])
