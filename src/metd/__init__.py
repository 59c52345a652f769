"""Multi-descriptor cosine classifier with count-modulated contrastive training."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractViolation,
    ParseError,
    ZeroNormError,
)
from .losses import (
    LossBreakdown,
    SimilarityGrid,
    clip_ce_loss,
    loss_gradients,
    modulating_factor,
    similarity_grid,
    total_loss,
)
from .model import (
    DescriptorBank,
    ImageAdapter,
    Model,
    TextEncoder,
    bank_embeddings,
    build_adapter,
    build_bank,
    build_model,
    build_text_encoder,
    encode_image,
    encode_text,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    EmbeddingDataset,
    Sample,
    SynthConfig,
    Unit,
    Vocabulary,
    apply_linear_map,
    generate_synthetic,
    load_dataset,
    load_vocabulary,
    nearest_words,
    oversample_balance,
    save_dataset,
    save_vocabulary,
    temporal_mean_pool,
)
from .inference import (
    EvalReport,
    Prediction,
    evaluate,
    format_eval_report,
    predict,
    subclass_report,
    unit_embedding,
)
from .training import (
    cosine_lr,
    fd_check,
    fd_sweep,
    optimizer_step,
    run_stage1,
    run_stage2,
)
from .harness import (
    Strategy,
    StrategyResult,
    compare_all,
    default_benchmark,
    distorted_benchmark,
    format_comparison,
    run_strategy,
    train_metd,
)
from .config import RunConfig, parse_config, parse_config_text
