"""Masked conditional neural networks for temporal-signal classification."""

from .dataset import Segment, SplitPlan, fixed_split, make_folds, segment_clip
from .errors import (
    ConfigError,
    ContractError,
    FileFormatError,
    HeaderMismatchError,
    InsufficientAudioError,
    InsufficientFramesError,
    MclnnError,
    ShapeError,
    TrainingDivergedError,
    TruncatedFileError,
    ValidationError,
    VersionMismatchError,
)
from .features import (
    AudioClip,
    FeatureMatrix,
    FeatureParams,
    NormStats,
    apply_zscore,
    extract_features,
    fit_zscore,
    load_features,
    log_mel,
    mel_filterbank,
    resample,
    save_features,
    stft_power,
)
from .layers import (
    ActivationTape,
    ClnnLayer,
    LinearActivation,
    PRelu,
    Sigmoid,
    backward,
    block_forward,
    window_forward,
)
from .mask import BinaryMask, MaskSpec, generate_linear_indices, generate_mask
from .model import (
    PRESETS,
    LayerSpec,
    ModelSpec,
    TrainedModel,
    build_model,
    frame_plan,
    load_model,
    model_forward,
    save_model,
    segment_size,
)
from .training import (
    EvalResult,
    GradCheckReport,
    RunReport,
    TrainConfig,
    clip_segments,
    cross_entropy,
    evaluate,
    grad_check,
    predict_clip,
    train,
)

__version__ = "0.1.0"
