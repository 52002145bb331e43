"""Continuous multi-path pose representation, losses, metrics, and trainer."""

from .paths import (
    ORIENTATION_TOL,
    ParamSamplingConfig,
    Path,
    Pose6D,
    PredictedPath,
    SceneTransform,
    interp_at,
    max_second_difference,
    normalize_scene,
    resample,
    reverse,
    sample_params,
)
from .metrics import (
    AlignmentResult,
    EvalReport,
    FScoreResult,
    ap_suite,
    average_precision,
    dtw_align,
    evaluate_dataset,
    fscore_bidirectional,
    pcd,
    pose_fscore,
)
from .matching import (
    LossBreakdown,
    MatchResult,
    PaddedTargets,
    focal_conf_loss,
    hungarian,
    pad_targets,
)
from .neural_field import (
    HeadConfig,
    HeadParams,
    activation,
    confidence_backward,
    confidence_forward,
    head_backward,
    head_forward_batch,
    init_head,
    parameter_count,
)
from .trainer import (
    TrainConfig,
    TrainState,
    TrainingError,
    adam_step,
    fit,
    init_state,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_epoch,
)
from .dataio import (
    ObjectRecord,
    SyntheticConfig,
    ValidationError,
    gen_dataset,
    gen_raster_object,
    load_dataset,
    save_dataset,
    save_report,
)

__version__ = "0.1.0"
