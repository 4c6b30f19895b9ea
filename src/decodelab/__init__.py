"""decodelab: a laboratory for staged stochastic decoding.

The package has three layers.  ``probcore`` and ``sampler`` implement the
numeric core: validated probability distributions and the fixed
temperature / top-k / top-p / min-p sampling pipeline with per-stage
traces and a counter-based RNG contract.  ``ngram`` and ``autoregress``
put the pipeline to work on character-level text models with a bounded
feedback window.  ``framesim`` does the same for a synthetic video-like
world of patch tokens, exposing freeze detection and novelty curves.
"""

from .autoregress import (
    DEFAULT_CAPACITY,
    STOP_EOS,
    STOP_MAX_LEN,
    ContextBuffer,
    GenerationResult,
    NextTokenModel,
    generate,
    replay,
)
from .framesim import (
    Rollout,
    WorldModel,
    build_world,
    frame_to_pgm,
    k_sweep,
    novelty_curve,
    predict_frame,
    random_frame,
    rollout,
)
from .ngram import (
    ModelFormatError,
    NGramModel,
    detokenize,
    tokenize,
    train_ngram,
)
from .probcore import (
    LOGIT_FLOOR,
    MASS_TOL,
    ProbabilityDistribution,
    TokenAlphabet,
    argmax_onehot,
    as_logits,
    default_alphabet,
    entropy,
    logits_from_masses,
    softmax,
)
from .sampler import (
    STAGE_MIN_P,
    STAGE_SOFTMAX,
    STAGE_TOP_K,
    STAGE_TOP_P,
    STAGES,
    RandomStream,
    SampleTrace,
    SamplerConfig,
    StageRecord,
    derive_seed,
    min_p_filter,
    run_pipeline,
    sample_rows,
    sort_descending,
    top_k_filter,
    top_p_filter,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAPACITY",
    "LOGIT_FLOOR",
    "MASS_TOL",
    "STAGES",
    "STAGE_MIN_P",
    "STAGE_SOFTMAX",
    "STAGE_TOP_K",
    "STAGE_TOP_P",
    "STOP_EOS",
    "STOP_MAX_LEN",
    "ContextBuffer",
    "GenerationResult",
    "ModelFormatError",
    "NGramModel",
    "NextTokenModel",
    "ProbabilityDistribution",
    "RandomStream",
    "Rollout",
    "SampleTrace",
    "SamplerConfig",
    "StageRecord",
    "TokenAlphabet",
    "WorldModel",
    "argmax_onehot",
    "as_logits",
    "build_world",
    "default_alphabet",
    "derive_seed",
    "detokenize",
    "entropy",
    "frame_to_pgm",
    "generate",
    "k_sweep",
    "logits_from_masses",
    "min_p_filter",
    "novelty_curve",
    "predict_frame",
    "random_frame",
    "replay",
    "rollout",
    "run_pipeline",
    "sample_rows",
    "softmax",
    "sort_descending",
    "top_k_filter",
    "top_p_filter",
    "tokenize",
    "train_ngram",
    "__version__",
]
