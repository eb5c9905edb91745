"""Unsupervised dataset debiasing: surface-feature shortcut scoring, LLM-based
rewriting with label verification, and a formal shortcut checker."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Dataset,
    LabeledDocument,
    TokenizerConfig,
    load_dataset,
    save_dataset,
    tokenize,
)
from .errors import (  # noqa: F401
    BackendError,
    ConfigError,
    DataError,
    RazorError,
)
from .pipeline import IterationTrace, RunConfig, run_iteration, run_razor  # noqa: F401
from .surface import (  # noqa: F401
    ClassLedger,
    SurfaceSpace,
    class_alignment_objective,
    compute_embeddings,
    positional_encoding,
    shortcut_scores,
    surface_embedding,
    tfidf_score,
)
