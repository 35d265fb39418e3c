"""Lossless speculative decoding with anisotropic spine trees.

Drafts come from two training-free sources with very different acceptance
rates: verbatim continuations copied by n-gram context matching, and
statistical successors harvested from prior model calls. The spine tree puts
the reliable source on a deep chain and the unreliable one on wide branches,
verifies the whole structure in one model call, and provably emits the same
tokens as plain greedy decoding. A companion theory module validates the
expected-yield bound, the depth-linear branch allocation, and the dominance of
the anisotropic shape over balanced trees, both analytically and by
simulation.
"""

from .adjacency import AdjacencyTable
from .bench import (
    CorpusSpec,
    LosslessnessError,
    RunReport,
    ablation_table,
    measure_heterogeneity,
    run_corpus,
)
from .context import ContextIndex, MatchResult
from .engine import (
    DecodeStats,
    EngineConfig,
    decode,
    spine_ratio_tier,
    update_ema,
)
from .models import (
    MarkovModel,
    ModelQuery,
    ModelResponse,
    Prediction,
    SyntheticModelSpec,
    TemplateRepeaterModel,
    TokenSequence,
    ar_decode,
    build_synthetic,
)
from .theory import (
    AcceptanceModel,
    TreeShape,
    YieldReport,
    best_iso_yield,
    best_spine_yield,
    dominance_scan,
    ell_bar,
    iso_yield,
    monte_carlo_yield,
    phi,
    spine_shape_tree,
    spine_yield,
    synergy,
    verify_bound,
)
from .tree import (
    DraftNode,
    Source,
    SpineTree,
    TreeBudget,
    build_iso_tree,
    build_spine_tree,
    confidence_width,
    linear_allocation,
    tree_query,
)
from .verify import WalkResult, linear_verify, unified_greedy_walk

__version__ = "0.1.0"
