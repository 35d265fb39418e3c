"""The speculative decode loop; every baseline engine is a route policy on it.

Each cycle, the pure ``_plan`` routes by confidence and names its reason: a
long or consensus-backed context match is verified as a bare linear chain
(``bypass:long``, ``bypass:consensus``); otherwise any available draft source
builds a spine tree verified by the unified greedy walk (``tree``); with no
source, or no tree node past the root, the cycle degrades to one AR step
(``fallback:no-source``, ``fallback:empty-tree``). The first call is
``prefill``, which scores the whole prompt. Prefill and fallback verify the
empty draft, so every cycle is one verified walk recorded in one place. Every
scored position, including rejected branches, is harvested into the adjacency
table, and an EMA of spine acceptance, one float per run, retunes the spine
ratio after each verified draft: ``_plan`` maps it to a tier ratio and looks
up that tier's tree budget, built once with the config. An engine keeps only
the draft sources its route policy reads: the table for a tree route, the
context index unless the spine is off.

The context, transition, iso3, iso5 and AR baselines run the same loop with
config overrides and another tree kind, one named row each in ``_ENGINES``;
AR is the policy with no draft source, so each of its cycles is the
single-step fallback. All engines share one verification path, and none
calls ``ar_decode``, the oracle they are checked against. Output is provably
identical to plain greedy decoding: a token is only ever emitted after the
target model predicted it at its exact position.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

from .adjacency import DEFAULT_TOP_K, MIN_SCORE, AdjacencyTable
from .context import DEFAULT_NGRAM_LENGTHS, MAX_CHAIN, ContextIndex, MatchResult
from .models import Spec, TargetModel, TokenSequence
from .tree import MAX_DEPTH, NODE_BUDGET, Source, SpineTree, TreeBudget, build_iso_tree, build_spine_tree
from .verify import WalkResult, linear_verify, unified_greedy_walk

__all__ = [
    "EngineConfig",
    "update_ema",
    "spine_ratio_tier",
    "CycleRecord",
    "DecodeStats",
    "decode",
    "ENGINE_KINDS",
]

@dataclass(frozen=True)
class EngineConfig(Spec):
    """All decode hyperparameters; defaults are fixed across experiments.

    ``tree_budgets`` maps each tier's spine ratio to its ``TreeBudget``.
    """

    ngram_lengths: tuple[int, ...] = DEFAULT_NGRAM_LENGTHS
    max_spine_continuation: int = MAX_CHAIN
    transition_top_k: int = DEFAULT_TOP_K
    node_budget: int = NODE_BUDGET
    max_tree_depth: int = MAX_DEPTH
    min_score_threshold: float = MIN_SCORE
    spine_branch_ratio: float = 0.5
    ema_smoothing: float = 0.3
    ema_init: float = 0.3
    # (upper bound, ratio) pairs scanned in order; the last entry is the
    # catch-all for estimates at or above the final bound.
    spine_ratio_tiers: tuple[tuple[float, float], ...] = ((0.2, 0.15), (0.4, 0.30), (1.0, 0.50))
    bypass_threshold: int = 8
    # Ablation switches: every bool field is one (``bench.ABLATION_FLAGS``).
    disable_spine_branches: bool = False
    disable_bigram: bool = False
    disable_bypass: bool = False
    disable_spine: bool = False
    control_swap_sources: bool = False

    def __post_init__(self):
        """Reject values that would fail mid-decode or decode silently.

        The EMA's start and smoothing are range-checked here. Every tier's tree
        budget is built once and kept in ``tree_budgets``, and a context index
        and an adjacency table are built and dropped, so their own checks run
        first.
        """
        super().__post_init__()
        bounds = [b for b, _ratio in self.spine_ratio_tiers]
        if not bounds or bounds != sorted(set(bounds)) or not 0.0 <= bounds[0] <= bounds[-1] <= 1.0:
            raise ValueError(f"spine_ratio_tiers bounds must ascend within [0, 1], got {bounds}")
        if self.bypass_threshold < 1:
            raise ValueError(f"bypass_threshold must be >= 1, got {self.bypass_threshold}")
        if not 0.0 <= self.ema_init <= 1.0:
            raise ValueError("EMA value must stay in [0, 1]")
        if not 0.0 < self.ema_smoothing <= 1.0:
            raise ValueError("EMA smoothing must lie in (0, 1]")
        budgets = {
            ratio: TreeBudget(
                budget=self.node_budget,
                spine_ratio=ratio,
                spine_branch_ratio=self.spine_branch_ratio,
                max_depth=self.max_tree_depth,
            )
            for _bound, ratio in self.spine_ratio_tiers
        }
        object.__setattr__(self, "tree_budgets", budgets)  # not a field: no JSON key, no eq
        self.context_index(())
        self.adjacency_table()

    def context_index(self, tokens: Sequence[int]) -> ContextIndex:
        return ContextIndex(tokens, lengths=self.ngram_lengths, max_chain=self.max_spine_continuation)

    def adjacency_table(self) -> AdjacencyTable:
        return AdjacencyTable(
            top_k=self.transition_top_k,
            min_score=self.min_score_threshold,
            use_bigram=not self.disable_bigram,
        )


def update_ema(value: float, alpha: float, observation: float) -> float:
    """One smoothing step, of weight ``alpha``, toward the cycle's observed spine acceptance."""
    if not (0.0 <= observation <= 1.0):
        raise ValueError(f"observation {observation} outside [0, 1]")
    return (1.0 - alpha) * value + alpha * observation


def spine_ratio_tier(estimate: float, tiers: Sequence[tuple[float, float]]) -> float:
    """Step function from the acceptance estimate to the spine ratio."""
    for bound, ratio in tiers[:-1]:
        if estimate < bound:
            return ratio
    return tiers[-1][1]


@dataclass(frozen=True)
class CycleRecord:
    """Bookkeeping for one model call and the ``CyclePlan`` reason that routed it.

    ``kind`` is the route, the reason's prefix. ``offered_*``/``accepted_*``
    are verification outcomes (pre-truncation); ``emitted``, ``accepted_emitted``
    and ``bonus_emitted`` count tokens appended after the length/EOS cut.
    """

    reason: str
    emitted: int
    accepted_emitted: int
    offered_context: int = 0
    offered_transition: int = 0
    accepted_context: int = 0
    accepted_transition: int = 0
    offered_spine: int = 0
    accepted_spine: int = 0

    @property
    def kind(self) -> str:  # "prefill" | "bypass" | "tree" | "fallback"
        return self.reason.partition(":")[0]

    @property
    def bonus_emitted(self) -> int:
        return self.emitted - self.accepted_emitted

    @property
    def category(self) -> str:  # "empty" | "pure_context" | "spine_continuation" | "pure_transition"
        """How the accepted path used the two draft sources.

        In every tree the engine builds, the context nodes form a prefix of
        any root path, so a path that accepted both sources continued the spine.
        """
        if not self.accepted_transition:
            return "pure_context" if self.accepted_context else "empty"
        return "spine_continuation" if self.accepted_context else "pure_transition"


@dataclass
class DecodeStats:
    """Per-run decode telemetry; one record per model call."""

    records: list[CycleRecord] = field(default_factory=list)

    @property
    def model_calls(self) -> int:
        return len(self.records)

    @property
    def total_tokens(self) -> int:
        return sum(r.emitted for r in self.records)

    @property
    def tau(self) -> float:
        """Mean tokens per model call; 1.0 for an empty run by convention."""
        if not self.records:
            return 1.0
        return self.total_tokens / self.model_calls

    @property
    def cycle_counts(self) -> dict[str, int]:
        return dict(Counter(r.kind for r in self.records))

    @property
    def category_counts(self) -> dict[str, int]:
        return dict(Counter(r.category for r in self.records if r.kind != "prefill"))

    @property
    def offered_by_source(self) -> dict[str, int]:
        return {
            "context": sum(r.offered_context for r in self.records),
            "transition": sum(r.offered_transition for r in self.records),
        }

    @property
    def accepted_by_source(self) -> dict[str, int]:
        return {
            "context": sum(r.accepted_context for r in self.records),
            "transition": sum(r.accepted_transition for r in self.records),
        }

    def mean_spine_len(self) -> float:
        """Mean structural spine length over tree cycles (0 if none)."""
        tree_records = [r for r in self.records if r.kind == "tree"]
        if not tree_records:
            return 0.0
        return sum(r.offered_spine for r in tree_records) / len(tree_records)


class _Run:
    """Mutable state for one decode run; ``_finish_walk`` sets ``done``."""

    def __init__(self, model: TargetModel, prompt: Sequence[int], max_tokens: int,
                 config: EngineConfig, tree_kind: str | None):
        if not prompt:
            raise ValueError("prompt must be non-empty")
        if max_tokens < 0:
            raise ValueError("max_tokens must be >= 0")
        self.model = model
        self.max_tokens = max_tokens
        self.history: list[int] = list(prompt)
        self.out: list[int] = []
        self.table = config.adjacency_table() if tree_kind is not None else None
        self.index = None if config.disable_spine else config.context_index(prompt)
        self.stats = DecodeStats()
        self.ema, self.ema_alpha = config.ema_init, config.ema_smoothing


def _finish_walk(run: _Run, reason: str, walk: WalkResult) -> None:
    """Harvest every scored position, emit the accepted path subject to the
    length/EOS cut (the run's one stop rule), record the cycle, and retune the
    EMA after a draft."""
    tree, response, history = walk.tree, walk.response, run.history
    if run.table is not None:
        items = [
            (history[i - 1] if i else None, history[i], prediction.top_k)
            for i, prediction in enumerate(response.base, start=len(history) - len(response.base))
        ]
        for node, prediction in zip(tree.nodes[1:], response.nodes):
            items.append((tree.nodes[node.parent].token, node.token, prediction.top_k))
        run.table.harvest(items)
    eos = run.model.eos_token
    emit = list(walk.tokens[: run.max_tokens - len(run.out)])
    if eos in emit:
        emit = emit[: emit.index(eos) + 1]
    run.out.extend(emit)
    run.done = len(run.out) == run.max_tokens or eos in emit
    history.extend(emit)
    if run.index is not None:
        run.index.extend(emit)
    offered = [node.source for node in tree.nodes[1:]]
    accepted = [tree.nodes[i].source for i in walk.accepted]
    spine = set(tree.spine[1:])
    accepted_spine = len(spine.intersection(walk.accepted))
    run.stats.records.append(CycleRecord(
        reason, len(emit), min(len(emit), len(accepted)),
        offered_context=offered.count(Source.CONTEXT),
        offered_transition=offered.count(Source.TRANSITION),
        accepted_context=accepted.count(Source.CONTEXT),
        accepted_transition=accepted.count(Source.TRANSITION),
        offered_spine=len(spine),
        accepted_spine=accepted_spine,
    ))
    if len(tree) > 1:
        run.ema = update_ema(run.ema, run.ema_alpha, accepted_spine / len(spine) if spine else 0.0)


@dataclass(frozen=True)
class CyclePlan:
    """One cycle's route and why; ``decode`` only executes it.

    Reasons: "prefill", "bypass:long", "bypass:consensus", "tree", "fallback:no-source" and
    "fallback:empty-tree". A bypass plan carries its chain and its source, a tree plan its tree.
    """

    reason: str
    draft: Sequence[int] = ()
    source: Source = Source.CONTEXT
    tree: SpineTree | None = None


def _plan(run: _Run, config: EngineConfig, tree_kind: str | None, fanout: int) -> CyclePlan:
    """Decide the next cycle's route from run state alone; never calls the model."""
    if not run.stats.records:
        return CyclePlan("prefill")
    anchor, prev = run.history[-1], run.history[-2]
    match = MatchResult() if run.index is None else run.index.match()
    # The spine's draft is the matched chain or, under the source-swap
    # control, a table walk of the same length.
    draft, source = match.chain, Source.CONTEXT
    if config.control_swap_sources and match.chain:
        draft = run.table.chain(prev, anchor, len(match.chain))
        source = Source.TRANSITION
    # Bypass: a long or consensus-backed match is verified linearly.
    if not config.disable_bypass and draft:
        long = len(match.chain) >= config.bypass_threshold
        if long or match.consensus:
            return CyclePlan("bypass:long" if long else "bypass:consensus", draft, source)
    # Checked before building, so a cycle with no source builds no tree.
    if tree_kind is None or not (match.chain or run.table.successors(prev, anchor)):
        return CyclePlan("fallback:no-source")
    if tree_kind == "iso":
        tree = build_iso_tree(anchor, fanout, config.node_budget, match.chain, run.table, prev_token=prev)
    else:
        ratio = spine_ratio_tier(run.ema, config.spine_ratio_tiers)
        tree = build_spine_tree(
            anchor, draft, run.table, config.tree_budgets[ratio],
            prev_token=prev,
            spine_source=source,
            spine_branches=not config.disable_spine_branches,
        )
    return CyclePlan("tree", tree=tree) if len(tree) > 1 else CyclePlan("fallback:empty-tree")


# Every engine is the loop in ``decode`` under a route policy: config
# overrides, the tree it builds ("spine", "iso" or None for no tree route)
# and the iso fan-out.
_ENGINES: dict[str, tuple[dict[str, object], str | None, int]] = {
    "spine": ({}, "spine", 0),
    # N-gram match plus linear verification only: every match is bypassed.
    "context": (
        dict(bypass_threshold=1, disable_bypass=False, disable_spine=False, control_swap_sources=False),
        None,
        0,
    ),
    # Adjacency-only spine tree: no context spine, no bypass.
    "transition": (dict(disable_spine=True, disable_bypass=True), "spine", 0),
    # Balanced k-ary trees over the same candidate pool.
    "iso3": (dict(disable_bypass=True), "iso", 3),
    "iso5": (dict(disable_bypass=True), "iso", 5),
    # No draft source at all: every cycle after prefill is one AR step.
    "ar": (dict(disable_spine=True, disable_bypass=True), None, 0),
}

ENGINE_KINDS = tuple(_ENGINES)


def decode(
    engine: str,
    model: TargetModel,
    prompt: Sequence[int],
    max_tokens: int,
    config: EngineConfig | None = None,
) -> tuple[TokenSequence, DecodeStats]:
    """Decode with one of the engines named in ``ENGINE_KINDS``.

    Each cycle makes one ``_plan`` call and one model call: a tree plan is
    walked, and any other plan's draft is verified linearly, the empty draft
    of a prefill or fallback plan too. Output equals ``ar_decode`` exactly for
    every engine, after at most ``max_tokens`` model calls, prefill included.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_KINDS}")
    overrides, tree_kind, fanout = _ENGINES[engine]
    config = replace(config or EngineConfig(), **overrides)
    run = _Run(model, prompt, max_tokens, config, tree_kind)
    for _ in range(max_tokens):  # every cycle emits at least one token
        plan = _plan(run, config, tree_kind, fanout)
        scored_from = len(run.history) - 1 if run.stats.records else 0  # prefill scores the prompt
        if plan.tree is not None:
            walk = unified_greedy_walk(model, plan.tree, run.history, scored_from)
        else:
            walk = linear_verify(model, plan.draft, run.history, source=plan.source, scored_from=scored_from)
        _finish_walk(run, plan.reason, walk)
        if run.done:
            break
    return TokenSequence(tokens=tuple(run.out)), run.stats
