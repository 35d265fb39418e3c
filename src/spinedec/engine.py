"""The speculative decode loop; every baseline engine is a route policy on it.

Each cycle routes by confidence: a long or consensus-backed context match is
verified as a bare linear chain (bypass); otherwise any available draft source
builds a spine tree verified by the unified greedy walk; with no source at
all, the cycle degrades to a single autoregressive step. Every scored
position, including rejected branches, is harvested into the adjacency table,
and an EMA of spine acceptance retunes the spine ratio each cycle.

The context, transition and iso-k baselines run the same loop with config
overrides and another tree kind (``_ENGINES``), so all engines share one
verification path. Output is provably identical to plain greedy decoding: a
token is only ever emitted after the target model predicted it at its exact
position.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

from .adjacency import AdjacencyTable
from .context import ContextIndex
from .models import ModelQuery, TargetModel, TokenSequence, ar_decode
from .tree import Source, TreeBudget, build_iso_tree, build_spine_tree
from .verify import PathCategory, WalkResult, linear_verify, unified_greedy_walk

__all__ = [
    "EngineConfig",
    "EmaState",
    "update_ema",
    "spine_ratio_tier",
    "CycleRecord",
    "DecodeStats",
    "decode",
    "ENGINE_KINDS",
]

ENGINE_KINDS = ("spine", "context", "transition", "iso3", "iso5", "ar")


@dataclass(frozen=True)
class EngineConfig:
    """All decode hyperparameters; defaults are fixed across experiments."""

    ngram_lengths: tuple[int, ...] = (3, 4, 5)
    max_spine_continuation: int = 20
    transition_top_k: int = 10
    node_budget: int = 60
    max_tree_depth: int = 6
    min_score_threshold: float = 0.01
    spine_branch_ratio: float = 0.5
    ema_smoothing: float = 0.3
    ema_init: float = 0.3
    # (upper bound, ratio) pairs scanned in order; the last entry is the
    # catch-all for estimates at or above the final bound.
    spine_ratio_tiers: tuple[tuple[float, float], ...] = ((0.2, 0.15), (0.4, 0.30), (1.0, 0.50))
    bypass_threshold: int = 8
    # Ablation switches.
    disable_spine_branches: bool = False
    disable_bigram: bool = False
    disable_bypass: bool = False
    disable_spine: bool = False
    control_swap_sources: bool = False

    def __post_init__(self):
        """Reject values that would otherwise fail mid-decode with a raw traceback.

        Every tier's tree budget and the initial EMA are built once here, so
        their own range checks run before any decoding.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
        if not self.spine_ratio_tiers:
            raise ValueError("spine_ratio_tiers must not be empty")
        for _bound, ratio in self.spine_ratio_tiers:
            self.tree_budget(ratio)
        self.ema_state()

    def tree_budget(self, spine_ratio: float) -> TreeBudget:
        return TreeBudget(
            budget=self.node_budget,
            spine_ratio=spine_ratio,
            spine_branch_ratio=self.spine_branch_ratio,
            max_depth=self.max_tree_depth,
        )

    def ema_state(self) -> EmaState:
        return EmaState(value=self.ema_init, alpha=self.ema_smoothing)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EngineConfig":
        raw = json.loads(text)
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "ngram_lengths" in raw:
            raw["ngram_lengths"] = tuple(int(n) for n in raw["ngram_lengths"])
        if "spine_ratio_tiers" in raw:
            raw["spine_ratio_tiers"] = tuple(
                (float(b), float(r)) for b, r in raw["spine_ratio_tiers"]
            )
        return cls(**raw)


@dataclass(frozen=True)
class EmaState:
    """Running estimate of spine acceptance, smoothed exponentially."""

    value: float = 0.3
    alpha: float = 0.3

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError("EMA value must stay in [0, 1]")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("EMA smoothing must lie in (0, 1]")


def update_ema(state: EmaState, observation: float) -> EmaState:
    """One smoothing step toward the cycle's observed spine acceptance."""
    if not (0.0 <= observation <= 1.0):
        raise ValueError(f"observation {observation} outside [0, 1]")
    return replace(state, value=(1.0 - state.alpha) * state.value + state.alpha * observation)


def spine_ratio_tier(estimate: float, tiers: Sequence[tuple[float, float]]) -> float:
    """Step function from the acceptance estimate to the spine ratio."""
    for bound, ratio in tiers[:-1]:
        if estimate < bound:
            return ratio
    return tiers[-1][1]


@dataclass(frozen=True)
class CycleRecord:
    """Bookkeeping for one model call.

    ``offered_*``/``accepted_*`` are verification outcomes (pre-truncation);
    ``emitted``/``accepted_emitted``/``bonus_emitted`` count tokens actually
    appended to the output after the length/EOS cut.
    """

    kind: str  # "prefill" | "bypass" | "tree" | "fallback"
    emitted: int
    accepted_emitted: int
    bonus_emitted: int
    category: str
    offered_context: int = 0
    offered_transition: int = 0
    accepted_context: int = 0
    accepted_transition: int = 0
    offered_spine: int = 0
    accepted_spine: int = 0


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
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.kind] = counts.get(r.kind, 0) + 1
        return counts

    @property
    def category_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            if r.kind != "prefill":
                counts[r.category] = counts.get(r.category, 0) + 1
        return counts

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


def _table_chain(
    table: AdjacencyTable, prev: int | None, anchor: int, length: int, use_bigram: bool
) -> tuple[int, ...]:
    """Greedy top-1 successor walk used by the source-swap control."""
    chain: list[int] = []
    a, b = prev, anchor
    while len(chain) < length:
        entries = table.successors(a, b, 1, use_bigram=use_bigram)
        if not entries:
            break
        token = entries[0][0]
        chain.append(token)
        a, b = b, token
    return tuple(chain)


class _Run:
    """Mutable state for one decode run."""

    def __init__(self, model: TargetModel, prompt: Sequence[int], max_tokens: int, config: EngineConfig):
        if not prompt:
            raise ValueError("prompt must be non-empty")
        self.model = model
        self.max_tokens = max_tokens
        self.history: list[int] = list(prompt)
        self.out: list[int] = []
        self.table = AdjacencyTable(top_k=config.transition_top_k, min_score=config.min_score_threshold)
        self.index = ContextIndex(
            prompt, lengths=config.ngram_lengths, max_chain=config.max_spine_continuation
        )
        self.stats = DecodeStats()
        self.ema = config.ema_state()

    @property
    def done(self) -> bool:
        return len(self.out) >= self.max_tokens or (
            bool(self.out) and self.out[-1] == self.model.eos_token
        )

    def emit(self, kind: str, appended: Sequence[int], category: str,
             accepted_count: int = 0, **counts: int) -> None:
        """Append tokens subject to the length/EOS cut and record the cycle."""
        allowed = self.max_tokens - len(self.out)
        emit = list(appended[:allowed])
        if self.model.eos_token in emit:
            emit = emit[: emit.index(self.model.eos_token) + 1]
        self.out.extend(emit)
        self.history.extend(emit)
        self.index.extend(emit)
        accepted_emitted = min(len(emit), accepted_count)
        self.stats.records.append(
            CycleRecord(
                kind=kind,
                emitted=len(emit),
                accepted_emitted=accepted_emitted,
                bonus_emitted=len(emit) - accepted_emitted,
                category=category,
                **counts,
            )
        )


def _ar_step(run: _Run, kind: str, scored_from: int) -> None:
    """One plain model call: harvest every scored position, emit the prediction."""
    history = run.history
    response = run.model.score_tree(ModelQuery(base=tuple(history), scored_from=scored_from))
    run.table.harvest(
        (tuple(history[max(0, i - 1): i + 1]), prediction.top_k)
        for i, prediction in enumerate(response.base, start=scored_from)
    )
    run.emit(kind, [response.base[-1].token], PathCategory.EMPTY)


def _finish_walk(run: _Run, kind: str, walk: WalkResult) -> None:
    """Harvest every scored node, emit the accepted path, and retune the EMA."""
    tree, response = walk.tree, walk.response
    items = [(tuple(run.history[-2:]), response.base[-1].top_k)]
    for node, prediction in zip(tree.nodes[1:], response.nodes):
        items.append(((tree.nodes[node.parent].token, node.token), prediction.top_k))
    run.table.harvest(items)
    offered = Counter(node.source for node in tree.nodes[1:])
    accepted = Counter(tree.nodes[i].source for i in walk.accepted)
    spine = set(tree.spine[1:])
    accepted_spine = sum(1 for i in walk.accepted if i in spine)
    run.emit(
        kind, walk.tokens, walk.category,
        accepted_count=len(walk.accepted),
        offered_context=offered[Source.CONTEXT],
        offered_transition=offered[Source.TRANSITION],
        accepted_context=accepted[Source.CONTEXT],
        accepted_transition=accepted[Source.TRANSITION],
        offered_spine=len(spine),
        accepted_spine=accepted_spine,
    )
    run.ema = update_ema(run.ema, accepted_spine / len(spine) if spine else 0.0)


def _decode_loop(
    model: TargetModel,
    prompt: Sequence[int],
    max_tokens: int,
    config: EngineConfig,
    tree_kind: str | None,
    fanout: int,
) -> tuple[TokenSequence, DecodeStats]:
    if max_tokens < 0:
        raise ValueError("max_tokens must be >= 0")
    run = _Run(model, prompt, max_tokens, config)
    if max_tokens == 0:
        return TokenSequence(tokens=()), run.stats
    _ar_step(run, "prefill", 0)
    use_bigram = not config.disable_bigram
    use_context = not config.disable_spine

    while not run.done:
        anchor = run.history[-1]
        prev = run.history[-2]
        match = run.index.match() if use_context else None
        chain = match.chain if match else ()
        consensus = match.consensus if match else False

        # Bypass: a long or consensus-backed match is verified linearly.
        if (
            not config.disable_bypass
            and chain
            and (len(chain) >= config.bypass_threshold or consensus)
        ):
            verify_chain: tuple[int, ...] = chain
            source = Source.CONTEXT
            if config.control_swap_sources:
                verify_chain = _table_chain(run.table, prev, anchor, len(chain), use_bigram)
                source = Source.TRANSITION
            if verify_chain:
                _finish_walk(run, "bypass", linear_verify(model, verify_chain, run.history, source=source))
                continue

        # Tree: any available draft source fills the node budget.
        if tree_kind is not None and (
            chain or run.table.has_successors(prev, anchor, use_bigram=use_bigram)
        ):
            if tree_kind == "iso":
                tree = build_iso_tree(
                    anchor, fanout, config.node_budget, chain, run.table,
                    prev_token=prev, use_bigram=use_bigram,
                )
            else:
                ratio = spine_ratio_tier(run.ema.value, config.spine_ratio_tiers)
                spine_chain: tuple[int, ...] = chain
                spine_source = Source.CONTEXT
                if config.control_swap_sources and chain:
                    spine_chain = _table_chain(run.table, prev, anchor, len(chain), use_bigram)
                    spine_source = Source.TRANSITION
                tree = build_spine_tree(
                    anchor, spine_chain, run.table, config.tree_budget(ratio),
                    prev_token=prev,
                    spine_source=spine_source,
                    spine_branches=not config.disable_spine_branches,
                    use_bigram=use_bigram,
                )
            if len(tree) > 1:
                _finish_walk(run, "tree", unified_greedy_walk(model, tree, run.history))
                continue

        _ar_step(run, "fallback", len(run.history) - 1)

    return TokenSequence(tokens=tuple(run.out)), run.stats


def _ar_loop(model: TargetModel, prompt: Sequence[int], max_tokens: int) -> tuple[TokenSequence, DecodeStats]:
    sequence = ar_decode(model, prompt, max_tokens)
    stats = DecodeStats()
    for i, _token in enumerate(sequence.tokens):
        stats.records.append(
            CycleRecord(
                kind="prefill" if i == 0 else "fallback",
                emitted=1,
                accepted_emitted=0,
                bonus_emitted=1,
                category=PathCategory.EMPTY,
            )
        )
    return sequence, stats


# Every engine but ``ar`` is the loop above under a route policy: config
# overrides plus the tree it builds ("spine", "iso" with the fan-out taken
# from the name, or None for no tree route).
_ENGINES: dict[str, tuple[dict[str, object], str | None]] = {
    "spine": ({}, "spine"),
    # N-gram match plus linear verification only: every match is bypassed.
    "context": (
        dict(bypass_threshold=1, disable_bypass=False, disable_spine=False, control_swap_sources=False),
        None,
    ),
    # Adjacency-only spine tree: no context spine, no bypass.
    "transition": (dict(disable_spine=True, disable_bypass=True), "spine"),
    # Balanced k-ary tree over the same candidate pool.
    "iso": (dict(disable_bypass=True), "iso"),
}


def decode(
    engine: str,
    model: TargetModel,
    prompt: Sequence[int],
    max_tokens: int,
    config: EngineConfig | None = None,
) -> tuple[TokenSequence, DecodeStats]:
    """Decode with a named engine: spine, context, transition, iso<k> or ar.

    Output equals ``ar_decode`` exactly for every engine.
    """
    if engine == "ar":
        return _ar_loop(model, prompt, max_tokens)
    kind, fanout = engine, 0
    if engine.startswith("iso") and engine[3:].isdigit():
        kind, fanout = "iso", int(engine[3:])
    if kind not in _ENGINES or (kind == "iso" and fanout < 1):
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_KINDS}")
    overrides, tree_kind = _ENGINES[kind]
    config = replace(config or EngineConfig(), **overrides)
    return _decode_loop(model, prompt, max_tokens, config, tree_kind, fanout)
