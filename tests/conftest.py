"""Shared test helpers: a scriptable model, independent brute-force oracles, spec strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from spinedec.engine import EngineConfig
from spinedec.models import MODEL_KINDS, ModelQuery, ModelResponse, Prediction, SyntheticModelSpec

_SCRIPT_SCORES = (0.6, 0.2, 0.1, 0.05)


class ScriptedModel:
    """Deterministic model with explicit next-token overrides per full path.

    Unscripted paths continue with ``(last + 1) % (vocab - 1)``, which never
    emits EOS (vocab - 1) unless scripted to. Counts ``score_tree`` calls.
    """

    def __init__(self, vocab_size: int = 16, script: dict[tuple[int, ...], int] | None = None):
        self.vocab_size = vocab_size
        self.eos_token = vocab_size - 1
        self.script = dict(script or {})
        self.calls = 0

    def _next(self, path: tuple[int, ...]) -> int:
        if path in self.script:
            return self.script[path]
        return (path[-1] + 1) % (self.vocab_size - 1)

    def _predict(self, path: tuple[int, ...]) -> Prediction:
        token = self._next(path)
        candidates = [token]
        probe = token
        while len(candidates) < min(len(_SCRIPT_SCORES), self.vocab_size):
            probe = (probe + 1) % self.vocab_size
            if probe not in candidates:
                candidates.append(probe)
        return Prediction(
            token=token,
            top_k=tuple((t, _SCRIPT_SCORES[i]) for i, t in enumerate(candidates)),
        )

    def score_tree(self, query: ModelQuery) -> ModelResponse:
        self.calls += 1
        base = tuple(query.base)
        for t in base:
            if not (0 <= t < self.vocab_size):
                raise ValueError(f"token {t} out of vocabulary")
        base_preds = [
            self._predict(base[: i + 1]) for i in range(query.scored_from, len(base))
        ]
        paths: list[tuple[int, ...]] = []
        node_preds: list[Prediction] = []
        for token, parent in query.nodes:
            path = (paths[parent] if parent >= 0 else base) + (token,)
            paths.append(path)
            node_preds.append(self._predict(path))
        return ModelResponse(base=tuple(base_preds), nodes=tuple(node_preds))

    def greedy_next(self, base) -> int:
        self.calls += 1
        return self._next(tuple(base))


def depths(tree) -> list[int]:
    """Each tree node's depth, the root's 0, from parent pointers alone."""
    out = [0]
    for node in tree.nodes[1:]:
        out.append(out[node.parent] + 1)
    return out


def brute_force_match(history, lengths=(3, 4, 5), max_chain=20):
    """Independent linear-scan reimplementation of the context-match contract.

    Returns (chain, consensus) like MatchResult.
    """
    total = len(history)
    found: dict[int, tuple[int, ...]] = {}
    for n in lengths:
        if total < n + 1:
            continue
        suffix = tuple(history[total - n:])
        for start in range(total - n - 1, -1, -1):
            if tuple(history[start: start + n]) == suffix:
                end = min(start + n + max_chain, total - n)
                chain = tuple(history[start + n: end])
                if chain:
                    found[n] = chain
                break  # the most recent earlier occurrence decides
    if not found:
        return (), False
    firsts = [c[0] for c in found.values()]
    consensus = any(firsts.count(f) >= 2 for f in set(firsts))
    return found[max(found)], consensus


# --- valid specs, drawn field by field within each field's range -------------------

unit_floats = st.floats(0.0, 1.0)
_open_unit = st.floats(0.01, 0.99)

model_specs = st.builds(
    SyntheticModelSpec,
    kind=st.sampled_from(MODEL_KINDS),
    seed=st.integers(-(2**63), 2**64),
    vocab=st.integers(2, 96),
    repetition=unit_floats,
)

_tiers = st.lists(unit_floats, min_size=1, max_size=4, unique=True).flatmap(
    lambda bounds: st.tuples(*(st.tuples(st.just(b), _open_unit) for b in sorted(bounds)))
)

engine_configs = st.builds(
    EngineConfig,
    ngram_lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
    max_spine_continuation=st.integers(1, 24),
    transition_top_k=st.integers(1, 12),
    node_budget=st.integers(1, 80),
    max_tree_depth=st.integers(1, 8),
    min_score_threshold=unit_floats,
    spine_branch_ratio=_open_unit,
    ema_smoothing=st.floats(0.01, 1.0),
    ema_init=unit_floats,
    spine_ratio_tiers=_tiers,
    bypass_threshold=st.integers(1, 24),
    disable_spine_branches=st.booleans(),
    disable_bigram=st.booleans(),
    disable_bypass=st.booleans(),
    disable_spine=st.booleans(),
    control_swap_sources=st.booleans(),
)
