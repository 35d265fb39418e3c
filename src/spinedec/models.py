"""Deterministic target models, the autoregressive reference, and the JSON spec base.

The verification oracle for everything in this package is a *target model*:
a deterministic greedy next-token function that can score a whole draft tree
in one call. A draft node is ``(token, parent)``: the parent index is all a
tree-attention mask needs, and a node's prediction depends only on the token
path from the base through its parents. Two seeded synthetic families stand
in for a real LLM at desk scale:

* ``markov-order-2`` — a fixed per-(prev, cur) successor table drawn from a
  seeded generator; transition-table drafting has exact signal to exploit.
* ``template-repeater`` — follows a seeded token template cycle, deviating
  pseudo-randomly at rate ``1 - repetition``; tunes how often n-gram context
  matching succeeds.

Both are bit-identical across runs and platforms for the same spec. Models
are immutable after construction up to memo caches of values they would
re-derive identically, and one resume slot: the base prefix ``score_tree``
last folded and its state, like the KV cache of an accepted prefix. So every
query answers as a fresh model would. ``greedy_next`` and ``ar_decode`` never
read the slot: the oracle folds each base from scratch and shares no cache
with the engines it checks.
"""

from __future__ import annotations

import functools
import json
import random
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields
from types import UnionType
from typing import NamedTuple, Protocol, Sequence, TypeVar, Union, get_args, get_origin, get_type_hints

__all__ = [
    "Prediction",
    "TokenSequence",
    "ModelQuery",
    "ModelResponse",
    "TargetModel",
    "Spec",
    "parse_json",
    "SyntheticModelSpec",
    "MarkovModel",
    "TemplateRepeaterModel",
    "MODEL_KINDS",
    "build_synthetic",
    "ar_decode",
]

_MASK64 = (1 << 64) - 1
_FNV_PRIME = 0x100000001B3
_EMPTY_PATH = (0xCBF29CE484222325, -1, -1)  # (path_hash, prev, cur) before any token


# Fixed descending score shape for template-repeater candidate lists; the tail
# drops below the 0.01 harvesting threshold on purpose. Its length is the
# candidate width of both families.
_TEMPLATE_SCORES = (0.52, 0.18, 0.108, 0.0648, 0.03888, 0.023328, 0.0139968,
                    0.00839808, 0.005038848, 0.0030233088)
_TOP_K = len(_TEMPLATE_SCORES)


def _mix64(h: int) -> int:
    # splitmix64 finalizer; stable across platforms and Python versions.
    h &= _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


class Prediction(NamedTuple):
    """Greedy next token plus the top-K (token, score) candidates behind it.

    ``top_k`` is sorted by score descending (ties broken by smaller token id),
    scores lie in [0, 1], and ``token == top_k[0][0]`` always.
    """

    token: int
    top_k: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class TokenSequence:
    """The ordered tokens generated by a decode run."""

    tokens: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ModelQuery:
    """A base sequence plus extra tree nodes to score in one call.

    Each extra node is ``(token, parent)``: ``parent`` is the index of an
    earlier extra node, or ``-1`` for the last base token, so node ``j``
    continues the base plus the tokens on its parent chain. ``scored_from``
    trims the response: base predictions are returned for positions
    ``scored_from..len(base)-1``.
    """

    base: tuple[int, ...]
    nodes: tuple[tuple[int, int], ...] = ()
    scored_from: int = 0


@dataclass(frozen=True)
class ModelResponse:
    """Per-position predictions for a query.

    ``base[i]`` predicts the continuation of ``base[:scored_from + i + 1]``;
    ``nodes[j]`` predicts the continuation of the j-th extra node's path.
    """

    base: tuple[Prediction, ...]
    nodes: tuple[Prediction, ...]


class TargetModel(Protocol):
    vocab_size: int
    eos_token: int

    def score_tree(self, query: ModelQuery) -> ModelResponse: ...

    def greedy_next(self, base: Sequence[int]) -> int: ...


_field_hints = functools.cache(get_type_hints)
_BAD = object()
_S = TypeVar("_S", bound="Spec")


def _conform(hint: object, value: object) -> object:
    """``value`` as a field typed ``hint`` holds it, or ``_BAD`` if it is not one.

    An int given for a float becomes a float unless it is too large for one
    (a bool is not a number), a list given for a ``tuple[...]`` a tuple, and a
    dict given for a ``Spec`` one.
    """
    if hint in (int, float):
        if isinstance(value, (int, hint)) and not isinstance(value, bool):
            with suppress(OverflowError):
                return hint(value)
        return _BAD
    origin = get_origin(hint)
    if origin in (Union, UnionType):
        return next((v for v in (_conform(h, value) for h in get_args(hint)) if v is not _BAD), _BAD)
    if origin is tuple and isinstance(value, (list, tuple)):
        items = get_args(hint)[:1] * len(value) if get_args(hint)[-1:] == (...,) else get_args(hint)
        out = tuple(map(_conform, items, value))
        return out if len(items) == len(value) and _BAD not in out else _BAD
    if isinstance(value, dict) and isinstance(hint, type) and issubclass(hint, Spec):
        return hint.from_dict(value)
    return value if isinstance(value, origin or hint) else _BAD


@dataclass(frozen=True)
class Spec:
    """Base of every frozen dataclass read from JSON; subclasses add only range checks."""

    def __post_init__(self):
        hints = _field_hints(type(self))
        for f in fields(self):
            conformed = _conform(hints[f.name], getattr(self, f.name))
            if conformed is _BAD:
                raise ValueError(f"{f.name} must be {f.type}, got {getattr(self, f.name)!r}")
            object.__setattr__(self, f.name, conformed)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls: type[_S], raw: object) -> _S:
        """Build from a JSON object that names every required field and no other."""
        if not isinstance(raw, dict):
            raise ValueError(f"{cls.__name__} JSON must be an object, got {raw!r}")
        names = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
        wrong = {"unknown": sorted(set(raw) - names), "missing": sorted(required - set(raw))}
        if any(wrong.values()):
            raise ValueError(f"{cls.__name__} JSON: " + ", ".join(f"{k} keys {v}" for k, v in wrong.items() if v))
        return cls(**raw)

    @classmethod
    def from_json(cls: type[_S], text: str) -> _S:
        return cls.from_dict(parse_json(text))


def parse_json(text: str) -> object:
    """``json.loads``, except that input nested too deep to parse is a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply to parse") from None


@dataclass(frozen=True)
class SyntheticModelSpec(Spec):
    """Seeded description of a synthetic model; same spec, same behavior.

    Construction builds the model once, so its own checks reject a bad spec.
    """

    kind: str  # one of MODEL_KINDS
    seed: int
    vocab: int
    repetition: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.repetition <= 1.0:
            raise ValueError(f"repetition must be in [0, 1], got {self.repetition}")
        build_synthetic(self)


class _SyntheticModel:
    """Shared scoring machinery; subclasses define the per-path prediction.

    Internal state is a ``(path_hash, prev, cur)`` triple advanced one token
    at a time. ``score_tree`` resumes from its last folded prefix, so a query
    whose base extends the last one costs O(new base tokens + scored positions
    + nodes); any other base is folded from its start.
    """

    def __init__(self, seed: int, vocab_size: int):
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        self.seed = seed
        self.vocab_size = vocab_size
        self.eos_token = vocab_size - 1
        self.top_k = min(_TOP_K, vocab_size - 1)
        self._seed_mix = _mix64((seed & _MASK64) ^ 0x6A09E667F3BCC909)
        # The resume slot: the base prefix ``score_tree`` last folded, and its state.
        self._resume: tuple[tuple[int, ...], tuple[int, int, int]] = ((), _EMPTY_PATH)

    # -- state plumbing ----------------------------------------------------

    @staticmethod
    def _advance(state: tuple[int, int, int], token: int) -> tuple[int, int, int]:
        h, _prev, cur = state
        h = ((h * _FNV_PRIME) ^ (token + 1)) & _MASK64
        return (h, cur, token)

    def _check_token(self, token: int) -> None:
        if not (0 <= token < self.vocab_size):
            raise ValueError(f"token {token} out of vocabulary [0, {self.vocab_size})")

    def _fold(self, tokens: Sequence[int], state: tuple[int, int, int] = _EMPTY_PATH) -> tuple[int, int, int]:
        for t in tokens:
            self._check_token(t)
            state = self._advance(state, t)
        return state

    # -- public surface ----------------------------------------------------

    def score_tree(self, query: ModelQuery) -> ModelResponse:
        base = query.base
        if not base:
            raise ValueError("query base must be non-empty")
        if not (0 <= query.scored_from <= len(base)):
            raise ValueError(f"scored_from {query.scored_from} out of range")
        head = base[: query.scored_from]
        prefix, state = self._resume
        if head[: len(prefix)] == prefix:
            state = self._fold(head[len(prefix):], state)
        else:
            state = self._fold(head)
        self._resume = (head, state)
        base_preds: list[Prediction] = []
        for t in base[query.scored_from:]:
            state = self._fold((t,), state)
            base_preds.append(self._predict(state))
        node_states: list[tuple[int, int, int]] = []
        node_preds: list[Prediction] = []
        for j, (token, parent) in enumerate(query.nodes):
            self._check_token(token)
            if not (-1 <= parent < j):
                raise ValueError(f"node {j} references non-earlier parent {parent}")
            ns = self._advance(node_states[parent] if parent >= 0 else state, token)
            node_states.append(ns)
            node_preds.append(self._predict(ns))
        return ModelResponse(base=tuple(base_preds), nodes=tuple(node_preds))

    def greedy_next(self, base: Sequence[int]) -> int:
        if not base:
            raise ValueError("base must be non-empty")
        return self._predict_token(self._fold(base))

    # -- subclass hooks ------------------------------------------------------

    def _predict(self, state: tuple[int, int, int]) -> Prediction:
        raise NotImplementedError

    def _predict_token(self, state: tuple[int, int, int]) -> int:
        return self._predict(state).token


class MarkovModel(_SyntheticModel):
    """Order-2 Markov model with a lazily materialized seeded successor table.

    The distribution for a context is a pure function of ``(seed, prev, cur)``
    (or ``(seed, cur)`` at sequence start), drawn from a sha512-seeded stdlib
    generator, so an independent reimplementation reproduces it exactly.
    EOS (V-1) is reserved and never drawn as a successor.
    """

    def __init__(self, seed: int, vocab_size: int):
        super().__init__(seed, vocab_size)
        self._dists: dict[tuple[int, ...], Prediction] = {}

    def _dist(self, context: tuple[int, ...]) -> Prediction:
        cached = self._dists.get(context)
        if cached is not None:
            return cached
        key = ":".join(str(c) for c in context)
        tag = "u" if len(context) == 1 else "b"
        rng = random.Random(f"{self.seed}:{tag}:{key}")
        tokens = rng.sample(range(self.vocab_size - 1), self.top_k)
        weights = sorted((rng.random() ** 2 for _ in range(self.top_k)), reverse=True)
        total = sum(weights)
        entries = sorted(
            ((t, w / total) for t, w in zip(tokens, weights)),
            key=lambda e: (-e[1], e[0]),
        )
        pred = Prediction(token=entries[0][0], top_k=tuple(entries))
        self._dists[context] = pred
        return pred

    def _predict(self, state: tuple[int, int, int]) -> Prediction:
        _h, prev, cur = state
        context = (cur,) if prev < 0 else (prev, cur)
        return self._dist(context)


class TemplateRepeaterModel(_SyntheticModel):
    """Follows a seeded template cycle, deviating at rate ``1 - repetition``.

    The deviation decision and the noise token are derived from a splitmix64
    hash of the full ancestor path, so runs are deterministic yet aperiodic:
    context matching sees genuine mismatches instead of an eventually exact
    cycle. ``repetition=1.0`` reproduces the template cycle verbatim.
    """

    def __init__(self, seed: int, vocab_size: int, repetition: float):
        super().__init__(seed, vocab_size)
        self.repetition = repetition
        # Period longer than the 20-token draft-chain cap, so context matches
        # on repetitive runs reach full length and the spine-ratio tier caps
        # have real bite.
        length = min(28, vocab_size - 1)
        self.template: tuple[int, ...] = tuple(
            random.Random(f"{seed}:template").sample(range(vocab_size - 1), length)
        )
        self._template_pos = {t: i for i, t in enumerate(self.template)}
        self._alts: dict[tuple[int, int], tuple[int, ...]] = {}

    def _choose(self, state: tuple[int, int, int]) -> tuple[int, int]:
        """Return (predicted token, template successor) for a path state."""
        h, prev, cur = state
        hv = _mix64(h ^ self._seed_mix)
        tpl = self.template
        pos = self._template_pos.get(cur)
        if pos is None:
            prev_pos = self._template_pos.get(prev)
            pos = (prev_pos + 1) % len(tpl) if prev_pos is not None else hv % len(tpl)
        successor = tpl[(pos + 1) % len(tpl)]
        if hv / 2.0**64 < self.repetition:
            return successor, successor
        noise = _mix64(hv) % (self.vocab_size - 1)
        return noise, successor

    def _predict_token(self, state: tuple[int, int, int]) -> int:
        return self._choose(state)[0]

    def _alternates(self, prev: int, cur: int) -> tuple[int, ...]:
        key = (prev, cur)
        cached = self._alts.get(key)
        if cached is None:
            rng = random.Random(f"{self.seed}:alt:{prev}:{cur}")
            n = min(_TOP_K + 2, self.vocab_size - 1)
            cached = tuple(rng.sample(range(self.vocab_size - 1), n))
            self._alts[key] = cached
        return cached

    def _predict(self, state: tuple[int, int, int]) -> Prediction:
        predicted, successor = self._choose(state)
        _h, prev, cur = state
        chosen: list[int] = [predicted]
        if successor != predicted:
            chosen.append(successor)
        for alt in self._alternates(prev, cur):
            if len(chosen) >= self.top_k:
                break
            if alt not in chosen:
                chosen.append(alt)
        entries = tuple((t, _TEMPLATE_SCORES[i]) for i, t in enumerate(chosen))
        return Prediction(token=predicted, top_k=entries)


# Synthetic model kind -> constructor from its spec.
_SYNTHETIC = {
    "markov-order-2": lambda spec: MarkovModel(seed=spec.seed, vocab_size=spec.vocab),
    "template-repeater": lambda spec: TemplateRepeaterModel(
        seed=spec.seed, vocab_size=spec.vocab, repetition=spec.repetition
    ),
}

MODEL_KINDS = tuple(_SYNTHETIC)


def build_synthetic(spec: SyntheticModelSpec) -> TargetModel:
    """Construct a deterministic synthetic model from its spec."""
    if spec.kind not in _SYNTHETIC:
        raise ValueError(f"unknown synthetic model kind: {spec.kind!r}")
    return _SYNTHETIC[spec.kind](spec)


def ar_decode(model: TargetModel, prompt: Sequence[int], max_tokens: int) -> TokenSequence:
    """Plain greedy rollout, one token per model call.

    This is the equality oracle for every speculative engine: an engine run is
    lossless iff its output token stream equals ``ar_decode`` on the same
    (model, prompt, max_tokens). Stops after ``max_tokens`` tokens or once the
    model's EOS token is emitted (EOS included in the output).
    """
    if max_tokens < 0:
        raise ValueError("max_tokens must be >= 0")
    history = list(prompt)
    out: list[int] = []
    while len(out) < max_tokens:
        token = model.greedy_next(history)
        out.append(token)
        history.append(token)
        if token == model.eos_token:
            break
    return TokenSequence(tokens=tuple(out))
