from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedModel, engine_configs, model_specs, unit_floats
from spinedec.bench import CorpusSpec
from spinedec.models import (
    MODEL_KINDS,
    MarkovModel,
    ModelQuery,
    SyntheticModelSpec,
    TemplateRepeaterModel,
    ar_decode,
    build_synthetic,
)
from spinedec.theory import BoundSetting

VOCAB = 32


def random_path(rng: random.Random, vocab: int, min_len: int = 1, max_len: int = 10):
    return tuple(rng.randrange(vocab - 1) for _ in range(rng.randint(min_len, max_len)))


def test_markov_prediction_matches_independent_table_rebuild():
    seed = 13
    model = MarkovModel(seed, VOCAB)
    rng = random.Random(0)
    for _ in range(40):
        path = random_path(rng, VOCAB, min_len=2)
        response = model.score_tree(ModelQuery(base=path, scored_from=len(path) - 1))
        a, b = path[-2], path[-1]
        # Independent re-derivation of the seeded successor table.
        r = random.Random(f"{seed}:b:{a}:{b}")
        k = min(10, VOCAB - 1)
        tokens = r.sample(range(VOCAB - 1), k)
        weights = sorted((r.random() ** 2 for _ in range(k)), reverse=True)
        total = sum(weights)
        entries = sorted(
            ((t, w / total) for t, w in zip(tokens, weights)), key=lambda e: (-e[1], e[0])
        )
        assert response.base[-1].top_k == tuple(entries)
        assert response.base[-1].token == entries[0][0]


def test_prediction_is_a_pure_function_of_the_ancestor_path():
    for spec in (
        SyntheticModelSpec("markov-order-2", 5, VOCAB),
        SyntheticModelSpec("template-repeater", 5, VOCAB, 0.6),
    ):
        model = build_synthetic(spec)
        base = (1, 2, 3)
        lone = model.score_tree(ModelQuery(base=base, nodes=((5, -1), (7, 0))))
        crowded = model.score_tree(
            ModelQuery(base=base, nodes=((4, -1), (5, -1), (9, 1), (7, 1)))
        )
        assert lone.nodes[1] == crowded.nodes[3]


def test_same_spec_gives_identical_models():
    spec = SyntheticModelSpec("template-repeater", 99, VOCAB, 0.4)
    a = ar_decode(build_synthetic(spec), (4, 9, 2), 64)
    b = ar_decode(build_synthetic(spec), (4, 9, 2), 64)
    assert a.tokens == b.tokens


def test_template_repetition_one_cycles_through_the_template():
    seed = 5
    model = build_synthetic(SyntheticModelSpec("template-repeater", seed, VOCAB, 1.0))
    # Independent re-derivation of the seeded template.
    template = random.Random(f"{seed}:template").sample(range(VOCAB - 1), min(28, VOCAB - 1))
    out = ar_decode(model, (template[0],), 40).tokens
    pos = template.index(out[0])
    for i, token in enumerate(out):
        assert token == template[(pos + i) % len(template)]


@pytest.mark.parametrize(
    "spec",
    [
        SyntheticModelSpec("markov-order-2", 3, VOCAB),
        SyntheticModelSpec("template-repeater", 3, VOCAB, 0.5),
    ],
    ids=["markov", "template"],
)
def test_top_k_coherence(spec):
    model = build_synthetic(spec)
    rng = random.Random(42)
    for _ in range(60):
        path = random_path(rng, VOCAB)
        pred = model.score_tree(ModelQuery(base=path, scored_from=len(path) - 1)).base[-1]
        assert pred.token == pred.top_k[0][0]
        scores = [s for _, s in pred.top_k]
        assert all(0.0 <= s <= 1.0 for s in scores)
        assert scores == sorted(scores, reverse=True)
        tokens = [t for t, _ in pred.top_k]
        assert len(tokens) == len(set(tokens))
        # Both families give one fixed candidate width, capped by the vocabulary.
        assert len(pred.top_k) == min(10, VOCAB - 1)
        # Deterministic tie-break: ordering key is (score desc, token asc).
        assert list(pred.top_k) == sorted(pred.top_k, key=lambda e: (-e[1], e[0]))


def test_greedy_next_agrees_with_score_tree():
    model = build_synthetic(SyntheticModelSpec("template-repeater", 21, VOCAB, 0.7))
    rng = random.Random(7)
    for _ in range(40):
        path = random_path(rng, VOCAB)
        response = model.score_tree(ModelQuery(base=path, scored_from=len(path) - 1))
        assert model.greedy_next(path) == response.base[-1].token


def test_scored_from_trims_base_predictions():
    model = build_synthetic(SyntheticModelSpec("markov-order-2", 1, VOCAB))
    base = (1, 2, 3, 4)
    full = model.score_tree(ModelQuery(base=base))
    trimmed = model.score_tree(ModelQuery(base=base, scored_from=3))
    assert len(full.base) == 4
    assert len(trimmed.base) == 1
    assert trimmed.base[-1] == full.base[-1]


def test_out_of_vocabulary_token_is_an_input_error():
    model = build_synthetic(SyntheticModelSpec("markov-order-2", 1, VOCAB))
    with pytest.raises(ValueError):
        model.score_tree(ModelQuery(base=(1, VOCAB)))
    with pytest.raises(ValueError):
        model.score_tree(ModelQuery(base=(1,), nodes=((VOCAB + 3, -1),)))


def test_malformed_ancestor_lists_are_rejected():
    model = build_synthetic(SyntheticModelSpec("markov-order-2", 1, VOCAB))
    with pytest.raises(ValueError):
        model.score_tree(ModelQuery(base=(1,), nodes=((2, 0),)))  # refers to itself
    with pytest.raises(ValueError):
        model.score_tree(ModelQuery(base=(1,), nodes=((2, -1), (3, 2))))  # a later node
    with pytest.raises(ValueError):
        model.score_tree(ModelQuery(base=(1,), nodes=((2, -2),)))  # below the base


def test_vocab_too_small_is_an_input_error():
    with pytest.raises(ValueError):
        build_synthetic(SyntheticModelSpec("markov-order-2", 0, 1))
    with pytest.raises(ValueError):
        MarkovModel(0, 1)
    with pytest.raises(ValueError):
        TemplateRepeaterModel(0, 1, 0.5)


def test_unknown_kind_is_an_input_error():
    with pytest.raises(ValueError):
        build_synthetic(SyntheticModelSpec("bigram-soup", 0, 8))


def test_spec_json_round_trip():
    spec = SyntheticModelSpec("template-repeater", 123, 64, 0.25)
    assert SyntheticModelSpec.from_json(spec.to_json()) == spec
    raw = spec.to_json()
    assert set(raw) and all(key in raw for key in ('"kind"', '"seed"', '"vocab"', '"repetition"'))


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("repetition", [5.0, -1.0, float("nan")])
def test_repetition_outside_unit_interval_is_rejected_for_every_kind(kind: str, repetition: float):
    with pytest.raises(ValueError, match="repetition"):
        SyntheticModelSpec(kind, 0, 8, repetition)


corpus_specs = st.builds(
    CorpusSpec,
    name=st.text(max_size=12),
    model=model_specs,
    prompts=st.integers(1, 64),
    prompt_len=st.integers(1, 64),
    max_tokens=st.integers(0, 4096),
)

bound_settings = st.builds(
    BoundSetting,
    setting_id=st.text(max_size=12),
    p_s=unit_floats,
    p_t=unit_floats,
    m=st.integers(0, 64),
    budget=st.integers(1, 256),
    depth=st.integers(1, 12),
    tau_meas=st.none() | st.floats(0.0, 1e6),
    stderr=st.none() | st.floats(0.0, 1e3),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec=st.one_of(model_specs, corpus_specs, engine_configs, bound_settings))
def test_every_spec_round_trips_through_json(spec):
    text = spec.to_json()
    loaded = type(spec).from_json(text)
    assert loaded == spec
    assert loaded.to_json() == text


def test_ar_decode_zero_tokens_is_empty():
    model = build_synthetic(SyntheticModelSpec("markov-order-2", 2, VOCAB))
    assert ar_decode(model, (1, 2), 0).tokens == ()


def test_ar_decode_stops_at_eos_inclusive():
    model = ScriptedModel(vocab_size=8, script={(3,): 5, (3, 5): 7})  # eos = 7
    out = ar_decode(model, (3,), 10)
    assert out.tokens == (5, 7)


def test_ar_decode_negative_budget_rejected():
    model = ScriptedModel()
    with pytest.raises(ValueError):
        ar_decode(model, (1,), -1)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    rep=st.floats(0.0, 1.0),
    prompt=st.lists(st.integers(0, VOCAB - 2), min_size=1, max_size=6),
)
def test_template_determinism_property(seed, rep, prompt):
    spec = SyntheticModelSpec("template-repeater", seed, VOCAB, rep)
    first = ar_decode(build_synthetic(spec), tuple(prompt), 24).tokens
    second = ar_decode(build_synthetic(spec), tuple(prompt), 24).tokens
    assert first == second
    assert all(0 <= t < VOCAB for t in first)
