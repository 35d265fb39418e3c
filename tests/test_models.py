from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedModel, engine_configs, model_specs, unit_floats
from spinedec.bench import CorpusSpec, prompts_for
from spinedec.engine import EngineConfig, decode
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


_BAD_TOKENS = st.sampled_from((-1, VOCAB, VOCAB + 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(MODEL_KINDS), seed=st.integers(0, 2**16), data=st.data())
def test_any_query_order_answers_as_a_fresh_model(kind, seed, data):
    # One instance keeps its resume slot across queries whose bases extend,
    # shrink or replace the last one; a fresh instance has none.
    spec = SyntheticModelSpec(kind, seed, VOCAB, 0.5)
    model = build_synthetic(spec)
    tokens = st.integers(0, VOCAB - 2)
    last: tuple[int, ...] = ()
    for _ in range(data.draw(st.integers(1, 8), label="queries")):
        step = data.draw(st.sampled_from(("extend", "shrink", "replace")))
        kept = data.draw(st.integers(0, len(last))) if step == "shrink" else len(last) if step == "extend" else 0
        new = data.draw(st.lists(tokens, min_size=0 if kept else 1, max_size=12))
        fault = data.draw(st.sampled_from((None, None, None, "token", "parent", "scored_from")))
        if fault == "token":  # in the new suffix, which no earlier query folded
            new.insert(data.draw(st.integers(0, len(new))), data.draw(_BAD_TOKENS))
        base = last[:kept] + tuple(new)
        scored_from = data.draw(st.sampled_from((0, len(base))) | st.integers(0, len(base)))
        if fault == "scored_from":
            scored_from = data.draw(st.sampled_from((-1, len(base) + 1)))
        size = data.draw(st.integers(0, 5))
        nodes = [(data.draw(tokens), data.draw(st.integers(-1, j - 1))) for j in range(size)]
        if fault == "parent":
            j = len(nodes)
            nodes.append((data.draw(tokens), data.draw(st.sampled_from((-2, j, j + 3)))))
        query = ModelQuery(base=base, nodes=tuple(nodes), scored_from=scored_from)

        def answer(m):
            try:
                return m.score_tree(query)
            except ValueError as error:
                return f"ValueError: {error}"

        fresh = build_synthetic(spec)
        want = answer(fresh)
        assert answer(model) == want
        assert isinstance(want, str) == (fault is not None)
        if fault is None:
            assert model.greedy_next(base) == fresh.greedy_next(base)
            last = base


def _count_base_advances(model) -> list[int]:
    """Patch ``model`` to record, per later call, the base tokens it advances its state over."""
    counts: list[int] = []
    advance, score_tree, greedy_next = model._advance, model.score_tree, model.greedy_next

    def counting_advance(state, token):
        counts[-1] += 1
        return advance(state, token)

    def counting_score_tree(query):
        counts.append(-len(query.nodes))  # each extra node is advanced over once
        return score_tree(query)

    def counting_greedy_next(base):
        counts.append(0)
        return greedy_next(base)

    model._advance = counting_advance
    model.score_tree, model.greedy_next = counting_score_tree, counting_greedy_next
    return counts


@pytest.mark.parametrize("max_tokens", [512, 4096])
def test_scoring_folds_each_base_token_about_once_and_the_oracle_folds_every_base(max_tokens):
    spec = CorpusSpec(name="folds", model=SyntheticModelSpec("template-repeater", 1, 64, 0.9),
                      prompts=1, prompt_len=32, max_tokens=max_tokens)
    prompt = prompts_for(spec)[0]
    model = build_synthetic(spec.model)
    counts = _count_base_advances(model)
    sequence, stats = decode("spine", model, prompt, max_tokens, EngineConfig())
    assert len(sequence) == max_tokens and len(counts) == stats.model_calls
    # Linear in the tokens: the prompt is folded once as history and once as
    # scored positions, each accepted token once, plus one scored root per call.
    assert sum(counts) <= 2 * len(prompt) + max_tokens + stats.model_calls
    history = prompt + sequence.tokens
    counts.clear()
    for base in (history, history[:-1], history):
        model.greedy_next(base)
    assert counts == [len(history), len(history) - 1, len(history)]
