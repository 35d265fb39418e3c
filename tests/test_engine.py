from __future__ import annotations

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinedec.engine as engine_module
from conftest import ScriptedModel, engine_configs, model_specs
from spinedec.adjacency import AdjacencyTable
from spinedec.context import ContextIndex
from spinedec.engine import (
    ENGINE_KINDS,
    EngineConfig,
    decode,
    spine_ratio_tier,
    update_ema,
)
from spinedec.models import MODEL_KINDS, SyntheticModelSpec, ar_decode, build_synthetic

SMALL = EngineConfig(node_budget=16)
REASONS = ("prefill", "bypass:long", "bypass:consensus", "tree", "fallback:no-source", "fallback:empty-tree")


def make_model(kind: str, seed: int = 7, vocab: int = 48, repetition: float = 0.8):
    return build_synthetic(SyntheticModelSpec(kind, seed, vocab, repetition))


# --- EMA and tiers ---------------------------------------------------------------


def test_ema_rises_to_the_top_tier_within_three_cycles():
    value = 0.3
    seen = []
    for _ in range(3):
        value = update_ema(value, 0.3, 1.0)
        seen.append(round(value, 4))
    assert seen == [0.51, 0.657, 0.7599]
    assert spine_ratio_tier(seen[0], EngineConfig().spine_ratio_tiers) == 0.50


def test_ema_falls_to_the_bottom_tier_by_cycle_two():
    value = update_ema(0.3, 0.3, 0.0)
    assert round(value, 4) == 0.21
    value = update_ema(value, 0.3, 0.0)
    assert round(value, 4) == 0.147
    assert spine_ratio_tier(value, EngineConfig().spine_ratio_tiers) == 0.15


def test_only_a_verified_draft_retunes_the_ema(monkeypatch):
    # Prefill and fallback verify the empty draft and leave the EMA alone.
    calls = []

    def counted(value, alpha, observation):
        calls.append(observation)
        return update_ema(value, alpha, observation)

    monkeypatch.setattr(engine_module, "update_ema", counted)
    _out, stats = decode("spine", make_model("template-repeater"), (2, 9, 4), 90)
    kinds = [r.kind for r in stats.records]
    assert set(kinds) == {"prefill", "bypass", "tree", "fallback"}
    assert len(calls) == kinds.count("bypass") + kinds.count("tree")


def test_a_one_node_tree_is_walked_and_retunes_the_ema(monkeypatch):
    # At node budget 2 a tree has at most one node past the root; it is still
    # a tree cycle, not an empty-tree fallback, and its verdict moves the EMA.
    calls = []

    def counted(value, alpha, observation):
        calls.append(observation)
        return update_ema(value, alpha, observation)

    monkeypatch.setattr(engine_module, "update_ema", counted)
    model = make_model("template-repeater", vocab=64, repetition=0.9)
    config = EngineConfig(node_budget=2, ema_init=0.5, disable_bypass=True)
    out, stats = decode("spine", model, (2, 9, 4), 120, config)
    trees = [r for r in stats.records if r.kind == "tree"]
    assert len(trees) == 39
    assert all(r.offered_context + r.offered_transition == 1 for r in trees)
    assert len(calls) == len(trees)
    assert out.tokens == ar_decode(model, (2, 9, 4), 120).tokens


def test_ema_fixed_point():
    assert update_ema(0.42, 0.3, 0.42) == pytest.approx(0.42)


def test_ema_rejects_out_of_range_observations():
    with pytest.raises(ValueError):
        update_ema(0.3, 0.3, 1.5)
    with pytest.raises(ValueError):
        EngineConfig(ema_init=2.0)


def test_every_tier_budget_reaches_the_tree():
    # Without bypass a long context match builds a tree, whose spine the
    # current tier caps at floor(60 * ratio): 9 at 0.15 and 18 at 0.30.
    model = make_model("template-repeater", vocab=64, repetition=0.9)
    _out, stats = decode("spine", model, (2, 9, 4), 160, EngineConfig(disable_bypass=True))
    spines = {r.offered_spine for r in stats.records if r.kind == "tree"}
    assert {9, 18} <= spines


def test_tier_is_a_monotone_step_function():
    tiers = EngineConfig().spine_ratio_tiers
    values = [spine_ratio_tier(p / 100, tiers) for p in range(0, 101)]
    assert values == sorted(values)
    assert spine_ratio_tier(0.19, tiers) == 0.15
    assert spine_ratio_tier(0.2, tiers) == 0.30
    assert spine_ratio_tier(0.39, tiers) == 0.30
    assert spine_ratio_tier(0.4, tiers) == 0.50
    assert spine_ratio_tier(1.0, tiers) == 0.50


# --- config ----------------------------------------------------------------------


def test_config_json_round_trip():
    config = EngineConfig(node_budget=24, disable_bypass=True, ngram_lengths=(2, 3))
    assert EngineConfig.from_json(config.to_json()) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        EngineConfig.from_json('{"节点": 3}'.replace("节点", "node_count"))


@pytest.mark.parametrize(
    "bad",
    [
        dict(node_budget=0),
        dict(max_tree_depth=0),
        dict(spine_branch_ratio=1.0),
        dict(spine_branch_ratio=0.0),
        dict(spine_ratio_tiers=((0.2, 0.15), (1.0, 1.0))),
        dict(spine_ratio_tiers=((1.0, 0.0),)),
        dict(ema_init=1.5),
        dict(ema_smoothing=0.0),
    ],
)
def test_config_rejects_values_a_tree_cycle_would_reject(bad):
    # Every engine would otherwise start decoding; iso with no budget would
    # silently fall back to one token per call.
    with pytest.raises(ValueError):
        EngineConfig(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        dict(ngram_lengths=3),
        dict(ngram_lengths=(True, 3)),
        dict(ngram_lengths=(0, 3)),
        dict(ema_init="x"),
        dict(disable_bypass="yes"),
        dict(bypass_threshold=-3),
        dict(max_spine_continuation=0),
        dict(min_score_threshold=1.5),
        dict(transition_top_k=0),
        dict(spine_ratio_tiers=((0.4, 0.30), (0.2, 0.15), (1.0, 0.50))),
        dict(spine_ratio_tiers=((0.2, 0.15), (0.2, 0.30), (1.0, 0.50))),
        dict(spine_ratio_tiers=((0.2, 0.15), (1.5, 0.50))),
        dict(spine_ratio_tiers=((0.2,),)),
    ],
)
def test_config_rejects_malformed_values(bad):
    # Each of these used to raise TypeError, or to decode silently.
    with pytest.raises(ValueError):
        EngineConfig(**bad)


def test_config_json_stores_numbers_as_their_field_types():
    loaded = EngineConfig.from_json(
        '{"spine_ratio_tiers": [[0.2, 0.15], [0.4, 0.3], [1, 0.5]], "ema_init": 0}'
    )
    expected = replace(EngineConfig(), ema_init=0.0)
    assert loaded == expected
    assert loaded.to_json() == expected.to_json()


# --- loop behavior ----------------------------------------------------------------


def test_zero_token_run_is_empty_with_no_calls():
    out, stats = decode("spine", make_model("markov-order-2"), (1, 2), 0)
    assert out.tokens == ()
    assert stats.model_calls == 0
    assert stats.tau == 1.0


def test_empty_prompt_rejected():
    with pytest.raises(ValueError):
        decode("spine", make_model("markov-order-2"), (), 4)


def test_negative_max_tokens_rejected():
    with pytest.raises(ValueError):
        decode("spine", make_model("markov-order-2"), (1, 2), -1)


def test_fallback_when_no_source_is_available():
    # The prompt's harvested keys never include the fresh anchor token, and a
    # 3-token history has no repeated n-grams, so cycle one must be an AR step.
    model = ScriptedModel(vocab_size=32, script={(1, 1): 9, (1, 1, 9): 9})
    out, stats = decode("spine", model, (1, 1), 3, SMALL)
    assert stats.records[1].reason == "fallback:no-source"
    assert out.tokens == ar_decode(ScriptedModel(vocab_size=32, script=model.script), (1, 1), 3).tokens


def test_prefill_counts_as_one_call_and_one_token():
    model = make_model("markov-order-2")
    out, stats = decode("spine", model, (1, 2, 3), 1)
    assert stats.model_calls == 1
    assert stats.records[0].kind == "prefill"
    assert out.tokens == ar_decode(make_model("markov-order-2"), (1, 2, 3), 1).tokens


def test_long_match_triggers_bypass():
    model = make_model("template-repeater", repetition=1.0, vocab=32)
    out, stats = decode("spine", model, (1, 2), 80)
    assert stats.cycle_counts.get("bypass", 0) > 0
    assert any(r.reason == "bypass:long" for r in stats.records)
    assert out.tokens == ar_decode(make_model("template-repeater", repetition=1.0, vocab=32), (1, 2), 80).tokens


def test_disable_bypass_routes_through_trees():
    model = make_model("template-repeater", repetition=1.0, vocab=32)
    config = replace(EngineConfig(), disable_bypass=True)
    _out, stats = decode("spine", model, (1, 2), 80, config)
    assert stats.cycle_counts.get("bypass", 0) == 0
    assert stats.cycle_counts.get("tree", 0) > 0


def test_consensus_triggers_bypass_below_length_threshold():
    # A 9-token template keeps chains under the length threshold (<= 6), but
    # all n-gram lengths agree on the continuation, so consensus bypass fires.
    model = make_model("template-repeater", repetition=1.0, vocab=10)
    _out, stats = decode("spine", model, (1, 2), 60)
    bypass_records = [r for r in stats.records if r.kind == "bypass"]
    assert bypass_records
    assert all(r.offered_spine < 8 for r in bypass_records)
    assert {r.reason for r in bypass_records} == {"bypass:consensus"}


@pytest.mark.parametrize("engine", ["iso3", "transition", "spine"])
def test_tree_with_no_node_past_the_root_falls_back(engine):
    # A two-node budget leaves no room past the root once the table has a
    # successor, so those cycles build an empty tree and take one AR step.
    reference = ar_decode(make_model("template-repeater"), (2, 9, 4), 90).tokens
    out, stats = decode(engine, make_model("template-repeater"), (2, 9, 4), 90, EngineConfig(node_budget=2))
    assert out.tokens == reference
    assert sum(r.reason == "fallback:empty-tree" for r in stats.records) > 0
    assert stats.cycle_counts.get("tree", 0) == 0


@pytest.mark.parametrize("engine", ["spine", "iso3", "context"])
def test_plan_reads_run_state_and_never_calls_the_model(engine, monkeypatch):
    # Every cycle, two extra plans on the live state must agree and leave the
    # history, the records, the EMA and both draft sources as they were.
    plan = engine_module._plan
    seen = set()

    def score_tree_must_not_run(_query):
        raise AssertionError("_plan called the model")

    def state(run):
        sources = [vars(source) for source in (run.table, run.index) if source is not None]
        return copy.deepcopy((run.history, run.out, run.stats.records, run.ema, sources))

    def checked_plan(run, config, tree_kind, fanout):
        before = state(run)
        with monkeypatch.context() as patch:
            patch.setattr(run.model, "score_tree", score_tree_must_not_run)
            first = plan(run, config, tree_kind, fanout)
            assert plan(run, config, tree_kind, fanout) == first
        assert state(run) == before
        seen.add(first.reason)
        return first

    monkeypatch.setattr(engine_module, "_plan", checked_plan)
    out, stats = decode(engine, make_model("template-repeater"), (2, 9, 4), 90)
    assert out.tokens == ar_decode(make_model("template-repeater"), (2, 9, 4), 90).tokens
    assert seen == set(r.reason for r in stats.records) and len(seen) >= 3


def test_stats_identity_tokens_split_into_accepted_plus_bonus():
    for kind, rep in (("markov-order-2", 0.0), ("template-repeater", 0.9)):
        model = make_model(kind, repetition=rep)
        out, stats = decode("spine", model, (3, 4, 5), 97)
        accepted = sum(r.accepted_emitted for r in stats.records)
        bonus = sum(r.bonus_emitted for r in stats.records)
        assert accepted + bonus == stats.total_tokens == len(out.tokens)
        assert stats.tau >= 1.0
        assert stats.model_calls == len(stats.records)
        by_category = sum(
            r.accepted_emitted for r in stats.records if r.kind != "prefill"
        )
        assert by_category == accepted  # prefill never accepts draft tokens


def test_truncation_mid_cycle_respects_the_budget():
    model = make_model("template-repeater", repetition=1.0, vocab=32)
    reference = ar_decode(make_model("template-repeater", repetition=1.0, vocab=32), (1, 2), 33)
    out, stats = decode("spine", model, (1, 2), 33)
    assert out.tokens == reference.tokens
    assert len(out.tokens) == 33
    assert stats.total_tokens == 33


def test_eos_truncation_matches_reference():
    script = {(3, 4): 5, (3, 4, 5): 6, (3, 4, 5, 6): 15}  # eos = 15
    out_ref = ar_decode(ScriptedModel(16, dict(script)), (3, 4), 40)
    out, _stats = decode("spine", ScriptedModel(16, dict(script)), (3, 4), 40, SMALL)
    assert out.tokens == out_ref.tokens
    assert out.tokens[-1] == 15


@pytest.mark.parametrize("engine", ENGINE_KINDS)
def test_eos_ends_a_walk_accepted_past_it(engine):
    # EOS inside a repeat of the prompt: a context draft offers EOS and the
    # tokens after it, and the walk accepts two of them past EOS. No synthetic
    # model ever predicts EOS, so only a scripted one reaches this cut.
    prompt = (4, 5, 6, 15, 1, 2, 9, 3, 4, 5)
    script = {prompt + (6,): 15}  # eos = 15
    out, _stats = decode(engine, ScriptedModel(16, script), prompt, 20)
    assert out.tokens == ar_decode(ScriptedModel(16, script), prompt, 20).tokens == (6, 15)


def test_transition_baseline_equals_flagged_spine_engine():
    for kind in MODEL_KINDS:
        model_a = make_model(kind)
        model_b = make_model(kind)
        out_a, stats_a = decode("transition", model_a, (1, 2, 3), 120)
        flagged = replace(EngineConfig(), disable_spine=True, disable_bypass=True)
        out_b, stats_b = decode("spine", model_b, (1, 2, 3), 120, flagged)
        assert out_a.tokens == out_b.tokens
        assert stats_a.tau == stats_b.tau


def test_transition_baseline_offers_no_context_tokens():
    _out, stats = decode("transition", make_model("template-repeater"), (1, 2, 3), 80)
    assert stats.offered_by_source["context"] == 0


def test_context_baseline_tau_is_one_when_nothing_repeats():
    model = make_model("template-repeater", repetition=0.0, vocab=64)
    out, stats = decode("context", model, (1, 2, 3), 120)
    assert out.tokens == ar_decode(make_model("template-repeater", repetition=0.0, vocab=64), (1, 2, 3), 120).tokens
    assert stats.tau < 1.1


def test_control_swap_offers_no_context_tokens_but_keeps_shape():
    model = make_model("template-repeater", repetition=0.9)
    config = replace(EngineConfig(), control_swap_sources=True)
    out, stats = decode("spine", model, (1, 2, 3), 120, config)
    assert stats.offered_by_source["context"] == 0
    reference = ar_decode(make_model("template-repeater", repetition=0.9), (1, 2, 3), 120)
    assert out.tokens == reference.tokens


@pytest.mark.parametrize(
    "engine,source,method",
    [("ar", AdjacencyTable, "harvest"), ("context", AdjacencyTable, "harvest"), ("transition", ContextIndex, "extend")],
)
def test_engines_feed_no_draft_source_they_never_read(engine, source, method, monkeypatch):
    # Building a config checks an empty context index, which feeds it nothing.
    def unread(_self, items):
        if list(items):
            raise AssertionError(f"decode({engine!r}) fed {source.__name__}.{method}")

    reference = ar_decode(make_model("template-repeater", repetition=0.9), (1, 2, 3), 120)
    monkeypatch.setattr(source, method, unread)
    out, _stats = decode(engine, make_model("template-repeater", repetition=0.9), (1, 2, 3), 120)
    assert out.tokens == reference.tokens


def test_unknown_engine_kind_rejected():
    with pytest.raises(ValueError):
        decode("turbo", make_model("markov-order-2"), (1,), 4)


@pytest.mark.parametrize("engine", ["iso", "iso0", "iso4"])
def test_only_listed_iso_engines_decode(engine):
    assert engine not in ENGINE_KINDS
    with pytest.raises(ValueError):
        decode(engine, make_model("markov-order-2"), (1,), 4)


def test_ar_engine_scores_through_the_loop_not_the_oracle():
    # ``ar`` is the route policy with no draft source, so it reaches the model
    # only through score_tree and never through the oracle's greedy_next.
    model = make_model("template-repeater", repetition=0.5)

    def oracle_must_not_run(_base):
        raise AssertionError("decode('ar') called greedy_next")

    model.greedy_next = oracle_must_not_run
    out, stats = decode("ar", model, (2, 9, 4), 60)
    reference = ar_decode(make_model("template-repeater", repetition=0.5), (2, 9, 4), 60)
    assert out.tokens == reference.tokens
    assert [r.kind for r in stats.records] == ["prefill"] + ["fallback"] * 59


def test_ar_engine_tau_is_exactly_one():
    model = make_model("markov-order-2")
    out, stats = decode("ar", model, (1, 2, 3), 50)
    assert stats.tau == 1.0
    assert stats.model_calls == len(out.tokens) == 50


@pytest.mark.parametrize("engine", ["spine", "context", "transition", "iso3", "iso5", "ar"])
@pytest.mark.parametrize(
    "kind,rep", [("markov-order-2", 0.0), ("template-repeater", 0.5), ("template-repeater", 0.9)]
)
def test_every_engine_is_lossless(engine, kind, rep):
    reference = ar_decode(make_model(kind, repetition=rep), (2, 9, 4), 90).tokens
    out, stats = decode(engine, make_model(kind, repetition=rep), (2, 9, 4), 90)
    assert out.tokens == reference
    assert stats.tau >= 1.0
    for record in stats.records:
        assert record.reason in REASONS
        assert record.kind == record.reason.partition(":")[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    config=engine_configs,
    spec=model_specs,
    engine=st.sampled_from(ENGINE_KINDS),
    max_tokens=st.integers(0, 64),
    data=st.data(),
)
def test_random_configs_models_and_prompts_decode_losslessly(config, spec, engine, max_tokens, data):
    # Prompts may hold EOS anywhere: only an emitted EOS ends a run.
    prompt = data.draw(st.lists(st.integers(0, spec.vocab - 1), min_size=1, max_size=24))
    out, stats = decode(engine, build_synthetic(spec), prompt, max_tokens, config)
    assert out == ar_decode(build_synthetic(spec), prompt, max_tokens)
    assert stats.total_tokens == len(out)
    assert stats.model_calls <= max_tokens



def test_single_call_per_cycle():
    model = ScriptedModel(vocab_size=32)
    _out, stats = decode("spine", model, (1, 2), 25, SMALL)
    assert model.calls == stats.model_calls == len(stats.records)
