from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import spinedec
import spinedec.bench as bench
from spinedec.bench import (
    CorpusSpec,
    LosslessnessError,
    ablation_table,
    prompts_for,
    run_corpus,
    run_prompt,
    synergy_ratio,
)
from spinedec.engine import EngineConfig
from spinedec.models import SyntheticModelSpec, TokenSequence

TINY = CorpusSpec(
    name="tiny",
    model=SyntheticModelSpec("template-repeater", 11, 48, 0.9),
    prompts=3,
    prompt_len=8,
    max_tokens=60,
)


def test_corpus_spec_round_trip():
    assert CorpusSpec.from_json(TINY.to_json()) == TINY


def test_corpus_counts_validated():
    with pytest.raises(ValueError):
        CorpusSpec("x", TINY.model, prompts=0, prompt_len=4, max_tokens=10)


def test_prompts_are_deterministic_and_avoid_eos():
    first = prompts_for(TINY)
    second = prompts_for(TINY)
    assert first == second
    assert len(first) == 3
    assert all(len(p) == 8 for p in first)
    eos = TINY.model.vocab - 1
    assert all(eos not in p for p in first)
    # Different corpus names reseed the prompts.
    renamed = CorpusSpec("other", TINY.model, 3, 8, 60)
    assert prompts_for(renamed) != first


def test_run_corpus_ar_tau_is_exactly_one():
    report = run_corpus(TINY, "ar")
    assert report.mean_tau == 1.0
    assert report.median_tau == 1.0
    assert report.iqr_tau == 0.0


def test_reports_are_byte_identical_across_runs_and_jobs():
    one = run_corpus(TINY, "spine", EngineConfig(), jobs=1).to_json()
    two = run_corpus(TINY, "spine", EngineConfig(), jobs=1).to_json()
    parallel = run_corpus(TINY, "spine", EngineConfig(), jobs=2).to_json()
    assert one == two == parallel


def test_report_carries_header_and_rows():
    report = run_corpus(TINY, "spine")
    payload = report.to_dict()
    assert payload["header"]["engine"] == "spine"
    assert payload["header"]["quartile_method"] == bench.QUARTILE_METHOD
    assert len(payload["per_prompt"]) == 3
    row = payload["per_prompt"][0]
    assert row["tau"] >= 1.0
    assert row["tokens"] == 60
    assert report.pooled_tau >= 1.0
    assert report.cv_tau >= 0.0


def _tamper_position_5(monkeypatch):
    from spinedec.engine import decode as real_decode

    def broken_decode(engine, model, prompt, max_tokens, config):
        sequence, stats = real_decode("ar", model, prompt, max_tokens)
        tampered = list(sequence.tokens)
        tampered[5] = (tampered[5] + 1) % 7
        return TokenSequence(tokens=tuple(tampered)), stats

    monkeypatch.setattr(bench, "decode", broken_decode)


def test_losslessness_failure_reports_first_divergence(monkeypatch):
    _tamper_position_5(monkeypatch)
    with pytest.raises(LosslessnessError) as err:
        run_prompt(TINY, 0, "spine", EngineConfig())
    assert err.value.position == 5
    assert err.value.prompt_id == 0


def test_losslessness_error_survives_pickling():
    err = LosslessnessError(3, 5, 1, 2)
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is LosslessnessError
    assert (copy.prompt_id, copy.position, copy.got, copy.want) == (3, 5, 1, 2)
    assert str(copy) == str(err)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the tampered decode reaches a worker only when it is forked",
)
def test_divergence_in_a_worker_reaches_the_caller(monkeypatch):
    _tamper_position_5(monkeypatch)
    with pytest.raises(LosslessnessError) as err:
        run_corpus(TINY, "spine", EngineConfig(), jobs=2)
    assert err.value.position == 5


def test_unknown_engine_fails_before_the_oracle_runs(monkeypatch):
    def oracle_must_not_run(*_args):
        raise AssertionError("ar_decode ran before the engine name was checked")

    monkeypatch.setattr(bench, "ar_decode", oracle_must_not_run)
    with pytest.raises(ValueError, match="unknown engine"):
        run_corpus(TINY, "turbo")


@pytest.mark.parametrize("jobs", [0, -4])
def test_jobs_below_one_fail_before_any_prompt_runs(monkeypatch, jobs):
    def prompt_must_not_run(*_args):
        raise AssertionError("a prompt ran with jobs below 1")

    monkeypatch.setattr(bench, "run_prompt", prompt_must_not_run)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_corpus(TINY, "spine", jobs=jobs)


def test_unknown_engine_fails_before_any_worker_starts(monkeypatch):
    def prompt_must_not_run(*_args, **_kwargs):
        raise AssertionError("a prompt ran before the engine name was checked")

    monkeypatch.setattr(bench, "run_prompt", prompt_must_not_run)
    with pytest.raises(ValueError, match="unknown engine"):
        run_corpus(TINY, "turbo", jobs=2)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace ``ProcessPoolExecutor`` by an in-process map; record each pool's size."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_workers_never_outnumber_prompts(pool_sizes):
    parallel = run_corpus(TINY, "spine", EngineConfig(), jobs=8).to_json()
    assert pool_sizes == [3]
    assert parallel == run_corpus(TINY, "spine", EngineConfig(), jobs=1).to_json()


def test_one_prompt_runs_without_a_pool(pool_sizes):
    single = CorpusSpec("single", TINY.model, prompts=1, prompt_len=8, max_tokens=20)
    report = run_corpus(single, "spine", jobs=4)
    assert pool_sizes == []
    assert len(report.results) == 1


def test_import_does_not_load_multiprocessing():
    src = str(Path(spinedec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import spinedec, sys; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_ablation_table_layout():
    rows = ablation_table(TINY)
    labels = [r["label"] for r in rows]
    assert labels == [
        "full",
        "disable_spine_branches",
        "disable_bigram",
        "disable_bypass",
        "disable_spine",
        "control_swap_sources",
    ]
    assert rows[0]["delta_rel"] == 0.0
    for row in rows[1:]:
        expected = (row["mean_tau"] - rows[0]["mean_tau"]) / rows[0]["mean_tau"]
        assert row["delta_rel"] == pytest.approx(expected)


def test_control_row_is_small_on_shape_dominated_corpora():
    # When the transition table's top-1 chain tracks the model as well as
    # context matches do (order-2 model, exact bigram signal), swapping spine
    # sources while keeping the shape barely moves tau, unlike the structural
    # ablations on the same corpus.
    spec = CorpusSpec(
        name="shape-dominated",
        model=SyntheticModelSpec("markov-order-2", 11, 64),
        prompts=6,
        prompt_len=12,
        max_tokens=256,
    )
    rows = {r["label"]: r["delta_rel"] for r in ablation_table(spec)}
    structural = max(abs(rows["disable_bigram"]), abs(rows["disable_spine"]))
    assert structural > 0.05
    assert abs(rows["control_swap_sources"]) < 0.2 * structural


def test_synergy_ratio_uses_the_best_standalone_source():
    spine = run_corpus(TINY, "spine")
    context = run_corpus(TINY, "context")
    transition = run_corpus(TINY, "transition")
    ratio = synergy_ratio(spine, context, transition)
    assert ratio == pytest.approx(
        spine.mean_tau / max(context.mean_tau, transition.mean_tau)
    )


def test_report_json_is_valid_and_sorted():
    text = run_corpus(TINY, "iso3").to_json()
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
