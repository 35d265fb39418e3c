"""Emergent acceptance regimes of the synthetic families, plus the full
engine-log bound-verification sweep (25 model x corpus settings)."""

from __future__ import annotations

from spinedec.bench import CorpusSpec, measure_heterogeneity, run_corpus, setting_from_stats
from spinedec.engine import DecodeStats, EngineConfig
from spinedec.models import SyntheticModelSpec
from spinedec.theory import verify_bound


def _merged_stats(report) -> DecodeStats:
    merged = DecodeStats()
    for result in report.results:
        merged.records.extend(result.stats.records)
    return merged


def test_zero_repetition_drives_spine_acceptance_to_zero():
    # 20 prompts x 512 tokens: > 10k generated tokens with nothing to copy.
    spec = CorpusSpec(
        name="regime-zero",
        model=SyntheticModelSpec("template-repeater", 3, 64, 0.0),
        prompts=20,
        prompt_len=12,
        max_tokens=512,
    )
    report = run_corpus(spec, "spine")
    total = sum(r.stats.total_tokens for r in report.results)
    assert total >= 10_000
    het = measure_heterogeneity(_merged_stats(report))
    assert het.p_s is None or het.p_s < 0.05


def test_high_repetition_heterogeneity_enters_the_observed_range():
    spec = CorpusSpec(
        name="regime-high",
        model=SyntheticModelSpec("template-repeater", 3, 64, 0.9),
        prompts=20,
        prompt_len=12,
        max_tokens=512,
    )
    report = run_corpus(spec, "spine")
    assert sum(r.stats.total_tokens for r in report.results) >= 10_000
    het = measure_heterogeneity(_merged_stats(report))
    assert het.ratio is not None and het.ratio > 2.0


SWEEP_MODELS = [
    SyntheticModelSpec("markov-order-2", 11, 64),
    SyntheticModelSpec("markov-order-2", 23, 64),
    SyntheticModelSpec("template-repeater", 5, 64, 0.3),
    SyntheticModelSpec("template-repeater", 5, 64, 0.6),
    SyntheticModelSpec("template-repeater", 5, 64, 0.9),
]

SWEEP_CORPORA = [
    ("sweep-a", 8, 256),
    ("sweep-b", 12, 256),
    ("sweep-c", 16, 320),
    ("sweep-d", 10, 384),
    ("sweep-e", 20, 320),
]


def test_bound_holds_across_the_25_setting_sweep():
    config = EngineConfig()
    settings = []
    for model_spec in SWEEP_MODELS:
        for name, prompt_len, max_tokens in SWEEP_CORPORA:
            spec = CorpusSpec(
                name=name, model=model_spec, prompts=2,
                prompt_len=prompt_len, max_tokens=max_tokens,
            )
            report = run_corpus(spec, "spine", config)
            label = f"{model_spec.kind}-{model_spec.seed}-{model_spec.repetition}/{name}"
            settings.append(setting_from_stats(label, _merged_stats(report), config))
    assert len(settings) == 25
    bound = verify_bound(settings)
    assert bound.violations == 0
    # The analytic gain correlates positively with measured heterogeneity.
    assert bound.pearson_r is not None and bound.pearson_r > 0
