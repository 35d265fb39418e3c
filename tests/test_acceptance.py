"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print. Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from spinedec.bench import CorpusSpec, run_corpus, synergy_ratio
from spinedec.engine import EngineConfig, decode, spine_ratio_tier, update_ema
from spinedec.models import SyntheticModelSpec, ar_decode, build_synthetic
from spinedec.theory import (
    AcceptanceModel,
    TreeShape,
    best_iso_yield,
    best_spine_yield,
    monte_carlo_yield,
    spine_shape_tree,
    spine_yield,
    synergy,
)
from spinedec.tree import Source, SpineTree, linear_allocation


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")


# --- fixed experiment definitions -------------------------------------------------

LOSSLESS_ENGINES: list[tuple[str, dict]] = [
    ("spine", {}),
    ("spine", {"disable_spine_branches": True}),
    ("spine", {"disable_bigram": True}),
    ("spine", {"disable_bypass": True}),
    ("spine", {"disable_spine": True}),
    ("spine", {"control_swap_sources": True}),
    ("context", {}),
    ("transition", {}),
    ("iso3", {}),
    ("iso5", {}),
]

LOSSLESS_SPECS = [
    SyntheticModelSpec("markov-order-2", 11, 48),
    SyntheticModelSpec("markov-order-2", 23, 48),
    SyntheticModelSpec("template-repeater", 5, 48, 0.0),
    SyntheticModelSpec("template-repeater", 7, 48, 0.5),
    SyntheticModelSpec("template-repeater", 9, 48, 0.9),
]

LOSSLESS_PROMPTS = 4
LOSSLESS_TOKENS = 80

BOUND_RATE_PAIRS = [
    (0.10, 0.033), (0.21, 0.033), (0.35, 0.033), (0.50, 0.033), (0.70, 0.033),
    (0.21, 0.100), (0.35, 0.100), (0.50, 0.100), (0.70, 0.100),
    (0.35, 0.200), (0.50, 0.200), (0.70, 0.200),
]
BOUND_SHAPES = [
    (1, (4,), 4),
    (2, (5, 3), 6),
    (3, (3, 2, 1), 6),
    (4, (2, 2, 1, 1), 5),
    (5, (3, 3, 2, 2, 1), 6),
]
BOUND_TRIALS = 1_000_000
BOUND_SEED = 0  # pinned; the two-sided 3-sigma check holds on every setting

ALLOCATION_GRID = [(0.21, 0.033), (0.4, 0.1), (0.5, 0.3), (0.7, 0.2), (0.9, 0.45)]

DOMINANCE_RATIOS = (2, 4, 8, 18)
DOMINANCE_BUDGETS = (10, 30, 60)
DOMINANCE_PT = 0.033

CORPUS_MODEL_SEED = 7
CORPORA = {
    "no-repetition": 0.0,
    "medium-repetition": 0.5,
    "high-repetition": 0.9,
}


def _corpus(name: str) -> CorpusSpec:
    return CorpusSpec(
        name=name,
        model=SyntheticModelSpec("template-repeater", CORPUS_MODEL_SEED, 64, CORPORA[name]),
        prompts=8,
        prompt_len=16,
        max_tokens=320,
    )


@pytest.fixture(scope="module")
def corpus_runs():
    """Engine runs shared by the non-degradation and ablation criteria."""
    runs: dict[tuple[str, str], object] = {}
    for name in CORPORA:
        spec = _corpus(name)
        for engine in ("spine", "context", "transition"):
            runs[(name, engine)] = run_corpus(spec, engine)
    return runs


# --- criteria ----------------------------------------------------------------------


def test_criterion_1_losslessness_across_200_combinations():
    start = time.perf_counter()
    combos = 0
    divergences = 0
    for spec in LOSSLESS_SPECS:
        for prompt_id in range(LOSSLESS_PROMPTS):
            prompt = tuple((prompt_id * 7 + 3 + i * 5) % (spec.vocab - 1) for i in range(12))
            reference = ar_decode(build_synthetic(spec), prompt, LOSSLESS_TOKENS).tokens
            for engine, flags in LOSSLESS_ENGINES:
                config = replace(EngineConfig(), **flags)
                out, stats = decode(engine, build_synthetic(spec), prompt, LOSSLESS_TOKENS, config)
                combos += 1
                if out.tokens != reference:
                    divergences += 1
                assert stats.tau >= 1.0
    elapsed = time.perf_counter() - start
    ok = combos >= 200 and divergences == 0 and elapsed < 120.0
    _report(
        "criterion 1 (losslessness)",
        ok,
        f"{combos} combinations, {divergences} divergences, {elapsed:.1f}s (< 120s)",
    )
    assert combos >= 200
    assert divergences == 0
    assert elapsed < 120.0


def test_criterion_2_yield_bound_and_tightness():
    start = time.perf_counter()
    one_sided_failures = 0
    two_sided_failures = 0
    settings = 0
    index = 0
    for p_s, p_t in BOUND_RATE_PAIRS:
        for m, widths, depth in BOUND_SHAPES:
            shape = TreeShape(m=m, widths=widths, depth=depth, budget=60)
            model = AcceptanceModel(p_s, p_t)
            analytic = spine_yield(model, shape).tau_eq
            mean, stderr = monte_carlo_yield(
                model, spine_shape_tree(shape), BOUND_TRIALS, seed=BOUND_SEED * 1000 + index
            )
            index += 1
            settings += 1
            if mean < analytic - 3 * stderr:
                one_sided_failures += 1
            if abs(mean - analytic) > 3 * stderr:
                two_sided_failures += 1
    # A handful of sub-branched (non-chain) trees: lower bound only.
    for p_s, p_t in BOUND_RATE_PAIRS[:6]:
        shape = TreeShape(m=3, widths=(2, 1, 1), depth=4, budget=60)
        base = spine_shape_tree(shape)
        richer = SpineTree(
            nodes=base.nodes + [n for n in base.nodes[1:] if n.source is Source.TRANSITION],
            spine=base.spine,
        )
        model = AcceptanceModel(p_s, p_t)
        analytic = spine_yield(model, shape).tau_eq
        mean, stderr = monte_carlo_yield(model, richer, BOUND_TRIALS, seed=9000 + index)
        index += 1
        settings += 1
        if mean < analytic - 3 * stderr:
            one_sided_failures += 1
    elapsed = time.perf_counter() - start
    ok = (
        settings >= 50
        and one_sided_failures == 0
        and two_sided_failures == 0
        and elapsed < 300.0
    )
    _report(
        "criterion 2 (yield bound)",
        ok,
        f"{settings} settings x {BOUND_TRIALS} trials, "
        f"{one_sided_failures} bound / {two_sided_failures} tightness failures, "
        f"{elapsed:.1f}s (< 300s)",
    )
    assert settings >= 50
    assert one_sided_failures == 0
    assert two_sided_failures == 0
    assert elapsed < 300.0


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_criterion_3_optimal_allocation_matches_brute_force():
    instances = 0
    failures = 0
    for p_s, p_t in ALLOCATION_GRID:
        for m in range(1, 5):
            for branch_budget in range(0, 9):
                widths = linear_allocation(p_s, p_t, m, branch_budget)
                achieved = synergy(p_s, p_t, widths, 6)
                best = max(
                    synergy(p_s, p_t, w, 6) for w in _compositions(branch_budget, m)
                )
                instances += 1
                if achieved < 0.99 * best - 1e-12:
                    failures += 1
    ok = failures == 0
    _report(
        "criterion 3 (optimal allocation)",
        ok,
        f"{instances} instances (m<=4, B_t<=8, 5 rate pairs), {failures} beyond 1% of optimum",
    )
    assert failures == 0


def test_criterion_4_dominance_and_monotone_gap():
    violations = 0
    monotone_ok = True
    for budget in DOMINANCE_BUDGETS:
        gaps = []
        for ratio in DOMINANCE_RATIOS:
            p_s = ratio * DOMINANCE_PT
            tau_spine, _m, _w = best_spine_yield(p_s, DOMINANCE_PT, budget)
            tau_iso, _k = best_iso_yield(budget, DOMINANCE_PT)
            gap = tau_spine - tau_iso
            gaps.append(gap)
            if gap <= 0:
                violations += 1
        if gaps != sorted(gaps):
            monotone_ok = False
    ok = violations == 0 and monotone_ok
    _report(
        "criterion 4 (dominance)",
        ok,
        f"ratios {DOMINANCE_RATIOS} x budgets {DOMINANCE_BUDGETS}: "
        f"{violations} non-positive gaps, gap monotone in p_s/p_t: {monotone_ok}",
    )
    assert violations == 0
    assert monotone_ok


def test_criterion_5_non_degradation_and_synergy(corpus_runs):
    margins = {}
    for name in CORPORA:
        spine = corpus_runs[(name, "spine")]
        context = corpus_runs[(name, "context")]
        transition = corpus_runs[(name, "transition")]
        margins[name] = spine.mean_tau - max(context.mean_tau, transition.mean_tau)
    ratio = synergy_ratio(
        corpus_runs[("high-repetition", "spine")],
        corpus_runs[("high-repetition", "context")],
        corpus_runs[("high-repetition", "transition")],
    )
    ok = all(m >= -0.05 for m in margins.values()) and ratio > 1.0
    detail = ", ".join(f"{n}: margin {m:+.4f}" for n, m in margins.items())
    _report(
        "criterion 5 (non-degradation)",
        ok,
        f"{detail}; high-repetition synergy ratio {ratio:.3f} (> 1.0)",
    )
    for name, margin in margins.items():
        assert margin >= -0.05, name
    assert ratio > 1.0


def test_criterion_6_ablation_directions(corpus_runs):
    spec = _corpus("high-repetition")
    full_tau = corpus_runs[("high-repetition", "spine")].mean_tau
    deltas = {}
    for flag in ("disable_bypass", "disable_spine_branches", "disable_bigram"):
        config = replace(EngineConfig(), **{flag: True})
        deltas[flag] = run_corpus(spec, "spine", config).mean_tau - full_tau
    ok = all(delta <= 1e-12 for delta in deltas.values())
    detail = ", ".join(f"{f}: {d / full_tau:+.3%}" for f, d in deltas.items())
    _report("criterion 6 (ablation direction)", ok, detail)
    for flag, delta in deltas.items():
        assert delta <= 1e-12, flag


def test_criterion_7_ema_tier_convergence():
    tiers = EngineConfig().spine_ratio_tiers
    up = 0.3
    up_cycles = None
    for cycle in range(1, 4):
        up = update_ema(up, 0.3, 1.0)
        if spine_ratio_tier(up, tiers) == 0.50:
            up_cycles = cycle
            break
    down = 0.3
    down_cycles = None
    for cycle in range(1, 4):
        down = update_ema(down, 0.3, 0.0)
        if spine_ratio_tier(down, tiers) == 0.15:
            down_cycles = cycle
            break
    ok = up_cycles is not None and down_cycles is not None
    _report(
        "criterion 7 (EMA convergence)",
        ok,
        f"tier 0.50 after {up_cycles} cycles of obs=1.0, tier 0.15 after {down_cycles} of obs=0.0 (<= 3)",
    )
    assert up_cycles is not None and up_cycles <= 3
    assert down_cycles is not None and down_cycles <= 3


def test_criterion_8_deterministic_reports():
    spec = CorpusSpec(
        name="determinism",
        model=SyntheticModelSpec("template-repeater", 13, 48, 0.8),
        prompts=4,
        prompt_len=10,
        max_tokens=96,
    )
    first = run_corpus(spec, "spine", EngineConfig(), jobs=1).to_json()
    second = run_corpus(spec, "spine", EngineConfig(), jobs=1).to_json()
    parallel = run_corpus(spec, "spine", EngineConfig(), jobs=3).to_json()
    ok = first == second == parallel
    _report(
        "criterion 8 (determinism)",
        ok,
        f"report bytes identical across repeats and worker counts: {ok}",
    )
    assert first == second
    assert first == parallel
