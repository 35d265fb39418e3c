from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinedec.bench import measure_heterogeneity, setting_from_stats
from spinedec.engine import EngineConfig, decode
from spinedec.models import SyntheticModelSpec, build_synthetic
from spinedec.theory import (
    MC_CHUNK,
    AcceptanceModel,
    BoundSetting,
    TreeShape,
    best_iso_yield,
    best_spine_yield,
    dominance_scan,
    ell_bar,
    iso_yield,
    monte_carlo_yield,
    phi,
    spine_shape_tree,
    spine_yield,
    synergy,
    verify_bound,
)
from spinedec.tree import ROOT, DraftNode, Source, SpineTree

# Pinned by a 50-digit evaluation of the closed form at the observed median
# rates (p_s=0.21, p_t=0.033) with shape m=5, w=(3,3,2,2,1), D=6.
MEDIAN_RATES_TAU = 1.3632659920661453


def test_phi_examples():
    assert phi(0, 0.7) == 0.0
    assert phi(2, 0.5) == pytest.approx(0.75)
    assert round(phi(10, 0.033), 4) == 0.2851


def test_phi_rejects_negative_width():
    with pytest.raises(ValueError):
        phi(-1, 0.5)


def test_ell_bar_examples_and_limits():
    assert ell_bar(0.0, 6) == 0.0
    assert ell_bar(1.0, 6) == 5.0
    assert round(ell_bar(0.1, 6), 6) == 0.111110
    with pytest.raises(ValueError):
        ell_bar(0.5, 0)


def test_spine_yield_components_and_trivial_cases():
    model = AcceptanceModel(0.4, 0.2)
    report = spine_yield(model, TreeShape(m=1, widths=(0,), depth=6, budget=60))
    assert report.tau_eq == pytest.approx(1.4)
    assert report.synergy_term == 0.0
    zero = spine_yield(AcceptanceModel(0.0, 0.0), TreeShape(m=2, widths=(1, 1), depth=6, budget=60))
    assert zero.tau_eq == pytest.approx(1.0)


def test_spine_yield_matches_pinned_high_precision_value():
    report = spine_yield(
        AcceptanceModel(0.21, 0.033),
        TreeShape(m=5, widths=(3, 3, 2, 2, 1), depth=6, budget=60),
    )
    assert report.tau_eq == pytest.approx(MEDIAN_RATES_TAU, rel=1e-12)
    assert report.spine_term + report.synergy_term + report.bonus == pytest.approx(
        report.tau_eq, rel=1e-15
    )


def test_budget_violation_is_an_input_error():
    with pytest.raises(ValueError):
        TreeShape(m=5, widths=(20, 20, 20, 20, 20), depth=6, budget=60)
    with pytest.raises(ValueError):
        TreeShape(m=2, widths=(1,), depth=6, budget=60)


def test_component_identity_over_random_shapes():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(1, 8)
        widths = tuple(rng.randint(0, 5) for _ in range(m))
        shape = TreeShape(m=m, widths=widths, depth=rng.randint(1, 8), budget=m + sum(widths))
        model = AcceptanceModel(rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.5))
        report = spine_yield(model, shape)
        assert report.spine_term + report.synergy_term + 1.0 == pytest.approx(
            report.tau_eq, rel=1e-14
        )


def test_tau_eq_monotone_in_every_argument():
    base_model = AcceptanceModel(0.3, 0.1)
    base_shape = TreeShape(m=3, widths=(3, 2, 1), depth=5, budget=60)
    base = spine_yield(base_model, base_shape).tau_eq
    assert spine_yield(AcceptanceModel(0.31, 0.1), base_shape).tau_eq >= base
    assert spine_yield(AcceptanceModel(0.3, 0.11), base_shape).tau_eq >= base
    assert spine_yield(base_model, TreeShape(m=4, widths=(3, 2, 1, 0), depth=5, budget=60)).tau_eq >= base
    assert spine_yield(base_model, TreeShape(m=3, widths=(4, 2, 1), depth=5, budget=60)).tau_eq >= base
    assert spine_yield(base_model, TreeShape(m=3, widths=(3, 2, 1), depth=6, budget=60)).tau_eq >= base


# --- Monte Carlo -----------------------------------------------------------------


def test_single_node_tree_at_certainty_yields_exactly_two():
    tree = spine_shape_tree(TreeShape(m=1, widths=(0,), depth=6, budget=60))
    mean, stderr = monte_carlo_yield(AcceptanceModel(1.0, 0.5), tree, trials=5000, seed=1)
    assert mean == 2.0
    assert stderr == 0.0


def test_pure_chain_matches_geometric_closed_form():
    m, p = 6, 0.6
    tree = spine_shape_tree(TreeShape(m=m, widths=(0,) * m, depth=6, budget=60))
    mean, stderr = monte_carlo_yield(AcceptanceModel(p, 0.1), tree, trials=200_000, seed=2)
    closed = sum(p**i for i in range(1, m + 1)) + 1.0
    assert abs(mean - closed) <= 3 * stderr


def test_canonical_tree_is_tight_against_the_bound():
    shape = TreeShape(m=4, widths=(3, 2, 2, 1), depth=5, budget=60)
    model = AcceptanceModel(0.35, 0.08)
    analytic = spine_yield(model, shape).tau_eq
    mean, stderr = monte_carlo_yield(model, spine_shape_tree(shape), trials=400_000, seed=3)
    assert abs(mean - analytic) <= 3 * stderr
    assert stderr > 0


def test_sub_branching_only_raises_the_yield():
    shape = TreeShape(m=3, widths=(2, 1, 1), depth=4, budget=60)
    model = AcceptanceModel(0.4, 0.15)
    analytic = spine_yield(model, shape).tau_eq
    base = spine_shape_tree(shape)
    # Give every branch-chain node an extra sibling child (sub-branching).
    richer = SpineTree(
        nodes=base.nodes + [n for n in base.nodes[1:] if n.source is Source.TRANSITION],
        spine=base.spine,
    )
    mean, stderr = monte_carlo_yield(model, richer, trials=200_000, seed=4)
    assert mean >= analytic - 3 * stderr


def test_monte_carlo_is_seed_deterministic():
    shape = TreeShape(m=2, widths=(2, 1), depth=4, budget=60)
    tree = spine_shape_tree(shape)
    model = AcceptanceModel(0.5, 0.2)
    assert monte_carlo_yield(model, tree, 50_000, seed=9) == monte_carlo_yield(
        model, tree, 50_000, seed=9
    )


def test_monte_carlo_validates_inputs():
    tree = spine_shape_tree(TreeShape(m=1, widths=(0,), depth=6, budget=60))
    with pytest.raises(ValueError):
        monte_carlo_yield(AcceptanceModel(0.5, 0.2), tree, trials=0)
    with pytest.raises(ValueError):
        AcceptanceModel(1.2, 0.5)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        monte_carlo_yield(AcceptanceModel(0.5, 0.2), tree, trials=10, seed=-1)


def test_verify_bound_rejects_a_negative_seed_even_when_nothing_is_simulated():
    measured = BoundSetting("s", p_s=0.5, p_t=0.1, m=3, budget=30, tau_meas=2.0, stderr=0.1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        verify_bound([measured], seed=-1)


def _reference_monte_carlo_yield(model, tree, trials, seed=0):
    """The simulator as it was before the per-node count walk, kept verbatim
    as an oracle: one boolean mask over the active trials per distinct node."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    children = tree.children
    rate = {Source.CONTEXT: model.p_s, Source.TRANSITION: model.p_t}
    prob = np.array([rate[n.source] for n in tree.nodes], dtype=np.float64)
    total = 0.0
    total_sq = 0.0
    remaining = trials
    while remaining > 0:
        n = min(remaining, MC_CHUNK)
        remaining -= n
        depth = np.zeros(n, dtype=np.int64)
        current = np.zeros(n, dtype=np.int64)
        active = np.arange(n)
        while active.size:
            next_active: list[np.ndarray] = []
            for v in np.unique(current[active]):
                group = active[current[active] == v]
                kids = children[v]
                if not kids:
                    continue
                bits = rng.random((group.size, len(kids))) < prob[kids]
                hit = bits.any(axis=1)
                chosen = np.asarray(kids)[bits.argmax(axis=1)]
                advanced = group[hit]
                current[advanced] = chosen[hit]
                depth[advanced] += 1
                next_active.append(advanced)
            active = np.concatenate(next_active) if next_active else np.empty(0, dtype=np.int64)
        tau = depth + 1
        total += float(tau.sum())
        total_sq += float((tau * tau).sum())
    mean = total / trials
    if trials == 1:
        return mean, 0.0
    var = max((total_sq - trials * mean * mean) / (trials - 1), 0.0)
    return mean, math.sqrt(var / trials)


@st.composite
def _random_trees(draw) -> SpineTree:
    nodes = [DraftNode(0, Source.CONTEXT, ROOT)]
    for i in range(1, draw(st.integers(1, 40))):
        nodes.append(DraftNode(0, draw(st.sampled_from(Source)), draw(st.integers(0, i - 1))))
    return SpineTree(nodes=nodes, spine=[0])


_rates = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    tree=_random_trees(),
    p_s=_rates,
    p_t=_rates,
    trials=st.sampled_from((1, 2, 1000, MC_CHUNK, MC_CHUNK + 1)),
    seed=st.integers(0, 2**63),
)
def test_monte_carlo_matches_the_per_node_mask_reference_bit_for_bit(tree, p_s, p_t, trials, seed):
    model = AcceptanceModel(p_s, p_t)
    assert monte_carlo_yield(model, tree, trials, seed) == _reference_monte_carlo_yield(
        model, tree, trials, seed
    )


@pytest.mark.parametrize("parent", [1, 2, ROOT], ids=["self", "forward", "second-root"])
def test_simulated_tree_rejects_a_parent_that_does_not_precede_its_node(parent):
    root = DraftNode(0, Source.CONTEXT, ROOT)
    nodes = [root, DraftNode(0, Source.CONTEXT, parent), DraftNode(0, Source.CONTEXT, 0)]
    with pytest.raises(ValueError, match="node 1 has invalid parent"):
        SpineTree(nodes=nodes, spine=[0])


# --- isotropic reference ----------------------------------------------------------


def test_iso_yield_chain_case():
    p, budget = 0.3, 10
    assert iso_yield(1, budget, p) == pytest.approx(sum(p**d for d in range(1, budget + 1)) + 1.0)


def test_iso_yield_hand_example():
    assert iso_yield(3, 12, 0.5) == pytest.approx(2.640625)


def test_iso_yield_vanishing_rate():
    assert iso_yield(3, 60, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        iso_yield(0, 60, 0.5)


def test_best_iso_scans_fanouts():
    tau, k = best_iso_yield(12, 0.5)
    grid = {kk: iso_yield(kk, 12, 0.5) for kk in range(1, 13)}
    assert tau == max(grid.values())
    assert grid[k] == tau


# --- dominance ---------------------------------------------------------------------


def test_dominance_at_median_rates():
    rows = dominance_scan([(0.21, 0.033, 60)])
    assert rows[0].gap > 0
    assert not rows[0].violation


def test_dominance_boundary_equal_rates_is_excluded_from_the_claim():
    rows = dominance_scan([(0.1, 0.1, 30)])
    assert not rows[0].violation  # gap may be <= 0 at p_s == p_t
    assert abs(rows[0].gap) < 0.2


def test_dominance_gap_grows_with_heterogeneity():
    p_t = 0.033
    for budget in (10, 30, 60):
        gaps = [
            dominance_scan([(ratio * p_t, p_t, budget)])[0].gap for ratio in (2, 4, 8, 18)
        ]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps)


@pytest.mark.parametrize("budget", [0, -3])
def test_dominance_rejects_a_budget_below_one(budget):
    with pytest.raises(ValueError, match="budget"):
        dominance_scan([(0.5, 0.1, budget)])


def test_dominance_rejects_inverted_grid_points():
    with pytest.raises(ValueError):
        dominance_scan([(0.01, 0.5, 10)])


def test_best_spine_uses_full_budget():
    tau, m, widths = best_spine_yield(0.5, 0.1, 20)
    assert m + sum(widths) <= 20
    assert tau > best_iso_yield(20, 0.1)[0]


# --- bound verification and heterogeneity -------------------------------------------


@pytest.mark.parametrize(
    "edit",
    [
        {"p_s": "0.5"}, {"p_t": 1.5}, {"m": 2.0}, {"m": -1}, {"budget": 0}, {"depth": 0},
        {"tau_meas": math.nan}, {"tau_meas": "2"}, {"stderr": -1.0}, {"stderr": math.inf}, {"m": 31},
    ],
)
def test_bound_setting_rejects_bad_fields(edit):
    with pytest.raises(ValueError):
        BoundSetting(**{"setting_id": "s", "p_s": 0.5, "p_t": 0.1, "m": 3, "budget": 30, **edit})


def test_bound_setting_stores_integer_rates_and_measurements_as_floats():
    setting = BoundSetting("s", p_s=1, p_t=0, m=3, budget=30, tau_meas=2, stderr=0)
    assert [type(v) for v in (setting.p_s, setting.p_t, setting.tau_meas, setting.stderr)] == [float] * 4


def test_a_spine_that_fills_its_budget_has_no_branches():
    report = verify_bound([BoundSetting("full", p_s=0.5, p_t=0.1, m=30, budget=30)], trials=20_000, seed=14)
    assert report.violations == 0
    assert report.rows[0].tau_eq == pytest.approx(1.0 + sum(0.5**i for i in range(1, 31)))


def test_verify_bound_on_synthetic_settings():
    settings = [
        BoundSetting(setting_id=f"s{i}", p_s=ps, p_t=pt, m=m, budget=40)
        for i, (ps, pt, m) in enumerate(
            [
                (0.21, 0.033, 5),
                (0.4, 0.05, 6),
                (0.6, 0.1, 8),
                (0.3, 0.15, 4),
                (0.5, 0.033, 7),
                (0.7, 0.2, 3),
            ]
        )
    ]
    report = verify_bound(settings, trials=50_000, seed=11)
    assert report.violations == 0
    assert report.pearson_r is not None and report.pearson_r > 0
    for row in report.rows:
        assert row.tau_iso >= 1.0
        assert row.ratio == pytest.approx(row.tau_eq / row.tau_iso)


def test_degenerate_equal_rates_best_spine_approaches_best_iso():
    # At p_s == p_t in the measured-rate regime the anisotropic advantage
    # vanishes: best-spine over best-isotropic is ~1. (The fixed fan-out-3
    # reference in the bound CSV is weaker than the best balanced tree, so it
    # is not the right denominator for this boundary check.)
    tau_spine, _m, _w = best_spine_yield(0.05, 0.05, 30)
    tau_iso, _k = best_iso_yield(30, 0.05)
    assert tau_spine / tau_iso == pytest.approx(1.0, abs=0.05)
    report = verify_bound(
        [BoundSetting(setting_id="eq", p_s=0.05, p_t=0.05, m=3, budget=30)],
        trials=50_000,
        seed=12,
    )
    assert report.violations == 0


def test_verify_bound_tolerates_inverted_measured_rates():
    # Low-repetition logs can measure junk-match spine acceptance below the
    # branch rate; the bound must still evaluate (even spread, no optimality).
    report = verify_bound(
        [BoundSetting(setting_id="inv", p_s=0.01, p_t=0.04, m=3, budget=30)],
        trials=20_000,
        seed=13,
    )
    assert report.violations == 0


def test_verify_bound_accepts_engine_logs():
    model = build_synthetic(SyntheticModelSpec("template-repeater", 3, 64, 0.9))
    config = EngineConfig()
    _out, stats = decode("spine", model, (1, 2, 3), 300, config)
    setting = setting_from_stats("run", stats, config)
    assert setting.tau_meas == pytest.approx(stats.tau)
    report = verify_bound([setting])
    assert report.violations == 0
    assert report.rows[0].tau_eq <= report.rows[0].tau_meas + 3 * report.rows[0].stderr


def test_measure_heterogeneity_sentinels_and_errors():
    from spinedec.engine import CycleRecord, DecodeStats

    stats = DecodeStats()
    with pytest.raises(ValueError):
        measure_heterogeneity(stats)
    stats.records.append(
        CycleRecord(
            reason="tree", emitted=3, accepted_emitted=2,
            offered_context=2, offered_transition=5,
            accepted_context=2, accepted_transition=0,
            offered_spine=2, accepted_spine=2,
        )
    )
    het = measure_heterogeneity(stats)
    assert het.p_s == 1.0
    assert het.p_t == 0.0
    assert het.ratio == math.inf


def test_measure_heterogeneity_undefined_when_source_never_offered():
    from spinedec.engine import CycleRecord, DecodeStats

    stats = DecodeStats()
    stats.records.append(
        CycleRecord(reason="fallback:no-source", emitted=1, accepted_emitted=0)
    )
    het = measure_heterogeneity(stats)
    assert het.p_s is None and het.p_t is None and het.ratio is None


def test_heterogeneity_on_a_repetitive_run_is_in_the_expected_regime():
    model = build_synthetic(SyntheticModelSpec("template-repeater", 9, 64, 0.9))
    _out, stats = decode("spine", model, (5, 6, 7), 400)
    het = measure_heterogeneity(stats)
    assert het.ratio is not None and het.ratio > 2.0


def test_synergy_is_independent_oracle_friendly():
    # The synergy helper equals the term-by-term sum used by spine_yield.
    model = AcceptanceModel(0.3, 0.1)
    shape = TreeShape(m=3, widths=(2, 1, 0), depth=6, budget=60)
    report = spine_yield(model, shape)
    assert synergy(0.3, 0.1, (2, 1, 0), 6) == pytest.approx(report.synergy_term, rel=1e-14)
