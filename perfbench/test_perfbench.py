"""The benchmark's own checks. Run: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import summary  # noqa: E402
from spinedec import build_synthetic, decode  # noqa: E402
from spinedec.bench import prompts_for  # noqa: E402
from workloads import WORKLOADS, property_problems  # noqa: E402

# A short corpus with the novel-trees model, so each test round takes seconds.
# Its table has no time to warm up, so it is too short to keep the tree share
# that defines novel-trees; the route-mix guard is tested on full corpora below.
SMALL = dataclasses.replace(WORKLOADS["novel-trees"], prompts=3, max_tokens=48,
                            trials=20_000, route=None)


def test_fault_injection_counts_the_diverged_prompt_and_completes():
    clean = harness.measure(SMALL, seed=1, seconds=0)
    assert (clean.lossless_failures, clean.failed, clean.problems) == (0, 0, [])

    faulty = harness.measure(SMALL, seed=1, seconds=0, perturb=True)
    assert (faulty.lossless_failures, faulty.prompts) == (1, 3)
    assert faulty.failed == 1
    assert set(faulty.metrics) == set(clean.metrics)


def test_speedup_at_zero_c1_is_the_programs_pooled_tau():
    result = harness.measure(SMALL, seed=2, seconds=0)
    first = result.rounds[0]
    assert result.problems == []
    assert result.metrics["tau"][0] == first.report.pooled_tau
    for run in first.prompts:
        assert len(run.recorder.stamps) == run.stats.model_calls
    # Tree calls score ~50 positions, so any per-position cost erodes the speedup.
    speedups = [result.metrics[name][0] for name in ("speedup_c1_0.02", "speedup_c1_0.005", "tau")]
    assert speedups == sorted(speedups) and len(set(speedups)) == 3


def test_modelled_speedup_by_hand():
    # Prefill of a 4-token prompt, a 2-node tree call, then a fallback: 5 tokens.
    recorder = harness.CallRecorder(build_synthetic(SMALL.corpus(1).model))
    recorder.positions = [4, 3, 1]
    run = harness.PromptRun(tokens=(1, 2, 3, 4, 5), reference=(), stats=None, recorder=recorder)
    assert harness.modelled_speedup([run], prompt_len=4, c1=0.0) == 5 / 3
    # AR: (1 + 0.5 * 4) + 4 * 1.5 = 9; spine: 3 + 2.5 + 1.5 = 7.
    assert harness.modelled_speedup([run], prompt_len=4, c1=0.5) == pytest.approx(9 / 7)


@pytest.mark.parametrize("seed", [1, 11])  # the default seed and one never used in tuning
@pytest.mark.parametrize("name", ["repeat-long", "novel-trees", "markov-cold"])
def test_workload_keeps_its_defining_route_mix(name, seed):
    work = WORKLOADS[name]
    spec = work.corpus(seed)
    counts: Counter = Counter()
    for prompt in prompts_for(spec):
        _tokens, stats = decode("spine", build_synthetic(spec.model), prompt, spec.max_tokens)
        counts.update(stats.cycle_counts)
    assert property_problems(work, counts) == []


def test_property_guard_flags_a_lost_route_mix():
    assert property_problems(WORKLOADS["novel-trees"], {"prefill": 1, "tree": 5, "fallback": 5})
    assert property_problems(WORKLOADS["theory-mc"], {"fallback": 9}) == []


def test_span_file_yields_every_layer_metric_and_matches_the_untraced_round(tmp_path):
    result = harness.measure(SMALL, seed=1, seconds=0, trace=True)
    path = tmp_path / "spans.jsonl"
    result.tracer.write_jsonl(path)
    spans = summary.load_spans(str(path))

    values, problems = summary.layer_metrics(spans)
    assert problems == []
    assert set(values) == set(summary.LAYER_METRICS)
    routes = ("bypass", "tree", "fallback")
    assert sum(values[f"engine.route.{r}_share"] for r in routes) == pytest.approx(1.0)
    assert values["models.score_tree.calls"] == sum(r.stats.model_calls for r in result.rounds[0].prompts)

    for span in spans:
        assert set(span) == {"id", "name", "start", "end", "parent", "prompt", "attrs"}
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]

    traced = next(s for s in reversed(spans) if s["name"] == "engine.decode")
    traced["attrs"]["digest"] = "0" * 16
    _values, problems = summary.layer_metrics(spans)
    assert problems and "digest" in problems[0]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = harness.measure(SMALL, seed=3, seconds=0)
    end_to_end = {name: unit for name, (_value, unit, _n) in result.metrics.items()}
    end_to_end["setup_s"] = "s"
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == end_to_end
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (unit, _better) in summary.LAYER_METRICS.items()
    }
    assert {m["name"]: m["better"] for m in declared["per_layer"]} == {
        name: better for name, (_unit, better) in summary.LAYER_METRICS.items()
    }
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
