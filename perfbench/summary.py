"""Per-layer metrics from a span file (JSONL, one span per line).

Each span has ``id``, ``name``, ``start`` and ``end`` (ns), ``parent`` (a span
id or null), ``prompt`` (a prompt id or null) and ``attrs``. Top-level spans
carry ``round``, ``traced`` and ``factor``; spans below a traced top-level span
belong to the traced round. Every duration is divided by the ``factor`` of its
top-level span, the machine's slowdown at the time (see
``harness.speed_kernel_ns``). Self time is a span's duration minus the
durations of its direct children. Per-token figures divide by the tokens the
spine engine generated in the traced round.

Run ``python3 perfbench/summary.py <spans.jsonl>`` to print the metrics.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

# Attributes of an ``engine.decode`` span that must repeat exactly between the
# untraced first round and the traced round.
COUNTED = ("tokens", "digest", "calls", "proxy_calls", "positions", "bypass", "tree",
           "fallback", "offered_context", "offered_transition", "accepted_context",
           "accepted_transition")

# name -> (unit, better)
LAYER_METRICS = {
    "models.score_tree.us_per_tok": ("us/tok", "lower"),
    "models.score_tree.calls": ("count", "lower"),
    "models.score_tree.positions_per_call": ("pos/call", "lower"),
    "models.ar_decode.us_per_tok": ("us/tok", "lower"),
    "adjacency.harvest.us_per_tok": ("us/tok", "lower"),
    "adjacency.harvest.positions_per_tok": ("pos/tok", "lower"),
    "adjacency.successors.us_per_tok": ("us/tok", "lower"),
    "adjacency.successors.calls_per_tok": ("calls/tok", "lower"),
    "adjacency.successors.hit_rate": ("share", "higher"),
    "adjacency.table_keys": ("count", "lower"),
    "tree.build_spine_tree.us_per_tok": ("us/tok", "lower"),
    "tree.build_spine_tree.calls": ("count", "lower"),
    "tree.nodes_per_tree": ("nodes", "lower"),
    "tree.tree_query.us_per_tok": ("us/tok", "lower"),
    "verify.unified_greedy_walk.self_us_per_tok": ("us/tok", "lower"),
    "verify.linear_verify.self_us_per_tok": ("us/tok", "lower"),
    "verify.node_yield": ("share", "higher"),
    "context.match.us_per_tok": ("us/tok", "lower"),
    "context.match.calls": ("count", "lower"),
    "context.match.hit_rate": ("share", "higher"),
    "context.extend.us_per_tok": ("us/tok", "lower"),
    "engine.decode.self_us_per_tok": ("us/tok", "lower"),
    "engine.route.bypass_share": ("share", "higher"),
    "engine.route.tree_share": ("share", "lower"),
    "engine.route.fallback_share": ("share", "lower"),
    "engine.accept_rate.context": ("share", "higher"),
    "engine.accept_rate.transition": ("share", "higher"),
    "bench.jobs2_speedup": ("x", "higher"),
    "theory.verify_bound.ms": ("ms", "lower"),
    "theory.monte_carlo_yield.ms": ("ms", "lower"),
    "theory.dominance_scan.ms": ("ms", "lower"),
    "trace.overhead_ratio": ("x", "lower"),
}


def load_spans(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, plus problems found comparing the traced round
    with the untraced first round."""
    child_ns: dict[int, float] = defaultdict(float)
    traced: list[bool] = []
    factor: list[float] = []
    for span in spans:
        parent = span["parent"]
        if parent is None:
            traced.append(bool(span["attrs"]["traced"]))
            factor.append(span["attrs"]["factor"])
        else:
            traced.append(traced[parent])
            factor.append(factor[parent])
            child_ns[parent] += (span["end"] - span["start"]) / factor[parent]

    # name -> [calls, total ns, self ns]; attrs summed per key.
    timing = defaultdict(lambda: [0, 0, 0])
    attrs = defaultdict(lambda: defaultdict(float))
    keys_by_prompt: dict[int, int] = {}
    untraced = defaultdict(lambda: defaultdict(float))  # round -> name -> ns
    decodes: dict[tuple[int, int], dict] = {}  # (round, prompt) -> attrs
    for span in spans:
        ns = (span["end"] - span["start"]) / factor[span["id"]]
        name = span["name"]
        if span["name"] == "engine.decode":
            decodes[(span["attrs"]["round"], span["prompt"])] = span["attrs"]
        if not traced[span["id"]]:
            untraced[span["attrs"]["round"]][name] += ns
            continue
        entry = timing[name]
        entry[0] += 1
        entry[1] += ns
        entry[2] += ns - child_ns[span["id"]]
        for key, value in (span["attrs"] or {}).items():
            if isinstance(value, (int, float)):
                attrs[name][key] += value
        if name == "adjacency.harvest":
            keys_by_prompt[span["prompt"]] = max(keys_by_prompt.get(span["prompt"], 0),
                                                 span["attrs"]["keys"])

    tokens = attrs["engine.decode"]["tokens"]
    decode = attrs["engine.decode"]

    def us_per_tok(name: str, self_time: bool = False) -> float:
        return _share(timing[name][2 if self_time else 1] / 1000, tokens)

    def ms_per_call(name: str) -> float:
        return _share(timing[name][1] / 1e6, timing[name][0])

    rounds = sorted(untraced)
    walks = ("verify.unified_greedy_walk", "verify.linear_verify")
    routed = decode["bypass"] + decode["tree"] + decode["fallback"]
    metrics = {
        "models.score_tree.us_per_tok": us_per_tok("models.score_tree", self_time=True),
        "models.score_tree.calls": timing["models.score_tree"][0],
        "models.score_tree.positions_per_call": _share(attrs["models.score_tree"]["positions"],
                                                       timing["models.score_tree"][0]),
        "models.ar_decode.us_per_tok": _share(timing["models.ar_decode"][1] / 1000,
                                              attrs["models.ar_decode"]["tokens"]),
        "adjacency.harvest.us_per_tok": us_per_tok("adjacency.harvest"),
        "adjacency.harvest.positions_per_tok": _share(attrs["adjacency.harvest"]["positions"], tokens),
        "adjacency.successors.us_per_tok": us_per_tok("adjacency.successors"),
        "adjacency.successors.calls_per_tok": _share(timing["adjacency.successors"][0], tokens),
        "adjacency.successors.hit_rate": _share(attrs["adjacency.successors"]["hit"],
                                                timing["adjacency.successors"][0]),
        "adjacency.table_keys": _share(sum(keys_by_prompt.values()), len(keys_by_prompt)),
        "tree.build_spine_tree.us_per_tok": us_per_tok("tree.build_spine_tree"),
        "tree.build_spine_tree.calls": timing["tree.build_spine_tree"][0],
        "tree.nodes_per_tree": _share(attrs["tree.build_spine_tree"]["nodes"],
                                      timing["tree.build_spine_tree"][0]),
        "tree.tree_query.us_per_tok": us_per_tok("tree.tree_query"),
        "verify.unified_greedy_walk.self_us_per_tok": us_per_tok(walks[0], self_time=True),
        "verify.linear_verify.self_us_per_tok": us_per_tok(walks[1], self_time=True),
        "verify.node_yield": _share(sum(attrs[w]["accepted"] for w in walks),
                                    sum(attrs[w]["nodes"] for w in walks)),
        "context.match.us_per_tok": us_per_tok("context.match"),
        "context.match.calls": timing["context.match"][0],
        "context.match.hit_rate": _share(attrs["context.match"]["hit"], timing["context.match"][0]),
        "context.extend.us_per_tok": us_per_tok("context.extend"),
        "engine.decode.self_us_per_tok": us_per_tok("engine.decode", self_time=True),
        "engine.route.bypass_share": _share(decode["bypass"], routed),
        "engine.route.tree_share": _share(decode["tree"], routed),
        "engine.route.fallback_share": _share(decode["fallback"], routed),
        "engine.accept_rate.context": _share(decode["accepted_context"], decode["offered_context"]),
        "engine.accept_rate.transition": _share(decode["accepted_transition"],
                                                decode["offered_transition"]),
        "bench.jobs2_speedup": statistics.median(
            _share(untraced[r]["engine.decode"] + untraced[r]["models.ar_decode"],
                   untraced[r]["bench.run_corpus"]) for r in rounds),
        "theory.verify_bound.ms": ms_per_call("theory.verify_bound"),
        "theory.monte_carlo_yield.ms": ms_per_call("theory.monte_carlo_yield"),
        "theory.dominance_scan.ms": ms_per_call("theory.dominance_scan"),
        "trace.overhead_ratio": _share(timing["engine.decode"][1],
                                       statistics.median(untraced[r]["engine.decode"] for r in rounds)),
    }

    problems = []
    traced_round = max(r for r, _ in decodes)
    for (number, prompt), seen in sorted(decodes.items()):
        if number == traced_round:
            want = decodes[(rounds[0], prompt)]
            diff = [k for k in COUNTED if seen[k] != want[k]]
            if diff:
                problems.append(f"traced prompt {prompt} differs from the untraced run in {diff}")
    return metrics, problems


if __name__ == "__main__":
    found, issues = layer_metrics(load_spans(sys.argv[1]))
    for metric, value in found.items():
        print(f"{metric} = {value:.6g} {LAYER_METRICS[metric][0]}")
    for issue in issues:
        print(f"PROBLEM: {issue}")
    sys.exit(1 if issues else 0)
