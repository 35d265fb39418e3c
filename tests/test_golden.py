"""Golden reports: a refactor of the decode loop must not move a single byte.

Each case pins the first 16 hex digits of the sha256 of one corpus report
(or, for the grid, of every engine's tokens and report row). The other determinism tests compare two runs of the same code; these compare
the code against reports recorded from an earlier version of it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from spinedec.bench import ABLATION_FLAGS, CorpusSpec, PromptResult, prompts_for, run_corpus
from spinedec.cli import main
from spinedec.engine import ENGINE_KINDS, EngineConfig, decode
from spinedec.models import SyntheticModelSpec, build_synthetic
from spinedec.theory import MC_CHUNK, AcceptanceModel, TreeShape, monte_carlo_yield, spine_shape_tree
from spinedec.tree import ROOT, DraftNode, Source, SpineTree

GOLDEN = CorpusSpec(
    "golden",
    SyntheticModelSpec("template-repeater", 3, 48, 0.7),
    prompts=3,
    prompt_len=12,
    max_tokens=96,
)

ENGINE_DIGESTS = {
    "spine": "b447c931a0ceeacd",
    "context": "075b2f5ac8226c49",
    "transition": "de4553ee9979b81c",
    "iso3": "ba4485474b9f6b89",
    "iso5": "461a9465a33740df",
    "ar": "5488b56f188caf3a",
}

# Spine engine with one ablation flag set, in ``ABLATION_FLAGS`` order.
FLAG_DIGESTS = (
    "c7df3c5fe8402aaf",
    "25c9dd73f20d106a",
    "867a3e3f1bf012ed",
    "58d43c02596260ca",
    "2fb37babac7b28ce",
)


def _digest(engine: str, config: EngineConfig) -> str:
    text = run_corpus(GOLDEN, engine, config).to_json()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_engine_and_ablation_flag_is_pinned():
    # Both lists are derived (from the engine table and from EngineConfig's
    # bool fields), so a new row or switch must arrive with its digest.
    assert set(ENGINE_DIGESTS) == set(ENGINE_KINDS)
    assert len(FLAG_DIGESTS) == len(ABLATION_FLAGS)


@pytest.mark.parametrize("engine", sorted(ENGINE_DIGESTS))
def test_engine_report_matches_golden_digest(engine):
    assert _digest(engine, EngineConfig()) == ENGINE_DIGESTS[engine]


@pytest.mark.parametrize("flag,digest", list(zip(ABLATION_FLAGS, FLAG_DIGESTS)))
def test_ablated_spine_report_matches_golden_digest(flag, digest):
    assert _digest("spine", replace(EngineConfig(), **{flag: True})) == digest


# The bigram switch under every other engine that reads the table: iso trees,
# transition-only trees, and the source-swap control's table chain.
NO_BIGRAM_DIGESTS = [
    ("iso3", {}, "525648c265db2b33"),
    ("transition", {}, "332c58deec8de1e4"),
    ("spine", {"control_swap_sources": True}, "d42896a53fb84dca"),
]


@pytest.mark.parametrize(
    "engine,flags,digest", NO_BIGRAM_DIGESTS, ids=["iso3", "transition", "spine-swap"]
)
def test_bigram_switch_reaches_every_table_reader(engine, flags, digest):
    assert _digest(engine, replace(EngineConfig(), disable_bigram=True, **flags)) == digest


# Every engine under every grid config on every grid model: one 16-token
# prompt and 64 generated tokens per case, 216 cases in one digest.
GRID_CONFIGS = [
    {},
    *({flag: True} for flag in ABLATION_FLAGS),
    {"node_budget": 16, "max_tree_depth": 3, "bypass_threshold": 4},
    {"node_budget": 40, "spine_branch_ratio": 0.3, "ngram_lengths": (2, 3), "ema_init": 0.6},
    {"min_score_threshold": 0.002, "max_tree_depth": 2},
]
GRID_MODELS = [
    *(SyntheticModelSpec("template-repeater", 7, 64, rep) for rep in (0.9, 0.5, 0.0)),
    SyntheticModelSpec("markov-order-2", 5, 48, 0.0),
]
GRID_DIGEST = "8158b7cef4f35a5b"


def test_engine_config_model_grid_matches_golden_digest():
    digest = hashlib.sha256()
    for spec in GRID_MODELS:
        prompt = prompts_for(CorpusSpec("grid", spec, prompts=1, prompt_len=16, max_tokens=64))[0]
        for engine in ENGINE_KINDS:
            for flags in GRID_CONFIGS:
                sequence, stats = decode(engine, build_synthetic(spec), prompt, 64, EngineConfig(**flags))
                row = PromptResult(0, sequence.tokens, stats).row()
                digest.update(json.dumps([sequence.tokens, row], sort_keys=True).encode())
    assert digest.hexdigest()[:16] == GRID_DIGEST


# Theory CSVs written by the CLI, pinned the same way: the first 16 hex digits
# of the sha256 of the file. The yield and bound rows carry Monte-Carlo
# estimates, so these also pin the simulator's walk order and random stream.
SIMULATED_SETTINGS = [
    {"setting_id": "novel", "p_s": 0.21, "p_t": 0.033, "m": 5, "budget": 60},
    {"setting_id": "repeat", "p_s": 0.8, "p_t": 0.1, "m": 8, "budget": 60, "depth": 4},
    {"setting_id": "equal", "p_s": 0.05, "p_t": 0.05, "m": 3, "budget": 30},
    {"setting_id": "inverted", "p_s": 0.01, "p_t": 0.04, "m": 3, "budget": 30},
]

THEORY_DIGESTS = {
    "yield": "73452adc3da0703c",
    "verify-bound": "e57bcd8c9535907a",
    "dominance": "0f5809f35929b822",
}


def _theory_args(command: str, tmp_path) -> list[str]:
    if command == "yield":
        return [
            "yield", "--ps", "0.35", "--pt", "0.08", "--m", "4",
            "--widths", "3,2,2,1", "--depth", "5", "--trials", "20000", "--seed", "3",
        ]
    if command == "verify-bound":
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps(SIMULATED_SETTINGS))
        return ["verify-bound", "--settings", str(settings), "--trials", "20000", "--seed", "5"]
    return ["dominance"]


@pytest.mark.parametrize("command", sorted(THEORY_DIGESTS))
def test_theory_csv_matches_golden_digest(command, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["theory", *_theory_args(command, tmp_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == THEORY_DIGESTS[command]


# Monte-Carlo estimates across chunk boundaries. The CLI digests above run
# 20,000 trials, less than one MC_CHUNK, so these pin the chunk loop: the
# exact repr of (mean, stderr) at one trial past a chunk and at three chunks
# plus seven, on three trees. "mixed" is a fixed tree, drawn once at random,
# with context and transition nodes at every depth below the root.
MIXED_PARENTS = (
    0, 1, 1, 3, 4, 2, 6, 0, 3, 4, 1, 2, 0, 0, 3, 1, 10, 5, 9, 18,
    19, 18, 17, 2, 7, 14, 12, 10, 10, 24, 29, 15, 4, 18, 16, 32, 0, 27, 1,
)
MIXED_SOURCES = "tttcctccctccccttcccttcttttccctcttcccttt"


def _golden_mc_tree(name: str) -> SpineTree:
    if name == "novel":  # perfbench's "novel" bound setting
        return spine_shape_tree(TreeShape(m=5, widths=(51, 4, 0, 0, 0), depth=6, budget=60))
    if name == "richer":  # acceptance criterion 2's sub-branched tree
        base = spine_shape_tree(TreeShape(m=3, widths=(2, 1, 1), depth=4, budget=60))
        extra = [n for n in base.nodes[1:] if n.source is Source.TRANSITION]
        return SpineTree(nodes=base.nodes + extra, spine=base.spine)
    nodes = [DraftNode(0, Source.CONTEXT, ROOT)] + [
        DraftNode(0, Source.CONTEXT if s == "c" else Source.TRANSITION, parent)
        for parent, s in zip(MIXED_PARENTS, MIXED_SOURCES)
    ]
    return SpineTree(nodes=nodes, spine=[0])


MC_CHUNK_PINS = {
    # tree: (p_s, p_t, seed, {trials: repr((mean, stderr))})
    "novel": (0.21, 0.033, 11, {
        MC_CHUNK + 1: "(1.956757251628851, 0.002022303794539487)",
        3 * MC_CHUNK + 7: "(1.9574752689265824, 0.0011765870134982264)",
    }),
    "richer": (0.70, 0.033, 12, {
        MC_CHUNK + 1: "(2.5930085295329355, 0.004740742553470858)",
        3 * MC_CHUNK + 7: "(2.5923810492587034, 0.0027349658180109925)",
    }),
    "mixed": (0.6, 0.4, 13, {
        MC_CHUNK + 1: "(2.0506431481453227, 0.0014695072540742626)",
        3 * MC_CHUNK + 7: "(2.052178114589426, 0.0008476203283745426)",
    }),
}


@pytest.mark.parametrize("name", sorted(MC_CHUNK_PINS))
def test_multi_chunk_monte_carlo_matches_golden_repr(name):
    p_s, p_t, seed, pins = MC_CHUNK_PINS[name]
    tree = _golden_mc_tree(name)
    for trials, pinned in pins.items():
        assert repr(monte_carlo_yield(AcceptanceModel(p_s, p_t), tree, trials, seed)) == pinned
