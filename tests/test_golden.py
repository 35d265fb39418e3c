"""Golden reports: a refactor of the decode loop must not move a single byte.

Each case pins the first 16 hex digits of the sha256 of one corpus report.
The other determinism tests compare two runs of the same code; these compare
the code against reports recorded from an earlier version of it.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from spinedec.bench import ABLATION_FLAGS, CorpusSpec, run_corpus
from spinedec.engine import EngineConfig
from spinedec.models import SyntheticModelSpec

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


@pytest.mark.parametrize("engine", sorted(ENGINE_DIGESTS))
def test_engine_report_matches_golden_digest(engine):
    assert _digest(engine, EngineConfig()) == ENGINE_DIGESTS[engine]


@pytest.mark.parametrize("flag,digest", list(zip(ABLATION_FLAGS, FLAG_DIGESTS)))
def test_ablated_spine_report_matches_golden_digest(flag, digest):
    assert _digest("spine", replace(EngineConfig(), **{flag: True})) == digest
