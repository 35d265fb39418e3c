from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from spinedec.cli import main
from spinedec.theory import AcceptanceModel, TreeShape, spine_yield
from spinedec.tree import linear_allocation


@pytest.fixture
def corpus_file(tmp_path: Path) -> Path:
    path = tmp_path / "corpus.json"
    code = main(
        [
            "corpus-gen", "--name", "cli-smoke", "--kind", "template-repeater",
            "--seed", "17", "--vocab", "48", "--repetition", "0.9",
            "--prompts", "2", "--prompt-len", "8", "--max-tokens", "48",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


def test_decode_writes_deterministic_reports(corpus_file: Path, tmp_path: Path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["decode", "--corpus", str(corpus_file), "--engine", "spine", "--out", str(out_a)]) == 0
    assert main(
        ["decode", "--corpus", str(corpus_file), "--engine", "spine", "--out", str(out_b), "--jobs", "2"]
    ) == 0
    report_a = (out_a / "report.json").read_bytes()
    report_b = (out_b / "report.json").read_bytes()
    assert report_a == report_b
    assert (out_a / "per_prompt.csv").read_bytes() == (out_b / "per_prompt.csv").read_bytes()
    assert (out_a / "generated.jsonl").read_bytes() == (out_b / "generated.jsonl").read_bytes()
    rows = list(csv.DictReader((out_a / "per_prompt.csv").open()))
    assert len(rows) == 2
    assert float(rows[0]["tau"]) >= 1.0
    payload = json.loads(report_a)
    assert payload["header"]["engine"] == "spine"


def test_decode_ar_reports_tau_one(corpus_file: Path, tmp_path: Path):
    out = tmp_path / "ar"
    assert main(["decode", "--corpus", str(corpus_file), "--engine", "ar", "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["aggregate"]["mean_tau"] == 1.0


def test_ablate_writes_six_rows(corpus_file: Path, tmp_path: Path):
    out = tmp_path / "ablation.csv"
    assert main(["ablate", "--corpus", str(corpus_file), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["label"] for r in rows][:1] == ["full"]
    assert len(rows) == 6


def test_theory_yield_matches_library(tmp_path: Path):
    out = tmp_path / "yield.csv"
    assert main(
        [
            "theory", "yield", "--ps", "0.5", "--pt", "0.1",
            "--m", "3", "--widths", "2,1,1", "--depth", "6", "--budget", "60",
            "--out", str(out),
        ]
    ) == 0
    row = next(csv.DictReader(out.open()))
    report = spine_yield(
        AcceptanceModel(0.5, 0.1), TreeShape(m=3, widths=(2, 1, 1), depth=6, budget=60)
    )
    assert float(row["tau_eq5"]) == pytest.approx(report.tau_eq, rel=1e-9)
    assert float(row["spine_term"]) == pytest.approx(report.spine_term, rel=1e-9)


def test_theory_allocate_equal_rates(tmp_path: Path):
    out = tmp_path / "alloc.csv"
    assert main(
        ["theory", "allocate", "--ps", "0.5", "--pt", "0.5", "--m", "3", "--bt", "6", "--out", str(out)]
    ) == 0
    row = next(csv.DictReader(out.open()))
    assert row["widths"] == "3 2 1"
    assert [int(w) for w in row["widths"].split()] == linear_allocation(0.5, 0.5, 3, 6)


def test_theory_dominance_default_grid_is_clean(tmp_path: Path):
    out = tmp_path / "dominance.csv"
    assert main(["theory", "dominance", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 12
    assert all(r["violation"] == "0" for r in rows)
    assert all(float(r["gap"]) > 0 for r in rows)


def test_theory_verify_bound_from_corpus(corpus_file: Path, tmp_path: Path):
    out = tmp_path / "bound.csv"
    assert main(
        ["theory", "verify-bound", "--corpus", str(corpus_file), "--out", str(out)]
    ) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2
    assert list(rows[0]) == [
        "setting_id", "p_s", "p_t", "m", "B",
        "tau_eq5", "tau_meas", "stderr", "tau_iso", "ratio",
    ]
    for row in rows:
        assert float(row["tau_eq5"]) <= float(row["tau_meas"]) + 3 * float(row["stderr"])


def test_decode_ablation_flag_matches_config(corpus_file: Path, tmp_path: Path):
    flagged = tmp_path / "flagged"
    configured = tmp_path / "configured"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"disable_bypass": true}')
    assert main(
        ["decode", "--corpus", str(corpus_file), "--out", str(flagged), "--disable-bypass"]
    ) == 0
    assert main(
        ["decode", "--corpus", str(corpus_file), "--out", str(configured), "--config", str(cfg)]
    ) == 0
    assert (flagged / "generated.jsonl").read_bytes() == (configured / "generated.jsonl").read_bytes()
    flagged_report = json.loads((flagged / "report.json").read_text())
    assert flagged_report["header"]["config"]["disable_bypass"] is True


def test_theory_verify_bound_requires_input():
    assert main(["theory", "verify-bound"]) == 1


def test_bad_numeric_arguments_exit_nonzero(tmp_path: Path):
    # p_s < p_t is an input error surfaced as a usage failure.
    assert main(["theory", "allocate", "--ps", "0.1", "--pt", "0.5", "--m", "3", "--bt", "6"]) == 1


def test_missing_corpus_file_exits_nonzero(tmp_path: Path):
    assert main(["decode", "--corpus", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "config",
    [
        '{"spine_ratio_tiers": []}',
        '{"node_budget": "60"}',
        '{"node_budget": 0}',
        '{"spine_ratio_tiers": [[1.0, 1.0]]}',
    ],
)
def test_bad_config_exits_before_decoding(
    corpus_file: Path, tmp_path: Path, config: str, capsys: pytest.CaptureFixture
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["decode", "--corpus", str(corpus_file), "--out", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
