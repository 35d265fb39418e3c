from __future__ import annotations

import csv
import json
import multiprocessing
from pathlib import Path

import pytest

import spinedec.bench as bench
import spinedec.cli as cli
from spinedec.cli import main
from spinedec.models import TokenSequence
from spinedec.theory import AcceptanceModel, DominanceRow, TreeShape, spine_yield
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


@pytest.fixture
def no_decoding(monkeypatch: pytest.MonkeyPatch) -> None:
    """Fail the test if the CLI reaches ``run_corpus`` or ``ablation_table``: bad input must stop first."""

    def must_not_run(*_args, **_kwargs):
        raise AssertionError("a corpus was decoded on bad input")

    monkeypatch.setattr(cli, "run_corpus", must_not_run)
    monkeypatch.setattr(cli, "ablation_table", must_not_run)


@pytest.mark.parametrize(
    "config",
    [
        '{"spine_ratio_tiers": []}',
        '{"node_budget": "60"}',
        '{"node_budget": 0}',
        '{"spine_ratio_tiers": [[1.0, 1.0]]}',
        '{"ngram_lengths": 3}',
        '{"ngram_lengths": [0]}',
        '{"ema_init": "x"}',
        '{"disable_bypass": "yes"}',
        '{"bypass_threshold": -3}',
        '{"max_spine_continuation": 0}',
        '{"min_score_threshold": 2}',
        '{"transition_top_k": 0}',
        '{"spine_ratio_tiers": [[0.4, 0.3], [0.2, 0.15], [1.0, 0.5]]}',
        '{"spine_ratio_tiers": [[0.2, 0.15], [1.5, 0.5]]}',
        '{"node_count": 3}',
        '[60]',
        pytest.param('{"ema_init": 1' + "0" * 400 + "}", id="ema_init-overflow"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
    ],
)
def test_bad_config_exits_before_decoding(
    corpus_file: Path, tmp_path: Path, config: str, capsys: pytest.CaptureFixture, no_decoding
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["decode", "--corpus", str(corpus_file), "--out", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["decode", "--corpus", "{corpus}", "--out", "{tmp}/out", "--engine", "turbo"], id="engine"),
        pytest.param(["decode", "--corpus", "{corpus}", "--out", "{tmp}/out", "--jobs", "0"], id="decode-jobs"),
        pytest.param(["ablate", "--corpus", "{corpus}", "--jobs", "-4"], id="ablate-jobs"),
        pytest.param(["theory", "verify-bound", "--corpus", "{corpus}", "--jobs", "x"], id="bound-jobs"),
        pytest.param(["theory", "yield", "--ps", "0.3"], id="missing-pt-m"),
        pytest.param(["theory", "yield", "--ps", "0.3", "--pt", "0.1", "--m", "3"], id="missing-widths"),
        pytest.param(["frobnicate"], id="command"),
    ],
)
def test_argument_errors_exit_one_before_decoding(
    corpus_file: Path, tmp_path: Path, args, capsys: pytest.CaptureFixture, no_decoding
):
    with pytest.raises(SystemExit) as exited:
        main([arg.format(corpus=corpus_file, tmp=tmp_path) for arg in args])
    assert exited.value.code == 1
    assert ": error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["--help"], ["decode", "--help"], ["theory", "yield", "--help"]])
def test_help_still_exits_zero(args, capsys: pytest.CaptureFixture):
    with pytest.raises(SystemExit) as exited:
        main(args)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spinedec")


@pytest.mark.parametrize("widths,entry", [("3,,2", ""), ("3,x,2", "x"), ("3,2,1.5", "1.5")])
def test_theory_yield_names_a_malformed_width(widths: str, entry: str, capsys: pytest.CaptureFixture):
    args = ["theory", "yield", "--ps", "0.3", "--pt", "0.1", "--m", "3", "--widths", widths]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: --widths entry {entry!r} is not an integer\n"


def _edit(path: str, value=None):
    """An edit of the corpus JSON: set ``a.b`` to ``value``, or drop it when None."""

    def apply(raw: dict) -> None:
        *parents, key = path.split(".")
        for parent in parents:
            raw = raw[parent]
        if value is None:
            del raw[key]
        else:
            raw[key] = value

    return apply


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_edit("max_tokens"), id="missing-max_tokens"),
        pytest.param(_edit("temperature", 0.7), id="unknown-key"),
        pytest.param(_edit("prompts", "8"), id="prompts-string"),
        pytest.param(_edit("prompts", True), id="prompts-bool"),
        pytest.param(_edit("name", 3), id="name-int"),
        pytest.param(_edit("model", "template-repeater"), id="model-not-object"),
        pytest.param(_edit("model.kind"), id="missing-model-kind"),
        pytest.param(_edit("model.temperature", 0.7), id="unknown-model-key"),
        pytest.param(_edit("model.seed", [1]), id="model-seed-list"),
        pytest.param(_edit("model.kind", "gpt"), id="unknown-model-kind"),
        pytest.param(_edit("model.repetition", 1.5), id="repetition-above-one"),
        pytest.param(
            _edit("model", {"kind": "markov-order-2", "seed": 17, "vocab": 48, "repetition": 5.0}),
            id="markov-repetition-above-one",
        ),
    ],
)
def test_bad_corpus_exits_before_decoding(
    corpus_file: Path, tmp_path: Path, edit, capsys: pytest.CaptureFixture, no_decoding
):
    raw = json.loads(corpus_file.read_text())
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["decode", "--corpus", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


GOOD_SETTING = {"setting_id": "s", "p_s": 0.5, "p_t": 0.1, "m": 3, "budget": 30}


def _setting(**edits) -> list[dict]:
    """A one-entry settings file: ``GOOD_SETTING`` with keys set, or dropped when None."""
    entry = {**GOOD_SETTING, **edits}
    return [{k: v for k, v in entry.items() if v is not None}]


@pytest.mark.parametrize(
    "settings",
    [
        pytest.param(_setting(temperature=0.7), id="unknown-key"),
        pytest.param(_setting(m=None), id="missing-m"),
        pytest.param([GOOD_SETTING, 3], id="entry-not-object"),
        pytest.param(GOOD_SETTING, id="not-a-list"),
        pytest.param(_setting(p_s="0.5"), id="p_s-string"),
        pytest.param(_setting(p_t=1.5), id="p_t-above-one"),
        pytest.param(_setting(m=2.0), id="m-float"),
        pytest.param(_setting(m=-1), id="m-negative"),
        pytest.param(_setting(m=31), id="m-above-budget"),
        pytest.param(_setting(budget=0), id="budget-zero"),
        pytest.param(_setting(depth=0), id="depth-zero"),
        pytest.param(_setting(setting_id=7), id="setting_id-int"),
        pytest.param(_setting(tau_meas="2.0"), id="tau_meas-string"),
        pytest.param(_setting(tau_meas=True), id="tau_meas-bool"),
        pytest.param(_setting(stderr=-0.1), id="stderr-negative"),
        pytest.param(_setting(tau_meas=10**400), id="tau_meas-overflow"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
    ],
)
def test_bad_bound_settings_exit_before_decoding(
    corpus_file: Path, tmp_path: Path, settings, capsys: pytest.CaptureFixture, no_decoding
):
    path = tmp_path / "settings.json"
    path.write_text(settings if isinstance(settings, str) else json.dumps(settings))
    out = tmp_path / "bound.csv"
    args = ["theory", "verify-bound", "--corpus", str(corpus_file), "--settings", str(path)]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_zero_token_corpus_exits_before_bound_decoding(
    corpus_file: Path, tmp_path: Path, capsys: pytest.CaptureFixture, no_decoding
):
    raw = json.loads(corpus_file.read_text())
    raw["max_tokens"] = 0
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(raw))
    out = tmp_path / "bound.csv"
    assert main(["theory", "verify-bound", "--corpus", str(empty), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --corpus cli-smoke: max_tokens must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["decode", "--corpus", "{tmp}", "--out", "{tmp}/out"], id="decode-corpus"),
        pytest.param(["decode", "--corpus", "{corpus}", "--config", "{tmp}", "--out", "{tmp}/out"], id="decode-config"),
        pytest.param(["ablate", "--corpus", "{tmp}", "--out", "{tmp}/out"], id="ablate-corpus"),
        pytest.param(["theory", "verify-bound", "--settings", "{tmp}", "--out", "{tmp}/out"], id="bound-settings"),
    ],
)
def test_directory_path_exits_one_before_decoding(
    corpus_file: Path, tmp_path: Path, args, capsys: pytest.CaptureFixture, no_decoding
):
    assert main([arg.format(corpus=corpus_file, tmp=tmp_path) for arg in args]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/run"])
def test_out_naming_a_file_exits_one_before_decoding(
    corpus_file: Path, tmp_path: Path, out: str, capsys: pytest.CaptureFixture, no_decoding
):
    (tmp_path / "file").write_text("kept\n")
    assert main(["decode", "--corpus", str(corpus_file), "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize(
    "command", [pytest.param(["ablate"], id="ablate"), pytest.param(["theory", "verify-bound"], id="verify-bound")]
)
@pytest.mark.parametrize("out", ["dir", "file/out.csv"])
def test_unwritable_file_out_exits_one_before_decoding(
    corpus_file: Path, tmp_path: Path, command: list[str], out: str, capsys: pytest.CaptureFixture, no_decoding
):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")
    assert main([*command, "--corpus", str(corpus_file), "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("error: --out ")
    assert (tmp_path / "file").read_text() == "kept\n"
    assert not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("flag", ["--iso-fanout", "--trials"])
def test_bad_bound_counts_exit_before_decoding(
    corpus_file: Path, tmp_path: Path, flag: str, capsys: pytest.CaptureFixture, no_decoding
):
    out = tmp_path / "bound.csv"
    args = ["theory", "verify-bound", "--corpus", str(corpus_file), flag, "0", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "inputs",
    [
        pytest.param(["corpus"], id="measured-corpus-only"),
        pytest.param(["corpus", "settings"], id="corpus-plus-simulated-setting"),
        pytest.param(["settings"], id="simulated-setting-only"),
    ],
)
def test_verify_bound_rejects_a_negative_seed_before_decoding(
    corpus_file: Path, tmp_path: Path, inputs: list[str], capsys: pytest.CaptureFixture, no_decoding
):
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps(_setting()))
    out = tmp_path / "bound.csv"
    args = ["theory", "verify-bound", "--seed", "-1", "--trials", "100", "--out", str(out)]
    if "corpus" in inputs:
        args += ["--corpus", str(corpus_file)]
    if "settings" in inputs:
        args += ["--settings", str(settings)]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("trials", [[], ["--trials", "100"]], ids=["analytic-only", "simulated"])
def test_theory_yield_rejects_a_negative_seed(tmp_path: Path, trials: list[str], capsys: pytest.CaptureFixture):
    out = tmp_path / "yield.csv"
    args = ["theory", "yield", "--ps", "0.5", "--pt", "0.1", "--m", "1", "--widths", "2", "--seed", "-1"]
    assert main([*args, *trials, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_explicit_settings_follow_corpus_settings(corpus_file: Path, tmp_path: Path):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(_setting(tau_meas=10, stderr=0)))
    out = tmp_path / "bound.csv"
    args = ["theory", "verify-bound", "--corpus", str(corpus_file), "--settings", str(path)]
    assert main(args + ["--out", str(out)]) == 0
    ids = [row["setting_id"] for row in csv.DictReader(out.open())]
    assert ids == ["cli-smoke/0", "cli-smoke/1", "s"]


def test_verify_bound_violation_exits_one_after_writing(tmp_path: Path, capsys: pytest.CaptureFixture):
    # A measured tau of 1.0 with no error bar falls below this setting's bound.
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(_setting(setting_id="low", p_s=0.9, p_t=0.5, m=5, tau_meas=1.0, stderr=0.0)))
    out = tmp_path / "bound.csv"
    assert main(["theory", "verify-bound", "--settings", str(path), "--trials", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "1 bound violations\n"
    assert [row["setting_id"] for row in csv.DictReader(out.open())] == ["low"]


def test_dominance_violation_exits_one_after_writing(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
):
    # No valid grid point is known to violate dominance, so the scan is replaced.
    def scan(points, depth):
        return [DominanceRow(p_s=0.5, p_t=0.1, budget=10, tau_spine=2.0, best_m=3, tau_iso=2.5, best_k=2)]

    monkeypatch.setattr(cli, "dominance_scan", scan)
    out = tmp_path / "dominance.csv"
    assert main(["theory", "dominance", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "1 dominance violations\n"
    rows = list(csv.DictReader(out.open()))
    assert [(r["violation"], r["gap"]) for r in rows] == [("1", "-0.5")]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_dominance_rejects_a_budget_below_one(
    tmp_path: Path, budget: str, capsys: pytest.CaptureFixture
):
    out = tmp_path / "dominance.csv"
    assert main(["theory", "dominance", "--grid", f"0.5,0.1,{budget}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: grid point has budget")
    assert not out.exists()


@pytest.mark.parametrize(
    "grid,chunk",
    [
        ("0.5,0.1", "0.5,0.1"),
        ("0.5,0.1,10;", ""),
        ("0.5,x,10", "0.5,x,10"),
        ("0.5,0.1,2.5", "0.5,0.1,2.5"),
    ],
)
def test_dominance_names_a_malformed_grid_chunk(
    tmp_path: Path, grid: str, chunk: str, capsys: pytest.CaptureFixture
):
    out = tmp_path / "dominance.csv"
    assert main(["theory", "dominance", "--grid", grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: grid chunk {chunk!r} is not of the form ps,pt,B\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["decode", "--out", "{tmp}/out"],
        ["ablate"],
        ["theory", "verify-bound", "--trials", "10"],
        pytest.param(
            ["decode", "--out", "{tmp}/out", "--jobs", "2"],
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the tampered decode reaches a worker only when it is forked",
            ),
        ),
    ],
)
def test_lossless_violation_exits_two(
    corpus_file: Path, tmp_path: Path, command, monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture,
):
    real_decode = bench.decode

    def broken_decode(engine, model, prompt, max_tokens, config):
        sequence, stats = real_decode(engine, model, prompt, max_tokens, config)
        tampered = list(sequence.tokens)
        tampered[5] = (tampered[5] + 1) % 7
        return TokenSequence(tokens=tuple(tampered)), stats

    monkeypatch.setattr(bench, "decode", broken_decode)
    args = [arg.format(tmp=tmp_path) for arg in command] + ["--corpus", str(corpus_file)]
    assert main(args) == 2
    assert "LOSSLESSNESS VIOLATION: prompt 0: first divergence at position 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
