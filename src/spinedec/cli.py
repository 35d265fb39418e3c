"""Command-line front end: corpus generation, decoding, ablation, theory.

All outputs are deterministic functions of the arguments; each CSV's columns
are the keys of its rows, in order. Bad input (a malformed argument, corpus,
config or settings file, a path that names a directory or cannot be read, or
an --out that cannot be written) exits 1 before any decoding; exit 2 means
only that an engine's output diverged from the autoregressive reference.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Sequence

from .bench import (
    ABLATION_FLAGS,
    CorpusSpec,
    LosslessnessError,
    ablation_table,
    run_corpus,
    setting_from_stats,
)
from .engine import ENGINE_KINDS, EngineConfig
from .models import MODEL_KINDS, SyntheticModelSpec, parse_json
from .theory import (
    AcceptanceModel,
    BoundSetting,
    TreeShape,
    dominance_scan,
    monte_carlo_yield,
    spine_shape_tree,
    spine_yield,
    verify_bound,
)
from .tree import MAX_DEPTH, NODE_BUDGET, linear_allocation

class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1 like any other bad input; exit 2 means divergence."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jobs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _write_csv(path: str | None, rows: Sequence[dict]) -> None:
    """Write ``rows`` (at least one) under a header of the first row's keys."""
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _check_out(out: str | None, directory: bool) -> None:
    """Fail before any work on an ``--out`` that cannot be written.

    ``decode`` creates its directory and any missing parents, so only its
    nearest existing ancestor must be a directory; a file's parent must be one.
    """
    if out is None:
        return
    path = Path(out)
    holder = next(p for p in (path, *path.parents) if p.exists()) if directory else path.parent
    if not directory and path.is_dir():
        raise IsADirectoryError(f"--out {path} is a directory")
    if not holder.is_dir():
        raise NotADirectoryError(f"--out {path}: {holder} is not a directory")


def _load_config(path: str | None) -> EngineConfig:
    if path is None:
        return EngineConfig()
    return EngineConfig.from_json(Path(path).read_text())


def _cmd_corpus_gen(args: argparse.Namespace) -> int:
    spec = CorpusSpec(
        name=args.name,
        model=SyntheticModelSpec(
            kind=args.kind, seed=args.seed, vocab=args.vocab, repetition=args.repetition
        ),
        prompts=args.prompts,
        prompt_len=args.prompt_len,
        max_tokens=args.max_tokens,
    )
    Path(args.out).write_text(spec.to_json() + "\n")
    print(f"wrote corpus spec to {args.out}")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    from dataclasses import replace

    spec = CorpusSpec.from_json(Path(args.corpus).read_text())
    config = _load_config(args.config)
    toggles = {f: True for f in ABLATION_FLAGS if getattr(args, f)}
    if toggles:
        config = replace(config, **toggles)
    out_dir = Path(args.out)
    report = run_corpus(spec, args.engine, config, jobs=args.jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    _write_csv(str(out_dir / "per_prompt.csv"), [r.row() for r in report.results])
    (out_dir / "generated.jsonl").write_text(
        "".join(
            json.dumps({"prompt_id": r.prompt_id, "tokens": list(r.tokens)}) + "\n"
            for r in report.results
        )
    )
    print(
        f"engine={args.engine} corpus={spec.name} prompts={spec.prompts} "
        f"mean_tau={_fmt(report.mean_tau)} median_tau={_fmt(report.median_tau)}"
    )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    spec = CorpusSpec.from_json(Path(args.corpus).read_text())
    config = _load_config(args.config)
    rows = ablation_table(spec, config, jobs=args.jobs)
    _write_csv(
        args.out,
        [{k: _fmt(v) if isinstance(v, float) else v for k, v in r.items()} for r in rows],
    )
    return 0


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _cmd_theory_yield(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    widths: list[int] = []
    for entry in args.widths.split(",") if args.widths else ():
        try:
            widths.append(int(entry))
        except ValueError:
            raise ValueError(f"--widths entry {entry!r} is not an integer") from None
    shape = TreeShape(m=args.m, widths=tuple(widths), depth=args.depth, budget=args.budget)
    model = AcceptanceModel(p_s=args.ps, p_t=args.pt)
    report = spine_yield(model, shape)
    row = {
        "p_s": _fmt(args.ps), "p_t": _fmt(args.pt), "m": args.m, "D": args.depth, "B": args.budget,
        "spine_term": _fmt(report.spine_term), "synergy_term": _fmt(report.synergy_term),
        "bonus": _fmt(report.bonus), "tau_eq5": _fmt(report.tau_eq),
    }
    if args.trials:
        mean, stderr = monte_carlo_yield(model, spine_shape_tree(shape), args.trials, seed=args.seed)
        row.update(tau_meas=_fmt(mean), stderr=_fmt(stderr))
    _write_csv(args.out, [row])
    return 0


def _cmd_theory_allocate(args: argparse.Namespace) -> int:
    widths = linear_allocation(args.ps, args.pt, args.m, args.bt)
    _write_csv(args.out, [{
        "p_s": _fmt(args.ps), "p_t": _fmt(args.pt), "m": args.m, "branch_budget": args.bt,
        "widths": " ".join(map(str, widths)),
    }])
    return 0


_DEFAULT_DOMINANCE_GRID = [
    (ratio * 0.033, 0.033, budget)
    for ratio in (2, 4, 8, 18)
    for budget in (10, 30, 60)
]


def _cmd_theory_dominance(args: argparse.Namespace) -> int:
    if args.grid == "default":
        points = _DEFAULT_DOMINANCE_GRID
    else:
        points = []
        for chunk in args.grid.split(";"):
            try:
                ps, pt, b = chunk.split(",")
                points.append((float(ps), float(pt), int(b)))
            except ValueError:
                raise ValueError(f"grid chunk {chunk!r} is not of the form ps,pt,B") from None
    rows = dominance_scan(points, depth=args.depth)
    _write_csv(args.out, [
        {
            "p_s": _fmt(r.p_s), "p_t": _fmt(r.p_t), "B": r.budget, "tau_spine": _fmt(r.tau_spine),
            "best_m": r.best_m, "tau_iso": _fmt(r.tau_iso), "best_k": r.best_k, "gap": _fmt(r.gap),
            "violation": int(r.violation),
        }
        for r in rows
    ])
    violations = sum(r.violation for r in rows)
    if violations:
        print(f"{violations} dominance violations", file=sys.stderr)
        return 1
    return 0


def _cmd_theory_verify_bound(args: argparse.Namespace) -> int:
    if args.iso_fanout < 1 or args.trials < 1:
        raise ValueError(f"--iso-fanout and --trials must be >= 1, got {args.iso_fanout}, {args.trials}")
    _check_seed(args.seed)
    config = _load_config(args.config)
    specs = [CorpusSpec.from_json(Path(path).read_text()) for path in args.corpus or []]
    for spec in specs:
        if spec.max_tokens < 1:
            raise ValueError(f"--corpus {spec.name}: max_tokens must be >= 1 to measure a bound")
    raw = parse_json(Path(args.settings).read_text()) if args.settings else []
    if not isinstance(raw, list):
        raise ValueError(f"settings JSON must be a list of objects, got {raw!r}")
    explicit = [BoundSetting.from_dict(entry) for entry in raw]
    if not specs and not explicit:
        print("no settings: pass --corpus and/or --settings", file=sys.stderr)
        return 1
    settings: list[BoundSetting] = []
    for spec in specs:
        report = run_corpus(spec, "spine", config, jobs=args.jobs)
        for result in report.results:
            settings.append(
                setting_from_stats(f"{spec.name}/{result.prompt_id}", result.stats, config)
            )
    report = verify_bound(
        settings + explicit, iso_fanout=args.iso_fanout, trials=args.trials, seed=args.seed
    )
    _write_csv(args.out, [
        {
            "setting_id": r.setting.setting_id, "p_s": _fmt(r.setting.p_s), "p_t": _fmt(r.setting.p_t),
            "m": r.setting.m, "B": r.setting.budget, "tau_eq5": _fmt(r.tau_eq),
            "tau_meas": _fmt(r.tau_meas), "stderr": _fmt(r.stderr), "tau_iso": _fmt(r.tau_iso),
            "ratio": _fmt(r.ratio),
        }
        for r in report.rows
    ])
    if report.violations:
        print(f"{report.violations} bound violations", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinedec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("corpus-gen", help="write a corpus spec JSON")
    gen.add_argument("--name", required=True)
    gen.add_argument("--kind", choices=MODEL_KINDS, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--vocab", type=int, required=True)
    gen.add_argument("--repetition", type=float, default=0.0)
    gen.add_argument("--prompts", type=int, default=8)
    gen.add_argument("--prompt-len", type=int, default=16)
    gen.add_argument("--max-tokens", type=int, default=256)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_corpus_gen)

    dec = sub.add_parser("decode", help="run an engine over a corpus")
    dec.add_argument("--corpus", required=True)
    dec.add_argument("--engine", choices=ENGINE_KINDS, default="spine")
    dec.add_argument("--config")
    dec.add_argument("--out", required=True)
    dec.add_argument("--jobs", type=_jobs, default=1)
    for flag in ABLATION_FLAGS:
        dec.add_argument(f"--{flag.replace('_', '-')}", action="store_true")
    dec.set_defaults(func=_cmd_decode)

    abl = sub.add_parser("ablate", help="single-flag ablation table")
    abl.add_argument("--corpus", required=True)
    abl.add_argument("--config")
    abl.add_argument("--out")
    abl.add_argument("--jobs", type=_jobs, default=1)
    abl.set_defaults(func=_cmd_ablate)

    theory = sub.add_parser("theory", help="analytic and Monte-Carlo topology analysis")
    tsub = theory.add_subparsers(dest="subcommand", required=True)

    ty = tsub.add_parser("yield", help="spine-tree yield bound")
    ty.add_argument("--ps", type=float, required=True)
    ty.add_argument("--pt", type=float, required=True)
    ty.add_argument("--m", type=int, required=True)
    ty.add_argument("--widths", "--w", dest="widths", required=True)
    ty.add_argument("--depth", "--D", dest="depth", type=int, default=MAX_DEPTH)
    ty.add_argument("--budget", "--B", dest="budget", type=int, default=NODE_BUDGET)
    ty.add_argument("--trials", type=int, default=0)
    ty.add_argument("--seed", type=int, default=0)
    ty.add_argument("--out")
    ty.set_defaults(func=_cmd_theory_yield)

    ta = tsub.add_parser("allocate", help="depth-linear branch allocation")
    ta.add_argument("--ps", type=float, required=True)
    ta.add_argument("--pt", type=float, required=True)
    ta.add_argument("--m", type=int, required=True)
    ta.add_argument("--bt", type=int, required=True)
    ta.add_argument("--out")
    ta.set_defaults(func=_cmd_theory_allocate)

    td = tsub.add_parser("dominance", help="best-spine vs best-isotropic scan")
    td.add_argument("--grid", default="default", help='"default" or "ps,pt,B;ps,pt,B;..."')
    td.add_argument("--depth", type=int, default=MAX_DEPTH)
    td.add_argument("--out")
    td.set_defaults(func=_cmd_theory_dominance)

    tv = tsub.add_parser("verify-bound", help="yield bound vs measured/simulated runs")
    tv.add_argument("--corpus", action="append", help="corpus spec JSON (repeatable)")
    tv.add_argument("--settings", help="JSON list of explicit settings")
    tv.add_argument("--config")
    tv.add_argument("--iso-fanout", type=int, default=3)
    tv.add_argument("--trials", type=int, default=100_000)
    tv.add_argument("--seed", type=int, default=0)
    tv.add_argument("--jobs", type=_jobs, default=1)
    tv.add_argument("--out")
    tv.set_defaults(func=_cmd_theory_verify_bound)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out, directory=args.func is _cmd_decode)
        return args.func(args)
    except LosslessnessError as err:
        print(f"LOSSLESSNESS VIOLATION: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
