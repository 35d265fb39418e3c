"""Corpus generation, engine orchestration, and reproducible reports.

A corpus is a seeded model spec plus prompt/generation sizes; everything a run
emits is a pure function of (corpus, config, engine), so reports are
byte-identical across repeat runs and across worker counts. Parallel prompts
run in worker processes, not threads: the decoder is pure Python, and threads
would share one interpreter lock. Every engine run is checked against the
autoregressive oracle before it is reported; a divergence is a hard failure
carrying the first differing position, raised in the caller even when a
worker found it. Engine logs also yield the per-source acceptance rates that
the theory module's bound check takes as input.
"""

from __future__ import annotations

import functools
import json
import math
import random
import statistics
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .engine import ENGINE_KINDS, DecodeStats, EngineConfig, decode
from .models import Spec, SyntheticModelSpec, ar_decode, build_synthetic
from .theory import BoundSetting

__all__ = [
    "CorpusSpec",
    "LosslessnessError",
    "PromptResult",
    "RunReport",
    "prompts_for",
    "run_prompt",
    "run_corpus",
    "ablation_table",
    "ABLATION_FLAGS",
    "Heterogeneity",
    "measure_heterogeneity",
    "setting_from_stats",
    "QUARTILE_METHOD",
]

QUARTILE_METHOD = "inclusive (statistics.quantiles, n=4)"

# The ablation switches are exactly ``EngineConfig``'s bool fields, in field order.
ABLATION_FLAGS = tuple(f.name for f in fields(EngineConfig) if f.type == "bool")


class LosslessnessError(AssertionError):
    """An engine diverged from the autoregressive oracle."""

    def __init__(self, prompt_id: int, position: int, got: int | None, want: int | None):
        self.prompt_id = prompt_id
        self.position = position
        self.got = got
        self.want = want
        super().__init__(
            f"prompt {prompt_id}: first divergence at position {position} "
            f"(engine={got!r}, reference={want!r})"
        )

    def __reduce__(self):
        # ``args`` holds only the message, so rebuild from the fields: a worker
        # process sends its error to the caller pickled.
        return type(self), (self.prompt_id, self.position, self.got, self.want)


@dataclass(frozen=True)
class CorpusSpec(Spec):
    """A fully seed-determined benchmark corpus."""

    name: str
    model: SyntheticModelSpec
    prompts: int
    prompt_len: int
    max_tokens: int

    def __post_init__(self):
        super().__post_init__()
        if self.prompts < 1 or self.prompt_len < 1 or self.max_tokens < 0:
            raise ValueError("corpus counts must be positive")


def prompts_for(spec: CorpusSpec) -> list[tuple[int, ...]]:
    """Deterministic prompts; EOS is reserved and never appears in them."""
    prompts = []
    for i in range(spec.prompts):
        rng = random.Random(f"{spec.model.seed}:{spec.name}:prompt:{i}")
        prompts.append(
            tuple(rng.randrange(spec.model.vocab - 1) for _ in range(spec.prompt_len))
        )
    return prompts


@dataclass(frozen=True)
class PromptResult:
    prompt_id: int
    tokens: tuple[int, ...]
    stats: DecodeStats

    def row(self) -> dict:
        counts = self.stats.cycle_counts
        categories = self.stats.category_counts
        src_off = self.stats.offered_by_source
        src_acc = self.stats.accepted_by_source
        return {
            "prompt_id": self.prompt_id,
            "tokens": self.stats.total_tokens,
            "model_calls": self.stats.model_calls,
            "tau": self.stats.tau,
            "offered_context": src_off["context"],
            "offered_transition": src_off["transition"],
            "accepted_context": src_acc["context"],
            "accepted_transition": src_acc["transition"],
            "bypass_cycles": counts.get("bypass", 0),
            "tree_cycles": counts.get("tree", 0),
            "fallback_cycles": counts.get("fallback", 0),
            "pure_context_paths": categories.get("pure_context", 0),
            "spine_continuation_paths": categories.get("spine_continuation", 0),
            "pure_transition_paths": categories.get("pure_transition", 0),
            "empty_paths": categories.get("empty", 0),
        }


def run_prompt(
    spec: CorpusSpec, prompt_id: int, engine: str, config: EngineConfig
) -> PromptResult:
    """Run one prompt through an engine and assert losslessness.

    Builds a private model instance so prompt jobs are schedule-independent.
    """
    prompt = prompts_for(spec)[prompt_id]
    model = build_synthetic(spec.model)
    sequence, stats = decode(engine, model, prompt, spec.max_tokens, config)
    reference = ar_decode(model, prompt, spec.max_tokens).tokens
    if sequence.tokens != reference:
        for pos in range(max(len(sequence.tokens), len(reference))):
            got = sequence.tokens[pos] if pos < len(sequence.tokens) else None
            want = reference[pos] if pos < len(reference) else None
            if got != want:
                raise LosslessnessError(prompt_id, pos, got, want)
    return PromptResult(prompt_id=prompt_id, tokens=sequence.tokens, stats=stats)


@dataclass(frozen=True)
class RunReport:
    """Aggregated corpus run, reproducible bit-for-bit from its inputs."""

    corpus: CorpusSpec
    engine: str
    config: EngineConfig
    results: tuple[PromptResult, ...]

    @property
    def taus(self) -> list[float]:
        return [r.stats.tau for r in self.results]

    @property
    def mean_tau(self) -> float:
        return statistics.fmean(self.taus)

    @property
    def median_tau(self) -> float:
        return statistics.median(self.taus)

    @property
    def iqr_tau(self) -> float:
        if len(self.taus) < 2:
            return 0.0
        q1, _q2, q3 = statistics.quantiles(self.taus, n=4, method="inclusive")
        return q3 - q1

    @property
    def pooled_tau(self) -> float:
        calls = sum(r.stats.model_calls for r in self.results)
        if calls == 0:
            return 1.0
        return sum(r.stats.total_tokens for r in self.results) / calls

    @property
    def cv_tau(self) -> float:
        """Coefficient of variation of per-prompt tau (0 for a single prompt)."""
        if len(self.taus) < 2 or self.mean_tau == 0.0:
            return 0.0
        return statistics.stdev(self.taus) / self.mean_tau

    def to_dict(self) -> dict:
        return {
            "header": {
                "corpus": asdict(self.corpus),
                "engine": self.engine,
                "config": asdict(self.config),
                "quartile_method": QUARTILE_METHOD,
            },
            "aggregate": {
                "mean_tau": self.mean_tau,
                "median_tau": self.median_tau,
                "iqr_tau": self.iqr_tau,
                "pooled_tau": self.pooled_tau,
                "cv_tau": self.cv_tau,
                "speedup_proxy_vs_ar": self.mean_tau,  # tau_AR == 1.0 exactly
            },
            "per_prompt": [r.row() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def run_corpus(
    spec: CorpusSpec,
    engine: str,
    config: EngineConfig | None = None,
    jobs: int = 1,
) -> RunReport:
    """Run every prompt of a corpus; results are ordered by prompt id.

    Prompts run in ``min(jobs, spec.prompts)`` worker processes, or in this
    process when that is 1. Every worker is joined before this returns or
    raises.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if engine not in ENGINE_KINDS:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_KINDS}")
    config = config or EngineConfig()
    ids = range(spec.prompts)
    run = functools.partial(run_prompt, spec, engine=engine, config=config)
    workers = min(jobs, spec.prompts)
    if workers == 1:
        results = [run(i) for i in ids]
    else:
        # Imported here: it loads multiprocessing, which ``import spinedec`` need not pay for.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, ids))
    return RunReport(corpus=spec, engine=engine, config=config, results=tuple(results))


def synergy_ratio(spine: RunReport, context: RunReport, transition: RunReport) -> float:
    """Mean-tau ratio of the combined engine over its best standalone source."""
    return spine.mean_tau / max(context.mean_tau, transition.mean_tau)


def ablation_table(
    spec: CorpusSpec,
    config: EngineConfig | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Full engine plus one row per single-flag ablation, with relative deltas."""
    config = config or EngineConfig()
    runs = [("full", config)] + [(flag, replace(config, **{flag: True})) for flag in ABLATION_FLAGS]
    reports = {label: run_corpus(spec, "spine", variant, jobs=jobs) for label, variant in runs}
    full = reports["full"].mean_tau
    return [
        {
            "label": label,
            "mean_tau": report.mean_tau,
            "median_tau": report.median_tau,
            "delta_rel": (report.mean_tau - full) / full,
        }
        for label, report in reports.items()
    ]


@dataclass(frozen=True)
class Heterogeneity:
    """Empirical per-source acceptance rates from a decode run.

    A source with zero offered tokens has an undefined rate (None); the ratio
    is ``inf`` when branches were offered but never accepted.
    """

    p_s: float | None
    p_t: float | None
    ratio: float | None


def measure_heterogeneity(stats: DecodeStats) -> Heterogeneity:
    """Fraction of drafted tokens accepted, per source, plus their ratio."""
    if not stats.records:
        raise ValueError("decode stats contain no cycles")
    offered = stats.offered_by_source
    accepted = stats.accepted_by_source
    p_s = accepted["context"] / offered["context"] if offered["context"] else None
    p_t = accepted["transition"] / offered["transition"] if offered["transition"] else None
    ratio: float | None = None
    if p_s is not None and p_t is not None:
        ratio = math.inf if p_t == 0.0 else p_s / p_t
    return Heterogeneity(p_s=p_s, p_t=p_t, ratio=ratio)


def setting_from_stats(
    setting_id: str, stats: DecodeStats, config: EngineConfig
) -> BoundSetting:
    """Build a bound-verification setting from one engine run's logs.

    Undefined rates enter as 0.0 (a source never offered contributes nothing
    to the analytic yield, keeping the bound conservative); the measured side
    is the run's tau with the per-cycle sample stderr of emitted tokens.
    """
    het = measure_heterogeneity(stats)
    per_cycle = [float(r.emitted) for r in stats.records]
    stderr = 0.0
    if len(per_cycle) > 1:
        stderr = float(np.std(per_cycle, ddof=1) / math.sqrt(len(per_cycle)))
    return BoundSetting(
        setting_id=setting_id,
        p_s=het.p_s if het.p_s is not None else 0.0,
        p_t=het.p_t if het.p_t is not None else 0.0,
        m=round(stats.mean_spine_len()),
        budget=config.node_budget,
        depth=config.max_tree_depth,
        tau_meas=stats.tau,
        stderr=stderr,
    )
