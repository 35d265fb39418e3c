"""Timed rounds over one workload: the model proxy, the span tracer and the
end-to-end metrics.

A round decodes every prompt with the spine engine and with the ``ar_decode``
oracle (each on a model built fresh from its spec, as ``run_prompt`` does),
runs the corpus through ``run_corpus(..., jobs=2)``, and runs the theory check.
Rounds repeat back to back in one process, a closed loop with one client.
Counts come from the first round; every later round must reproduce its
outputs exactly. A traced round, when asked for, runs last with every layer
instrumented and is never used for an end-to-end timing.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import spinedec.engine
import spinedec.theory
import spinedec.verify
from spinedec import AdjacencyTable, ContextIndex, LosslessnessError, ModelResponse, Prediction
from spinedec import ar_decode, build_synthetic, decode, dominance_scan, run_corpus, verify_bound
from spinedec.bench import prompts_for

from workloads import BOUND_SETTINGS, DOMINANCE_GRID, MC_SEED, Workload, property_problems

# Per-call cost profiles c1/c0 for the modelled speedup; c0 is 1.
COST_PROFILES = (0.005, 0.02)

# Median time of `speed_kernel_ns` on an idle core of the 2-core x86-64
# machine where the bounds in BENCHMARK.json were set (Python 3.11).
REFERENCE_KERNEL_NS = 7_000_000
_MASK64 = (1 << 64) - 1


def speed_kernel_ns() -> int:
    """Time of a fixed pure-Python loop that shares no code with spinedec:
    hash arithmetic, dict stores and a sort, the kind of work the decoder does.

    On a shared machine the speed of the same code drifts by half over
    seconds to minutes, and the kernel's time tracks the decoder's (their
    correlation was 0.75 over 100 alternating samples).
    Each timed phase is divided by its machine factor, the mean of the kernel
    just before and just after it over REFERENCE_KERNEL_NS, so timings read as
    on the idle machine, and a change to spinedec cannot move the factor.
    """
    began = perf_counter_ns()
    h = 0xCBF29CE484222325
    table = {}
    for i in range(30_000):
        h = ((h * 0x100000001B3) ^ (i + 1)) & _MASK64
        table[h & 1023] = (i, h)
    sorted(table.items())
    return perf_counter_ns() - began


class Tracer:
    """In-memory spans: name, start and end (ns), parent span, prompt id, attrs.

    Single-threaded: instrumented code must not run on worker threads.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.prompt: int | None = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter_ns(), 0, parent, self.prompt, None])
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        self.spans[index][2] = perf_counter_ns()
        self.spans[index][5] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Span for a call made by the benchmark itself; yields its attrs."""
        index = self.begin(name)
        try:
            yield attrs
        finally:
            self.end(index, attrs)

    def wrap(self, name: str, fn, describe=None):
        """``fn`` inside a span; ``describe(args, result)`` gives its attrs."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if describe is not None:
                self.spans[index][5] = describe(args, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for i, (name, start, end, parent, prompt, attrs) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent, "prompt": prompt, "attrs": attrs}) + "\n")


def positions(query) -> int:
    """Positions a call scores: the base suffix from ``scored_from`` plus the nodes."""
    return len(query.base) - query.scored_from + len(query.nodes)


def _perturbed(response: ModelResponse, vocab_size: int) -> ModelResponse:
    last = response.base[-1]
    token = (last.token + 1) % (vocab_size - 1)  # never EOS, which is vocab_size - 1
    top_k = ((token, 1.0),) + tuple(e for e in last.top_k if e[0] != token)
    return ModelResponse(base=response.base[:-1] + (Prediction(token, top_k),), nodes=response.nodes)


class CallRecorder:
    """Target-model proxy that stamps each ``score_tree`` call and counts its
    positions. With a tracer it also records a ``models.score_tree`` span.

    ``perturb`` changes the greedy token of the first call's last base
    position once, which makes the decode diverge from the oracle; the
    benchmark's own tests use it to show that divergence is counted.
    """

    def __init__(self, model, tracer: Tracer | None = None, perturb: bool = False):
        self.vocab_size = model.vocab_size
        self.eos_token = model.eos_token
        self.greedy_next = model.greedy_next
        self.stamps: list[int] = []
        self.positions: list[int] = []
        self._perturb = perturb
        self._score = model.score_tree
        if tracer is not None:
            self._score = tracer.wrap(
                "models.score_tree", model.score_tree, lambda a, r: {"positions": positions(a[0])}
            )

    def score_tree(self, query):
        self.stamps.append(perf_counter_ns())
        self.positions.append(positions(query))
        response = self._score(query)
        if self._perturb:
            self._perturb = False
            response = _perturbed(response, self.vocab_size)
        return response


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public calls into each layer in spans; undone on exit."""
    original_harvest = AdjacencyTable.harvest

    def harvest(table, items):
        index = tracer.begin("adjacency.harvest")
        try:
            items = list(items)
            original_harvest(table, items)
        finally:
            tracer.end(index)
        tracer.spans[index][5] = {"positions": len(items), "keys": len(table)}

    walked = lambda a, r: {"nodes": len(a[1]) - 1, "accepted": len(r.accepted)}  # noqa: E731
    chained = lambda a, r: {"nodes": len(a[1]), "accepted": len(r.accepted)}  # noqa: E731
    patches = [
        (spinedec.engine, "unified_greedy_walk", "verify.unified_greedy_walk", walked),
        (spinedec.engine, "linear_verify", "verify.linear_verify", chained),
        (spinedec.engine, "build_spine_tree", "tree.build_spine_tree", lambda a, r: {"nodes": len(r)}),
        (spinedec.verify, "tree_query", "tree.tree_query", None),
        (AdjacencyTable, "successors", "adjacency.successors", lambda a, r: {"hit": bool(r)}),
        (ContextIndex, "match", "context.match", lambda a, r: {"hit": bool(r.chain)}),
        (ContextIndex, "extend", "context.extend", None),
        (spinedec.theory, "monte_carlo_yield", "theory.monte_carlo_yield", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    saved.append((AdjacencyTable, "harvest", original_harvest))
    try:
        for owner, attr, name, describe in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), describe))
        AdjacencyTable.harvest = harvest
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


@dataclass
class PromptRun:
    tokens: tuple[int, ...]
    reference: tuple[int, ...]
    stats: object  # DecodeStats
    recorder: CallRecorder
    factor: float = 1.0  # machine factor while the spine engine decoded it


@dataclass
class Round:
    prompts: list[PromptRun] = field(default_factory=list)
    report: object = None  # RunReport, None when run_corpus raised
    corpus_error: str = ""
    bound_violations: int = 0
    dominance_violations: int = 0


def _digest(tokens) -> str:
    return hashlib.sha256(repr(tuple(tokens)).encode()).hexdigest()[:16]


def _decode_attrs(tokens, stats, recorder: CallRecorder) -> dict:
    offered, accepted, counts = stats.offered_by_source, stats.accepted_by_source, stats.cycle_counts
    return {
        "tokens": len(tokens),
        "digest": _digest(tokens),
        "calls": stats.model_calls,
        "proxy_calls": len(recorder.stamps),
        "positions": sum(recorder.positions),
        "bypass": counts.get("bypass", 0),
        "tree": counts.get("tree", 0),
        "fallback": counts.get("fallback", 0),
        "offered_context": offered["context"],
        "offered_transition": offered["transition"],
        "accepted_context": accepted["context"],
        "accepted_transition": accepted["transition"],
    }


def run_round(work: Workload, spec, prompts, tracer: Tracer, number: int,
              traced: bool = False, perturb: bool = False) -> Round:
    """One pass over the workload. ``traced`` instruments every layer and
    skips ``run_corpus``, whose worker threads the tracer cannot follow."""
    result = Round()
    tag = {"round": number, "traced": int(traced)}

    @contextmanager
    def timed(name: str):
        # The machine factor of a phase: the kernel just before and just after it.
        before = speed_kernel_ns()
        with tracer.span(name, **tag) as attrs:
            yield attrs
        after = speed_kernel_ns()
        attrs["factor"] = (before + after) / 2 / REFERENCE_KERNEL_NS

    with instrument(tracer) if traced else nullcontext():
        for pid, prompt in enumerate(prompts):
            tracer.prompt = pid
            with timed("engine.decode") as attrs:
                recorder = CallRecorder(build_synthetic(spec.model), tracer if traced else None,
                                        perturb=perturb and pid == 0)
                sequence, stats = decode("spine", recorder, prompt, spec.max_tokens)
            attrs.update(_decode_attrs(sequence.tokens, stats, recorder))
            spine_factor = attrs["factor"]
            with timed("models.ar_decode") as attrs:
                reference = ar_decode(build_synthetic(spec.model), prompt, spec.max_tokens)
            attrs["tokens"] = len(reference.tokens)
            result.prompts.append(PromptRun(sequence.tokens, reference.tokens, stats, recorder,
                                            spine_factor))
        tracer.prompt = None
        if not traced:
            with timed("bench.run_corpus") as attrs:
                try:
                    result.report = run_corpus(spec, "spine", jobs=2)
                except LosslessnessError as err:
                    result.corpus_error = str(err)
            attrs["tokens"] = sum(len(r.tokens) for r in result.report.results) if result.report else 0
        with timed("theory.verify_bound") as attrs:
            bound = verify_bound(BOUND_SETTINGS, trials=work.trials, seed=MC_SEED)
        attrs.update(trials=work.trials * len(BOUND_SETTINGS), violations=bound.violations)
        with timed("theory.dominance_scan") as attrs:
            rows = dominance_scan(DOMINANCE_GRID)
        result.dominance_violations = attrs["violations"] = sum(r.violation for r in rows)
    result.bound_violations = bound.violations
    return result


def modelled_speedup(runs: list[PromptRun], prompt_len: int, c1: float, c0: float = 1.0) -> float:
    """AR's modelled cost over the spine engine's, pooled over prompts.

    A call costs ``c0 + c1 * positions``. AR scores the prompt once and then
    one position per further token: ``(c0 + c1 * prompt_len) + (n - 1) * (c0 + c1)``.
    """
    spine = sum(c0 + c1 * p for run in runs for p in run.recorder.positions)
    ar = sum((c0 + c1 * prompt_len) + (len(run.tokens) - 1) * (c0 + c1) for run in runs if run.tokens)
    return ar / spine


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Measurement:
    metrics: dict[str, tuple[float, str, str]]  # name -> (value, unit, sample note)
    problems: list[str]
    attempted: int
    failed: int
    lossless_failures: int
    prompts: int
    rounds: list[Round]
    tracer: Tracer


def measure(work: Workload, seed: int, seconds: float, trace: bool = False,
            perturb: bool = False) -> Measurement:
    """Run untraced rounds for about ``seconds`` (at least one), then, with
    ``trace``, one traced round."""
    spec = work.corpus(seed)
    prompts = prompts_for(spec)
    tracer = Tracer()
    rounds: list[Round] = []
    for _ in range(3):  # the first calls also fault in the memory the kernel uses
        speed_kernel_ns()
    start = perf_counter()
    while True:
        began = perf_counter()
        rounds.append(run_round(work, spec, prompts, tracer, len(rounds), perturb=perturb))
        if len(rounds) == 1:
            # Later rounds only repeat the work; their retained results and
            # garbage would make the peak depend on how many rounds fit.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    if trace:
        rounds.append(run_round(work, spec, prompts, tracer, len(rounds), traced=True, perturb=perturb))
    untraced = rounds[:-1] if trace else rounds

    problems: list[str] = []
    attempted = failed = 0
    diverged: set[int] = set()
    first = rounds[0]
    for number, rnd in enumerate(rounds):
        for pid, run in enumerate(rnd.prompts):
            attempted += 1
            if run.tokens != run.reference:
                failed += 1
                diverged.add(pid)
            same = first.prompts[pid]
            if run.tokens != same.tokens or run.recorder.positions != same.recorder.positions:
                problems.append(f"round {number} prompt {pid}: output or calls differ from round 0")
            if len(run.recorder.stamps) != run.stats.model_calls:
                problems.append(f"round {number} prompt {pid}: proxy saw {len(run.recorder.stamps)} "
                                f"calls, DecodeStats counted {run.stats.model_calls}")
        checks = len(BOUND_SETTINGS) + len(DOMINANCE_GRID) + (0 if number >= len(untraced) else 1)
        attempted += checks
        failed += rnd.bound_violations + rnd.dominance_violations + bool(rnd.corpus_error)
    if any(r.bound_violations or r.dominance_violations for r in rounds):
        problems.append("theory check reported a bound or dominance violation")
    if any(r.corpus_error for r in untraced):
        problems.append(next(r.corpus_error for r in untraced if r.corpus_error))

    counts: dict[str, int] = {}
    for run in first.prompts:
        for kind, n in run.stats.cycle_counts.items():
            counts[kind] = counts.get(kind, 0) + n
    problems += property_problems(work, counts)

    # Cost-model cross-check: at c1 = 0 the modelled speedup is tokens over
    # calls, which must be the pooled tau the program itself reports.
    tau = modelled_speedup(first.prompts, spec.prompt_len, 0.0)
    if first.report is not None and tau != first.report.pooled_tau:
        problems.append(f"speedup at c1=0 ({tau!r}) differs from RunReport pooled tau "
                        f"({first.report.pooled_tau!r})")

    metrics = _e2e_metrics(work, spec, untraced, tracer, tau)
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB", "first round of 1 process")
    return Measurement(metrics, problems, attempted, failed, len(diverged), len(prompts),
                       rounds, tracer)


def machine_factor(tracer: Tracer) -> float:
    """Median over the untraced phases of how much slower than the reference
    the machine ran."""
    return statistics.median(attrs["factor"] for _n, _s, _e, parent, _p, attrs in tracer.spans
                             if parent is None and not attrs["traced"])


def _e2e_metrics(work, spec, untraced: list[Round], tracer: Tracer, tau: float) -> dict:
    """Timings are robust to machine noise: each phase's time is divided by
    its machine factor, a decode rate uses each prompt's median time over the
    rounds, and a per-round phase its median over the rounds."""
    per_prompt: dict[tuple[str, int], list[float]] = defaultdict(list)
    per_round: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for name, start, end, parent, prompt, attrs in tracer.spans:
        if parent is None and not attrs["traced"]:
            per_prompt[name, prompt].append((end - start) / attrs["factor"])
            per_round[name][attrs["round"]] += (end - start) / attrs["factor"]
    first = untraced[0].prompts
    spine_tokens = sum(len(run.tokens) for run in first)
    ar_tokens = sum(len(run.reference) for run in first)

    def decode_rate(name: str, tokens: int) -> float:
        ns = sum(statistics.median(per_prompt[name, pid]) for pid in range(len(first)))
        return tokens / (ns / 1e9)

    def round_median(*names: str) -> float:
        ns = statistics.median(sum(per_round[n][r] for n in names) for r in range(len(untraced)))
        return ns / 1e9

    gaps = [(b - a) / 1e6 / run.factor for rnd in untraced for run in rnd.prompts
            for a, b in zip(run.recorder.stamps, run.recorder.stamps[1:])]
    samples = f"{len(first)} prompts x {len(untraced)} rounds"
    rounds = f"median of {len(untraced)} rounds"
    pooled = f"pooled over {len(first)} prompts"
    metrics = {
        "spine_tok_s": (decode_rate("engine.decode", spine_tokens), "tok/s", samples),
        "ar_tok_s": (decode_rate("models.ar_decode", ar_tokens), "tok/s", samples),
        "verified_tok_s": (spine_tokens / round_median("bench.run_corpus"), "tok/s", rounds),
        "cycle_ms_p50": (statistics.median(gaps), "ms", f"{len(gaps)} cycles"),
        "cycle_ms_p90": (_percentile(gaps, 90), "ms", f"{len(gaps)} cycles"),
        "tau": (tau, "tok/call", pooled),
    }
    for c1 in COST_PROFILES:
        metrics[f"speedup_c1_{c1}"] = (modelled_speedup(first, spec.prompt_len, c1), "x", pooled)
    trials = work.trials * len(BOUND_SETTINGS)
    metrics["mc_trials_s"] = (trials / round_median("theory.verify_bound", "theory.dominance_scan"),
                              "trials/s", rounds)
    return metrics
