"""Benchmark entry point: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload novel-trees --seed 1 --seconds 30 --trace 0

Prints each metric on its own line with its unit and sample count, then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds
one traced round, writes its spans to ``perfbench/out/`` as JSONL and reports
the per-layer metrics derived from that file. Exits 1 when any output is
wrong or a workload lost its defining property.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from here, before any import below

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
if not (HERE.parent / "src" / "spinedec").is_dir():
    sys.exit("perfbench: this checkout has no src/spinedec to benchmark")
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spinedec.bench import prompts_for  # noqa: E402
from spinedec.models import build_synthetic  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5


def set_up(workload: str, seed: int) -> float:
    """What a fresh process does before its first decode: import the package
    and the harness, and build the workload's prompts and models. Returns the
    seconds since this file started running, divided by the machine factor of
    `harness.speed_kernel_ns` measured right after. Interpreter start-up and
    process spawning are left out: they jitter in steps of tens of ms."""
    import harness  # its import cost is part of set-up

    spec = WORKLOADS[workload].corpus(seed)
    prompts_for(spec)
    for _ in range(spec.prompts):
        build_synthetic(spec.model)
    seconds = perf_counter() - STARTED
    factor = statistics.median(harness.speed_kernel_ns() for _ in range(7)) / harness.REFERENCE_KERNEL_NS
    return seconds / factor


def setup_seconds(workload: str, seed: int) -> list[float]:
    command = [sys.executable, str(Path(__file__).resolve()), "--set-up-only",
               "--workload", workload, "--seed", str(seed)]
    return [
        float(subprocess.run(command, check=True, timeout=120, capture_output=True,
                             text=True).stdout.split()[-1])
        for _ in range(SETUP_REPEATS)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.set_up_only:
        print(set_up(args.workload, args.seed))
        return 0

    import harness
    import summary

    work = WORKLOADS[args.workload]
    setup = setup_seconds(args.workload, args.seed) if not args.trace else []
    result = harness.measure(work, args.seed, args.seconds, trace=bool(args.trace))
    problems = list(result.problems)
    print(f"workload {work.name} seed {args.seed}: {len(result.rounds)} rounds, "
          f"{result.prompts} prompts x {work.max_tokens} tokens, machine factor "
          f"{harness.machine_factor(result.tracer):.3f} (each timing below is divided by its own)")
    print(f"lossless_failures = {result.lossless_failures} of {result.prompts} prompts")

    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{work.name}-seed{args.seed}.jsonl"
        result.tracer.write_jsonl(path)
        values, trace_problems = summary.layer_metrics(summary.load_spans(str(path)))
        problems += trace_problems
        print(f"spans: {len(result.tracer.spans)} written to {path.relative_to(HERE.parent)}")
        metrics = {name: (value, summary.LAYER_METRICS[name][0], "traced round")
                   for name, value in values.items()}
    else:
        metrics = dict(result.metrics)
        metrics["setup_s"] = (statistics.median(setup), "s", f"median of {len(setup)} fresh processes")

    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({samples})")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    correct = not problems and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
