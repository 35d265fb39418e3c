"""Mutation probe of the lossless core: which small edits does tier-1 miss?

Each mutant changes one operator or constant in one target function (see
``TARGETS`` and ``OPERATORS``) and runs the tests in a temporary copy of
``src/`` and ``tests/``, never in this checkout. The fast subset (``FAST``)
runs first; a mutant it misses is re-run against the full tier-1 suite
before it counts as a survivor. At most two pytest processes run at once,
each under a timeout. A mutant that times out is probed again alone, under
twice the timeouts: if it times out again it is a hang, if it fails it is a
slow failure, and either counts as a kill.

A survivor must be listed in ``EQUIVALENT`` with the reason it cannot change
behaviour; any other survivor, or a listed mutant that is killed, makes the
script exit 1. ``--list`` only enumerates the mutants and checks that every
``EQUIVALENT`` entry still names one, so it runs in about a second.

    python tests/mutants.py --list
    python tests/mutants.py                # every mutant, about 15 minutes on 2 cores

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinedec"

# Functions to mutate, by file and qualified name.
TARGETS = {
    "verify.py": ("unified_greedy_walk", "linear_verify"),
    "engine.py": ("_finish_walk", "_plan", "decode", "_Run.__init__"),
    "context.py": ("ContextIndex.extend", "ContextIndex.match"),
    "adjacency.py": ("_merge", "AdjacencyTable.successors", "AdjacencyTable.chain", "AdjacencyTable.harvest"),
    "tree.py": (
        "build_spine_tree",
        "build_iso_tree",
        "TreeBudget.__post_init__",
        "TreeBudget.split",
        "_Builder.attach",
        "_Builder.successors",
        "tree_query",
        "SpineTree.__post_init__",
    ),
    "models.py": ("_SyntheticModel.score_tree", "_SyntheticModel._fold", "_SyntheticModel.greedy_next", "ar_decode"),
}

# The test files of the target modules, plus the golden digests.
FAST = (
    "tests/test_verify.py",
    "tests/test_engine.py",
    "tests/test_context.py",
    "tests/test_adjacency.py",
    "tests/test_tree.py",
    "tests/test_models.py",
    "tests/test_golden.py",
)
FULL = ("--continue-on-collection-errors",)
JOBS = 2  # pytest processes at once

# Survivors that cannot change behaviour: (file, function, stripped source
# line, mutation) -> reason.
EQUIVALENT: dict[tuple[str, str, str, str], str] = {}

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or",
}
OPERATORS = "comparison swaps, + and -, int constants 0/1/2 raised by one, and/or, a dropped not"


@dataclass(frozen=True)
class Mutant:
    file: str
    function: str
    line: int
    col: int
    label: str
    text: str    # the original line, stripped
    source: str  # the whole mutated module

    @property
    def name(self) -> str:
        return f"{self.file}:{self.line}:{self.col} {self.function}: {self.label}"

    @property
    def key(self) -> tuple[str, str, str, str]:
        """How ``EQUIVALENT`` names a mutant; it survives edits to other lines."""
        return self.file, self.function, self.text, self.label


def _swap(op: ast.AST) -> tuple[ast.AST, str] | None:
    swapped = _SWAPS.get(type(op))
    if swapped is None:
        return None
    return swapped(), f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[swapped]}"


def _variants(node: ast.AST):
    """Yield (mutated copy of node, column, label) for each operator applied to node.

    The column is that of the operand right of the operator, so two mutants
    of one line never share one.
    """
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            swap = _swap(op)
            if swap:
                copy = ast.Compare(node.left, list(node.ops), node.comparators)
                copy.ops[k] = swap[0]
                yield copy, node.comparators[k].col_offset, swap[1]
    elif isinstance(node, ast.BinOp) and (swap := _swap(node.op)):
        yield ast.BinOp(node.left, swap[0], node.right), node.right.col_offset, swap[1]
    elif isinstance(node, ast.BoolOp) and (swap := _swap(node.op)):
        yield ast.BoolOp(swap[0], node.values), node.values[1].col_offset, swap[1]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand, node.operand.col_offset, "not x -> x"
    elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2):
        yield ast.Constant(node.value + 1), node.col_offset, f"{node.value} -> {node.value + 1}"


def _functions(tree: ast.Module):
    """Yield (qualified name, node) for module functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _splice(lines: list[str], node: ast.AST, text: str) -> str:
    """Replace node's source span with ``(text)``; line numbers stay put."""
    out = list(lines)
    first, last = node.lineno - 1, node.end_lineno - 1
    head, tail = out[first][: node.col_offset], out[last][node.end_col_offset:]
    out[first: last + 1] = [head + "(" + text + ")" + tail] + [""] * (last - first)
    return "\n".join(out) + "\n"


def enumerate_mutants() -> list[Mutant]:
    mutants = []
    for file, wanted in TARGETS.items():
        source = (PACKAGE / file).read_text()
        lines = source.splitlines()
        functions = dict(_functions(ast.parse(source)))
        missing = set(wanted) - set(functions)
        if missing:
            raise SystemExit(f"{file}: no function named {sorted(missing)}")
        for name in wanted:
            nodes = list(ast.walk(functions[name]))
            # Source positions inside an f-string are unreliable before Python 3.12.
            in_fstring = {id(n) for f in nodes if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
            for node in nodes:
                if id(node) in in_fstring:
                    continue
                for copy, col, label in _variants(node):
                    mutated = _splice(lines, node, ast.unparse(copy))
                    ast.parse(mutated)  # a splice that does not parse is a bug here
                    text = lines[node.lineno - 1].strip()
                    mutants.append(Mutant(file, name, node.lineno, col, label, text, mutated))
    return sorted(mutants, key=lambda m: (m.file, m.line, m.col, m.label))


def _pytest(workdir: Path, args: tuple[str, ...], timeout: float) -> str:
    """Run pytest in workdir; return "passed", "failed" or "timeout"."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    proc = subprocess.Popen(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and any worker it forked
            proc.wait()


def _copy(origin: Path, scratch: Path, mutant: Mutant | None = None) -> Path:
    """Copy origin's package, tests and pytest settings into a new directory."""
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(origin / part, workdir / part, ignore=ignore)
    shutil.copy2(origin / "pyproject.toml", workdir)
    if mutant is not None:
        (workdir / "src" / "spinedec" / mutant.file).write_text(mutant.source)
    return workdir


def _timed(pristine: Path, args: tuple[str, ...]) -> float:
    """Seconds the unmutated suite takes; it must pass, or no kill means anything."""
    start = time.perf_counter()
    status = _pytest(pristine, args, timeout=3600)
    if status != "passed":
        raise SystemExit(f"unmutated, `pytest {' '.join(args)}` did not pass; fix that before probing")
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="enumerate the mutants, check EQUIVALENT, run no test")
    args = parser.parse_args(argv)

    mutants = enumerate_mutants()
    stale = sorted(set(EQUIVALENT) - {m.key for m in mutants})
    if args.list:
        for m in mutants:
            print(m.name + ("  [equivalent]" if m.key in EQUIVALENT else ""))
        print(f"{len(mutants)} mutants ({OPERATORS})")
        for entry in stale:
            print(f"EQUIVALENT entry matches no mutant: {entry}")
        return 1 if stale else 0

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="spinedec-mutants-") as tmp:
        scratch = Path(tmp)
        pristine = _copy(ROOT, scratch)  # later edits to this checkout do not leak in
        fast_timeout = max(60.0, 4 * _timed(pristine, FAST))
        full_timeout = max(300.0, 4 * _timed(pristine, FULL))
        print(f"{len(mutants)} mutants; timeouts {fast_timeout:.0f} s (fast subset), "
              f"{full_timeout:.0f} s (tier-1)", flush=True)

        def probe(mutant: Mutant, scale: int = 1) -> tuple[str, str]:
            workdir = _copy(pristine, scratch, mutant)
            try:
                status, stage = _pytest(workdir, FAST, scale * fast_timeout), "fast subset"
                if status == "passed":
                    status, stage = _pytest(workdir, FULL, scale * full_timeout), "tier-1"
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            hung = ", timeout" if status == "timeout" else ""
            verdict = "SURVIVED" if status == "passed" else f"killed ({stage}{hung})"
            print(f"{verdict:27} {mutant.name}" + (" (alone)" if scale > 1 else ""), flush=True)
            return status, stage

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = dict(zip(mutants, pool.map(probe, mutants)))
        # With two probes at once a slow failure can time out: probe each timeout again alone.
        timed_out = [m for m, (status, _stage) in results.items() if status == "timeout"]
        for m in timed_out:
            results[m] = probe(m, scale=2)

    survivors = [m for m, (status, _stage) in results.items() if status == "passed"]
    hung = sum(status == "timeout" for status, _stage in results.values())
    slow = sum(results[m][0] == "failed" for m in timed_out)
    late = sum(result == ("failed", "tier-1") for result in results.values())
    unexplained = [m for m in survivors if m.key not in EQUIVALENT]
    killed_equivalent = [m for m in mutants if m.key in EQUIVALENT and m not in survivors]
    print(f"\n{len(mutants)} mutants: {len(mutants) - len(survivors)} killed ({hung} hangs, {slow} slow failures, "
          f"{late} only by tier-1), {len(survivors)} survived, {len(survivors) - len(unexplained)} of them "
          f"equivalent; {time.perf_counter() - started:.0f} s")
    for m in survivors:
        print(f"  survivor {m.name}: {EQUIVALENT.get(m.key, 'NOT EQUIVALENT: add a test that kills it')}")
    for m in killed_equivalent:
        print(f"  listed as equivalent but killed, drop it from EQUIVALENT: {m.name}")
    for entry in stale:
        print(f"  EQUIVALENT entry matches no mutant: {entry}")
    return 1 if unexplained or killed_equivalent or stale else 0


if __name__ == "__main__":
    sys.exit(main())
