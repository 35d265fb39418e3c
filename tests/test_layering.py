"""Module layering that an import cannot check.

``import spinedec.theory`` runs the package ``__init__``, which loads every
module, so only the source shows which modules one module depends on:

- the theory toolkit must not depend on the decode engine or the benchmark
  layer; engine logs are joined to the theory in ``bench``;
- the draft query format belongs to ``models`` and ``tree``: ``models``
  imports no other ``spinedec`` module, and ``tree`` and ``verify`` import
  neither the engine nor the benchmark layer;
- the engine never names ``ar_decode``: every engine, ``ar`` included, is
  checked against that oracle, so none may be built on it;
- the oracle never names the model's resume slot: ``score_tree`` resumes
  from the prefix it last folded, while ``greedy_next``, ``_fold`` and
  ``ar_decode`` fold every base from scratch, so a bug in the slot cannot
  pass the check that the engine's output equals the oracle's.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import spinedec


def _tree(module: str) -> ast.Module:
    return ast.parse(Path(spinedec.__file__).with_name(f"{module}.py").read_text())


def _spinedec_imports(module: str) -> set[str]:
    """Names of the ``spinedec`` modules that ``spinedec/<module>.py`` imports."""
    found: set[str] = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ("spinedec" if node.level else "", node.module or "")))
            names = [package] + [f"{package}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "spinedec":
                found.add(parts[1] if len(parts) > 1 else "spinedec")
    return found


def test_theory_imports_neither_engine_nor_bench():
    assert not _spinedec_imports("theory") & {"engine", "bench"}


def test_models_imports_no_other_spinedec_module():
    assert _spinedec_imports("models") == set()


@pytest.mark.parametrize("module", ["tree", "verify"])
def test_draft_layers_import_neither_engine_nor_bench(module):
    assert _spinedec_imports(module)  # the scan sees their real imports
    assert not _spinedec_imports(module) & {"engine", "bench"}


def _names(tree: ast.AST) -> set[str]:
    """Every name, attribute, import and definition inside ``tree``."""
    names = set()
    for node in ast.walk(tree):
        for attr in ("id", "attr", "name"):
            if isinstance(getattr(node, attr, None), str):
                names.add(getattr(node, attr))
    return names


def test_engine_does_not_name_the_oracle():
    names = _names(_tree("engine"))
    assert "decode" in names  # the scan sees the engine's own definitions
    assert "ar_decode" not in names


def test_the_oracle_does_not_name_the_resume_slot():
    functions = [node for node in ast.walk(_tree("models")) if isinstance(node, ast.FunctionDef)]
    oracle = [f for f in functions if f.name in {"greedy_next", "_fold", "ar_decode"}]
    assert {f.name for f in oracle} == {"greedy_next", "_fold", "ar_decode"}
    # The scan sees the slot where it is used.
    assert any("_resume" in _names(f) for f in functions if f.name == "score_tree")
    for function in oracle:
        assert "_resume" not in _names(function), function.name
