"""Module layering that an import cannot check.

``import spinedec.theory`` runs the package ``__init__``, which loads every
module, so only the source shows whether the theory toolkit depends on the
decode engine or the benchmark layer. It must not: engine logs are joined to
the theory in ``bench``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import spinedec


def test_theory_imports_neither_engine_nor_bench():
    source = Path(spinedec.__file__).with_name("theory.py").read_text()
    imported: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert not imported & {"engine", "bench"}
