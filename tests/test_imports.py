"""Every Python file of the repo imports only what the repo declares: the
standard library, numpy, pytest, hypothesis, the `specsum` package, or one
of the repo's own modules (such as tests/oracles.py or perfbench/spans.py)."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARED = {"numpy", "pytest", "hypothesis", "specsum"}


def imported_names(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_declared():
    files = sorted(p for d in ("src", "tests", "scripts", "perfbench")
                   for p in (ROOT / d).rglob("*.py"))
    assert ROOT / "src" / "specsum" / "check.py" in files
    allowed = set(sys.stdlib_module_names) | DECLARED | {p.stem for p in files}
    bad = [f"{p.relative_to(ROOT)}: {name}" for p in files for name in imported_names(p)
           if name.partition(".")[0] not in allowed]
    assert not bad
