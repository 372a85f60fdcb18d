"""Every Python file of the repo imports only what the repo declares: the
standard library, numpy, pytest, hypothesis, the `specsum` package, or one
of the repo's own modules (such as tests/oracles.py or perfbench/spans.py).
The proof pipeline, `certify`, loads neither the step model nor `graphs`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import specsum
from specsum import certify, check, stepmodel

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


def test_certify_loads_no_step_model():
    # a fresh interpreter, with specsum from the same checkout as this one
    code = "import sys, specsum.certify; print(' '.join(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(specsum.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert {"specsum.certify", "specsum.check", "specsum.compound", "numpy"} <= loaded
    assert not loaded & {"specsum.stepmodel", "specsum.graphs", "specsum.numerics"}


def test_every_lookup_returns_the_named_base():
    # perfbench looks bases up by all three names and labels spans with .name
    for name in check.BASES:
        got = [lookup(name) for lookup in (check.base, certify.cert_base, stepmodel.candidate)]
        assert got[0] == got[1] == got[2] and got[0].name == name
