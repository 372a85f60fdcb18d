"""Self-test of the benchmark's correctness gate and tracer.

    python3 perfbench/selftest.py        (from the repository root)

Runs one pass over the trivial K2 certificate (bound 1) with the right
expected outcomes, then once per operation with that operation's expected
outcome made wrong, and checks that exactly the wrong one is counted as
failed. Also checks that a traced pass restores every wrapped attribute.
Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.abspath("src"))

from specsum import certify, compound, exactq  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import Context, Op, run_pass  # noqa: E402

ONE = Fraction(1)
OPS = [Op("certify", ("K2", ONE), "FOUND"),
       Op("verify", ("K2", ONE, "accepted"), "PASS"),
       Op("verify", ("K2", ONE, "perturbed"), "FAIL:identity"),
       Op("verify", ("K2", ONE, "negdiag"), "FAIL:NOT_PSD"),
       Op("cli", ("verify", ("K2", ONE, "negdiag")), (1, {"verdict": "FAIL"}))]
WRONG = ["NOT_FOUND", "FAIL:identity", "PASS", "PASS", (0, {"verdict": "FAIL"})]


def fail_rate(rec: dict) -> float:
    return rec["failed"] / rec["attempted"]


def main() -> int:
    out = os.path.join("perfbench", "out", "selftest")
    os.makedirs(out, exist_ok=True)
    ctx = Context(out=out, cli_env=dict(os.environ, PYTHONPATH=os.path.abspath("src")))
    problems = []

    originals = (certify.certify, certify.assemble, exactq.ldl_psd_check, compound.psi)
    tracer = Tracer()
    rec = run_pass(OPS, ctx, tracer)
    if fail_rate(rec) != 0:
        problems.append(f"right expectations failed: {rec['ops']}")
    if (certify.certify, certify.assemble, exactq.ldl_psd_check, compound.psi) != originals:
        problems.append("a traced pass left a wrapper installed")
    if rec["layers"].get("exactq.ldl_calls") != 3 or not rec["layers"].get("exactq.q_eval_s"):
        problems.append(f"traced pass missed LDL calls or the witness: {rec['layers']}")

    for i, wrong in enumerate(WRONG):
        ops = list(OPS)
        ops[i] = Op(OPS[i].kind, OPS[i].args, wrong)
        rec = run_pass(ops, ctx)
        bad = [k for k, o in enumerate(rec["ops"]) if not o["ok"]]
        if bad != [i] or fail_rate(rec) != 1 / len(OPS):
            problems.append(f"wrong expectation {wrong!r} for op {i} gave failures {bad}")

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
