import argparse
import contextlib
import functools
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import specsum
from specsum import certify, check, cli, exactq, graphs, stepmodel
from oracles import K722_SUM, PATH4_SUM, negdiag, perturbed


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def kv(out):
    d = {}
    for ln in out.splitlines():
        if ": " in ln:
            k, v = ln.split(": ", 1)
            d.setdefault(k, []).append(v)
    return {k: v[0] if len(v) == 1 else v for k, v in d.items()}


@pytest.fixture()
def k722_file(tmp_path):
    f = tmp_path / "k722.txt"
    f.write_text(graphs.format_graph(graphs.knpq(7, 2, 2)))
    return str(f)


@pytest.fixture()
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("4 3\n1 2\n2 3\n3 4\n")
    return str(f)


class TestSpectrum:
    def test_k722(self, capsys, k722_file):
        code, out = run(capsys, "spectrum", k722_file)
        assert code == 0
        assert abs(float(kv(out)["spectral_sum"]) - K722_SUM) < 1e-9

    def test_p4(self, capsys, p4_file):
        code, out = run(capsys, "spectrum", p4_file)
        assert code == 0
        assert abs(float(kv(out)["spectral_sum"]) - PATH4_SUM) < 1e-9

    def test_empty_graph(self, capsys, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text("3 0\n")
        code, out = run(capsys, "spectrum", str(f))
        assert code == 0
        assert float(kv(out)["spectral_sum"]) == 0.0

    def test_parse_error_is_usage_exit(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("2 1\n1 7\n")
        code = cli.main(["spectrum", str(f)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys):
        assert cli.main(["spectrum", "/nonexistent/g.txt"]) == 2

    @pytest.mark.parametrize("text,line", [
        ("1_0 0\n", 1),  # digit grouping in the header
        ("2 1\n1 \uff12\n", 2),  # fullwidth endpoint
        (f"{graphs.MAX_FILE_ORDER + 1} 0\n", 1),  # above the order cap
        (f"{graphs.MAX_FILE_ORDER + 1} 1\nx y\n", 1),  # refused before the edges
        ("100000 0\n", 1)])
    def test_header_and_endpoints_strict(self, capsys, tmp_path, text, line):
        f = tmp_path / "bad.txt"
        f.write_text(text, encoding="utf-8")
        code = cli.main(["spectrum", str(f)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("second", ["1 2", "2 1"])
    def test_repeated_edge_refused(self, capsys, tmp_path, second):
        f = tmp_path / "d.txt"
        f.write_text(f"2 2\n1 2\n{second}\n")
        code = cli.main(["spectrum", str(f)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: line 3: edge {second} repeats line 2\n"

    @pytest.mark.parametrize("text,err", [
        ("\n\n", "line 1: missing header 'n m'"),
        ("3\n", "line 1: expected 'n m', got '3'"),
        ("3 1\n1 2 3\n", "line 2: expected 'i j', got '1 2 3'")],
        ids=["blank", "one_token_header", "three_token_edge"])
    def test_malformed_graph_refused(self, capsys, tmp_path, text, err):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        assert cli.main(["spectrum", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_order_cap_is_accepted(self, capsys, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text(f"{graphs.MAX_FILE_ORDER} 1\n1 2\n")
        code, out = run(capsys, "spectrum", str(f))
        assert code == 0
        assert kv(out)["n"] == str(graphs.MAX_FILE_ORDER)
        assert abs(float(kv(out)["spectral_sum"]) - 1.0) < 1e-12


class TestSearch:
    def test_min_connected_n4_is_star(self, capsys):
        code, out = run(capsys, "search", "4", "--min-connected")
        d = kv(out)
        assert code == 0
        assert abs(float(d["value"]) - math.sqrt(3)) < 1e-9
        assert d["degree_sequence"] == "3 1 1 1"

    def test_max_n5_matches_conjecture_family(self, capsys):
        code, out = run(capsys, "search", "5", "--max")
        d = kv(out)
        K = graphs.knpq(5, *graphs.conjecture_pq(5))
        want = sorted((int(x) for x in K.adjacency().sum(axis=1)), reverse=True)
        assert code == 0
        assert [int(x) for x in d["degree_sequence"].split()] == want

    def test_mode_required(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["search", "4"])
        assert e.value.code == 2

    def test_module_entry_point_warns_nothing(self):
        # `python -m specsum.cli` must not find the module imported already
        src = os.path.dirname(os.path.dirname(specsum.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "specsum.cli",
                               "search", "4", "--max"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "value: " in proc.stdout


class TestOptimize:
    def test_p3_report(self, capsys):
        code, out = run(capsys, "optimize", "P3", "--restarts", "30", "--seed", "0")
        d = kv(out)
        assert code == 0
        assert abs(float(d["sigma"]) - 8 / 7) < 1e-6
        u = [float(x) for x in d["u"].split()]
        assert abs(u[0] - 2 / 7) < 1e-4 and abs(u[1] - 3 / 7) < 1e-4
        assert d["adjacency_criterion"] == "PASS"
        assert "pair_1_3" in d

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_p3_sigma_gate(self, capsys, seed):
        # the benchmark's `ssc optimize P3 --restarts 40` check
        code, out = run(capsys, "optimize", "P3", "--restarts", "40",
                        "--seed", str(seed))
        assert code == 0
        assert abs(float(kv(out)["sigma"]) - 8 / 7) <= 1e-9

    def test_p3_ellipse_residuals_at_roundoff(self, capsys):
        # the exact maximizer (2/7, 3/7, 2/7), not a climbed point 2e-8 off it
        code, out = run(capsys, "optimize", "P3", "--restarts", "200", "--seed", "0")
        assert code == 0
        resid = [float(x) for x in kv(out)["ellipse_residual"].split()]
        assert max(map(abs, resid)) <= 1e-14

    def test_restarts_cap(self, capsys):
        # refused before the Dirichlet stack of N * k floats is allocated
        n = stepmodel.MAX_RESTARTS + 1
        tracemalloc.start()
        try:
            code = cli.main(["optimize", "H6", "--restarts", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: restarts {n} is above the limit {stepmodel.MAX_RESTARTS}\n"
        assert peak < 10 ** 6

    def test_human_table(self, capsys):
        code, out = run(capsys, "--human", "optimize", "P3", "--restarts", "5")
        assert code == 0
        assert "kappa" in out and "consistent" in out

    def test_human_before_or_after_the_command(self, capsys):
        table = "  pair                  kappa  adjacent  consistent"
        outs = {}
        for argv in (["--human", "optimize", "P3"], ["optimize", "P3", "--human"],
                     ["--human", "optimize", "P3", "--human"], ["optimize", "P3"]):
            code, out = run(capsys, *argv, "--restarts", "5")
            assert code == 0
            outs[" ".join(argv)] = [ln for ln in out.splitlines()
                                    if not ln.startswith("duration_s")]
        plain = outs.pop("optimize P3")
        assert table not in plain
        for lines in outs.values():
            assert lines[:len(plain)] == plain and lines[len(plain)] == table

    def test_unknown_candidate_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["optimize", "P9"])
        assert e.value.code == 2

    def test_weights_evaluation_mode(self, capsys):
        code, out = run(capsys, "optimize", "P3", "--weights", "2/7,3/7,2/7")
        d = kv(out)
        assert code == 0
        assert abs(float(d["sigma"]) - 8 / 7) < 1e-12
        assert d["weights"] == "2/7,3/7,2/7"
        code, out = run(capsys, "optimize", "P3", "--weights", "0.25,0.5,0.25")
        assert abs(float(kv(out)["sigma"]) - 1.1403882032022075) < 1e-12

    def test_weights_validation(self, capsys):
        assert cli.main(["optimize", "P3", "--weights", "1/2,1/2"]) == 2
        assert cli.main(["optimize", "P3", "--weights", "1/2,1/2,1/2"]) == 2
        assert cli.main(["optimize", "P3", "--weights=-1/7,5/7,3/7"]) == 2
        # a token outside the grammar, a zero denominator, and values too
        # large for a float
        for tok in ("8/7/2", "1/0", "1" * 401 + "/1", "1e400"):
            assert cli.main(["optimize", "P3", "--weights", f"{tok},0,0"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        # an empty field is a field, not a separator to skip
        for text in ("2/7,,3/7,2/7", "2/7,3/7,2/7,", ",2/7,3/7,2/7", "2/7, ,2/7"):
            assert cli.main(["optimize", "P3", f"--weights={text}"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
        # fixed weights draw no random numbers: a restarts or seed with them
        # is refused, not ignored
        for extra in (["--restarts", "0"], ["--restarts", "40"], ["--seed", "1"],
                      ["--seed", "0", "--restarts", "200"]):
            assert cli.main(["optimize", "P3", "--weights", "2/7,3/7,2/7", *extra]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


class TestCertifyVerify:
    def test_trivial_round_trip(self, capsys, tmp_path):
        cert = tmp_path / "k2.txt"
        code, out = run(capsys, "certify", "K2", "--bound", "1", "--out", str(cert))
        assert code == 0
        assert kv(out)["status"] == "FOUND"
        code, out = run(capsys, "verify", str(cert))
        d = kv(out)
        assert code == 0
        assert d["identity"] == "PASS" and d["psd"] == "PSD" and d["verdict"] == "PASS"

    def test_p3_round_trip_and_corruption(self, capsys, tmp_path):
        cert = tmp_path / "p3.txt"
        code, _ = run(capsys, "certify", "P3", "--out", str(cert))
        assert code == 0
        code, out = run(capsys, "verify", str(cert))
        assert code == 0 and kv(out)["verdict"] == "PASS"

        # corrupt one Q entry by 1/10^6: exact verification must fail closed
        lines = cert.read_text().splitlines()
        entry = lines[4].split()
        assert entry[0] == "Q"
        entry[3] = exactq.format_rational(exactq.parse_rational(entry[3]) + Fraction(1, 10 ** 6))
        lines[4] = " ".join(entry)
        bad = tmp_path / "p3_bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, "verify", str(bad))
        d = kv(out)
        assert code == 1
        assert d["identity"] == "FAIL" and d["verdict"] == "FAIL"
        assert "identity_violation" in d

    @pytest.mark.parametrize("bound", ["-1/2", "-1e3", "-.5"])
    def test_negative_bound_as_its_own_argument(self, capsys, tmp_path, bound):
        code, out = run(capsys, "certify", "P3", "--bound", bound, "--max-iter", "5",
                        "--out", str(tmp_path / "p3.txt"))
        d = kv(out)
        assert code == 1 and d["status"] == "NOT_FOUND"
        assert d["bound"] == exactq.format_rational(exactq.parse_rational(bound))

    def test_bare_bound_is_usage_error(self, capsys):
        for argv in (["certify", "P3", "--bound"],
                     ["certify", "P3", "--bound", "--max-iter", "5"]):
            with pytest.raises(SystemExit) as e:
                cli.main(argv)
            assert e.value.code == 2
            assert "--bound: expected one argument" in capsys.readouterr().err

    def test_infeasible_bound_exit_code(self, capsys):
        code, out = run(capsys, "certify", "P3", "--bound", "9/8",
                        "--max-iter", "1500")
        assert code == 1
        assert kv(out)["status"] == "NOT_FOUND"

    def test_over_budget_on_every_rung_is_not_found(self, capsys, tmp_path):
        # a bound below certify.MAX_BOUND whose H6 certificate is over the
        # exact PSD check's work budget on every rung
        bound = f"{2 ** 500 * 10 ** 100 + 1}/{10 ** 100}"
        out_file = tmp_path / "h6.txt"
        code = cli.main(["certify", "H6", f"--bound={bound}", "--out", str(out_file)])
        out, err = capsys.readouterr()
        d = kv(out)
        assert code == 1 and err == ""
        assert (d["status"], d["sdp_status"], d["failing_stage"]) == \
            ("NOT_FOUND", "CONVERGED", "verify_psd")
        assert {a.split(":")[1] for a in d["attempts"].split()} == {"OVER_BUDGET"}
        assert not out_file.exists()

    def test_max_iter_below_one_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "p3.txt"
        code = cli.main(["certify", "P3", "--max-iter", "-5", "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: max_iter must be >= 1\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("bound", [["--bound", "1e400"], ["--bound=-1e400"],
                                       ["--bound", "1e308"]], ids=["1e400", "-1e400", "1e308"])
    def test_bound_beyond_the_float_solve_is_usage_error(self, capsys, tmp_path, bound):
        # 1e400 is beyond the float range; 1e308 is inside it, but the
        # solver's sums of entries that size overflow
        out_file = tmp_path / "p3.txt"
        code = cli.main(["certify", "P3", *bound, "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: bound must be at most 2^512 in absolute value\n"
        assert not out_file.exists()

    def test_verify_unknown_base_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "u.txt"
        f.write_text("candidate K9\nbound 1/1\n2 1 3\nT 0 0 1/1\n")
        assert cli.main(["verify", str(f)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: unknown certificate base 'K9'")

    def test_verify_refuses_underscore_token(self, capsys, tmp_path):
        # "1_0/1" is a Fraction literal on Python >= 3.11 only; the
        # certificate grammar refuses it on every interpreter
        f = tmp_path / "u.txt"
        f.write_text("candidate K2\nbound 1/1\n2 1 3\nT 0 0 1_0/1\n")
        assert cli.main(["verify", str(f)]) == 2
        assert capsys.readouterr().err == "error: line 4: bad rational '1_0/1'\n"

    # a header keyword with no value after it
    @pytest.mark.parametrize("head,line", [("candidate \nbound 1/1\n", 1),
                                           ("candidate K2\nbound \n", 2)],
                             ids=["candidate", "bound"])
    def test_verify_refuses_empty_header_value(self, capsys, tmp_path, head, line):
        f = tmp_path / "h.txt"
        f.write_text(head + "2 1 3\nT 0 0 1/1\n")
        assert cli.main(["verify", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}") and len(err.splitlines()) == 1

    def test_verify_refuses_fullwidth_header(self, capsys, tmp_path):
        # int() takes "３" (fullwidth three); header integers are ASCII only
        f = tmp_path / "w.txt"
        f.write_text("candidate K2\nbound 1/1\n2 1 \uff13\nT 0 0 1/1\n")
        assert cli.main(["verify", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3") and "Traceback" not in err

    @pytest.mark.parametrize("text,err", [
        ("candidate K2\nbound 1/1\n2 1\nT 0 0 1/1\n",
         "line 3: expected '2 1 3', the k m dimQ of base K2"),
        ("candidate K2\nbound 1/1\n2 1 3\nQ 0 0 1/1\nQ 1 1\nT 0 0 1/1\n",
         "line 5: expected 'Q r s p/q' or 'T r s p/q'")],
        ids=["two_token_header", "short_row"])
    def test_verify_refuses_malformed_certificate(self, capsys, tmp_path, text, err):
        f = tmp_path / "c.txt"
        f.write_text(text)
        assert cli.main(["verify", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_verify_wrong_dimensions_fail_identity(self, capsys, tmp_path):
        # a P3 certificate must have k m dimQ = 3 3 12. A file with 4 6 30 is
        # refused as it is read, before Q is allocated; a Certificate built
        # in memory with those dimensions fails the identity on them
        f = tmp_path / "c.txt"
        f.write_text("candidate P3\nbound 8/7\n4 6 30\nT 0 0 8/7\n")
        assert cli.main(["verify", str(f)]) == 2
        assert capsys.readouterr() == \
            ("", "error: line 3: expected '3 3 12', the k m dimQ of base P3\n")
        zero = exactq._ZERO
        cert = check.Certificate("P3", Fraction(8, 7), 4, 6, ((zero,) * 30,) * 30,
                                 ((zero,) * 6,) * 6)
        assert check.verify_identity(cert).violations == (("dims", 0, 0, (4, 6), (3, 3)),)


@functools.lru_cache(maxsize=None)
def p3_certificate_text() -> str:
    from specsum import certify as ct

    return ct.format_certificate(ct.certify(ct.cert_base("P3"), Fraction(8, 7)).certificate)


#: the wall-clock limit on one `ssc verify` of a mutant; a valid P3
#: certificate takes a few milliseconds
MUTANT_SECONDS = 2.0


#: the mutations that break the grammar, each refused with exit 2 as the
#: file is read; the others may also give a false certificate (exit 1)
MALFORMED = ("header", "duplicate", "split", "join", "reorder", "lower", "range", "zero",
             "tag", "t_first")


def mutant(kind: str, data) -> str:
    """The P3 certificate with one mutation of this kind, drawn from data;
    each one makes the file malformed or false."""
    text = p3_certificate_text()
    lines = text.splitlines()
    toks = [(ln, t) for ln, row in enumerate(lines) for t in range(len(row.split()))]
    body = st.integers(3, len(lines) - 1)
    first_t = next(at for at, ln in enumerate(lines) if ln.startswith("T "))

    def put(ln, t, tok):
        row = lines[ln].split()
        row[t] = tok
        lines[ln] = " ".join(row)

    if kind == "swap":  # two tokens of different text trade places
        (la, ta), (lb, tb) = data.draw(st.tuples(st.sampled_from(toks), st.sampled_from(toks)))
        a, b = lines[la].split()[ta], lines[lb].split()[tb]
        assume(a != b)
        put(la, ta, b)
        put(lb, tb, a)
    elif kind == "truncate":  # cut anywhere before the last line ends
        return text[:data.draw(st.integers(0, len(text) - len(lines[-1]) - 1))]
    elif kind == "drop":  # an entry line goes missing
        del lines[data.draw(body)]
    elif kind == "duplicate":  # an entry line appears twice in a row
        at = data.draw(body)
        lines.insert(at, lines[at])
    elif kind == "split":  # an entry line broken across two lines
        at = data.draw(body)
        row = lines[at].split()
        cut = data.draw(st.integers(1, len(row) - 1))
        lines[at:at + 1] = [" ".join(row[:cut]), " ".join(row[cut:])]
    elif kind == "join":  # two adjacent entry lines on one line
        at = data.draw(st.integers(3, len(lines) - 2))
        lines[at:at + 2] = [lines[at] + " " + lines[at + 1]]
    elif kind == "huge":
        ln, t = data.draw(st.sampled_from(toks))
        put(ln, t, data.draw(st.sampled_from(
            ["9" * 600, "1/" + "7" * 498, "-" + "9" * 499, "1e500", "1/1e500"])))
    elif kind == "reorder":  # two entry lines trade places
        a, b = data.draw(st.lists(body, min_size=2, max_size=2, unique=True))
        lines[a], lines[b] = lines[b], lines[a]
    elif kind == "lower":  # an entry below the diagonal: r > s
        at = data.draw(st.sampled_from([at for at in range(3, len(lines))
                                        if len(set(lines[at].split()[1:3])) == 2]))
        tag, r, s, x = lines[at].split()
        lines[at] = f"{tag} {s} {r} {x}"
    elif kind == "range":  # an index at or past the size of its matrix
        at = data.draw(body)
        size = 12 if at < first_t else 3
        put(at, data.draw(st.sampled_from([1, 2])), str(data.draw(st.integers(size, 10 ** 30))))
    elif kind == "zero":  # an explicit zero
        put(data.draw(body), 3, data.draw(st.sampled_from(["0/1", "-0/3", "0.0e5", "0", "+.0"])))
    elif kind == "tag":  # an unknown tag
        tag = data.draw(st.text("QTRqt#0", min_size=1, max_size=3).filter(
            lambda t: t not in ("Q", "T")))
        put(data.draw(body), 0, tag)
    elif kind == "t_first":  # a T line before a Q line
        lines.insert(data.draw(st.integers(3, first_t - 1)), lines.pop(data.draw(
            st.integers(first_t, len(lines) - 1))))
    else:  # "header": a "k m dimQ" other than P3's
        head = data.draw(st.sampled_from([(4, 6, 30), (3, 3, 10 ** 600), (2, 1, 3)])
                         | st.tuples(*[st.integers(0, 10 ** 600) | st.integers(0, 40)] * 3))
        assume(head != (3, 3, 12))
        lines[2] = " ".join(map(str, head))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["swap", "truncate", "huge", "drop", *MALFORMED]), data=st.data())
def test_mutated_certificate_fails_closed(kind, data):
    text = mutant(kind, data)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "mutant.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", path])
        elapsed = time.perf_counter() - t0
    assert code in ((2,) if kind in MALFORMED else (1, 2))
    assert elapsed < MUTANT_SECONDS
    if code == 2:
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1
    else:
        assert "verdict: FAIL" in out.getvalue()


def test_blank_lines_between_body_rows_still_pass(capsys, tmp_path):
    lines = p3_certificate_text().splitlines()
    blanks = ["", "   ", "\t", " \t "]
    body = [x for at, row in enumerate(lines[3:]) for x in (blanks[at % len(blanks)], row)]
    f = tmp_path / "c.txt"
    f.write_text("\n".join(lines[:3] + body) + "\n")
    code, out = run(capsys, "verify", str(f))
    assert code == 0 and kv(out)["verdict"] == "PASS"


_DIGITS = st.text("0123456789", min_size=1, max_size=30)
_SIGN = st.sampled_from(["", "+", "-"])
#: tokens of the parse_rational grammar: integers up to its length limit and
#: beyond, p/q with any denominator, and decimals with exponents on both
#: sides of its exponent limit
BOUND_TOKENS = st.one_of(
    st.tuples(_SIGN, _DIGITS | st.integers(0, 10 ** 500).map(str)),
    st.tuples(_SIGN, _DIGITS, st.just("/"), _DIGITS),
    st.tuples(_SIGN, _DIGITS | st.just(""), st.just("."), _DIGITS,
              st.sampled_from(["e", "E", "e+", "e-"]), st.integers(0, 520).map(str)),
).map("".join)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tok=BOUND_TOKENS)
def test_certify_fails_closed_on_any_bound(tok):
    with tempfile.TemporaryDirectory() as d:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # a separate token, so a negative one goes through cli.main's glue
            code = cli.main(["certify", "P3", "--bound", tok, "--max-iter", "1",
                             "--out", os.path.join(d, "p3.txt")])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


class TestCompound:
    def test_exact_matrix(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("3\n2 1/2 0\n1/2 1 -1\n0 -1 3\n")
        code, out = run(capsys, "compound", str(f), "2")
        d = kv(out)
        assert code == 0
        assert d["arithmetic"] == "exact" and d["dim"] == "3"
        assert d["row"][0].split() == ["3/1", "-1/1", "0/1"]

    def test_k1_is_identity_map(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2\n5 -1\n-1 2\n")
        code, out = run(capsys, "compound", str(f), "1")
        d = kv(out)
        assert d["row"][0].split() == ["5/1", "-1/1"]

    def test_kn_is_trace(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2\n5 -1\n-1 2\n")
        code, out = run(capsys, "compound", str(f), "2")
        assert kv(out)["row"] == "7/1"

    def test_no_float_fallback(self, capsys, tmp_path):
        # tokens outside the exact grammar are refused, not read as floats
        for tok in ("1_0", "\uff11", "1" * 501):
            f = tmp_path / "m.txt"
            f.write_text(f"2\n{tok} 0\n0 2\n", encoding="utf-8")
            assert cli.main(["compound", str(f), "2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: line 2: ") and err.count("\n") == 1

    def test_unparseable_either_way(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2\n1.5e0x 0\n0 1\n")
        assert cli.main(["compound", str(f), "1"]) == 2

    def test_output_size_cap(self, capsys, tmp_path):
        # C(16, 8) = 12870: refused before a 12870^2 matrix is allocated
        f = tmp_path / "m.txt"
        f.write_text("16\n" + "".join(" ".join("1" if r == c else "0" for c in range(16)) + "\n"
                                      for r in range(16)))
        tracemalloc.start()
        try:
            code = cli.main(["compound", str(f), "8"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: the compound has C(16,8) = 12870 rows, "
                       f"above the limit {check.MAX_COMPOUND_DIM}\n")
        assert peak < 10 ** 6

    @pytest.mark.parametrize("text,err", [
        ("", "line 1: missing dimension"),
        ("0\n", "line 1: dimension must be >= 1"),
        ("2\n1 0\n0 1\n1 1\n", "line 4: more than 2 rows")],
        ids=["empty", "zero_dim", "extra_row"])
    def test_malformed_matrix_refused(self, capsys, tmp_path, text, err):
        f = tmp_path / "m.txt"
        f.write_text(text)
        assert cli.main(["compound", str(f), "1"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_blank_lines_between_rows_accepted(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2\n\n5 -1\n\n\n-1 2\n\n")
        code, out = run(capsys, "compound", str(f), "1")
        assert code == 0
        assert kv(out)["row"] == ["5/1 -1/1", "-1/1 2/1"]

    def test_bad_k(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2\n1 0\n0 1\n")
        assert cli.main(["compound", str(f), "3"]) == 2


class TestSeedFallback:
    def test_seed_defaults_to_zero(self, capsys):
        code, out = run(capsys, "optimize", "P3", "--restarts", "5")
        assert code == 0
        assert kv(out)["seed"] == "0"
        _, explicit = run(capsys, "optimize", "P3", "--restarts", "5", "--seed", "0")
        assert out.split("duration_s")[0] == explicit.split("duration_s")[0]

    def test_certify_reads_no_seed(self, capsys, tmp_path):
        # certify draws no random number, so it reports no seed
        code, out = run(capsys, "certify", "K2", "--out", str(tmp_path / "k2.txt"))
        assert code == 0
        assert "seed" not in kv(out) and "tol" not in kv(out)


class TestDeterminism:
    def test_identical_reports_modulo_duration(self, capsys):
        def strip(out):
            return [ln for ln in out.splitlines() if not ln.startswith("duration")]

        _, o1 = run(capsys, "optimize", "H5", "--restarts", "10", "--seed", "2")
        _, o2 = run(capsys, "optimize", "H5", "--restarts", "10", "--seed", "2")
        assert strip(o1) == strip(o2)


def run_python(code: str) -> subprocess.CompletedProcess:
    """code in a fresh interpreter that imports specsum from this checkout."""
    src = os.path.dirname(os.path.dirname(specsum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


class TestImports:
    def test_verify_loads_no_numpy(self, tmp_path):
        # every verdict, the failing ones included, is reached without numpy
        cert = certify.certify(certify.cert_base("P3"), Fraction(8, 7)).certificate
        for variant, code, lines in [
                (None, 0, ["identity: PASS", "psd: PSD", "verdict: PASS"]),
                (perturbed, 1, ["identity: FAIL", "psd: SKIPPED", "verdict: FAIL"]),
                (negdiag, 1, ["identity: PASS", "psd: NOT_PSD", "verdict: FAIL"])]:
            f = tmp_path / f"p3.{variant.__name__ if variant else 'pass'}.txt"
            f.write_text(certify.format_certificate(cert if variant is None else variant(cert)))
            # a failed assert would exit 1 as well, so the child prints what it saw
            proc = run_python(
                "import sys; from specsum.cli import main; code = main(['verify', %r]); "
                "print('numpy loaded:', 'numpy' in sys.modules); sys.exit(code)" % str(f))
            assert proc.returncode == code, (f.name, proc.stderr)
            assert {"numpy loaded: False", *lines} <= set(proc.stdout.splitlines()), f.name

    def test_compound_loads_no_numpy(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("3\n1 2 0\n-1/2 0 3\n0 0 5\n")
        proc = run_python(
            "import sys; from specsum.cli import main; code = main(['compound', %r, '2']); "
            "assert 'numpy' not in sys.modules, 'numpy loaded'; sys.exit(code)" % str(f))
        assert proc.returncode == 0, proc.stderr
        assert "row: 1/1 3/1 0/1" in proc.stdout

    def test_package_import_loads_no_numpy(self):
        proc = run_python("import sys, specsum; assert 'numpy' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    def test_checker_needs_only_stdlib_and_exactq(self):
        proc = run_python(
            "import sys; before = set(sys.modules); import specsum.check; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
        assert proc.returncode == 0, proc.stderr
        new = proc.stdout.split()
        ours = [m for m in new if m.split(".")[0] == "specsum"]
        assert ours == ["specsum", "specsum.check", "specsum.exactq"]
        assert all(m.split(".")[0] in sys.stdlib_module_names for m in new if m not in ours)


class TestParser:
    def test_subcommands_and_choices_unchanged(self):
        (subs,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        assert list(subs.choices) == ["spectrum", "search", "optimize", "certify",
                                      "verify", "compound"]
        choices = {(cmd, a.dest): a.choices for cmd, p in subs.choices.items()
                   for a in p._actions if a.choices is not None}
        assert choices == {("optimize", "candidate"): ["H5", "H6", "P3", "P4"],
                           ("certify", "candidate"): ["H5", "H6", "K2", "P3", "P4"]}
        modes = {a.option_strings[0]: a.const for a in subs.choices["search"]._actions
                 if a.dest == "mode"}
        assert modes == {"--max": graphs.MAX, "--min-connected": graphs.MIN_CONNECTED}
