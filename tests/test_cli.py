"""Command-line interface: verbs, exit codes, report determinism."""

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap

import jsonschema
import pytest

import quadosc
from quadosc import expr, fock, weyl
from quadosc.cli import main
from quadosc.report import SCHEMA, VerificationReport
from quadosc.operators import IdentityRecord


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_state_creation_repr(capsys):
    code, out, _ = run(capsys, "state", "--k", "0", "--n", "1", "--m", "1")
    assert code == 0
    assert out.strip() == "-2*g*C+"


def test_state_json(capsys):
    code, out, _ = run(capsys, "state", "--k", "0", "--n", "1", "--m", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["creation"] == [{"word": [1, 0, 0], "coeff": "4*g^2"}]


def test_state_invalid_label(capsys):
    code, _, err = run(capsys, "state", "--k", "0", "--n", "1", "--m", "5")
    assert code == 2
    assert "outside the block" in err


def test_commutator_verb(capsys):
    code, out, _ = run(capsys, "commutator", "[H,Q+] - 4*lam*Q+")
    assert code == 0
    assert out.strip() == "0"
    # powers square repeatedly: 10^8 products would not finish
    code, out, _ = run(capsys, "commutator", "lam^99999999*g^5/lam^3")
    assert code == 0
    assert out.strip() == "lam^99999996*g^5"


def test_commutator_renders_gaussian_and_field_coefficients(capsys):
    # a Gaussian rational coefficient, rendered from its (re, im) parts
    code, out, _ = run(capsys, "commutator", "(3/2 - I/5)*lam^2*g + I*z")
    assert code == 0
    assert out == "I*z + (3/2 - 1/5*I)*lam^2*g\n"
    # coefficients over monomial denominators: H has a constant -3*lam and
    # [A-, B+] = -2*lam, so the constant term is -3*(lam^2 - g^2) - 2*I/g
    code, out, _ = run(capsys, "commutator", "(lam^2-g^2)/lam*H - [A-, B+]/(I*lam*g)")
    assert code == 0
    assert out == (
        "(lam^3 - lam*g^2)*z*zb + (lam^2*g^2 - g^4)/lam*zb^2 + (-4*lam^2*g + 4*g^3)*zb*x3"
        " + (lam^3 - lam*g^2)*x3^2 + (-4*lam^2 + 4*g^2)/lam*dz*dzb + (-lam^2 + g^2)/lam*d3^2"
        " + (-3*lam^2*g + 3*g^3 - 2*I)/g\n")


_NOT_A_UNIT = "error: cannot divide by lam - g: not a unit times a monomial\n"


@pytest.mark.parametrize("argv, err", [
    (("commutator", "H/(lam-g)"), _NOT_A_UNIT),
    (("commutator", "(lam^2-g^2)/(lam-g)*H - [A-, B+]/(I*lam+g)"), _NOT_A_UNIT),
    (("inner", "(1/(lam - g))*B+", "A+"), _NOT_A_UNIT),
    (("inner", "A+", "B+/(lam - g)"), _NOT_A_UNIT),
    (("commutator", "H/0"), "error: division by zero (at position 2)\n"),
])
def test_bad_divisor_is_a_usage_error(capsys, argv, err):
    # the coefficient ring is Q(i)[lam^±1, g^±1]: only a nonzero unit times
    # a monomial has an inverse in it
    assert run(capsys, *argv) == (2, "", err)


def _fresh_env():
    """The environment for a fresh interpreter that imports this quadosc."""
    src = os.path.dirname(os.path.dirname(quadosc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def test_suites_never_import_sympy():
    # sympy is loaded in this process already, so a fresh interpreter, in
    # which any import of sympy fails, runs the calls; a divisor that is not
    # a monomial is a usage error, not a route into a fraction field.  The
    # same calls start no process pool, so they load no multiprocessing, and
    # importing the CLI builds no parser.
    script = textwrap.dedent("""
        import contextlib, io, sys
        sys.modules["sympy"] = None
        from quadosc.cli import build_parser, main
        assert build_parser.cache_info().currsize == 0, "parser built at import"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--suite", "sp6"]) == 0
            assert main(["verify", "--suite", "jordan", "--max-k", "1", "--max-n", "1"]) == 0
            # 1: the documented red record
            assert main(["verify", "--suite", "biortho", "--max-k", "1", "--max-n", "1"]) == 1
            assert main(["verify", "--suite", "uvw", "--max-n", "1"]) == 0
            assert main(["commutator", "[A+,B-]"]) == 0
            assert main(["state", "--k", "1", "--n", "1", "--m", "2", "--repr", "uvw"]) == 0
            assert main(["inner", "A+*B+", "C+^2"]) == 0
            assert main(["inner", "(A+*B+)^2 + 3*C+^4", "2*B+^2*A+*I*A+"]) == 0
        for name in ("concurrent.futures", "multiprocessing"):
            assert name not in sys.modules, name + " imported"
        sys.exit(main(["commutator", "H/(lam-g)"]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    # the whole of stderr: the divisor named, and no traceback
    assert proc.stderr == "error: cannot divide by lam - g: not a unit times a monomial\n"


def test_python_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "quadosc", "commutator", "[H,Q+] - 4*lam*Q+"],
                          env=_fresh_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_commutator_syntax_error(capsys):
    code, _, err = run(capsys, "commutator", "[H,")
    assert code == 2
    assert "position" in err


def test_inner_verb(capsys):
    code, out, _ = run(capsys, "inner", "C+", "B+")
    assert code == 0
    assert out.strip() == "-2*g"
    code, out, _ = run(capsys, "inner", "Q+", "Q+")
    assert out.strip() == "24*lam^2"


def _inner_by_one_operator(bra, ket):
    """The exit code, stdout and stderr of `inner` by the route it took
    before its factors acted one at a time: each side evaluated to one
    operator and applied to Psi0, its creation polynomial read off the
    state's (u, v, w) form (tests/test_fock.py checks that conversion
    against the former (u, v, w) peeling); errors reported as `_cmd_inner`
    and `main` report them."""
    try:
        try:
            states = [expr.evaluate(text).apply(weyl.ground_state()) for text in (bra, ket)]
        except expr.ExprError as exc:
            return 2, "", f"error: {exc}\n"
        polys = [fock.uvw_to_creation(fock.zzb_poly_to_uvw(s.poly)) for s in states]
        return 0, fock.wick_inner(*polys).render() + "\n", ""
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"


def _letter_products():
    """Every inner item of the benchmark's session stream: two multisets of
    raising letters of one degree (1 to 3), spelt in a seeded order."""
    rng = random.Random(0)
    for degree in (1, 2, 3):
        words = [(i, j, degree - i - j) for i in range(degree + 1)
                 for j in range(degree + 1 - i)]
        for pair in itertools.product(words, repeat=2):
            sides = []
            for word in pair:
                letters = [x for x, e in zip(("A+", "B+", "C+"), word) for _ in range(e)]
                rng.shuffle(letters)
                sides.append("*".join(letters))
            yield tuple(sides)


_INNER_EDGES = [
    ("lam", "1"), ("C+", "lam*g"), ("2*A+ + g", "B+"), ("B+", "2*A+ + g"),
    ("C+^2", "C+^2"), ("(A+*B+)^2", "C+^4"), ("3*A+*I", "B+"),
    ("lam^3*(2*C+)^2*A+", "B+*C+^2"), ("(1/(lam - g))*B+", "A+"), ("A+*(-B+)", "Q+"),
    ("A+^0", "1"), ("0*A+", "B+"), ("H*A+", "B+"), ("Q-*Q+", "1"), ("E12*B+", "A+"),
    ("[A+,Q+]", "1"), ("A+*[A-,B+]", "B+"), ("Dp(1)", "1"), ("A+", "Dp(1)*B+"),
    ("u*H", "1"), ("u", "1"), ("A+", "u"), ("A+*u", "B+"), ("A+*[u,v]", "B+"),
    ("u*(H/0)", "1"), ("(H/0)*u", "1"), ("H / 0", "1"), ("A+*(H/0)", "B+"),
    ("A+*[u,H]", "B+"), ("[H,", "1"), ("A+", "[H,"), ("u", "[H,"),
]


@pytest.mark.parametrize("bra, ket", list(_letter_products()) + _INNER_EDGES)
def test_inner_matches_the_one_operator_route_byte_for_byte(capsys, bra, ket):
    assert run(capsys, "inner", bra, ket) == _inner_by_one_operator(bra, ket)


def test_inner_conjugates_each_letter_once_and_multiplies_no_operators(monkeypatch, capsys):
    # a product of raising letters is read off as its creation word: no
    # letter is conjugated and no product operator is built
    want = run(capsys, "inner", "A+*B+*C+", "C+*B+*A+")
    assert want == _inner_by_one_operator("A+*B+*C+", "C+*B+*A+")
    weyl._conjugated.cache_clear()
    products = []
    mul = weyl.WeylOperator.__mul__

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(weyl.WeylOperator, "__mul__", counting_mul)
    assert run(capsys, "inner", "A+*B+*C+", "C+*B+*A+") == want
    assert weyl._conjugated.cache_info().misses <= 3
    assert products == []


def test_inner_reads_a_raising_letter_product_as_its_word(monkeypatch, capsys):
    # scalars and raising letters make a creation word with no state built;
    # any other side is evaluated whole, acts on Psi0 and is peeled off
    sides = [("lam*(2*C+)^2*A+", "B+*I*C+^2"), ("H*A+", "B+")]
    want = [run(capsys, "inner", *pair) for pair in sides]
    calls = []
    for owner, name in ((weyl.WeylOperator, "apply"), (fock, "gaussian_state_to_creation")):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    assert run(capsys, "inner", *sides[0]) == want[0]
    assert calls == []
    assert run(capsys, "inner", *sides[1]) == want[1]
    assert "apply" in calls and "gaussian_state_to_creation" in calls


def test_tabulate_n(capsys):
    code, out, _ = run(capsys, "tabulate", "--what", "N", "--max-k", "1", "--max-n", "1")
    assert code == 0
    assert "8*lam*g^2" in out


def test_tabulate_csv(tmp_path, capsys):
    path = tmp_path / "ab.csv"
    code, out, _ = run(capsys, "tabulate", "--what", "ab", "--max-n", "2",
                       "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,p,q,a,b"
    assert any(line.startswith("1,0,0,1,-2*g") for line in lines)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "ladder", "--json", "{missing}/r.json"],
    ["tabulate", "--what", "N", "--csv", "{missing}/t.csv"],
    ["report", "--merge", "--out", "{missing}/m.json", "{report}"],
])
def test_an_unwritable_output_is_a_usage_error(tmp_path, argv):
    report = tmp_path / "r.json"
    VerificationReport("custom").write_json(str(report))
    argv = [a.format(missing=tmp_path / "missing", report=report) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "quadosc", *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write "), proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


def test_verify_single_suite_and_schema(tmp_path, capsys):
    path = tmp_path / "ladder.json"
    code, out, _ = run(capsys, "verify", "--suite", "ladder", "--json", str(path))
    assert code == 0
    assert "ladder" in out
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["summary"]["failed"] == 0
    assert all(rec["ms"] == 0 for rec in doc["records"])


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--suite", "integrals", "--json", str(p1))
    run(capsys, "verify", "--suite", "integrals", "--json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_timing_opt_in(tmp_path, capsys):
    path = tmp_path / "t.json"
    run(capsys, "verify", "--suite", "ladder", "--json", str(path), "--timing")
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert any(rec["ms"] > 0 for rec in doc["records"])


def test_verify_timing_fills_the_sp6_certificates(tmp_path, capsys):
    path = tmp_path / "sp6.json"
    run(capsys, "verify", "--suite", "sp6", "--json", str(path), "--timing")
    doc = json.loads(path.read_text())
    assert doc["records"] and all(rec["ms"] > 0 for rec in doc["records"])


def test_report_merge(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "verify", "--suite", "ladder", "--json", str(a))
    run(capsys, "verify", "--suite", "integrals", "--json", str(b))
    out_path = tmp_path / "merged.json"
    code, out, _ = run(capsys, "report", "--merge", "--out", str(out_path),
                       str(a), str(b))
    assert code == 0
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, SCHEMA)
    suites = {rec["suite"] for rec in doc["records"]}
    assert suites == {"ladder", "integrals"}


def test_report_merge_failed_records_exit_one(tmp_path, capsys):
    bad = VerificationReport("custom")
    bad.add("custom", [IdentityRecord("custom/x", "synthetic", "failed", "1")])
    src = tmp_path / "bad.json"
    bad.write_json(str(src))
    out_path = tmp_path / "merged.json"
    code, _, _ = run(capsys, "report", "--merge", "--out", str(out_path), str(src))
    assert code == 1


@pytest.mark.parametrize("doc", [
    [],                                                         # not an object
    {"records": [{"status": "verified"}]},                      # record without id
    {"records": [{"id": "x/y", "status": "weird"}]},            # status outside the enum
    {"records": [{"id": "x/y", "status": "verified", "ms": "x"}]},  # ms not a number
])
def test_report_merge_rejects_malformed_input(tmp_path, capsys, doc):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    out_path = tmp_path / "merged.json"
    code, _, err = run(capsys, "report", "--merge", "--out", str(out_path), str(src))
    assert code == 2
    assert err.startswith("error: ")
    assert not out_path.exists()


def test_usage_error_exit_code(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert main(["tabulate"]) == 2


def test_exit_code_contract_on_failure(monkeypatch, capsys):
    from quadosc import cli as climod

    def fake(args):
        return [("fake", [IdentityRecord("fake/one", "synthetic", "failed", "residual")])]

    monkeypatch.setattr(climod, "_run_suite", fake)
    code, out, _ = run(capsys, "verify", "--suite", "ladder")
    assert code == 1
    assert "FAILED fake/one" in out


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "jordan", "--max-k", "-1", "--max-n", "-1"),
    ("verify", "--suite", "ladder", "--max-n", "-1"),
    ("verify", "--suite", "ladder", "--jobs", "0"),
    ("tabulate", "--what", "N", "--max-k", "-2"),
    ("tabulate", "--what", "ab", "--max-n", "-1"),
    ("tabulate", "--what", "f-poly", "--max-p", "-1"),
])
def test_negative_bounds_and_jobs_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "must be at least" in err
    assert out == ""


def test_jobs_clamped_to_suite_count(monkeypatch, capsys):
    from quadosc import cli as climod
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    def fake(args):
        return [(args[0], [IdentityRecord(f"{args[0]}/one", "synthetic", "verified", "0")])]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(climod, "_run_suite", fake)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--jobs", "64")
    assert code == 0
    assert f"total: {len(climod.SUITES)}" in out
    assert started == [len(climod.SUITES)]
    run(capsys, "verify", "--suite", "all", "--jobs", "2")
    assert started == [len(climod.SUITES), 2]
    code, out, _ = run(capsys, "verify", "--suite", "ladder", "--jobs", "64")
    assert code == 0 and "total: 1" in out
    assert started == [len(climod.SUITES), 2]      # one suite: no pool at all


def test_real_pool_writes_the_same_report(tmp_path, capsys):
    reports = []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.json"
        code, _, _ = run(capsys, "verify", "--suite", "all", "--max-k", "1", "--max-n", "1",
                         "--json", str(path), "--jobs", jobs)
        reports.append((code, path.read_bytes()))
    assert reports[0] == reports[1]


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    label = ("state", "--k", "0", "--n", "1", "--m", "0")
    code, out, _ = run(capsys, *label, "--json")
    assert code == 0 and json.loads(out)["creation"]
    code, out, _ = run(capsys, *label)
    assert code == 0 and out == "4*g^2*A+\n"

    code, _, err = run(capsys, "verify", "--max-k", "-1")
    assert code == 2 and "must be at least" in err
    code, out, _ = run(capsys, "verify", "--suite", "ladder")
    assert code == 0 and "failed: 0" in out

    code, _, _ = run(capsys, "commutator", "[H,")
    assert code == 2
    code, out, _ = run(capsys, "commutator", "[H,Q+] - 4*lam*Q+")
    assert code == 0 and out == "0\n"

    inputs = {}
    for suite in ("ladder", "gl3", "integrals"):
        inputs[suite] = tmp_path / f"{suite}.json"
        run(capsys, "verify", "--suite", suite, "--json", str(inputs[suite]))
    for name, suites in (("first", ("ladder", "gl3")), ("second", ("integrals",))):
        out_path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "report", "--merge", "--out", str(out_path),
                         *(str(inputs[suite]) for suite in suites))
        assert code == 0
        merged = json.loads(out_path.read_text())
        assert {rec["suite"] for rec in merged["records"]} == set(suites)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from quadosc import cli as climod
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    climod.build_parser.cache_clear()
    run(capsys, "commutator", "H")
    assert built                        # the first call builds the parser lazily
    first = len(built)
    for _ in range(19):
        run(capsys, "commutator", "H")
    assert len(built) == first          # calls 2 to 20 construct none


def test_verify_all_fails_only_the_documented_record(tmp_path, capsys):
    # every suite at default bounds: the degenerate cross-block pairing is the
    # one red record, with its documented residual; any other failure, or a
    # changed residual, shows up here
    path = tmp_path / "all.json"
    code, _, _ = run(capsys, "verify", "--suite", "all", "--json", str(path))
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, SCHEMA)
    failed = [(r["suite"], r["id"], r["residual"])
              for r in doc["records"] if r["status"] == "failed"]
    assert failed == [("biortho", "biortho/cross-0-2-x-1-0", "m=4 x m'=0: -8*g^2")]
    assert doc["summary"]["failed"] == 1
    assert code == 1
    # the refactor gate: the report's bytes are pinned; an intentional report
    # change updates this digest and perfbench/reference/ together
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "b5f4ca513d5f580d374fe85e3d7f6fe3044e155c65b4e3cbfe8c401a2917f671"


@pytest.mark.parametrize("suite, want_code, digest", [
    ("jordan", 0, "5fd1cc0f7d0052547d0bea6e96581d21fcbaa92f8efb5001d2d35bacd158ee5f"),
    ("biortho", 1, "565cb997934e5e05c720fcae5274bf9118a0547a58420c52f9318e9424510396"),
], ids=["jordan", "biortho"])
def test_reports_past_desk_scale_are_pinned(tmp_path, capsys, suite, want_code, digest):
    # the same refactor gate at K = 4, where the block layers reach further;
    # biortho exits 1 on the documented record alone
    path = tmp_path / f"{suite}.json"
    code, _, _ = run(capsys, "verify", "--suite", suite, "--max-k", "4", "--max-n", "4",
                     "--json", str(path))
    assert code == want_code
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
