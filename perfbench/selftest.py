"""Self-test of the benchmark harness (about 10 s).

    python3 perfbench/selftest.py

Checks that the output checks catch tampering: at small bounds, a changed
residual, a dropped known red record, a flipped status, a dropped record or a
truncated report each make ``failed`` positive, while the untampered report
passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def small_report() -> str:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from quadosc import cli
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "biortho.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", "biortho", "--max-k", "1", "--max-n", "2",
                             "--json", path])
        assert code == 1, code
        with open(path) as fh:
            return fh.read()


def tampered(text, edit):
    doc = json.loads(text)
    edit(doc["records"])
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def check_tampering():
    text = small_report()
    ref = checks.report_reference(text)
    (red,) = checks.KNOWN_RED

    def set_red_residual(records):
        next(r for r in records if r["id"] == red)["residual"] = "-7*g^2"

    def drop_red(records):
        records[:] = [r for r in records if r["id"] != red]

    def flip_first_verified(records):
        rec = next(r for r in records if r["status"] == "verified")
        rec["status"], rec["residual"] = "failed", "1"

    def drop_first_verified(records):
        records.remove(next(r for r in records if r["status"] == "verified"))

    attempted, failed, problems, records = checks.check_report(text, 1, ref)
    assert attempted == records == ref["count"] > 0 and failed == 0, problems
    for edit in (set_red_residual, drop_red, flip_first_verified, drop_first_verified):
        _, failed, _, _ = checks.check_report(tampered(text, edit), 1, ref)
        assert failed > 0, f"{edit.__name__} went unnoticed"
    _, failed, _, _ = checks.check_report(text, 0, ref)
    assert failed > 0, "an unexpected exit code went unnoticed"
    for broken in (text[:len(text) // 2], "{}", "[]"):
        _, failed, _, records = checks.check_report(broken, 1, ref)
        assert failed == attempted and records == 0, f"unreadable report {broken[:20]!r}"
    answer = {"q": checks.digest("0\n")}
    assert checks.check_answer("q", 0, "0\n", answer)[1] == 0
    assert checks.check_answer("q", 0, "1\n", answer)[1] == 1
    assert checks.check_answer("q", 1, "0\n", answer)[1] == 1


if __name__ == "__main__":
    check_tampering()
    print("selftest passed")
