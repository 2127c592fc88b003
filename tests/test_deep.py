"""The deep tier: block suites far beyond the default bounds.

Deselected by default; run with ``pytest -m deep``.
"""

import hashlib
import json

import pytest

from quadosc.cli import main

pytestmark = pytest.mark.deep


@pytest.mark.parametrize("suite, code, digest", [
    ("jordan", 0, "e9a9127d0acd459b177303b21d79f1a7c08ac5d63ebd9cbd804b3ca3b213955c"),
    ("biortho", 1, "1796d8968d3bd42435cac20b82ce153278e30913a5872fccdad42ea74b5405b9"),
], ids=["jordan-0", "biortho-1"])
def test_block_suites_at_eight(tmp_path, suite, code, digest):
    path = tmp_path / f"{suite}.json"
    assert main(["verify", "--suite", suite, "--max-k", "8", "--max-n", "8",
                 "--json", str(path)]) == code
    records = json.loads(path.read_text())["records"]
    failed = [(r["id"], r["residual"]) for r in records if r["status"] != "verified"]
    expected = [("biortho/cross-0-2-x-1-0", "m=4 x m'=0: -8*g^2")] if code else []
    assert failed == expected
    # the refactor gate where n reaches 8: the member formula and the
    # recursion families past the K = 4 pins of test_cli.py
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_jordan_at_twelve(tmp_path):
    # the action records past K = 8, in the letter picture; the zzb route
    # gives the same bytes, so this digest pins one engine against the other
    path = tmp_path / "jordan.json"
    assert main(["verify", "--suite", "jordan", "--max-k", "12", "--max-n", "12",
                 "--json", str(path)]) == 0
    assert json.loads(path.read_text())["summary"]["verified"] == 10016
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "a43de3275a5d7c818db17d137a2a98964c15e06de9c93d13026d73107f16bee4"
