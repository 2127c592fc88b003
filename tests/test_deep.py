"""The deep tier: block suites far beyond the default bounds.

Deselected by default; run with ``pytest -m deep``.
"""

import hashlib
import json

import pytest

from quadosc.cli import main

pytestmark = pytest.mark.deep


@pytest.mark.parametrize("suite, k, code, digest", [
    ("jordan", 8, 0, "e9a9127d0acd459b177303b21d79f1a7c08ac5d63ebd9cbd804b3ca3b213955c"),
    ("biortho", 8, 1, "1796d8968d3bd42435cac20b82ce153278e30913a5872fccdad42ea74b5405b9"),
    # the action records past K = 8, in the letter picture; the zzb route
    # gives the same bytes, so this digest pins one engine against the other
    ("jordan", 12, 0, "a43de3275a5d7c818db17d137a2a98964c15e06de9c93d13026d73107f16bee4"),
    # the lowering records act in the letter picture, through its symplectic inverse
    ("biortho", 12, 1, "97de0092b964bf326eb9fc3f62f6547f920076c5893d0c714d200d5a2f51f0f0"),
], ids=["jordan-8", "biortho-8", "jordan-12", "biortho-12"])
def test_block_suites_past_desk_scale(tmp_path, suite, k, code, digest):
    path = tmp_path / f"{suite}.json"
    assert main(["verify", "--suite", suite, "--max-k", str(k), "--max-n", str(k),
                 "--json", str(path)]) == code
    records = json.loads(path.read_text())["records"]
    failed = [(r["id"], r["residual"]) for r in records if r["status"] != "verified"]
    expected = [("biortho/cross-0-2-x-1-0", "m=4 x m'=0: -8*g^2")] if code else []
    assert failed == expected
    # the refactor gate where n reaches K: the member formula and the
    # recursion families past the K = 4 pins of test_cli.py
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
