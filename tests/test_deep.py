"""The deep tier: block suites far beyond the default bounds.

Deselected by default; run with ``pytest -m deep``.
"""

import json

import pytest

from quadosc.cli import main

pytestmark = pytest.mark.deep


@pytest.mark.parametrize("suite, code", [("jordan", 0), ("biortho", 1)])
def test_block_suites_at_eight(tmp_path, suite, code):
    path = tmp_path / f"{suite}.json"
    assert main(["verify", "--suite", suite, "--max-k", "8", "--max-n", "8",
                 "--json", str(path)]) == code
    records = json.loads(path.read_text())["records"]
    failed = [(r["id"], r["residual"]) for r in records if r["status"] != "verified"]
    expected = [("biortho/cross-0-2-x-1-0", "m=4 x m'=0: -8*g^2")] if code else []
    assert failed == expected
