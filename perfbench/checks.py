"""Output checks.  Each returns (attempted, failed, problems), and the
report check also the number of records it read.

Suite reports are compared byte for byte with the canonical reports recorded
in ``reference/`` (timing off), record by record.  The only record allowed to
fail is the known red one, with its known residual.  Session answers are
compared with answers computed by an independent route when the reference
was made (see ``make_reference.py``).
"""

from __future__ import annotations

import hashlib
import json

KNOWN_RED = {"biortho/cross-0-2-x-1-0": "m=4 x m'=0: -8*g^2"}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_digest(entry: dict) -> str:
    return digest(json.dumps(entry, sort_keys=True))


def report_reference(report_text: str) -> dict:
    records = json.loads(report_text)["records"]
    return {"sha256": digest(report_text), "count": len(records),
            "records": {r["id"]: record_digest(r) for r in records}}


def expected_code(reference: dict) -> int:
    return 1 if any(rid in KNOWN_RED for rid in reference["records"]) else 0


def check_report(report_text, code, reference: dict):
    """A suite report against its reference: (attempted, failed, problems,
    records read).  A missing or unreadable report, a crash or an unexpected
    exit code fails every record of the suite."""
    attempted = reference["count"]
    try:
        records = json.loads(report_text)["records"] if report_text is not None else None
        ids = [r["id"] for r in records] if records is not None else None
    except (ValueError, KeyError, TypeError) as exc:
        return attempted, attempted, [f"unreadable report: {exc!r}"], 0
    if records is None or code != expected_code(reference):
        return attempted, attempted, [f"exit code {code}, report"
                                      f" {'missing' if records is None else 'present'}"], \
            len(records or ())
    problems = []
    got = dict(zip(ids, records))
    want = reference["records"]
    for rid, d in want.items():
        if rid not in got:
            problems.append(f"{rid}: missing")
        elif record_digest(got[rid]) != d:
            problems.append(f"{rid}: differs from reference")
    problems += [f"{rid}: not in reference" for rid in got if rid not in want]
    if len(records) != reference["count"]:
        problems.append(f"record count {len(records)} != {reference['count']}")
    for rid, residual in KNOWN_RED.items():
        if rid in want and not (rid in got and got[rid].get("status") == "failed"
                                and got[rid].get("residual") == residual):
            problems.append(f"{rid}: known red record missing or changed")
    unexpected = [r["id"] for r in records
                  if r.get("status") != "verified" and r["id"] not in KNOWN_RED]
    problems += [f"{rid}: unexpected failure" for rid in unexpected]
    if not problems and digest(report_text) != reference["sha256"]:
        problems.append("report bytes differ from reference")
    return attempted, min(len(problems), attempted), problems, len(records)


def check_answer(key: str, code, stdout: str, reference: dict):
    """One session query against its independently computed answer."""
    if code != 0:
        return 1, 1, [f"{key}: exit code {code}"]
    if reference.get(key) != digest(stdout):
        return 1, 1, [f"{key}: answer differs from the independent route"]
    return 1, 0, []
