"""Verification report data model and its canonical JSON serialization.

Reports are deterministic by default: records are ordered by identity id and
wall times are zeroed, so a rerun produces byte-identical output.  Measured
per-identity times can be embedded on request (which naturally breaks byte
reproducibility).
"""

from __future__ import annotations

import json

from .operators import IdentityRecord

__all__ = ["VerificationReport", "merge_reports", "report_text", "SCHEMA"]

_VERSION = "0.1.0"


def __getattr__(name):
    """``SCHEMA``, the published report schema, read from the package on
    first use: importing this module opens no file, and loads no
    ``importlib.resources``, some 60 modules when the interpreter's start
    has not loaded them already."""
    global SCHEMA
    if name != "SCHEMA":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib.resources
    SCHEMA = json.loads(
        importlib.resources.files(__package__).joinpath("report_schema.json").read_text())
    return SCHEMA


class VerificationReport:
    """Aggregated result of one or more identity suites; each report starts
    with a list of records of its own."""

    __slots__ = ("suite", "records")
    __hash__ = None

    def __init__(self, suite: str, records=None):
        self.suite = suite
        self.records = [] if records is None else records   # (suite_name, IdentityRecord)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.records) == (other.suite, other.records)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(suite={self.suite!r}, records={self.records!r})"

    def add(self, suite_name: str, recs):
        for r in recs:
            self.records.append((suite_name, r))

    @property
    def failed(self):
        return [(s, r) for s, r in self.records if not r.ok]

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_json_dict(self, timing: bool = False) -> dict:
        ordered = sorted(self.records, key=lambda t: (t[0], t[1].id))
        records = []
        for suite_name, r in ordered:
            entry = {
                "suite": suite_name,
                "id": r.id,
                "status": r.status,
                "residual": r.residual,
                "anchor": r.anchor,
                "ms": round(r.ms, 3) if timing else 0,
            }
            if r.note:
                entry["note"] = r.note
            records.append(entry)
        return {
            "suite": self.suite,
            "environment": {"version": _VERSION, "parameter_mode": "symbolic"},
            "records": records,
            "summary": self.summary(),
        }

    def summary(self) -> dict:
        """Record counts: total, verified and failed."""
        verified = sum(1 for _, r in self.records if r.ok)
        return {"total": len(self.records), "verified": verified,
                "failed": len(self.records) - verified}

    def write_json(self, path: str, timing: bool = False):
        text = report_text(self.to_json_dict(timing=timing))
        with open(path, "w") as fh:
            fh.write(text)

    def summary_lines(self):
        by_suite = {}
        for s, r in self.records:
            tot, bad = by_suite.get(s, (0, 0))
            by_suite[s] = (tot + 1, bad + (0 if r.ok else 1))
        lines = []
        for s in sorted(by_suite):
            tot, bad = by_suite[s]
            status = "ok" if bad == 0 else f"{bad} FAILED"
            lines.append(f"{s:12s} {tot:4d} identities  {status}")
        return lines


def report_text(doc: dict) -> str:
    """The canonical text of a report document, written in one piece: the
    bytes ``json.dump(doc, fh, indent=2, sort_keys=True)`` and a newline give.

    The records, flat objects, are encoded by the C encoder with a bare
    newline between items.  A raw newline cannot occur inside an escaped
    JSON string, and no record value ends in ``}``, so every newline is an
    item separator and ``}`` newline ``{`` marks the one between records:
    two replacements give the indented layout.  The rest of the document, a few
    lines, goes through the indenting encoder."""
    head = json.dumps({**doc, "records": 0}, indent=2, sort_keys=True)
    records = "[]"
    if doc["records"]:
        flat = json.dumps(doc["records"], sort_keys=True, separators=("\n", ": "))
        records = ("[\n    {\n      " + flat[2:-2].replace("\n", ",\n      ").replace(
            "},\n      {", "\n    },\n    {\n      ") + "\n    }\n  ]")
    return head.replace('\n  "records": 0', '\n  "records": ' + records, 1) + "\n"


def merge_reports(dicts) -> dict:
    """Merge previously written report documents into a single one; raises
    ValueError for input that is not shaped like a report."""
    merged = VerificationReport("merged")
    for doc in dicts:
        if not isinstance(doc, dict) or not isinstance(doc.get("records", []), list):
            raise ValueError("a report must be a JSON object with a list of records")
        for entry in doc.get("records", []):
            if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                    and entry.get("status") in ("verified", "failed")
                    and all(isinstance(entry.get(k, ""), str)
                            for k in ("suite", "anchor", "residual", "note"))
                    and type(entry.get("ms", 0)) in (int, float)):
                raise ValueError("each record needs a string id, a status of 'verified'"
                                 " or 'failed', text fields that are strings and a"
                                 " numeric ms")
            rec = IdentityRecord(
                id=entry["id"], anchor=entry.get("anchor", ""),
                status=entry["status"], residual=entry.get("residual", ""),
                ms=entry.get("ms", 0), note=entry.get("note", ""))
            merged.records.append((entry.get("suite", "unknown"), rec))
    return merged.to_json_dict(timing=True)
