"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py [algebra|blocks|session ...]

Suite references are digests of the canonical reports (timing off), whole
and per record.  For every query the `session` generator can ask, the
reference is the answer computed by an independent route, and this script
fails unless the CLI gives the same answer:

* ``commutator [X,Y]``: antisymmetry, minus the swapped bracket ``[Y,X]``;
* ``inner``: the Gaussian-moment engine instead of contraction permanents;
* ``state``: the block member built by direct application of ``H - E``
  instead of the closed-form expansion.

Run it only to re-record the references for a change that is meant to alter
outputs, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")


def _cli(argv):
    from quadosc import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def suite_references(suites) -> dict:
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for suite in suites:
            path = os.path.join(tmp, f"{suite}.json")
            code, _ = _cli(workloads.suite_call(suite, path))
            with open(path) as fh:
                refs[suite] = checks.report_reference(fh.read())
            if code != checks.expected_code(refs[suite]):
                raise SystemExit(f"{suite}: exit code {code}")
    return refs


def _swap_top_bracket(text: str) -> str:
    inner = text[1:-1]
    depth = 0
    for i, ch in enumerate(inner):
        depth += ch in "[{("
        depth -= ch in "]})"
        if ch == "," and depth == 0:
            return f"[{inner[i + 1:]},{inner[:i]}]"
    raise ValueError(f"not a bracket: {text}")


def independent_answer(kind: str, item) -> str:
    from quadosc import expr, fock, jordan, weyl
    if kind == "commutator":
        return (-expr.evaluate(_swap_top_bracket(item))).render()
    if kind == "inner":
        ground = weyl.ground_state()
        bra, ket = (expr.evaluate(workloads.render_query(kind, item)[i]).apply(ground)
                    for i in (1, 2))
        return fock.gaussian_moment_inner(bra, ket).render()
    (k, n, m), rep = item
    state = jordan.build_state_direct(jordan.JordanLabel(k, n, m))
    if rep == "creation":
        return state.creation.render()
    if rep == "uvw":
        return state.uvw_poly().render()
    return state.gaussian().poly.render()


def session_reference() -> dict:
    refs, mismatches = {}, []
    for kind, item in workloads.session_universe():
        key = workloads.query_key(kind, item)
        expected = independent_answer(kind, item) + "\n"
        code, out = _cli(workloads.render_query(kind, item))
        if code != 0 or out != expected:
            mismatches.append(key)
        refs[key] = checks.digest(expected)
    if mismatches:
        raise SystemExit("CLI disagrees with the independent route on: "
                         + ", ".join(mismatches))
    return refs


def main(names) -> int:
    os.makedirs(REFERENCE, exist_ok=True)
    for name in names:
        if name == "algebra":
            data = suite_references(workloads.ALGEBRA_SUITES)
        elif name == "blocks":
            data = suite_references(workloads.BLOCKS_SUITES)
        elif name == "session":
            data = session_reference()
        else:
            raise SystemExit(f"unknown workload {name!r}")
        with open(os.path.join(REFERENCE, f"{name}.json"), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(data)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
