"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the argv lists to feed to ``quadosc.cli.main`` and whether to
trace.  The worker times set-up (importing quadosc and building the first
``catalogue()``), then each call from outside, with stdout captured.  It
never reads the reports' ``ms`` fields: those time only ``lhs - rhs``.
Outputs are checked by the caller, after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import quadosc
    from quadosc import cli, operators
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.install(spans.Tracer())
    t1 = time.perf_counter()
    operators.catalogue()
    t2 = time.perf_counter()

    calls = []
    for argv in spec["calls"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:   # a crash is a failed operation, not a lost pass
            code = None
            err.write(traceback.format_exc())
        calls.append({"ms": (time.perf_counter() - start) * 1000.0, "code": code,
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall_s = time.perf_counter() - t2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import sympy
    from sympy.polys.domains import GROUND_TYPES
    result = {
        "versions": {"sympy": sympy.__version__, "sympy_ground_types": GROUND_TYPES},
        "quadosc_file": quadosc.__file__,
        "setup_s": t2 - t0,
        "catalogue_s": t2 - t1,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "calls": calls,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["records_constructed"] = tracer.records
        result["span_table"] = spans.span_table(tracer)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
