"""quadosc benchmark.

    python3 perfbench/run.py --workload {algebra,blocks,session} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; quadosc is imported from its ``src/``.

Each pass of a workload runs in a fresh interpreter, because every quadosc
invocation starts with empty caches, as one closed-loop client calling
``quadosc.cli.main`` (``--jobs 1``).  A run measures whole passes for about
``--seconds``: it starts another pass only while the run so far plus a pass
of median length fits, and always makes at least one, so a pass longer than
``--seconds`` (``algebra`` takes 30 to 50 s on a 2-core Xeon) is measured
once.  Outputs are checked after each pass, outside the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics that
BENCHMARK.json lists: set-up time (median of at least five fresh set-ups),
the median pass wall time and peak RSS; `session` also prints, per pass,
its query-kind mix, its share of repeated queries and its latencies by kind.
With ``--trace 1`` the run makes one untraced and one traced pass of the
same inputs and reports the per-layer metrics.  Failed operations are wrong,
unexpectedly failing or crashed identities and queries; they are reported as
``failed`` of ``attempted``.  Details and the machine block are printed
before the last line and written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0
SETUP_SAMPLES = 5


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_worker(calls, trace: bool, tmp: str, deadline: float) -> dict:
    spec = os.path.join(tmp, "spec.json")
    result = os.path.join(tmp, "result.json")
    with open(spec, "w") as fh:
        json.dump({"calls": calls, "trace": trace}, fh)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise HarnessError("out of time before a pass could start")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec, result],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"a pass did not end within {budget:.0f} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result) as fh:
        res = json.load(fh)
    if not os.path.abspath(res["quadosc_file"]).startswith(SRC + os.sep):
        raise HarnessError(f"quadosc imported from {res['quadosc_file']}, not {SRC}")
    return res


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


class Workload:
    """Builds the calls of each pass and checks their outputs."""

    def __init__(self, name: str, seed: int, tmp: str):
        self.name, self.seed, self.tmp = name, seed, tmp
        self.reference = load_reference(name)
        self.suites = {"algebra": workloads.ALGEBRA_SUITES,
                       "blocks": workloads.BLOCKS_SUITES}.get(name, ())

    def calls(self, index: int):
        if self.suites:
            self.queries = None
            return [workloads.suite_call(s, self._report_path(s)) for s in self.suites]
        self.queries = workloads.session_pass(self.seed, index)
        return [argv for _kind, _item, argv in self.queries]

    def _report_path(self, suite):
        return os.path.join(self.tmp, f"{suite}.json")

    def check(self, res):
        """(attempted, failed, problems, records reported) of one pass."""
        attempted = failed = records = 0
        problems = []
        if self.suites:
            for suite, call in zip(self.suites, res["calls"]):
                path = self._report_path(suite)
                text = None
                if os.path.exists(path):
                    with open(path) as fh:
                        text = fh.read()
                    os.remove(path)
                a, f, p, n = checks.check_report(text, call["code"], self.reference[suite])
                attempted, failed, records = attempted + a, failed + f, records + n
                problems += [f"{suite}: {x}" for x in p]
        else:
            for (kind, item, _argv), call in zip(self.queries, res["calls"]):
                a, f, p = checks.check_answer(workloads.query_key(kind, item),
                                              call["code"], call["stdout"], self.reference)
                attempted, failed = attempted + a, failed + f
                problems += p
        return attempted, failed, problems, records


def session_latencies(queries, calls) -> dict:
    by_kind = {}
    for (kind, _item, _argv), call in zip(queries, calls):
        by_kind.setdefault(kind, []).append(call["ms"])
    latencies = [c["ms"] for c in calls]
    out = {"session.query_p50_ms": statistics.median(latencies),
           "session.query_p90_ms": statistics.quantiles(latencies, n=10,
                                                        method="inclusive")[8]}
    out.update({f"session.{k}_p50_ms": statistics.median(v) for k, v in sorted(by_kind.items())})
    return out


def machine(res) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            **res["versions"]}


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = Workload(args.workload, args.seed, tmp)
        passes, attempted, failed, problems = [], 0, 0, []

        def one_pass(index, trace):
            nonlocal attempted, failed
            res = run_worker(wl.calls(index), trace, tmp, deadline)
            a, f, p, records = wl.check(res)
            attempted, failed = attempted + a, failed + f
            problems.extend(p)
            res["records_reported"] = records
            if wl.queries is not None:
                res["latencies"] = session_latencies(wl.queries, res["calls"])
                res["stream"] = workloads.stream_stats(wl.queries)
            passes.append(res)
            return res

        if args.trace:
            plain = one_pass(0, False)
            traced = one_pass(0, True)
            if traced["records_constructed"] != traced["records_reported"]:
                failed += 1
                problems.append(f"IdentityRecord constructions {traced['records_constructed']}"
                                f" != records reported {traced['records_reported']}")
            values = layer_values(wl, plain, traced)
            setup = [p["setup_s"] for p in passes]
        else:
            start, took = time.monotonic(), []
            while True:
                t0 = time.monotonic()
                one_pass(len(passes), False)
                took.append(time.monotonic() - t0)
                if time.monotonic() - start + statistics.median(took) > args.seconds:
                    break
            setup = [p["setup_s"] for p in passes]
            while len(setup) < SETUP_SAMPLES:
                setup.append(run_worker([], False, tmp, deadline)["setup_s"])
            values = end_to_end_values(passes, setup)

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(passes[0]), "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": setup,
        "calls_per_pass": len(passes[0]["calls"]),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "problems": problems[:50], "metrics": values,
    }
    if wl.suites:
        summary["suite_s"] = [dict(zip(wl.suites, (c["ms"] / 1000.0 for c in p["calls"])))
                              for p in passes]
    if "stream" in passes[0]:
        summary["session"] = [{**p["stream"], **p["latencies"]} for p in passes]
    if args.trace:
        summary["moves"] = metrics.MOVES
    for p in passes:
        if "span_table" in p:
            summary["span_table"] = p["span_table"]
    return summary


def metric_units(trace) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def end_to_end_values(passes, setup) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def layer_values(wl, plain, traced) -> dict:
    values = dict.fromkeys(metric_units(True), 0.0)
    values.update(traced["layers"])
    values["operators.catalogue_s"] = traced["catalogue_s"]
    spans = traced["span_table"]["spans"]
    for suite in wl.suites:
        values[f"cli.suite_s.{suite}"] = spans[f"cli.suite.{suite}"]["total_s"]
    if wl.name == "algebra":
        seconds = {s: c["ms"] / 1000.0 for s, c in zip(wl.suites, plain["calls"])}
        for crit, (suites, budget) in workloads.CRITERIA.items():
            values[f"{crit}.headroom"] = budget / sum(seconds[s] for s in suites)
    if "latencies" in plain:
        values.update(plain["latencies"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadosc", "__init__.py")):
        print(f"error: no quadosc sources under {SRC}", file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except (HarnessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    units = metric_units(args.trace)
    print(f"machine: {json.dumps(summary['machine'], sort_keys=True)}")
    print(f"{args.workload}: {summary['passes']} pass(es) of {summary['calls_per_pass']} calls,"
          f" wall {', '.join(f'{w:.2f}' for w in summary['pass_wall_s'])} s;"
          f" failed {summary['failed']} of {summary['attempted']}"
          f" (failed_ratio {summary['failed_ratio']:.4g})")
    for i, stream in enumerate(summary.get("session", ())):
        print(f"session pass {i}: {json.dumps(stream, sort_keys=True)}")
    for problem in summary["problems"]:
        print(f"FAILED {problem}")
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
