"""Command-line front end: run verification suites, tabulate coefficient
families, print block members, and evaluate ad-hoc operator expressions.

Exit codes: 0 when everything verified, 1 when any identity failed, 2 for
usage errors, 141 (128 + SIGPIPE) when the reader closed standard output
before the command finished writing, as ``quadosc verify | head -1`` can.
JSON reports are canonical and byte-reproducible by default; pass --timing
to embed measured per-identity wall times.

Each command loads only the modules it runs: :mod:`quadosc.biortho` loads
with the ``biortho`` suite or ``tabulate --what N``, and :mod:`quadosc.expr`
with ``commutator`` and ``inner``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import operator
import os
import sys

from . import operators as _ops
from . import jordan as _jordan
from . import fock as _fock
from .coeff import ParamScalar
from .jordan import JordanLabel
from .report import VerificationReport, merge_reports, report_text
from .weyl import ground_state

# Bounds that some sub-suites keep whatever --max-k and --max-n ask for.
# Changing one changes the records, so it moves the report's digest.
STRUCTURE_CAP = 3        # q identities, orthogonalization, auxiliary relations, uvw
CROSS_BLOCK_CAP = 2      # cross-block pairs, in k and in n
ORACLE_MAX_TOTAL = 4     # combined word degree of the two pairing engines' agreement
RECURSION_MIN_N = 6      # the coefficient recursions check n up to at least this
AUXILIARY_MAX_P = 4      # powers of the raising letters in the auxiliary relations

EXIT_CLOSED_PIPE = 141   # 128 + SIGPIPE: what a shell reports when a closed pipe ends a process


def _biortho_suite(k, n):
    """The sub-suites of ``biortho``.  Its module loads on the first call:
    no other command but ``tabulate --what N`` uses it."""
    from . import biortho
    return [
        biortho.verify_normalization(k, n),
        biortho.verify_T_vanishing(k, n),
        biortho.verify_q_identities(min(k, STRUCTURE_CAP), min(n, STRUCTURE_CAP)),
        biortho.verify_gram_blocks(k, n),
        biortho.verify_orthogonalization(min(k, STRUCTURE_CAP), min(n, STRUCTURE_CAP)),
        biortho.verify_reference_phi_blocks(),
        biortho.verify_adjoint_rules(),
        biortho.verify_cross_block_orthogonality(min(k, CROSS_BLOCK_CAP),
                                                 min(n, CROSS_BLOCK_CAP)),
        biortho.verify_oracle_agreement(ORACLE_MAX_TOTAL)]


# Each suite's sub-suites, called at the CLI bounds (max_k, max_n) in report
# order; each returns its list of records.
_SUITES = {
    "ladder": lambda k, n: [_ops.verify_ladder_relations(), _ops.verify_q_factorization()],
    "algebra": lambda k, n: [_ops.verify_nine_dim_algebra()],
    "gl3": lambda k, n: [_ops.verify_gl3()],
    "boson": lambda k, n: [_ops.verify_boson_layer()],
    "sp6": lambda k, n: [_ops.verify_sp6_osp16_closure()],
    "integrals": lambda k, n: [_ops.verify_integrals_cubic_algebra()],
    "jordan": lambda k, n: [
        _jordan.verify_jordan_layer(k, n),
        _jordan.verify_coefficient_recursions(max(RECURSION_MIN_N, n)),
        _jordan.verify_auxiliary_relations(min(n, STRUCTURE_CAP), AUXILIARY_MAX_P),
        _jordan.verify_ladder_actions(k, n),
        _jordan.verify_special_actions(k, n)],
    "uvw": lambda k, n: [_jordan.verify_uvw_layer(min(n, STRUCTURE_CAP))],
    "biortho": _biortho_suite,
    "picture": lambda k, n: [_fock.verify_letter_picture()],
}
SUITES = tuple(_SUITES)


def _run_suite(args):
    """Top-level worker so suite fan-out can cross process boundaries: the
    records of suite ``name``, one (name, records) pair per sub-suite."""
    name, max_k, max_n = args
    return [(name, records) for records in _SUITES[name](max_k, max_n)]


def _cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    report = VerificationReport(args.suite)
    tasks = [(name, args.max_k, args.max_n) for name in names]
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        # imported here, so that a one-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_suite, tasks))
    else:
        chunks = [_run_suite(t) for t in tasks]
    for chunk in chunks:
        for suite_name, recs in chunk:
            report.add(suite_name, recs)
    for line in report.summary_lines():
        print(line)
    for _suite_name, rec in report.failed:
        print(f"FAILED {rec.id}: residual {rec.residual}"
              + (f"  [{rec.note}]" if rec.note else ""))
    total = report.summary()
    print(f"total: {total['total']}  verified: {total['verified']}"
          f"  failed: {total['failed']}")
    if args.json:
        try:
            report.write_json(args.json, timing=args.timing)
        except OSError as exc:
            raise ValueError(f"cannot write report: {exc}") from exc
        print(f"report written to {args.json}")
    return report.exit_code


@contextlib.contextmanager
def _writing(path, **open_args):
    """``path`` opened for writing; an OSError is a usage error."""
    try:
        with open(path, "w", **open_args) as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_table(rows, header, csv_path):
    if csv_path:
        import csv   # here, so that no other command loads it
        with _writing(csv_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"table written to {csv_path}")
        return
    widths = [max(len(str(r[i])) for r in ([header] + rows)) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _cmd_tabulate(args) -> int:
    rows = []
    if args.what == "ab":
        header = ["n", "p", "q", "a", "b"]
        for n in range(args.max_n + 1):
            for p in range(n + 1):
                for q in range(p + 1):
                    a = _jordan.coeff_a(n, p, q).render()
                    b = (_jordan.coeff_b(n, p, q).render() if p <= n - 1 else "")
                    rows.append([n, p, q, a, b])
    elif args.what == "N":
        from .biortho import normalization
        header = ["k", "n", "N"]
        for k in range(args.max_k + 1):
            for n in range(args.max_n + 1):
                rows.append([k, n, normalization(k, n).render()])
    elif args.what == "ladder-coeffs":
        header = ["op", "k", "n", "m", "k'", "n'", "m'", "coefficient"]
        for k in range(args.max_k + 1):
            for n in range(args.max_n + 1):
                for m in range(2 * n + 1):
                    label = JordanLabel(k, n, m)
                    for op_name in ("A+", "B+", "C+", "A-", "B-", "C-"):
                        for tgt, c in _jordan.ladder_apply(op_name, label):
                            rows.append([op_name, k, n, m, tgt.k, tgt.n, tgt.m,
                                         c.render()])
    elif args.what == "f-poly":
        header = ["p", "q", "polynomial"]
        for p in range(args.max_p + 1):
            for q in range((p + 1) // 2, 2 * p + 1):
                f = _jordan.f_polynomial(p, q)
                if not f.is_zero():
                    rows.append([p, q, f.render()])
    _write_table(rows, header, args.csv)
    return 0


def _cmd_state(args) -> int:
    state = _jordan.build_state(JordanLabel(args.k, args.n, args.m))
    if args.json:
        print(json.dumps(state.to_json(), indent=2, sort_keys=True))
        return 0
    if args.repr == "creation":
        print(state.creation.render())
    elif args.repr == "uvw":
        print(state.uvw_poly().render())
    else:
        print(state.gaussian().poly.render())
    return 0


def _cmd_commutator(args) -> int:
    from . import expr
    print(expr.evaluate(args.expr).render())
    return 0


def _word(node):
    """The creation polynomial of ``node`` when it is a product or power of
    scalar leaves and the raising letters A+, B+, C+, which commute; else
    None."""
    if node.kind in ("product", "power"):
        parts = []
        for child in node.children:
            part = _word(child)
            if part is None:
                return None
            parts.append(part)
        if node.kind == "power":
            return parts[0] ** int(node.value)
        return functools.reduce(operator.mul, parts)
    if node.kind == "name" and (letter := _fock.CreationPolynomial.letter(node.name)) is not None:
        return letter
    if node.kind in ("scalar", "name"):
        from . import expr
        value = expr._evaluate(node)
        if isinstance(value, ParamScalar):
            return _fock.CreationPolynomial.word(0, 0, 0, value)
    return None


def _creation_from_expr(text):
    """The creation polynomial of the state an expression makes of Psi0.  A
    product of scalars and raising letters is read off as its word; any other
    expression is evaluated whole, applied to Psi0 and its words peeled off,
    so that the evaluator and ``apply`` raise their own errors."""
    from . import expr
    node = expr.parse(text)
    creation = _word(node)
    if creation is None:
        creation = _fock.gaussian_state_to_creation(expr.evaluate(node).apply(ground_state()))
    return creation


def _cmd_inner(args) -> int:
    bra, ket = _creation_from_expr(args.bra), _creation_from_expr(args.ket)
    print(_fock.wick_inner(bra, ket).render())
    return 0


def _cmd_report(args) -> int:
    if not args.merge:
        raise ValueError("only --merge is supported")
    docs = []
    for path in args.inputs:
        try:
            with open(path) as fh:
                docs.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
    merged = merge_reports(docs)
    text = report_text(merged)
    with _writing(args.out) as fh:
        fh.write(text)
    print(f"merged {len(args.inputs)} reports into {args.out}"
          f" ({merged['summary']['total']} records,"
          f" {merged['summary']['failed']} failed)")
    return 1 if merged["summary"]["failed"] else 0


def _at_least(minimum: int):
    """Argument type: an integer no smaller than ``minimum``."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type in "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call.

    Sharing is safe because ``parse_args`` returns a fresh namespace and no
    action keeps state between parses; callers must not modify the parser.
    """
    parser = argparse.ArgumentParser(
        prog="quadosc",
        description="Exact symbolic verification engine for the"
                    " three-dimensional pseudo-Hermitian quadratic oscillator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--max-k", type=_at_least(0), default=3, dest="max_k")
    p.add_argument("--max-n", type=_at_least(0), default=3, dest="max_n")
    p.add_argument("--json", metavar="PATH", help="write a JSON report")
    p.add_argument("--timing", action="store_true",
                   help="embed measured per-identity times (breaks byte reproducibility)")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="suite-level worker processes (at most one per suite is started)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tabulate", help="print coefficient tables")
    p.add_argument("--what", choices=("ab", "N", "ladder-coeffs", "f-poly"), required=True)
    p.add_argument("--max-k", type=_at_least(0), default=2, dest="max_k")
    p.add_argument("--max-n", type=_at_least(0), default=4, dest="max_n")
    p.add_argument("--max-p", type=_at_least(0), default=3, dest="max_p")
    p.add_argument("--csv", metavar="PATH", help="write CSV instead of a console table")
    p.set_defaults(func=_cmd_tabulate)

    p = sub.add_parser("state", help="print one Jordan-block member")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--repr", choices=("creation", "uvw", "zzb"), default="creation")
    p.add_argument("--json", action="store_true", help="emit all representations as JSON")
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("commutator", help="evaluate an operator expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("inner",
                       help="pairing of two states given as operator expressions"
                            " applied to the ground state")
    p.add_argument("bra")
    p.add_argument("ket")
    p.set_defaults(func=_cmd_inner)

    p = sub.add_parser("report", help="merge JSON reports")
    p.add_argument("--merge", action="store_true")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("inputs", nargs="+", metavar="REPORT")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; normalize other exits
        return int(exc.code) if exc.code is not None else 2
    try:
        code = args.func(args)
        sys.stdout.flush()   # so that a closed pipe shows here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # nobody reads the rest; what is still buffered goes to devnull, so
        # that the interpreter's own flush at exit stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
