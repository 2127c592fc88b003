"""For each layer metric, the end-to-end metric and workload it should move.

BENCHMARK.json names the metrics with their units and directions; its keys
are fixed, so this mapping lives here and is written into the details file
of every traced run.  Layer metrics come from the traced run: its traced
pass, except ``crit*.headroom``, ``session.*`` and ``trace.overhead_s``,
which also use the untraced pass of that run.
"""

from __future__ import annotations

from workloads import ALGEBRA_SUITES, BLOCKS_SUITES, CRITERIA

_ALL = "wall_s on algebra, blocks and session; session.query_p50_ms"
_BRACKET = "wall_s on algebra and session; session.commutator_p50_ms"
_STATE = "wall_s on blocks and session; session.inner_p50_ms"
_BLOCKS = "wall_s on blocks"

MOVES = {
    "coeff.add.calls": _ALL,
    "coeff.mul.calls": _ALL,
    "coeff.div.calls": _ALL,
    "coeff.self_s": _ALL,
    "coeff.nonmonomial_den_ratio":
        "none: the useful-work ratio of the GCD; a Laurent coefficient ring needs it at 0",
    "weyl.op_mul.calls": _BRACKET,
    "weyl.op_mul.self_s": _BRACKET,
    "weyl.op_mul.term_pairs": _BRACKET,
    "weyl.commutator.calls": _BRACKET,
    "weyl.commutator.useful_ratio": _BRACKET,
    "weyl.apply.calls": _STATE,
    "weyl.apply.self_s": _STATE,
    "weyl.poly_mul.self_s": _STATE,
    "weyl.substitute.self_s": _STATE,
    "weyl.reorder.hit_ratio": _BRACKET,
    "fock.wick_inner.calls": _STATE,
    "fock.wick_inner.self_s": _STATE,
    "fock.word_inner.hit_ratio": _STATE,
    "fock.moment_inner.calls": _STATE,
    "fock.moment_inner.self_s": _STATE,
    "fock.to_gaussian.self_s": _STATE,
    "fock.to_creation.self_s": _STATE,
    "jordan.build_state.hit_ratio": _BLOCKS,
    "jordan.direct_chain.hit_ratio": _BLOCKS,
    "jordan.build_state_direct.self_s": _BLOCKS,
    "jordan.ladder_apply.self_s": _BLOCKS,
    "biortho.gram.self_s": _BLOCKS,
    "biortho.orthogonalize.self_s": _BLOCKS,
    "operators.catalogue_s": "setup_s on every workload",
    "operators.span_express.calls": "wall_s on algebra",
    "operators.span_express.self_s": "wall_s on algebra",
    "operators.record.calls": "none: a completeness check, equal to the records reported",
    "expr.parse.self_s": "wall_s on session; session.query_p50_ms",
    "expr.evaluate.self_s": "wall_s on session; session.query_p50_ms",
    "report.write_s": "none: should stay negligible",
    **{f"cli.suite_s.{s}": "wall_s on algebra" for s in ALGEBRA_SUITES},
    **{f"cli.suite_s.{s}": _BLOCKS for s in BLOCKS_SUITES},
    **{f"{c}.headroom": f"wall_s on algebra: {budget:g} s budget over the time of the"
                        f" {'+'.join(suites)} calls (tests/test_acceptance.py)"
       for c, (suites, budget) in CRITERIA.items()},
    "trace.overhead_s": "none: traced minus untraced wall_s of one pass",
    "session.query_p50_ms": "wall_s on session",
    "session.query_p90_ms": "wall_s on session",
    "session.commutator_p50_ms": "wall_s on session",
    "session.inner_p50_ms": "wall_s on session",
    "session.state_p50_ms": "wall_s on session",
}
