"""The CLI calls each workload makes, and the seeded `session` query stream.

A workload is a list of passes; a pass is the argv lists one fresh
interpreter feeds to ``quadosc.cli.main``, one after another, as a single
closed-loop client.  Only `session` is generated from the seed: `algebra`
and `blocks` are the fixed suite runs a user (or the acceptance gate) makes.
"""

from __future__ import annotations

import itertools
import random

ALGEBRA_SUITES = ("ladder", "algebra", "gl3", "boson", "sp6", "integrals")
BLOCKS_SUITES = ("jordan", "uvw", "biortho")
# Default bounds are (3, 3), which take about 85 s; (2, 2) keeps every block
# check, the Gram and cross-block layers and the known red record in a run.
BLOCKS_BOUNDS = ("--max-k", "2", "--max-n", "2")

# The acceptance criteria of tests/test_acceptance.py that make exactly the
# calls of these `algebra` suites, with their wall-time budgets in seconds.
CRITERIA = {
    "crit01": (("ladder", "algebra"), 10.0),
    "crit02": (("gl3",), 10.0),
    "crit03": (("boson", "sp6"), 30.0),
    "crit04": (("integrals",), 30.0),
}

WORKLOADS = ("algebra", "blocks", "session")


def suite_call(suite: str, report_path: str) -> list:
    bounds = BLOCKS_BOUNDS if suite in BLOCKS_SUITES else ()
    return ["verify", "--suite", suite, *bounds, "--json", report_path, "--jobs", "1"]


# ---------------------------------------------------------------------------
# session: the finite query universe and the seeded stream drawn from it
# ---------------------------------------------------------------------------

_LETTERS = ("A+", "A-", "B+", "B-", "C+", "C-")
_LADDER = ("H",) + _LETTERS + ("Q+", "Q-")
_BILINEARS = tuple("RSTUVWXYZ")
_GL3 = tuple(f"E{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))
_RAISING = ("A+", "B+", "C+")
_REPRS = ("creation", "uvw", "zzb")


def _pairs(names):
    return [f"[{x},{y}]" for x, y in itertools.permutations(names, 2)]


def _nested(names):
    return [f"[[{x},{y}],{z}]" for x, y in itertools.permutations(names, 2)
            for z in names]


def _words(degree):
    """Multisets of raising letters, as exponent triples (i, j, l)."""
    return [(i, j, degree - i - j) for i in range(degree + 1)
            for j in range(degree + 1 - i)]


def _state_labels(max_total=3):
    return [(k, n, m) for k in range(max_total + 1)
            for n in range(max_total + 1 - k) for m in range(2 * n + 1)]


# The query universe, by kind and in strata.  Brackets of the integrals
# R0..R3 are left out: a single [R2,R3] costs as much as forty other
# brackets.  Inner products and states stop at degree 3, the bound k+n <= 3
# of the states.
STRATA = {
    "commutator": [_pairs(_LADDER), _pairs(_BILINEARS), _pairs(_GL3),
                   _nested(("H",) + _LETTERS)],
    "inner": [[(a, b) for a in _words(degree) for b in _words(degree)]
              for degree in (1, 2, 3)],
    "state": [[(lab, r) for lab in _state_labels() for r in _REPRS]],
}
QUERIES_PER_PASS = 100


def _letter_product(word, rng):
    letters = [name for name, e in zip(_RAISING, word) for _ in range(e)]
    rng.shuffle(letters)
    return "*".join(letters)


def render_query(kind, item, rng=None) -> list:
    """The argv of one query.  Inner products spell their letters in an
    order drawn from ``rng`` (raising letters commute, so the answer is that
    of the sorted word)."""
    if kind == "commutator":
        return ["commutator", item]
    if kind == "inner":
        rng = rng or random.Random(0)
        return ["inner", _letter_product(item[0], rng), _letter_product(item[1], rng)]
    (k, n, m), rep = item
    return ["state", "--k", str(k), "--n", str(n), "--m", str(m), "--repr", rep]


def query_key(kind, item) -> str:
    """Reference key of a query: independent of letter order in products."""
    if kind == "commutator":
        return f"commutator {item}"
    if kind == "inner":
        return "inner {}{}{} {}{}{}".format(*item[0], *item[1])
    (k, n, m), rep = item
    return f"state {k} {n} {m} {rep}"


def _allocate(sizes, total):
    """Split ``total`` slots in proportion to ``sizes``, by largest remainder."""
    exact = [total * size / sum(sizes) for size in sizes]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(sizes)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def session_pass(seed: int, index: int):
    """Pass ``index`` of the stream for ``seed``: a list of (kind, item, argv).
    Half the queries are brackets, the other half states and inner products.
    Each half is spread over its strata in proportion to their sizes, which
    is the mix a uniform draw gives on average, without its spread from pass
    to pass.  Within a stratum queries are drawn uniformly with replacement:
    repeats are whatever the draws give, and ``stream_stats`` measures them."""
    rng = random.Random(f"quadosc-session-{seed}-{index}")
    half = QUERIES_PER_PASS // 2
    drawn = []
    for kinds, total in ((("commutator",), half), (("inner", "state"), QUERIES_PER_PASS - half)):
        strata = [(kind, universe) for kind in kinds for universe in STRATA[kind]]
        for (kind, universe), count in zip(strata, _allocate([len(u) for _k, u in strata], total)):
            drawn += [(kind, rng.choice(universe)) for _ in range(count)]
    rng.shuffle(drawn)
    return [(kind, item, render_query(kind, item, rng)) for kind, item in drawn]


def stream_stats(queries) -> dict:
    """The query-kind mix of a pass and the share of its queries that repeat
    an earlier one (same answer asked again)."""
    mix, seen, repeats = {}, set(), 0
    for kind, item, _argv in queries:
        mix[kind] = mix.get(kind, 0) + 1
        key = query_key(kind, item)
        repeats += key in seen
        seen.add(key)
    return {"mix": dict(sorted(mix.items())), "repeat_share": repeats / len(queries)}


def session_universe():
    """Every (kind, item) any seed can ask."""
    for kind, strata in STRATA.items():
        for universe in strata:
            for item in universe:
                yield kind, item
