"""Layer spans recorded from outside the program, by wrapping the public
functions of each quadosc module in a traced interpreter.

Every span knows its parent (the innermost open span), and its self time is
its duration minus the time its child spans cover.  Spans are aggregated per
(parent, name) edge in memory and written out when the pass ends.  The
scalar layer (``coeff``) runs hundreds of thousands of operations per suite,
so it keeps a count per operation kind and one self time instead of spans;
its time is still subtracted from the span that called it.

A wrapped function is rebound wherever a quadosc module holds it by name
(``biortho`` imports ``wick_inner`` and ``record``, ``jordan`` imports
``record``), and ``IdentityRecord`` is replaced by a counting subclass the
same way, so that the construction count proves the wrapping is complete.
"""

from __future__ import annotations

import sys
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = [["<root>", 0.0, 0]]   # [name, child time, product terms]
        self.spans = {}                     # name -> [calls, total s, self s]
        self.edges = {}                     # (parent, name) -> calls
        self.term_pairs = 0
        self.bracket_terms = [0, 0]         # result terms, terms of ab + ba
        self.coeff = {"add": 0, "mul": 0, "div": 0}
        self.coeff_self = 0.0
        self.coeff_results = [0, 0]         # results, non-monomial denominators
        self.reorder_calls = 0
        self.records = 0
        self.reorder_cache_start = 0
        self._coeff_depth = 0

    # -- generic spans ------------------------------------------------------

    def span(self, name, fn, on_result=None):
        stack, edges = self.stack, self.edges
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                parent[1] += dt
                key = (parent[0], name)
                edges[key] = edges.get(key, 0) + 1
            if on_result is not None:
                on_result(args, result, parent, frame)
            return result

        return wrapper

    # -- coeff: aggregated per operation kind --------------------------------

    def coeff_op(self, kind, fn, scalar_cls):
        counts, results, stack = self.coeff, self.coeff_results, self.stack
        tracer = self

        def wrapper(self_, *args):
            counts[kind] += 1
            if tracer._coeff_depth:
                return fn(self_, *args)
            tracer._coeff_depth = 1
            t0 = _perf()
            try:
                result = fn(self_, *args)
            finally:
                dt = _perf() - t0
                tracer._coeff_depth = 0
                tracer.coeff_self += dt
                stack[-1][1] += dt
            if result.__class__ is scalar_cls:
                results[0] += 1
                if len(result._den) != 1:
                    results[1] += 1
            return result

        return wrapper


def _rebind(modules, original, replacement):
    """Replace ``original`` in every module namespace that binds it."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> Tracer:
    """Wrap the quadosc layers in this interpreter.  Call after import and
    before the first ``catalogue()``."""
    from quadosc import coeff, weyl, operators, fock, jordan, biortho, expr, report, cli
    modules = [m for name, m in sys.modules.items()
               if name == "quadosc" or name.startswith("quadosc.")]

    def wrap_function(mod, attr, name):
        original = getattr(mod, attr)
        _rebind(modules, original, tracer.span(name, original))

    def wrap_method(cls, attr, name, on_result=None, only_if=None):
        original = cls.__dict__[attr]
        traced = tracer.span(name, original, on_result)
        if only_if is not None:
            def method(self, other, _traced=traced, _plain=original):
                if only_if(other):
                    return _traced(self, other)
                return _plain(self, other)
        else:
            method = traced
        setattr(cls, attr, method)

    # coeff
    ps = coeff.ParamScalar
    for attr, kind in (("__add__", "add"), ("__radd__", "add"), ("__sub__", "add"),
                       ("__rsub__", "add"), ("__neg__", "add"),
                       ("__mul__", "mul"), ("__rmul__", "mul"), ("__pow__", "mul"),
                       ("__truediv__", "div"), ("__rtruediv__", "div")):
        setattr(ps, attr, tracer.coeff_op(kind, ps.__dict__[attr], ps))

    # weyl: products, brackets, application to states
    W, P3 = weyl.WeylOperator, weyl.Poly3
    Ext = operators.SqrtTwoLamOperator

    def op_mul_done(args, result, parent, frame):
        self_, other = args
        tracer.term_pairs += len(self_.terms) * len(other.terms)
        if parent[0] == "weyl.commutator":
            parent[2] += len(result.terms)

    def bracket_done(args, result, parent, frame):
        if isinstance(result, Ext):
            size = len(result.even.terms) + len(result.odd.terms)
        else:
            size = len(result.terms)
        tracer.bracket_terms[0] += size
        tracer.bracket_terms[1] += frame[2]

    wrap_method(W, "__mul__", "weyl.op_mul", op_mul_done,
                only_if=lambda other: isinstance(other, W))
    wrap_method(W, "commutator", "weyl.commutator", bracket_done)
    wrap_method(Ext, "commutator", "weyl.commutator_ext", bracket_done)
    ext_mul = Ext.__dict__["__mul__"]

    def ext_mul_counted(self_, other):
        result = ext_mul(self_, other)
        frame = tracer.stack[-1]
        if frame[0] == "weyl.commutator_ext":
            frame[2] += len(result.even.terms) + len(result.odd.terms)
        return result

    Ext.__mul__ = ext_mul_counted
    wrap_method(W, "apply", "weyl.apply")
    wrap_method(P3, "__mul__", "weyl.poly_mul", only_if=lambda other: isinstance(other, P3))
    wrap_method(P3, "substitute", "weyl.substitute")
    reorder = weyl._reorder

    def reorder_counted(m1, m2):
        tracer.reorder_calls += 1
        return reorder(m1, m2)

    _rebind(modules, reorder, reorder_counted)
    tracer.reorder_cache_start = len(weyl._REORDER_CACHE)

    # fock
    wrap_function(fock, "wick_inner", "fock.wick_inner")
    wrap_function(fock, "gaussian_moment_inner", "fock.moment_inner")
    wrap_function(fock, "to_gaussian_state", "fock.to_gaussian")
    wrap_function(fock, "gaussian_state_to_creation", "fock.to_creation")

    # jordan, biortho
    wrap_function(jordan, "build_state_direct", "jordan.build_state_direct")
    wrap_function(jordan, "ladder_apply", "jordan.ladder_apply")
    wrap_function(biortho, "gram", "biortho.gram")
    wrap_function(biortho, "orthogonalize", "biortho.orthogonalize")

    # operators
    wrap_method(operators.SpanSolver, "express", "operators.span_express")
    wrap_function(operators, "record", "operators.record")
    record_cls = operators.IdentityRecord

    class CountedRecord(record_cls):
        def __init__(self, *args, **kwargs):
            tracer.records += 1
            super().__init__(*args, **kwargs)

    _rebind(modules, record_cls, CountedRecord)

    # expr, report, cli
    wrap_function(expr, "parse", "expr.parse")
    wrap_function(expr, "evaluate", "expr.evaluate")
    wrap_method(report.VerificationReport, "write_json", "report.write")
    run_suite = cli._run_suite

    def run_suite_traced(args):
        return tracer.span(f"cli.suite.{args[0]}", run_suite)(args)

    _rebind(modules, run_suite, run_suite_traced)
    return tracer


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (cache statistics read here)."""
    from quadosc import weyl, fock, jordan

    def spanned(name, field):
        calls, total, self_s = tracer.spans.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "total_s": total, "self_s": self_s}[field]

    def ratio(num, den):
        return num / den if den else 0.0

    def lru_hit_ratio(fn):
        info = fn.cache_info()
        return ratio(info.hits, info.hits + info.misses)

    misses = len(weyl._REORDER_CACHE) - tracer.reorder_cache_start
    return {
        "coeff.add.calls": tracer.coeff["add"],
        "coeff.mul.calls": tracer.coeff["mul"],
        "coeff.div.calls": tracer.coeff["div"],
        "coeff.self_s": tracer.coeff_self,
        "coeff.nonmonomial_den_ratio": ratio(tracer.coeff_results[1], tracer.coeff_results[0]),
        "weyl.op_mul.calls": spanned("weyl.op_mul", "calls"),
        "weyl.op_mul.self_s": spanned("weyl.op_mul", "self_s"),
        "weyl.op_mul.term_pairs": tracer.term_pairs,
        "weyl.commutator.calls": (spanned("weyl.commutator", "calls")
                                  + spanned("weyl.commutator_ext", "calls")),
        "weyl.commutator.useful_ratio": ratio(*tracer.bracket_terms),
        "weyl.apply.calls": spanned("weyl.apply", "calls"),
        "weyl.apply.self_s": spanned("weyl.apply", "self_s"),
        "weyl.poly_mul.self_s": spanned("weyl.poly_mul", "self_s"),
        "weyl.substitute.self_s": spanned("weyl.substitute", "self_s"),
        "weyl.reorder.hit_ratio": ratio(tracer.reorder_calls - misses, tracer.reorder_calls),
        "fock.wick_inner.calls": spanned("fock.wick_inner", "calls"),
        "fock.wick_inner.self_s": spanned("fock.wick_inner", "self_s"),
        "fock.word_inner.hit_ratio": lru_hit_ratio(fock._word_inner),
        "fock.moment_inner.calls": spanned("fock.moment_inner", "calls"),
        "fock.moment_inner.self_s": spanned("fock.moment_inner", "self_s"),
        "fock.to_gaussian.self_s": spanned("fock.to_gaussian", "self_s"),
        "fock.to_creation.self_s": spanned("fock.to_creation", "self_s"),
        "jordan.build_state.hit_ratio": lru_hit_ratio(jordan.build_state),
        "jordan.direct_chain.hit_ratio": lru_hit_ratio(jordan._direct_chain),
        "jordan.build_state_direct.self_s": spanned("jordan.build_state_direct", "self_s"),
        "jordan.ladder_apply.self_s": spanned("jordan.ladder_apply", "self_s"),
        "biortho.gram.self_s": spanned("biortho.gram", "self_s"),
        "biortho.orthogonalize.self_s": spanned("biortho.orthogonalize", "self_s"),
        "operators.span_express.calls": spanned("operators.span_express", "calls"),
        "operators.span_express.self_s": spanned("operators.span_express", "self_s"),
        "operators.record.calls": spanned("operators.record", "calls"),
        "expr.parse.self_s": spanned("expr.parse", "self_s"),
        "expr.evaluate.self_s": spanned("expr.evaluate", "self_s"),
        "report.write_s": spanned("report.write", "total_s"),
    }


def span_table(tracer: Tracer) -> dict:
    return {
        "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                  for name, (c, t, s) in sorted(tracer.spans.items())},
        "edges": [{"parent": p, "name": n, "calls": c}
                  for (p, n), c in sorted(tracer.edges.items())],
        "coeff": {"calls": dict(tracer.coeff), "self_s": tracer.coeff_self},
    }
