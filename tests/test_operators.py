"""Catalogue identities: ladder relations, the nine-dimensional algebra,
gl(3), the boson layer, and the integrals of motion."""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quadosc.coeff import LAM, G, I, ONE, ParamScalar, scalar
from quadosc.weyl import WeylOperator, SPACE_ZZB, identity_op
from quadosc import coeff, fock, weyl, operators as ops


def assert_all_verified(records):
    bad = [r for r in records if not r.ok]
    assert not bad, "failed: " + "; ".join(f"{r.id}: {r.residual[:80]}" for r in bad[:5])


def test_catalogue_deterministic():
    first = ops.catalogue()
    assert ops.catalogue() is first                  # cached
    rebuilt = ops.catalogue.__wrapped__()            # genuinely rebuilt
    assert set(rebuilt) == set(first)
    for name, op in first.items():
        assert rebuilt[name].terms == op.terms, name


def test_catalogue_forms_each_ladder_product_once(monkeypatch):
    # the nine products X+ * Y- build the bilinears and the gl(3) generators;
    # R0 = A+ * A- is the one product formed again, as the integral's own
    # definition
    letters = [ops.op(f"{x}{s}") for x in "ABC" for s in "+-"]
    mul = WeylOperator.__mul__
    count = 0

    def counted(self, other):
        nonlocal count
        if any(self == x for x in letters) and any(other == x for x in letters):
            count += 1
        return mul(self, other)

    monkeypatch.setattr(WeylOperator, "__mul__", counted)
    ops.catalogue.__wrapped__()
    assert count <= 10


def test_ladder_relations_suite():
    assert_all_verified(ops.verify_ladder_relations())


def test_specific_ladder_values():
    c = ops.catalogue()
    ident = identity_op()
    assert c["A-"].commutator(c["B+"]) == ident.scale(-2 * LAM)
    assert c["B-"].commutator(c["C+"]) == ident.scale(2 * G)
    qq = c["Q-"].commutator(c["Q+"])
    r1 = c["R1"]
    assert qq == (c["H"].scale(LAM) - r1.scale(2 * G)
                  + ident.scale(scalar(3) * LAM * LAM)).scale(8)


def test_cross_bracket_carries_opposite_ladder():
    # the A/Q cross bracket lands on the opposite-sign operator
    c = ops.catalogue()
    assert c["A-"].commutator(c["Q+"]) == c["A+"].scale(-4 * LAM)
    assert c["A+"].commutator(c["Q-"]) == c["A-"].scale(4 * LAM)
    assert not (c["A-"].commutator(c["Q+"]) == c["A-"].scale(-4 * LAM))


def test_q_factorization_suite():
    assert_all_verified(ops.verify_q_factorization())
    c = ops.catalogue()
    assert (c["Q+"] - (c["A+"] * c["B+"]).scale(2) + c["C+"] * c["C+"]).is_zero()
    assert (c["H"] + c["U"] + c["T"]).is_zero()


def test_nine_dim_algebra_suite():
    assert_all_verified(ops.verify_nine_dim_algebra())


def test_selected_nine_dim_brackets():
    c = ops.catalogue()
    assert c["R"].commutator(c["X"]) == c["R"].scale(4 * LAM)
    assert c["V"].commutator(c["Z"]) == \
        (c["U"] - c["T"].scale(2)).scale(2 * LAM) + c["V"].scale(2 * G)
    assert c["H"].commutator(c["Y"]) == c["R"].scale(4 * G)


def test_gl3_suite():
    assert_all_verified(ops.verify_gl3())


def test_gl3_values():
    c = ops.catalogue()
    assert c["E12"].commutator(c["E21"]) == c["E11"] - c["E22"]
    assert c["E11"] == c["T"].scale(-ONE / (2 * LAM)) + identity_op().scale(scalar(1) / 2)
    alt = ops.gl3_from_bilinears()
    for name, op_alt in alt.items():
        assert c[name] == op_alt


def test_boson_layer_suite():
    assert_all_verified(ops.verify_boson_layer())


def test_boson_ccr_value():
    b = ops.boson()
    one = ops.SqrtTwoLamOperator.of(identity_op())
    assert b["a1-"].commutator(b["a1+"]) == one
    assert b["a1-"].commutator(b["a2+"]).is_zero()


def test_plain_operator_meets_boson_element_from_either_side():
    # a catalogue operator is lifted by the extension's own arithmetic
    b = ops.boson()
    e11, a1p = ops.op("E11"), b["a1+"]
    lifted = ops.SqrtTwoLamOperator.of(e11)
    assert e11 * a1p == lifted * a1p
    assert a1p * e11 == a1p * lifted
    assert e11.commutator(a1p) == lifted.commutator(a1p)
    assert not e11.commutator(a1p).is_zero()


def weyl_operators():
    e = st.integers(0, 1)
    term = st.tuples(st.tuples(e, e, e, e, e, e),
                     st.sampled_from([ONE, -ONE, LAM, G, LAM * G, ONE + G, scalar(2)]))
    return st.builds(lambda ts: WeylOperator(dict(ts), SPACE_ZZB),
                     st.lists(term, max_size=3))


def extension_elements():
    return st.builds(ops.SqrtTwoLamOperator, weyl_operators(), weyl_operators())


_BRACKET_SETTINGS = settings(max_examples=25, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@_BRACKET_SETTINGS
@given(extension_elements(), extension_elements())
def test_extension_bracket_matches_its_product(x, y):
    # the bracket by parts against the extension's own product
    assert x.commutator(y) == x * y - y * x
    assert x.anticommutator(y) == x * y + y * x


@_BRACKET_SETTINGS
@given(extension_elements(), weyl_operators(), st.sampled_from([3, -1, LAM, LAM * G]))
def test_extension_bracket_with_mixed_operands(x, w, k):
    # plain operators and scalars meet the extension from either side
    for left, right in ((x, w), (w, x), (x, k), (w, k)):
        assert left.commutator(right) == left * right - right * left
        assert left.anticommutator(right) == left * right + right * left


def four_part_formula(x, y, binary):
    """The by-parts rule with all four part brackets formed, empty or not."""
    return ops.SqrtTwoLamOperator(binary(x.even, y.even) + binary(x.odd, y.odd).scale(2 * LAM),
                                  binary(x.even, y.odd) + binary(x.odd, y.even))


@_BRACKET_SETTINGS
@given(weyl_operators(), weyl_operators(), extension_elements())
def test_skipped_parts_match_the_four_part_formula(w1, w2, z):
    # purely even, purely odd and mixed operands, in every order
    operands = (ops.SqrtTwoLamOperator.of(w1), ops.SqrtTwoLamOperator.s_times(w2), z)
    for x in operands:
        for y in operands:
            for sign in (-1, 1):
                assert x._bracket(y, sign) == \
                    four_part_formula(x, y, lambda a, b: a._bracket(b, sign))
            assert x * y == four_part_formula(x, y, lambda a, b: a * b)


def test_by_parts_skips_empty_operands_and_keeps_the_space(monkeypatch):
    # an even and an odd letter-picture operand: one of the four part brackets
    # has two non-empty operands, and the empty parts stay in the letter space
    even = ops.SqrtTwoLamOperator.of(fock.letter_picture(ops.op("E12")))
    odd = ops.SqrtTwoLamOperator.s_times(fock.letter_picture(ops.op("A+")))
    calls = []
    contract = weyl._contract
    monkeypatch.setattr(weyl, "_contract", lambda *a: calls.append(a) or contract(*a))
    bracket = even.commutator(odd)
    assert len(calls) == 1
    assert bracket == four_part_formula(even, odd, lambda a, b: a.commutator(b))
    assert bracket.even.is_zero() and not bracket.odd.is_zero()
    assert bracket.even.space == bracket.odd.space == weyl.SPACE_ABC
    nothing = ops.SqrtTwoLamOperator(weyl.WeylOperator({}, weyl.SPACE_ABC))
    assert nothing.commutator(odd).even.space == weyl.SPACE_ABC


def test_extension_equality_with_foreign_values():
    # a value the extension cannot lift is unequal, as for a WeylOperator
    a1p, one = ops.boson()["a1+"], ops.SqrtTwoLamOperator.of(identity_op())
    for foreign in (None, "a1+", 1.5):
        assert not a1p == foreign and a1p != foreign
        assert (identity_op() == foreign) is False
    # values it can lift still compare, from either side
    assert one == 1 and 1 == one and a1p != 0 and a1p == a1p.scale(ONE)


def test_sqrt_extension_ring():
    s = ops.SqrtTwoLamOperator.s_times(identity_op())
    assert s * s == ops.SqrtTwoLamOperator.of(identity_op().scale(2 * LAM))


def test_sp6_closure_suite():
    records = ops.verify_sp6_osp16_closure()
    assert_all_verified(records)
    notes = {r.id: r.note for r in records}
    assert notes["sp6/[D-11,D+11]"] == "= 4*E11"
    assert notes["osp16/{a1+,a1+}"] == "= 2*D+11"
    assert notes["osp16/{a1+,a1-}"] == "= 2*E11"


def test_sp6_timing_covers_the_bracket(monkeypatch):
    # a closure certificate's ms (shown by --timing) includes its bracket
    bracket = ops.SqrtTwoLamOperator._bracket

    def slow_bracket(self, other, sign):
        time.sleep(0.002)
        return bracket(self, other, sign)

    monkeypatch.setattr(ops.SqrtTwoLamOperator, "_bracket", slow_bracket)
    assert all(r.ms >= 2.0 for r in ops.verify_sp6_osp16_closure())


def test_integrals_suite():
    records = ops.verify_integrals_cubic_algebra()
    assert_all_verified(records)
    r0r3 = next(r for r in records if r.id == "integrals/R0R3")
    assert "(-4*lam)*R0^2" in r0r3.note


def test_integrals_values():
    c = ops.catalogue()
    zero = c["H"] - c["H"]
    assert c["H"].commutator(c["R2"]) == zero
    r0sq = c["R0"] * c["R0"]
    assert c["R1"].commutator(c["R2"]) == r0sq.scale(2 * G)
    assert c["R0"].commutator(c["R3"]) == r0sq.scale(-4 * LAM)


def test_span_solver_rejects_outsiders():
    # a degree-3 operator cannot sit in the quadratic span
    c = ops.catalogue()
    cubic = ops.SqrtTwoLamOperator.of(c["A+"] * c["A+"] * c["A+"])
    assert ops.SpanSolver(ops._span_basis()).express(cubic) is None
    # a set whose span does not fill the monomials it uses has no inverse table
    with pytest.raises(ValueError):
        ops.SpanSolver([("AB", ops.SqrtTwoLamOperator.of(c["A+"] * c["B+"]))])


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(
    st.integers(0, 21),
    st.sampled_from([ONE, -I, scalar(3) / 4 - I / 2, I / (2 * LAM), G / (3 * LAM ** 2),
                     LAM * G, I / (2 * LAM) + G]),
    min_size=1, max_size=3))
def test_express_in_span_recovers_known_coefficients(picks):
    # a combination of the 22 spanning elements, with Gaussian, monomial and
    # two-term coefficients over monomial denominators, gives back its own
    # coefficients
    basis = ops._span_basis()
    target = sum((basis[i][1].scale(c) for i, c in picks.items()), ops.SqrtTwoLamOperator())
    assert ops.SpanSolver(basis).express(target) == {basis[i][0]: c for i, c in picks.items()}


def test_span_solver_rows_are_independent():
    # all 22 spanning elements {1, E_ij, D+-_ij} become rows, so every
    # certificate is the unique coefficient vector
    solver = ops.SpanSolver(ops._span_basis())
    assert len(solver.rows) == len(solver.basis) == 22


def _sp6_certificates(monkeypatch):
    """The solver of verify_sp6_osp16_closure and the targets it expresses."""
    express, seen = ops.SpanSolver.express, []

    def recorded(self, target):
        seen.append((self, target))
        return express(self, target)

    monkeypatch.setattr(ops.SpanSolver, "express", recorded)
    assert_all_verified(ops.verify_sp6_osp16_closure())
    monkeypatch.undo()
    return seen[0][0], [target for _, target in seen]


def _space(solver):
    """The space of the solver's basis (the sp6 suite's is the letter picture)."""
    return solver.basis[0][1].even.space


def _recombined(solver, coeffs):
    """sum of c_n * basis_n, by the extension's arithmetic."""
    basis = dict(solver.basis)
    zero = ops.SqrtTwoLamOperator(WeylOperator({}, _space(solver)))
    return sum((basis[n].scale(c) for n, c in coeffs.items()), zero)


def _table_errors(solver, targets):
    """Targets whose certificate does not recombine to them, and table rows
    whose combination is not their own monomial (B times its inverse is 1)."""
    bad = [t for t in targets if _recombined(solver, solver.express(t)) != t]
    for mono, row in solver.rows.items():
        coeffs = {n: coeff._laurent(dict(entries), solver.den) for n, entries in row}
        if _recombined(solver, coeffs) != WeylOperator({mono: ONE}, _space(solver)):
            bad.append(mono)
    return bad


def test_span_certificates_recombine_to_their_targets(monkeypatch):
    # independent of the table: every sp6/osp16 certificate, summed over the
    # basis, gives back its target, and every row gives back its monomial
    solver, targets = _sp6_certificates(monkeypatch)
    assert len(targets) == 207 and len(solver.rows) == 22
    assert _table_errors(solver, targets) == []
    # one wrong integer in one table entry is caught
    mono = next(m for t in targets for m in t.even.terms)
    (name, entries), *rest = solver.rows[mono]
    (e, (x, y)), *more = entries
    monkeypatch.setitem(solver.rows, mono, [(name, [(e, (x + 1, y)), *more]), *rest])
    assert _table_errors(solver, targets) != []


def test_span_express_makes_no_scalar_operator_call(monkeypatch):
    # a certificate is integer sums over the table, one value built per name
    solver, targets = _sp6_certificates(monkeypatch)
    expected = [solver.express(t) for t in targets]
    calls, built = [], []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        def counted(*args, _name=name, _op=getattr(ParamScalar, name)):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(ParamScalar, name, counted)
    new = coeff._new
    monkeypatch.setattr(coeff, "_new", lambda num, den: built.append(num) or new(num, den))
    got = [solver.express(t) for t in targets]
    assert calls == []
    assert len(built) == sum(len(c) for c in got)
    monkeypatch.undo()
    assert got == expected
