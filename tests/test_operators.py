"""Catalogue identities: ladder relations, the nine-dimensional algebra,
gl(3), the boson layer, and the integrals of motion."""

from quadosc.coeff import LAM, G, ONE, scalar
from quadosc.weyl import identity_op
from quadosc import operators as ops


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
    assert ops.express_in_span(cubic) is None
