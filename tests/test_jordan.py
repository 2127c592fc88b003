"""Jordan blocks: coefficients, states, ladder actions, transformed layer."""

from fractions import Fraction

import pytest

from quadosc.coeff import LAM, G, ONE, scalar
from quadosc.weyl import (SPACE_UVW, Poly3, poly_var, poly_one, variable, derivative,
                          identity_op)
from quadosc import operators as ops
from quadosc import jordan as J
from quadosc import fock
from quadosc.fock import CreationPolynomial
from quadosc.jordan import JordanLabel


def test_label_validation():
    with pytest.raises(ValueError):
        JordanLabel(0, 1, 3)
    with pytest.raises(ValueError):
        JordanLabel(-1, 0, 0)
    lbl = JordanLabel(1, 2, 3)
    assert lbl.energy == scalar(8) * LAM
    assert lbl.block_dimension == 5


def test_coeff_a_examples():
    assert J.coeff_a(5, 0, 0) == ONE
    # top coefficient (2g)^(2n) n! (2n-1)!!
    assert J.coeff_a(3, 3, 3) == scalar(2 ** 6 * 6 * 15) * G ** 6
    assert J.coeff_a(1, 1, 0).is_zero()          # vanishing convention
    with pytest.raises(ValueError):
        J.coeff_a(2, 3, 0)
    with pytest.raises(ValueError):
        J.coeff_a(2, 1, 2)


def test_coeff_b_examples():
    assert J.coeff_b(1, 0, 0) == -2 * G
    assert J.coeff_b(2, 0, 0) == -4 * G
    with pytest.raises(ValueError):
        J.coeff_b(2, 2, 0)


def test_build_state_examples():
    assert J.build_state(JordanLabel(0, 1, 1)).creation == \
        CreationPolynomial.word(0, 0, 1).scale(-2 * G)
    assert J.build_state(JordanLabel(0, 1, 0)).creation == \
        CreationPolynomial.word(1, 0, 0).scale(scalar(4) * G * G)
    assert J.build_state(JordanLabel(0, 1, 2)).creation == \
        CreationPolynomial.word(0, 1, 0)
    assert J.build_state(JordanLabel(2, 3, 6)).creation == \
        CreationPolynomial.word(0, 3, 0) * fock.expand_q_power(2)


def test_direct_equals_closed_form_small():
    for k, n in ((0, 1), (0, 2), (1, 1), (2, 0)):
        for m in range(2 * n + 1):
            lbl = JordanLabel(k, n, m)
            assert J.build_state(lbl).creation == J.build_state_direct(lbl).creation


def test_chain_top_annihilated():
    from quadosc import operators as ops
    from quadosc.weyl import identity_op
    lbl = JordanLabel(1, 1, 0)
    shift = ops.op("H") - identity_op().scale(lbl.energy)
    assert shift.apply(J.build_state(lbl).gaussian()).is_zero()


def test_ladder_apply_examples():
    lam, g = LAM, G
    out = J.ladder_apply("A+", JordanLabel(0, 0, 0))
    assert out == [(JordanLabel(0, 1, 0), ONE / (scalar(4) * g * g))]
    out = J.ladder_apply("A-", JordanLabel(1, 0, 0))
    assert out == [(JordanLabel(0, 1, 0), -lam / (g * g))]
    # the second branch of the third raising letter vanishes at the chain top
    out = J.ladder_apply("C+", JordanLabel(1, 2, 0))
    assert [t for t, _ in out] == [JordanLabel(1, 3, 1)]


def test_casimir_eigenvalue_value():
    assert J.casimir_eigenvalue(JordanLabel(1, 2, 3)) == scalar(Fraction(11, 2))


def test_special_actions_h_chain():
    acts = J.special_operator_actions(JordanLabel(0, 1, 1))
    assert acts["H"] == [(JordanLabel(0, 1, 1), scalar(2) * LAM),
                        (JordanLabel(0, 1, 0), ONE)]
    acts0 = J.special_operator_actions(JordanLabel(0, 2, 0))
    # no lower chain member at the top, and no lowering branch without k
    assert acts0["H"] == [(JordanLabel(0, 2, 0), scalar(4) * LAM)]
    assert all(t.k >= 0 for t, _ in acts0["R"])


def test_auxiliary_relations_suite():
    recs = J.verify_auxiliary_relations(2, 3)
    assert all(r.ok for r in recs)


def test_auxiliary_relations_take_their_products_once(monkeypatch):
    # every product is formed before the loop over n, so raising n_max adds
    # records but no Weyl products
    ops.catalogue()
    mul = J.WeylOperator.__mul__
    counts = []

    def counting(self, other):
        counts[-1] += 1
        return mul(self, other)

    monkeypatch.setattr(J.WeylOperator, "__mul__", counting)
    for n_max in (1, 3):
        counts.append(0)
        assert all(r.ok for r in J.verify_auxiliary_relations(n_max, 3))
    assert counts[0] == counts[1] > 0


def test_auxiliary_relations_fail_with_lam_in_the_correction(monkeypatch):
    # the corrections carry g; with lam in its place the B+ and C+ relations
    # must fail at every n and p, while A+, which has none, still holds
    monkeypatch.setattr(J, "G", LAM)
    recs = J.verify_auxiliary_relations(2, 3)
    by_letter = {x: [r for r in recs if r.id.startswith(f"jordan/aux-{x}-")] for x in "ABC"}
    assert len(by_letter["B"]) == 9
    assert all(r.ok for r in by_letter["A"])
    assert not any(r.ok for r in by_letter["B"] + by_letter["C"])


def test_coefficient_recursions_small():
    recs = J.verify_coefficient_recursions(5)
    assert all(r.ok for r in recs)


def test_coefficient_recursions_beyond_the_suite_bound():
    # every family is one formula over the zero-extended tables, edges included
    recs = J.verify_coefficient_recursions(12)
    assert len(recs) == 49
    assert all(r.ok for r in recs), [r.id for r in recs if not r.ok]


def test_ladder_actions_small():
    recs = J.verify_ladder_actions(1, 1)
    assert all(r.ok for r in recs), [r.id for r in recs if not r.ok]


def test_special_actions_small():
    recs = J.verify_special_actions(1, 1)
    assert all(r.ok for r in recs), [r.id for r in recs if not r.ok]


def test_f_polynomial_tables():
    w = poly_var(2, SPACE_UVW)
    u = poly_var(0, SPACE_UVW)
    one = poly_one(SPACE_UVW)
    assert J.f_polynomial(1, 1) == w.scale(-4 * G)
    assert J.f_polynomial(2, 2) == (w * w - one.scale(LAM)).scale(scalar(16) * G * G)
    assert J.f_polynomial(3, 6) == one.scale(scalar(-64) * G ** 6)
    assert J.f_polynomial(1, 0).is_zero()


def test_dp_realization_and_action():
    assert J.d_p(2) == J.conjugated_shift_in_uvw(2)
    # the shift operator reproduces one chain step in the polynomial picture
    n = 2
    lbl_top = JordanLabel(0, n, 2 * n)
    lbl_next = JordanLabel(0, n, 2 * n - 1)
    stepped = J.d_p(n).apply_poly(J.build_state(lbl_top).uvw_poly())
    assert stepped == J.build_state(lbl_next).uvw_poly()


def test_uvw_round_trip():
    # identity on polynomials up to degree 8 under the linear variable change
    terms = {}
    coeffs = [ONE, LAM, -G, LAM * G, scalar(3)]
    idx = 0
    for a in range(0, 9, 2):
        for b in range(0, 9 - a, 3):
            c = min(8 - a - b, 2)
            terms[(a, b, c)] = coeffs[idx % len(coeffs)]
            idx += 1
    p = Poly3(terms, "zzb")
    assert p.degree() == 8
    assert fock.uvw_poly_to_zzb(fock.zzb_poly_to_uvw(p)) == p
    q = fock.zzb_poly_to_uvw(p)
    assert fock.zzb_poly_to_uvw(fock.uvw_poly_to_zzb(q)) == q


def test_raising_letters_in_the_uvw_picture():
    # conjugated by Psi0 and written in (u, v, w), the catalogue's raising
    # letters are exact first-order operators; on 1 they give -2*lam*u, v, 2*w
    u, v, w = (variable(i, SPACE_UVW) for i in range(3))
    du, dv, dw = (derivative(i, SPACE_UVW) for i in range(3))
    expected = {
        "A+": (u + dv).scale(-2 * LAM),
        "B+": v + du + dw.scale(G),
        "C+": w.scale(2) + dv.scale(2 * G) + dw.scale(-LAM),
    }
    cat = ops.catalogue()
    for name, op in expected.items():
        assert fock.uvw_picture(cat[name]) == op, name


def test_uvw_change_images_match_their_table():
    # the images that fock derives from the forward forms, against the table
    # once written out by hand
    u, v, w = (variable(i, SPACE_UVW) for i in range(3))
    du, dv, dw = (derivative(i, SPACE_UVW) for i in range(3))
    lam2 = LAM * LAM
    table = (
        (u.scale(2 * G * G) + v.scale(-LAM) + w.scale(-2 * G)).scale(ONE / lam2),
        u,
        (u.scale(G) + w.scale(-ONE)).scale(ONE / LAM),
        dv.scale(-LAM),
        du + dw.scale(G),
        dv.scale(2 * G) + dw.scale(-LAM),
    )
    assert fock._uvw_change_images() == table
    assert fock._zzb_images_in_uvw() == tuple(
        Poly3({m[:3]: c for m, c in x.terms.items()}, SPACE_UVW) for x in table[:3])


def test_uvw_change_images_keep_the_commutation_relations():
    images = fock._uvw_change_images()
    xs, ds = images[:3], images[3:]
    ident = identity_op(SPACE_UVW)
    for i in range(3):
        for j in range(3):
            assert ds[i].commutator(xs[j]) == (ident if i == j else ident.scale(0)), (i, j)
            assert xs[i].commutator(xs[j]).is_zero(), (i, j)
            assert ds[i].commutator(ds[j]).is_zero(), (i, j)


def test_uvw_layer_suite_small():
    recs = J.verify_uvw_layer(2)
    assert all(r.ok for r in recs), [r.id for r in recs if not r.ok]


def test_state_json_shape():
    doc = J.build_state(JordanLabel(0, 1, 1)).to_json()
    assert doc["label"] == {"k": 0, "n": 1, "m": 1, "energy": "2*lam"}
    assert doc["creation"] == [{"word": [0, 0, 1], "coeff": "-2*g"}]
    assert doc["uvw"] == "-4*g*w"
    assert doc["zzb"] == "-4*g^2*zb + 4*lam*g*x3"
