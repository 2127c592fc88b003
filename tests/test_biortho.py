"""Normalization constants, Gram blocks, and the orthogonalized basis."""

import math
from fractions import Fraction

import pytest

from quadosc.coeff import LAM, G, ONE, ZERO, scalar
from quadosc import biortho as B
from quadosc import fock
from quadosc.fock import wick_inner
from quadosc.jordan import JordanLabel, build_state
from quadosc.operators import catalogue
from quadosc.weyl import identity_op


def test_normalization_values():
    assert B.normalization(0, 1) == scalar(8) * LAM * G * G
    assert B.normalization(1, 1) == scalar(320) * G * G * LAM ** 3
    for k in range(4):
        want = scalar(8 ** k * math.factorial(k)
                      * B._dfact(2 * k + 1)) * LAM ** (2 * k)
        assert B.normalization(k, 0) == want


def test_norm_pairing_examples():
    assert B.norm_pairing(0, 1, 0) == scalar(8) * LAM * G * G
    assert B.norm_pairing(1, 1, 1) == scalar(320) * G * G * LAM ** 3
    # the pairing is member independent
    vals = {B.norm_pairing(1, 1, m).render() for m in range(3)}
    assert len(vals) == 1


def test_gram_block_01():
    blk = B.gram(0, 1)
    N = B.normalization(0, 1)
    assert [(h / N) for h in blk.hankel] == \
        [ZERO, ZERO, ONE, ONE / (2 * LAM), ZERO]
    assert blk.matrix[0][0].is_zero()


def test_gram_block_00():
    blk = B.gram(0, 0)
    assert blk.dimension == 1
    assert blk.matrix[0][0] == ONE


def test_degenerate_cross_block_values():
    """Blocks at the shared energy pair: the pairings with the members below
    the chain top, the (H - E) images of the top, vanish as the symmetry
    argument demands, but the pairing with the chain top (m = 2n) is a
    nonzero constant, the same in both engines."""
    bra = build_state(JordanLabel(1, 0, 0)).creation
    for m in range(4):
        ket = build_state(JordanLabel(0, 2, m)).creation
        assert wick_inner(bra, ket).is_zero()
    top = build_state(JordanLabel(0, 2, 4)).creation
    assert wick_inner(bra, top) == scalar(-8) * G * G
    s1 = fock.to_gaussian_state(bra)
    s2 = fock.to_gaussian_state(top)
    assert fock.gaussian_moment_inner(s1, s2) == scalar(-8) * G * G


@pytest.mark.parametrize("bounds", [(0, 0), (1, 1)])
def test_small_bounds_keep_the_pinned_red_record(bounds):
    # below (2, 2) the degenerate pair is appended by hand; its id and its
    # residual are the ones pinned at the default bounds
    failed = [(r.id, r.residual)
              for r in B.verify_cross_block_orthogonality(*bounds) if not r.ok]
    assert failed == [("biortho/cross-0-2-x-1-0", "m=4 x m'=0: -8*g^2")]


def test_nondegenerate_cross_blocks_vanish():
    for (k1, n1), (k2, n2) in (((0, 0), (0, 1)), ((0, 1), (0, 2)), ((1, 0), (0, 1)),
                               ((1, 0), (2, 0)), ((0, 1), (1, 1))):
        for m1 in range(2 * n1 + 1):
            for m2 in range(2 * n2 + 1):
                v = wick_inner(build_state(JordanLabel(k1, n1, m1)).creation,
                               build_state(JordanLabel(k2, n2, m2)).creation)
                assert v.is_zero(), (k1, n1, m1, k2, n2, m2, v.render())


def test_t_vanishing_examples():
    assert wick_inner(*B._t_states(2, 1, 1)).is_zero()
    assert wick_inner(*B._t_states(3, 1, 2)).is_zero()
    assert wick_inner(*B._t_states(1, 2, 1)).is_zero()
    with pytest.raises(ValueError):
        wick_inner(*B._t_states(1, 1, 0))


def test_t_record_with_unequal_degrees_is_red(monkeypatch):
    # a wrong ket power pairs words of unequal degree, which gives 0 whatever
    # the powers; the record names both degrees instead of passing
    monkeypatch.setitem(B._T_PAIRINGS, 1, ("first", 2, 0, 3, 0, 2))
    assert wick_inner(*B._t_states(1, 2, 1)).is_zero()
    records = {r.id: r for r in B.verify_T_vanishing(3, 3)}
    red = {ident: r.residual for ident, r in records.items() if not r.ok}
    assert set(red) == {i for i in records if i.startswith("biortho/T1-")} != set()
    assert red["biortho/T1-2-1"] == "bra degree 3 differs from ket degree 4"


def test_orthogonalize_block_01():
    t = B.orthogonalize(0, 1)
    rows = t.apply_rows()
    blk = B.gram(0, 1)
    assert B._phi_gram_is_antidiagonal(blk, rows)
    # t(H - E) with t = 1 - x/(4*lam) + 3*x^2/(32*lam^2): rows[m] = (t_m, ..., t_1)
    assert t.rows[0] == ()
    assert t.rows == ((), (-ONE / (4 * LAM),),
                      (scalar(Fraction(3, 32)) / LAM ** 2, -ONE / (4 * LAM)))


@pytest.mark.parametrize("k, n", [(k, n) for k in range(4) for n in range(4 - k)])
def test_orthogonalized_members_are_a_jordan_chain(k, n):
    rows = B.orthogonalize(k, n).apply_rows()
    members = [build_state(JordanLabel(k, n, m)).creation for m in range(2 * n + 1)]
    phi = [sum((members[j].scale(c) for j, c in enumerate(row)), fock.CreationPolynomial())
           for row in rows]
    h_shift = catalogue()["H"] - identity_op().scale(JordanLabel(k, n, 0).energy)
    below = fock.CreationPolynomial()
    for m, member in enumerate(phi):
        assert h_shift.apply(fock.to_gaussian_state(member)) == fock.to_gaussian_state(below), m
        below = member
    norm = B.normalization(k, n)
    for a in range(2 * n + 1):
        for b in range(a, 2 * n + 1):
            want = norm if a + b == 2 * n else ZERO
            assert wick_inner(phi[a], phi[b]) == want, (a, b)


def test_reference_phi_block_01_coefficients():
    # the published transform is a different, equally valid gauge
    blk = B.gram(0, 1)
    rows = [
        (ONE,),
        (-ONE / (2 * LAM), ONE),
        (ZERO, ZERO, ONE),
    ]
    assert B._phi_gram_is_antidiagonal(blk, rows)


def test_reference_phi_blocks_suite():
    assert all(r.ok for r in B.verify_reference_phi_blocks())


def test_orthogonalize_suite_small():
    assert all(r.ok for r in B.verify_orthogonalization(2, 2))


def test_adjoint_rules_suite():
    assert all(r.ok for r in B.verify_adjoint_rules())


def test_q_identities_small():
    assert all(r.ok for r in B.verify_q_identities(2, 2))


def test_normalization_suite_small():
    assert all(r.ok for r in B.verify_normalization(2, 2))


def test_gram_suite_small():
    assert all(r.ok for r in B.verify_gram_blocks(2, 2))


def test_gram_json():
    blk = B.gram(0, 1)
    assert blk.k == 0 and blk.n == 1
    assert B.normalization(0, 1).render() == "8*lam*g^2"
    assert blk.matrix[1][2].render() == "4*g^2"
