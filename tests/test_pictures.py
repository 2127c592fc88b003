"""The three pictures (conjugation by Psi0, the change to (u, v, w) and the
letter picture) are symplectic 6x6 matrices read into images by one reader.
Each is checked here against the images once built by hand as operator sums,
its inverse against the identity, and its guard against a planted fault."""

import pytest

from quadosc import fock, weyl
from quadosc import operators as ops
from quadosc.coeff import G, LAM, ONE, ZERO
from quadosc.weyl import (Poly3, SPACE_UVW, SPACE_ZZB, WeylOperator, derivative, variable,
                          symplectic_inverse)

NAMES = sorted(ops.catalogue())


def hand_conjugation_images():
    """d_i -> d_i + (d_i log Psi0), the log-derivatives written out."""
    z, zb, x3, dz, dzb, d3 = [variable(i) for i in range(3)] + [derivative(i) for i in range(3)]
    half = ONE / 2
    return (z, zb, x3,
            dz + zb.scale(-half * LAM),
            dzb + z.scale(-half * LAM) + x3.scale(G),
            d3 + x3.scale(-LAM) + zb.scale(G))


def hand_uvw_images():
    """The zzb generators in (u, v, w): the variables by the cofactor inverse
    of the forms, each derivative d/dx_j by the chain rule, as operator sums."""
    F, u = fock._UVW_FORMS, [variable(i, SPACE_UVW) for i in range(3)]
    zero = WeylOperator({}, SPACE_UVW)
    xs = tuple(sum((x.scale(c) for x, c in zip(u, row)), zero) for row in fock._inverse3(F))
    ds = tuple(sum((derivative(i, SPACE_UVW).scale(F[i][j]) for i in range(3)), zero)
               for j in range(3))
    return xs + ds


def hand_letter_images():
    """The catalogue letters inverted by hand from their letter pictures."""
    t = fock._letter_targets()
    half = ONE / 2
    zb = (t["A-"] - t["A+"]).scale(half / LAM)
    x3 = ((t["C-"] - t["C+"]).scale(half) + zb.scale(G)).scale(ONE / LAM)
    z = ((t["B-"] - t["B+"]).scale(half) + x3.scale(G)).scale(2 / LAM)
    return (z, zb, x3, (t["A+"] + t["A-"]).scale(half * half),
            (t["B+"] + t["B-"]).scale(half), (t["C+"] + t["C-"]).scale(half))


PICTURES = {"psi0": weyl._psi0_images, "uvw": lambda: fock._uvw_images()[0],
            "letter": fock._letter_images}


def matrix_of(images):
    """The rows read back off the images: row i is image i's coefficients on
    the six generators, and an image must have no other term."""
    units = [tuple(int(k == j) for k in range(6)) for j in range(6)]
    assert all(set(image.terms) <= set(units) for image in images)
    return [[image.terms.get(u, ZERO) for u in units] for image in images]


def test_the_images_are_the_hand_built_images():
    assert weyl._psi0_images() == hand_conjugation_images()
    assert fock._uvw_images()[0] == hand_uvw_images()
    assert fock._letter_images() == hand_letter_images()


@pytest.mark.parametrize("name", NAMES)
def test_each_picture_substitutes_as_its_hand_built_images(name):
    op = ops.op(name)
    conjugated = op.substitute(hand_conjugation_images())
    assert weyl._conjugated(op) == conjugated
    assert fock.uvw_picture(op) == conjugated.substitute(hand_uvw_images())
    assert fock.letter_picture(op) == op.substitute(hand_letter_images())


def test_polynomials_change_variables_as_the_hand_built_forms():
    # the variable block and its inverse, against the forms as polynomials
    state = fock.to_gaussian_state(fock.expand_q_power(2) + fock.CreationPolynomial.word(1, 0, 3))
    xs = tuple(Poly3({m[:3]: c for m, c in x.terms.items()}, SPACE_UVW)
               for x in hand_uvw_images()[:3])
    forms = tuple(Poly3({tuple(int(k == j) for k in range(3)): c
                         for j, c in enumerate(row)}, SPACE_ZZB) for row in fock._UVW_FORMS)
    uvw = fock.zzb_poly_to_uvw(state.poly)
    assert uvw == state.poly.substitute(xs)
    assert fock.uvw_poly_to_zzb(uvw) == uvw.substitute(forms) == state.poly


@pytest.mark.parametrize("picture", sorted(PICTURES))
def test_the_symplectic_inverse_is_the_inverse(picture):
    M = matrix_of(PICTURES[picture]())
    N = symplectic_inverse(M)
    for left, right in ((M, N), (N, M)):
        for i in range(6):
            for j in range(6):
                entry = sum((left[i][k] * right[k][j] for k in range(6)), ZERO)
                assert entry == (1 if i == j else 0), (picture, i, j)


def test_an_asymmetric_psi0_gradient_breaks_the_guard(monkeypatch):
    table = [list(row) for row in weyl._LOG_PSI0_GRADIENT]
    table[0][1] = table[0][1] * 3
    monkeypatch.setattr(weyl, "_LOG_PSI0_GRADIENT", table)
    with pytest.raises(ValueError, match="Psi0 conjugation images 3 and 4 break the commutation"):
        weyl._psi0_images.__wrapped__()


def test_a_wrong_uvw_inverse_breaks_the_guard(monkeypatch):
    # blockdiag(F^-1, F^T) keeps the relations for every invertible F, so the
    # guard sees a variable block that is not the inverse of the forms; the
    # forms themselves are pinned by the hand table in test_jordan.py
    inverse3 = fock._inverse3

    def wrong(M):
        rows = [list(row) for row in inverse3(M)]
        rows[2][0] = rows[2][0] + LAM
        return rows
    monkeypatch.setattr(fock, "_inverse3", wrong)
    with pytest.raises(ValueError, match="uvw change images 2 and 4 break the commutation"):
        fock._uvw_images.__wrapped__()


def test_a_quadratic_catalogue_letter_breaks_the_letter_picture(monkeypatch):
    z, zb = variable(0), variable(1)
    monkeypatch.setitem(ops.catalogue(), "B-", ops.op("B-") + (z * zb).scale(G))
    with pytest.raises(ValueError, match="B- is not a linear form"):
        fock._letter_images.__wrapped__()
