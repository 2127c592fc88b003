"""Exact scalar arithmetic: examples, field axioms, involutions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.rings import PolyElement

from quadosc.coeff import GaussianRational, ParamScalar, LAM, G, I, ONE, ZERO, scalar
from quadosc.weyl import variable


def poly_divide_oracle(num_coeffs, den_coeffs):
    """Long division of univariate polynomials with Fraction coefficients,
    highest degree first; returns (quotient, remainder)."""
    num = list(num_coeffs)
    den = list(den_coeffs)
    out = []
    while len(num) >= len(den):
        factor = num[0] / den[0]
        out.append(factor)
        for i, d in enumerate(den):
            num[i] -= factor * d
        assert num[0] == 0
        num.pop(0)
    return out, num


def test_reduction_matches_long_division():
    # (lam^2 - g^2) / (lam - g), treating g as a constant in the oracle:
    # coefficients in Q[g] represented by polynomials evaluated symbolically
    # is overkill; division by a monic linear factor has rational logic only.
    quotient, remainder = poly_divide_oracle(
        [Fraction(1), Fraction(0), Fraction(-1)], [Fraction(1), Fraction(-1)])
    # with g = 1: quotient lam + 1, remainder 0; the symbolic result must
    # specialize to it
    assert remainder == [Fraction(0)]
    sym = (LAM ** 2 - G ** 2) / (LAM - G)
    assert sym == LAM + G
    assert sym.evaluate(7, 1) == GaussianRational(7 + 1)
    assert quotient == [Fraction(1), Fraction(1)]


def test_inverse_pair():
    assert (LAM / G) * (G / LAM) == ONE


def test_half_plus_half():
    assert 1 / (2 * LAM) + 1 / (2 * LAM) == ONE / LAM


@pytest.mark.parametrize("value, expected", [
    (I * LAM, -(I * LAM)),
    (scalar(3) / (2 * G), scalar(3) / (2 * G)),
    ((1 + I) * G ** 2, (1 - I) * G ** 2),
])
def test_conjugate_examples(value, expected):
    assert value.conjugate() == expected


def test_evaluate_examples():
    assert (LAM ** 2 * G).evaluate(2, 1) == GaussianRational(4)
    assert (1 / (2 * LAM)).evaluate(Fraction(1, 2), Fraction(1, 4)) == GaussianRational(1)
    with pytest.raises(ZeroDivisionError):
        (1 / (LAM - G)).evaluate(1, 1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        LAM / (LAM - LAM)


def gauss_rationals():
    small = st.integers(min_value=-4, max_value=4)
    return st.builds(lambda a, b, c: GaussianRational(Fraction(a, 3), Fraction(b, max(c, 1))),
                     small, small, st.integers(min_value=1, max_value=3))


def param_scalars(allow_zero=True):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    term = st.tuples(exps, gauss_rationals())
    # denominator terms get real coefficients: 1 + a sum of real squares
    # cannot vanish, while Gaussian squares can (1 + I^2 = 0)
    real_term = st.tuples(exps, st.integers(min_value=-4, max_value=4))

    def build(terms, dens):
        num = ZERO
        for (i, j), c in terms:
            num = num + scalar(c) * LAM ** i * G ** j
        den = ONE
        for (i, j), c in dens:
            den = den + (scalar(c) * LAM ** i * G ** j) ** 2
        return num / den

    strat = st.builds(build, st.lists(term, max_size=3), st.lists(real_term, max_size=2))
    if not allow_zero:
        strat = strat.filter(lambda v: not v.is_zero())
    return strat


@settings(max_examples=40, deadline=None)
@given(param_scalars(), param_scalars(), param_scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=30, deadline=None)
@given(param_scalars(allow_zero=False))
def test_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE


@settings(max_examples=40, deadline=None)
@given(param_scalars(), param_scalars())
def test_conjugate_is_ring_homomorphism_and_involution(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=40, deadline=None)
@given(param_scalars())
def test_canonical_form_idempotent(a):
    # rebuilding from the same value must give identical internals
    again = ParamScalar(a)
    assert again == a
    assert hash(again) == hash(a)
    assert again.render() == a.render()


def laurent_scalars():
    """Scalars whose denominator is a monomial lam^a*g^b, the case that
    `+`, `-` and `*` compute without a GCD."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))

    def build(terms, den):
        num = ZERO
        for (i, j), c in terms:
            num = num + scalar(c) * LAM ** i * G ** j
        return num / (LAM ** den[0] * G ** den[1])

    return st.builds(build, st.lists(st.tuples(exps, gauss_rationals()), max_size=3), exps)


def constants():
    small = st.integers(min_value=-6, max_value=6)
    return st.one_of(small, st.builds(Fraction, small, st.integers(min_value=1, max_value=6)),
                     gauss_rationals())


def _field_conjugate(frac):
    """I -> -I on a field element, reduced again by the field itself."""
    def conj(p):
        return p.ring.from_dict({m: QQ_I.new(c.x, -c.y) for m, c in p.terms()})
    return frac.field.new(conj(frac.numer), conj(frac.denom))


@settings(max_examples=60, deadline=None)
@given(st.one_of(laurent_scalars(), param_scalars()), laurent_scalars(), constants())
def test_monomial_denominator_fast_path_matches_field(a, b, c):
    # differential test: each result must be the very canonical pair that
    # sympy's fraction field gives, not merely an equal value
    fa, fb = a._frac(), b._frac()
    gc = c if isinstance(c, GaussianRational) else GaussianRational(c)
    field_c = fa.field.ground_new(QQ_I.new(QQ(gc.re.numerator, gc.re.denominator),
                                           QQ(gc.im.numerator, gc.im.denominator)))
    cases = [(a + b, fa + fb), (a - b, fa - fb), (b - a, fb - fa), (1 - a, 1 - fa),
             (a * b, fa * fb), (-a, -fa),
             (ParamScalar(c), field_c), (a.conjugate(), _field_conjugate(fa))]
    for got, frac in cases:
        want = ParamScalar._raw(frac)
        assert (got._num, got._den) == (want._num, want._den)
        assert hash(got) == hash(want)
        assert got.render() == want.render()


def test_constants_and_conjugates_run_no_gcd(monkeypatch):
    # a constant is already the canonical pair c/1, and conjugation keeps a
    # pair canonical, so neither may reach the fraction field's cancel
    def cancel(*args):
        raise AssertionError("GCD on a route that cannot need one")

    monkeypatch.setattr(PolyElement, "cancel", cancel)
    assert ParamScalar(3).render() == "3"
    assert ParamScalar(Fraction(1, 2)).render() == "1/2"
    assert (LAM * 3).render() == "3*lam"
    assert G.conjugate() == G
    assert variable(0).scale(2).render() == "2*z"
    # exactness guard: no floats, no strings
    for bad in (1.5, "1"):
        with pytest.raises(TypeError):
            ParamScalar(bad)


def test_render_examples():
    assert (Fraction(3, 2) * LAM ** 2 * G - I * G ** 3).render() == "(3/2)*lam^2*g - I*g^3"
    assert (1 / (2 * LAM)).render() == "(1/2)/lam"
    assert ZERO.render() == "0"
    # denominators are normalized monic under graded lex order
    assert ((LAM + G) / (2 * LAM + 2 * G ** 2)).render() == \
        "((1/2)*lam + (1/2)*g)/(g^2 + lam)"
