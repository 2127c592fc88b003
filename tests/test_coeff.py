"""Exact scalar arithmetic: examples, field axioms, involutions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.rings import PolyElement

from quadosc.coeff import ParamScalar, LAM, G, I, ONE, ZERO, scalar
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
    assert sym.evaluate(7, 1) == ParamScalar(7 + 1)
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
    assert (LAM ** 2 * G).evaluate(2, 1) == ParamScalar(4)
    assert (1 / (2 * LAM)).evaluate(Fraction(1, 2), Fraction(1, 4)) == ParamScalar(1)
    with pytest.raises(ZeroDivisionError):
        (1 / (LAM - G)).evaluate(1, 1)


def test_evaluate_at_gaussian_points():
    # (1 + I/2)^2 * (1/3) = 1/4 + I/3, a constant
    got = (LAM ** 2 * G).evaluate(1 + I / 2, Fraction(1, 3))
    assert got == scalar(Fraction(1, 4)) + I / 3
    assert got.render() == "(1/4 + 1/3*I)"
    assert (LAM / (LAM - I * G)).evaluate(1, I) == ParamScalar(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        (1 / (LAM - I * G)).evaluate(I, 1)
    # a point must be a constant: no parameter, no float, no string
    for bad in (LAM, G / 2, 1 / (LAM + G), 1.5, "1"):
        with pytest.raises(TypeError):
            (LAM + G).evaluate(bad, 1)
        with pytest.raises(TypeError):
            (LAM + G).evaluate(1, bad)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        LAM / (LAM - LAM)


def gauss_rationals():
    """Gaussian rationals as (re, im) pairs of Fractions."""
    small = st.integers(min_value=-4, max_value=4)
    return st.builds(lambda a, b, c: (Fraction(a, 3), Fraction(b, max(c, 1))),
                     small, small, st.integers(min_value=1, max_value=3))


def gauss_pair(c):
    """(re, im) of an int, a Fraction or a pair."""
    return c if isinstance(c, tuple) else (Fraction(c), Fraction(0))


def gauss(c):
    """The constant re + im*I of an int, a Fraction or a pair."""
    re, im = gauss_pair(c)
    return ParamScalar(re) + I * im


def param_scalars(allow_zero=True):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    term = st.tuples(exps, gauss_rationals())
    # denominator terms get real coefficients: 1 + a sum of real squares
    # cannot vanish, while Gaussian squares can (1 + I^2 = 0)
    real_term = st.tuples(exps, st.integers(min_value=-4, max_value=4))

    def build(terms, dens):
        num = ZERO
        for (i, j), c in terms:
            num = num + gauss(c) * LAM ** i * G ** j
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
            num = num + gauss(c) * LAM ** i * G ** j
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
    re, im = gauss_pair(c)
    field_c = fa.field.ground_new(QQ_I.new(QQ(re.numerator, re.denominator),
                                           QQ(im.numerator, im.denominator)))
    # a unit times a monomial, with exponents of b's (negative ones too)
    e_lam, e_g = next(iter(b._num), (1, 1))
    u = (gauss(c) or ONE) * LAM ** e_lam * G ** e_g
    fu = u._frac()
    cases = [(a + b, fa + fb), (a - b, fa - fb), (b - a, fb - fa), (1 - a, 1 - fa),
             (a * b, fa * fb), (-a, -fa),
             (gauss(c), field_c), (a.conjugate(), _field_conjugate(fa)),
             (a / u, fa / fu), (u ** -2, fu ** -2)]
    cases += [(a ** n, fa ** n if n else fa.field.one) for n in range(4)]   # sympy: 0**0 raises
    for got, frac in cases:
        want = ParamScalar._raw(frac)
        assert (got._num, got._den) == (want._num, want._den)
        assert hash(got) == hash(want)
        assert got.render() == want.render()
    # evaluation against the field's own, poles included
    ring = fa.field.ring
    for p, q in ((Fraction(1, 2), Fraction(-1, 3)), (2, 1), (0, 1), (1, 0),
                 ((Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(-2, 3)))):
        point = [(gen, QQ_I.new(*(QQ(x.numerator, x.denominator) for x in gauss_pair(v))))
                 for gen, v in zip(ring.gens, (p, q))]
        lam0, g0 = (gauss(v) if isinstance(v, tuple) else v for v in (p, q))
        den = fa.denom.evaluate(point)
        if not den:
            with pytest.raises(ZeroDivisionError):
                a.evaluate(lam0, g0)
            continue
        v = fa.numer.evaluate(point) / den
        assert a.evaluate(lam0, g0) == gauss(
            (Fraction(int(v.x.numerator), int(v.x.denominator)),
             Fraction(int(v.y.numerator), int(v.y.denominator))))


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
    # division by a unit times a monomial, and its powers, stay in the ring
    assert (ONE / (2 * LAM)).render() == "(1/2)/lam"
    assert (LAM / G).render() == "lam/g"
    assert ((LAM * G) ** -2).render() == "1/(lam^2*g^2)"
    # exactness guard: no floats, no strings, as a value or as a point
    for bad in (1.5, "1"):
        with pytest.raises(TypeError):
            ParamScalar(bad)
        with pytest.raises(TypeError):
            LAM.evaluate(bad, 1)


def test_equal_values_hash_equal():
    assert len({3, Fraction(3), ParamScalar(3)}) == 1
    assert hash(ParamScalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    # a complex constant built two ways is one value with one hash
    for x, y in ((I / 2, ParamScalar(Fraction(1, 2)) * I),
                 (1 + 2 * I, (ParamScalar(4) - I * 2) * (I / 2)),
                 (scalar(Fraction(1, 2)) + I / 3, (3 + 2 * I) / 6)):
        assert x == y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


def test_render_examples():
    assert (Fraction(3, 2) * LAM ** 2 * G - I * G ** 3).render() == "(3/2)*lam^2*g - I*g^3"
    assert (1 / (2 * LAM)).render() == "(1/2)/lam"
    assert ZERO.render() == "0"
    # powers square repeatedly: 10^8 products would not finish
    assert (LAM ** 100_000_000).render() == "lam^100000000"
    # denominators are normalized monic under graded lex order
    assert ((LAM + G) / (2 * LAM + 2 * G ** 2)).render() == \
        "((1/2)*lam + (1/2)*g)/(g^2 + lam)"
