"""Exact scalar arithmetic: examples, ring axioms, involutions."""

import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.fields import field

from quadosc.coeff import ParamScalar, LAM, G, I, ONE, ZERO, scalar, _new
from quadosc.weyl import variable


def test_non_monomial_division_is_refused():
    # only a unit times a monomial has an inverse in Q(i)[lam^±1, g^±1]
    for divisor in (LAM - G, LAM ** 2 + I * G / 3, 1 + LAM / G, 2 * I - G):
        message = f"^cannot divide by {re.escape(divisor.render())}: not a unit times a monomial$"
        for divide in (lambda: LAM / divisor, lambda: 1 / divisor, lambda: divisor ** -2,
                       lambda: divisor / divisor):
            with pytest.raises(ValueError, match=message):
                divide()
    # a field quotient that happens to be a polynomial is refused all the same
    with pytest.raises(ValueError, match="^cannot divide by lam - g: "):
        (LAM ** 2 - G ** 2) / (LAM - G)


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


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        LAM / (LAM - LAM)
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


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
    """Laurent scalars: Gaussian-rational numerators, negative exponents
    included, over a monomial lam^a*g^b."""
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))

    def build(terms, den):
        num = ZERO
        for (i, j), c in terms:
            num = num + gauss(c) * LAM ** i * G ** j
        return num / (LAM ** den[0] * G ** den[1])

    strat = st.builds(build, st.lists(st.tuples(exps, gauss_rationals()), max_size=3),
                      st.tuples(st.integers(0, 3), st.integers(0, 3)))
    if not allow_zero:
        strat = strat.filter(lambda v: not v.is_zero())
    return strat


def units_times_monomials():
    """Nonzero Gaussian rationals times lam^a*g^b: the ring's units."""
    return st.builds(lambda c, e: gauss(c) * LAM ** e[0] * G ** e[1],
                     gauss_rationals().filter(any),
                     st.tuples(st.integers(-3, 3), st.integers(-3, 3)))


@settings(max_examples=100, deadline=None)
@given(param_scalars(), param_scalars(), param_scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == ZERO
    assert a + ZERO == a
    assert a * ONE == a


@settings(max_examples=60, deadline=None)
@given(units_times_monomials(), param_scalars())
def test_multiplicative_inverse(u, a):
    assert u * (ONE / u) == ONE
    assert (a / u) * u == a
    assert u ** -3 == ONE / (u * u * u)


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


def constants():
    small = st.integers(min_value=-6, max_value=6)
    return st.one_of(small, st.builds(Fraction, small, st.integers(min_value=1, max_value=6)),
                     gauss_rationals())


# sympy's Q(i)(lam, g), with grlex order and lam > g: the oracle for the ring
FIELD = field("lam,g", QQ_I, order="grlex")[0]


def _qq_i(re, im):
    return QQ_I.new(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))


def to_field(a):
    """A scalar as an element of sympy's field, reduced by the field."""
    ring = FIELD.ring
    s_lam = max(0, -min((i for i, _ in a._num), default=0))
    s_g = max(0, -min((j for _, j in a._num), default=0))
    num = ring.from_dict({(i + s_lam, j + s_g): _qq_i(Fraction(x), Fraction(y))
                          for (i, j), (x, y) in a._num.items()})
    den = ring.from_dict({(s_lam, s_g): _qq_i(Fraction(a._den[(0, 0)][0]), Fraction(0))})
    return FIELD.new(num, den)


def from_field(frac):
    """The canonical scalar of an element of sympy's field whose denominator
    is a unit times a monomial; the field keeps numerator and denominator
    coprime."""
    def terms(p):
        return {m: (Fraction(int(c.x.numerator), int(c.x.denominator)),
                    Fraction(int(c.y.numerator), int(c.y.denominator)))
                for m, c in p.items()}

    num, den = terms(frac.numer), terms(frac.denom)
    assert len(den) == 1, "not a Laurent value"
    # times the conjugate of den's coefficient, which turns it real and
    # positive; then to coprime integers, and den's monomial into num's
    # exponents
    ((s_lam, s_g), (x0, y0)), = den.items()
    num = {m: (x * x0 + y * y0, y * x0 - x * y0) for m, (x, y) in num.items()}
    d = x0 * x0 + y0 * y0
    parts = [q for c in num.values() for q in c] + [d]
    scale = lcm(*(q.denominator for q in parts))
    content = gcd(*(q.numerator * (scale // q.denominator) for q in parts))
    return _new({(a - s_lam, b - s_g): (int(x * scale) // content, int(y * scale) // content)
                 for (a, b), (x, y) in num.items()},
                {(0, 0): (int(d * scale) // content, 0)})


def _field_conjugate(frac):
    """I -> -I on a field element, reduced again by the field itself."""
    def conj(p):
        return p.ring.from_dict({m: QQ_I.new(c.x, -c.y) for m, c in p.terms()})
    return frac.field.new(conj(frac.numer), conj(frac.denom))


@settings(max_examples=60, deadline=None)
@given(param_scalars(), param_scalars(), constants())
def test_monomial_denominator_fast_path_matches_field(a, b, c):
    # differential test: each result must be the very canonical pair that
    # sympy's fraction field gives, not merely an equal value
    fa, fb = to_field(a), to_field(b)
    re_c, im_c = gauss_pair(c)
    field_c = FIELD.ground_new(_qq_i(re_c, im_c))
    # a unit times a monomial, with exponents of b's (negative ones too)
    e_lam, e_g = next(iter(b._num), (1, 1))
    u = (gauss(c) or ONE) * LAM ** e_lam * G ** e_g
    fu = to_field(u)
    cases = [(a + b, fa + fb), (a - b, fa - fb), (b - a, fb - fa), (1 - a, 1 - fa),
             (a * b, fa * fb), (-a, -fa),
             (gauss(c), field_c), (a.conjugate(), _field_conjugate(fa)),
             (a / u, fa / fu), (u ** -2, fu ** -2)]
    cases += [(a ** n, fa ** n if n else FIELD.one) for n in range(4)]   # sympy: 0**0 raises
    for got, frac in cases:
        want = from_field(frac)
        assert (got._num, got._den) == (want._num, want._den)
        assert hash(got) == hash(want)
        assert got.render() == want.render()


def test_constants_and_conjugates_run_no_gcd():
    # a constant is already the canonical pair c/1, and conjugation keeps a
    # pair canonical; no route of the ring has a polynomial GCD (the CLI
    # tests run the suites with sympy blocked)
    assert ParamScalar(3).render() == "3"
    assert ParamScalar(Fraction(1, 2)).render() == "1/2"
    assert (LAM * 3).render() == "3*lam"
    assert G.conjugate() == G
    assert variable(0).scale(2).render() == "2*z"
    # division by a unit times a monomial, and its powers
    assert (ONE / (2 * LAM)).render() == "(1/2)/lam"
    assert (LAM / G).render() == "lam/g"
    assert ((LAM * G) ** -2).render() == "1/(lam^2*g^2)"
    # exactness guard: no floats, no strings
    for bad in (1.5, "1"):
        with pytest.raises(TypeError):
            ParamScalar(bad)


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
    assert (Fraction(1, 4) + I / 3).render() == "(1/4 + 1/3*I)"
    # powers square repeatedly: 10^8 products would not finish
    assert (LAM ** 100_000_000).render() == "lam^100000000"
    # the denominator is the monomial; a product of letters is parenthesized
    assert ((LAM + G) / (2 * LAM * G ** 2)).render() == "((1/2)*lam + (1/2)*g)/(lam*g^2)"
    assert ((LAM + G) / (2 * LAM ** 2)).render() == "((1/2)*lam + (1/2)*g)/lam^2"
    assert (LAM ** -1 + G ** -2).render() == "(g^2 + lam)/(lam*g^2)"
