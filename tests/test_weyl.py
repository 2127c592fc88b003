"""Weyl algebra: normal ordering, involutions, and the action on states."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

_SLOW_OK = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large,
                                           HealthCheck.filter_too_much])

from quadosc import coeff, weyl
from quadosc.coeff import LAM, G, I, ONE, ZERO, ParamScalar, scalar
from quadosc.weyl import (WeylOperator, Poly3, GaussianState, SPACE_ZZB, SPACE_UVW,
                          variable, derivative, identity_op, ground_state,
                          poly_var, poly_one)
from quadosc.operators import boson, catalogue

Z, ZB, X3 = (variable(i) for i in range(3))
DZ, DZB, D3 = (derivative(i) for i in range(3))
IDENT = identity_op()


def test_normal_ordering_basics():
    assert DZ * Z == Z * DZ + IDENT
    assert DZ * ZB == ZB * DZ
    assert D3 * X3 * X3 == X3 * X3 * D3 + X3.scale(2)


def test_higher_order_reordering():
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    lhs = DZ * DZ * Z * Z
    rhs = Z * Z * DZ * DZ + (Z * DZ).scale(4) + IDENT.scale(2)
    assert lhs == rhs


def test_ladder_pair_commutes():
    cat = catalogue()
    assert cat["A-"].commutator(cat["A+"]).is_zero()


def test_h_commutators():
    cat = catalogue()
    assert cat["H"].commutator(cat["A+"]) == cat["A+"].scale(2 * LAM)
    assert cat["H"].commutator(cat["Q+"]) == cat["Q+"].scale(4 * LAM)


def test_transpose_example():
    # integration-by-parts transpose keeps each variable in place
    assert (Z * DZ).transpose() == -(Z * DZ) - IDENT
    assert (X3 * D3).transpose() == -(X3 * D3) - IDENT


def transpose_oracle(a):
    """The transpose monomial by monomial: each x^a d^d goes to the product
    (-1)^|d| d^d * x^a of two one-term operators."""
    out = WeylOperator({}, SPACE_ZZB)
    for (p, q, r, d, e, f), coeff in a.terms.items():
        sign = -1 if (d + e + f) % 2 else 1
        ders = WeylOperator({(0, 0, 0, d, e, f): scalar(sign)}, SPACE_ZZB)
        out = out + ders * WeylOperator({(p, q, r, 0, 0, 0): coeff}, SPACE_ZZB)
    return out


def test_transpose_multiplies_no_operators(monkeypatch):
    # the transpose reads each term's reordering off the product rule
    cat = catalogue()
    letters = [variable(i) for i in range(3)] + [derivative(i) for i in range(3)]
    cases = [cat["H"], cat["Q+"], Z * DZ] + letters
    expected = [transpose_oracle(a) for a in cases]

    def refuse(self, other):
        raise AssertionError("transpose multiplied two operators")

    monkeypatch.setattr(WeylOperator, "__mul__", refuse)
    assert [a.transpose() for a in cases] == expected


def test_adjoint_examples():
    # the Hermitian adjoint swaps the conjugate pair of variables
    assert (Z * DZ).formal_adjoint() == -(ZB * DZB) - IDENT
    assert X3.scale(I).formal_adjoint() == X3.scale(-I)
    cat = catalogue()
    assert cat["H"].formal_adjoint() == cat["H"].eta_conjugate()


def test_eta_examples():
    cat = catalogue()
    assert Z.eta_conjugate() == ZB
    assert cat["H"].eta_conjugate() == cat["H"].formal_adjoint()
    assert cat["A+"].formal_adjoint().eta_conjugate() == -cat["A-"]


def test_apply_examples():
    cat = catalogue()
    psi0 = ground_state()
    assert cat["A-"].apply(psi0).is_zero()
    assert cat["Q-"].apply(psi0).is_zero()
    assert cat["B-"].apply(psi0).is_zero()
    assert cat["C-"].apply(psi0).is_zero()
    assert cat["A+"].apply(psi0) == GaussianState(poly_var(1).scale(-2 * LAM))
    assert cat["H"].apply(psi0).is_zero()


def test_state_renders_as_its_polynomial_times_psi0():
    assert ground_state().render() == "(1) * Psi0"
    assert repr(catalogue()["A+"].apply(ground_state())) == "GaussianState((-2*lam*zb) * Psi0)"


def test_state_keeps_the_operator_protocol():
    psi0 = ground_state()
    with pytest.raises(TypeError):
        psi0 + 1
    with pytest.raises(TypeError):
        1 - psi0
    with pytest.raises(TypeError):
        psi0 * psi0
    assert (psi0 == poly_one()) is False
    assert 2 * psi0 == psi0.scale(2)
    assert psi0.poly == poly_one()


def small_scalars():
    # Gaussian rationals, negative powers and a sum over a monomial
    # denominator, so that the kernel's common denominators differ
    return st.sampled_from([ONE, -ONE, LAM, G, I, LAM * G, ONE + G, scalar(2),
                            scalar(3) / 4 - I / 2, I / (2 * LAM), G / (3 * LAM ** 2),
                            I / (2 * LAM) + G])


def monomials(top=1):
    e = st.integers(0, top)
    return st.tuples(e, e, e, e, e, e)


def operators(top=1):
    term = st.tuples(monomials(top), small_scalars())
    return st.builds(
        lambda ts: WeylOperator({m: c for m, c in ts}, SPACE_ZZB),
        st.lists(term, min_size=0, max_size=3))


def states(top=2):
    e = st.integers(0, top)
    term = st.tuples(st.tuples(e, e, e), small_scalars())
    return st.builds(
        lambda ts: GaussianState(Poly3({m: c for m, c in ts}, SPACE_ZZB)),
        st.lists(term, min_size=0, max_size=3))


@_SLOW_OK
@given(operators(), operators(), operators())
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@_SLOW_OK
@given(operators(), operators())
def test_adjoint_antihomomorphism(a, b):
    assert (a * b).formal_adjoint() == b.formal_adjoint() * a.formal_adjoint()
    assert a.formal_adjoint().formal_adjoint() == a
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert a.eta_conjugate().eta_conjugate() == a
    assert (a * b).eta_conjugate() == a.eta_conjugate() * b.eta_conjugate()


@_SLOW_OK
@given(operators(), operators(), states())
def test_apply_is_module_action(a, b, s):
    assert (a * b).apply(s) == a.apply(b.apply(s))
    assert (a + b).apply(s) == a.apply(s) + b.apply(s)


def diff_oracle(poly, axis):
    """d/dx_axis of a bare polynomial, term by term."""
    out = Poly3({}, poly.space)
    for m, c in poly.terms.items():
        if m[axis]:
            lower = list(m)
            lower[axis] -= 1
            out = out + Poly3({tuple(lower): c * m[axis]}, poly.space)
    return out


def times_oracle(p, q):
    """The product of two polynomials, one ParamScalar operation at a time."""
    out = {}
    for (a, b, c), c1 in p.terms.items():
        for (x, y, z), c2 in q.terms.items():
            m = (a + x, b + y, c + z)
            out[m] = out.get(m, ZERO) + c1 * c2
    return Poly3(out, p.space)


def _std_dlog_rules():
    """(d_z, d_zb, d_3) log Psi0, written out by hand."""
    z, zb, x3 = (poly_var(i) for i in range(3))
    half_lam = LAM / scalar(2)
    return (zb.scale(-half_lam),
            z.scale(-half_lam) + x3.scale(G),
            x3.scale(-LAM) + zb.scale(G))


_STD = _std_dlog_rules()


def act_oracle(a, poly, rules=None):
    """The action of ``a`` on ``poly`` times a weight with logarithmic
    derivatives ``rules`` (None: no weight), one derivative at a time: d_i
    acts on a weighted polynomial p as p -> d_i p + rules[i] * p."""
    out = Poly3({}, poly.space)
    for (p, q, r, d, e, f), coeff in a.terms.items():
        cur = poly
        for axis, count in ((0, d), (1, e), (2, f)):
            for _ in range(count):
                step = diff_oracle(cur, axis)
                cur = step if rules is None else step + times_oracle(cur, rules[axis])
        out = out + times_oracle(cur, Poly3({(p, q, r): coeff}, poly.space))
    return out


@_SLOW_OK
@given(operators(2), states())
def test_apply_matches_the_log_derivative_rule(a, s):
    # conjugating by Psi0 once, against d_i + (d_i log Psi0) per step
    assert a.apply(s).poly == act_oracle(a, s.poly, _STD)


@_SLOW_OK
@given(operators(3), states(3), st.sampled_from([SPACE_ZZB, SPACE_UVW]))
def test_apply_poly_matches_iterated_derivatives(a, s, space):
    # the falling-factorial contraction against one derivative at a time
    op = WeylOperator(a.terms, space)
    poly = Poly3(s.poly.terms, space)
    assert op.apply_poly(poly) == act_oracle(op, poly)


def adjoint_oracle(a):
    """The Hermitian adjoint monomial by monomial: each x^(p,q,r) d^(d,e,f)
    goes to (-1)^(d+e+f) d^(e,d,f) x^(q,p,r), coefficient conjugated."""
    out = WeylOperator({}, SPACE_ZZB)
    for (p, q, r, d, e, f), coeff in a.terms.items():
        sign = -1 if (d + e + f) % 2 else 1
        ders = WeylOperator({(0, 0, 0, e, d, f): scalar(sign)}, SPACE_ZZB)
        vars_ = WeylOperator({(q, p, r, 0, 0, 0): coeff.conjugate()}, SPACE_ZZB)
        out = out + ders * vars_
    return out


@_SLOW_OK
@given(operators())
def test_adjoint_matches_the_monomial_rule(a):
    assert a.formal_adjoint() == adjoint_oracle(a)


@_SLOW_OK
@given(operators(), operators(), operators())
def test_jacobi_identity(a, b, c):
    total = (a.commutator(b.commutator(c))
             + c.commutator(a.commutator(b))
             + b.commutator(c.commutator(a)))
    assert total.is_zero()


@_SLOW_OK
@given(operators(2), st.one_of(operators(2), small_scalars(), st.integers(-2, 2)))
def test_bracket_kernel_matches_the_products(a, b):
    # the kernel contracts each term pair once; the products build ab and ba
    # in full, so the zero operator, constants and scalars all take both paths
    assert a.commutator(b) == a * b - b * a
    assert a.anticommutator(b) == a * b + b * a
    if isinstance(b, WeylOperator):
        other = WeylOperator(b.terms, SPACE_UVW)
        for bracket in (a.commutator, a.anticommutator):
            with pytest.raises(ValueError):
                bracket(other)


def merged_products(m1, m2, sign):
    """The bracket expansion as the two products' lists merged, zeros dropped."""
    merged = dict(weyl._reorder(m1, m2))
    for m, w in weyl._reorder(m2, m1):
        merged[m] = merged.get(m, 0) + sign * w
    return {m: w for m, w in merged.items() if w}


@pytest.mark.parametrize("sign", [1, -1])
def test_bracket_expansion_matches_the_merged_products(sign):
    # one pass over j against m1*m2 + sign*m2*m1 built from both products:
    # every pair with exponents in {0, 1}, and a seeded sample up to 3
    bits = list(itertools.product((0, 1), repeat=6))
    rng = random.Random(2010)
    sample = [tuple(tuple(rng.randint(0, 3) for _ in range(6)) for _ in range(2))
              for _ in range(300)]
    for m1, m2 in list(itertools.product(bits, repeat=2)) + sample:
        pairs = weyl._bracket_terms(m1, m2, sign)
        assert len(dict(pairs)) == len(pairs)
        assert dict(pairs) == merged_products(m1, m2, sign), (m1, m2)


def contract_oracle(a, b, expand, *args):
    """The kernel's sum, one ParamScalar operation at a time."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            for m, k in expand(m1, m2, *args):
                out[m] = out.get(m, ZERO) + c1 * c2 * k
    return {m: c for m, c in out.items() if c}


@_SLOW_OK
@given(operators(), operators(), states(), states())
def test_contract_matches_scalar_arithmetic(a, b, s, t):
    # integer sums over a common denominator against ParamScalar operators,
    # for the product, both brackets, the action on a polynomial and the
    # polynomial product; scaled by I/(2*lam) + g, every coefficient of an
    # operand has a denominator and two terms
    k = I / (2 * LAM) + G
    for x, p in ((a, s.poly), (a.scale(k), s.poly.scale(k))):
        for left, right, expand, args in (
                (x, b, weyl._reorder, ()), (x, b, weyl._bracket_terms, (-1,)),
                (x, b, weyl._bracket_terms, (1,)), (x, t.poly, weyl._act, ()),
                (p, t.poly, weyl._times, ())):
            got = weyl._contract(left.terms, right.terms, expand, *args)
            assert weyl._clean(got) == contract_oracle(left, right, expand, *args)


def test_contract_skips_empty_operands(monkeypatch):
    # an empty operand gives the empty sum at once: no expansion is looked up
    # and neither operand's coefficients are read
    def refuse(*args):
        raise AssertionError("called")

    terms = (Z * DZ + IDENT.scale(I / (2 * LAM))).terms
    for name in ("_lcd", "_flatten"):
        monkeypatch.setattr(weyl, name, refuse)
    for pair in (({}, terms), (terms, {}), ({}, {})):
        assert weyl._contract(*pair, refuse) == {}
        assert weyl._contract(*pair, refuse, -1) == {}


def test_bracket_kernel_makes_no_scalar_operator_call(monkeypatch):
    # the kernel sums integers and builds one value per output monomial, for
    # brackets, the action on a polynomial and the polynomial product;
    # [E12, D+13] cancels to zero; [E12, D+23] = D+13 does not
    e12, b = catalogue()["E12"], boson()
    pairs = [(e12, b["D+13"].even), (e12, b["D+23"].even)]
    poly = (poly_var(0) * poly_var(1)).scale(I / (2 * LAM)) + poly_var(1).scale(G) + poly_one()
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        def counted(*args, _name=name, _op=getattr(ParamScalar, name)):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(ParamScalar, name, counted)
    built = []
    new = coeff._new

    def counted_new(num, den):
        built.append(num)
        return new(num, den)

    monkeypatch.setattr(coeff, "_new", counted_new)
    brackets = [x.commutator(y) for x, y in pairs]
    acted, squared = e12.apply_poly(poly), poly * poly
    assert calls == []
    assert len(built) == sum(len(v.terms) for v in brackets + [acted, squared])
    assert brackets[0].is_zero() and not brackets[1].is_zero()
    assert not acted.is_zero() and len(squared.terms) > len(poly.terms)
    monkeypatch.undo()
    for (x, y), bracket in zip(pairs, brackets):
        assert bracket == x * y - y * x
    assert acted == act_oracle(e12, poly) and squared == times_oracle(poly, poly)


def test_space_mismatch_rejected():
    u = variable(0, SPACE_UVW)
    with pytest.raises(ValueError):
        _ = Z + u
    with pytest.raises(ValueError):
        _ = Z * u
    with pytest.raises(ValueError):
        Z.apply_poly(poly_var(0, SPACE_UVW))
    with pytest.raises(ValueError):
        _ = poly_var(0) * poly_var(0, SPACE_UVW)


def test_power_equals_repeated_product():
    cat = catalogue()
    poly = poly_var(0) + poly_var(2).scale(G) - poly_one().scale(LAM)
    for x, unit in ((cat["A+"], IDENT), (cat["Q+"], IDENT), (poly, poly_one())):
        want = unit
        for n in range(6):
            assert x ** n == want, n
            want = want * x
    with pytest.raises(ValueError):
        _ = Z ** -1


def test_power_squares_repeatedly():
    products = [0]

    class Counted(Poly3):
        __slots__ = ()

        def __mul__(self, other):
            products[0] += 1
            return super().__mul__(other)

    n = 100_000
    x = Counted({(1, 0, 0): G}, SPACE_ZZB)
    assert x ** n == Poly3({(n, 0, 0): G ** n}, SPACE_ZZB)
    assert products[0] == n.bit_length() + bin(n).count("1") - 2
