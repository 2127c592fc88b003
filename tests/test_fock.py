"""Inner-product engines: contraction permanents vs Gaussian moments."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadosc.coeff import LAM, G, I, ONE, ZERO, scalar
from quadosc.weyl import (ground_state, GaussianState, Poly3, WeylOperator, SPACE_ZZB,
                          SPACE_UVW, SPACE_X123, poly_var)
from quadosc import fock
from quadosc import operators as ops
from quadosc.fock import CreationPolynomial, wick_inner, gaussian_moment_inner


def permanent_oracle(rows):
    """Permanent by explicit permutation sum; the independent reference for
    the inclusion-exclusion implementation."""
    n = len(rows)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        prod = ONE
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        total = total + prod
    return total


def ryser_permanent(rows):
    """Exact permanent by Ryser inclusion-exclusion with Gray-code updates."""
    p = len(rows)
    if p == 0:
        return ONE
    sums = [ZERO] * p
    total = ZERO
    gray = 0
    sign_total = -1 if p % 2 else 1
    for k in range(1, 1 << p):
        new_gray = k ^ (k >> 1)
        bit = gray ^ new_gray
        col = bit.bit_length() - 1
        if new_gray & bit:
            sums = [s + row[col] for s, row in zip(sums, rows)]
        else:
            sums = [s - row[col] for s, row in zip(sums, rows)]
        gray = new_gray
        prod = ONE
        for s in sums:
            prod = prod * s
        bits = gray.bit_count()
        term = prod if bits % 2 == 0 else -prod
        total = total + term
    return total if sign_total == 1 else -total


def contraction_rows(bra, ket):
    """The explicit d x d contraction matrix of two creation words."""
    def letters(word):
        return [x for x, n in zip("ABC", word) for _ in range(n)]
    K = fock.contraction_matrix()
    return [[K[(x, y)] for y in letters(ket)] for x in letters(bra)]


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4])
def test_ryser_against_permutation_sum(size):
    vals = [ZERO, ONE, LAM, G, -LAM, scalar(2) * G]
    rows = [[vals[(3 * i + 5 * j + i * j) % len(vals)] for j in range(size)]
            for i in range(size)]
    assert ryser_permanent(rows) == permanent_oracle(rows)


def word_pairs(max_deg):
    """Two creation words of one common degree <= max_deg."""
    def word(d):
        return st.integers(0, d).flatmap(
            lambda i: st.integers(0, d - i).map(lambda j: (i, j, d - i - j)))
    return st.integers(0, max_deg).flatmap(lambda d: st.tuples(word(d), word(d)))


@settings(max_examples=15, deadline=None)
@given(word_pairs(8))
def test_word_inner_matches_ryser(pair):
    # letter-pair tables against the explicit permanent of the contraction rows
    bra, ket = pair
    value = ryser_permanent(contraction_rows(bra, ket))
    assert fock._word_inner(bra, ket) == (-value if sum(bra) % 2 else value)


def test_word_inner_edge_cases():
    assert fock._word_inner((0, 0, 0), (0, 0, 0)) == ONE
    assert fock._word_inner((1, 1, 0), (0, 0, 1)) == ZERO
    assert fock._word_inner((0, 0, 0), (0, 2, 1)) == ZERO


def test_contraction_table_cross_validates():
    table = fock.contraction_matrix()
    assert table[("A", "B")] == -2 * LAM
    assert table[("C", "C")] == -2 * LAM
    assert table[("B", "C")] == 2 * G
    assert table[("A", "A")].is_zero()
    for rec in fock.verify_contraction_matrix():
        assert rec.ok, rec.id


def test_wick_examples():
    a = CreationPolynomial.word(1, 0, 0)
    b = CreationPolynomial.word(0, 1, 0)
    c = CreationPolynomial.word(0, 0, 1)
    assert wick_inner(a, a).is_zero()          # self-orthogonal
    assert wick_inner(c, b) == -2 * G
    q = fock.expand_q_power(1)
    assert wick_inner(q, q) == scalar(24) * LAM * LAM


def test_wick_length_parity():
    a = CreationPolynomial.word(1, 0, 0)
    ab = CreationPolynomial.word(1, 1, 0)
    assert wick_inner(a, ab).is_zero()


def test_expand_q_power():
    assert fock.expand_q_power(0) == CreationPolynomial.word(0, 0, 0)
    q1 = fock.expand_q_power(1)
    assert q1.terms == {(1, 1, 0): scalar(2), (0, 0, 2): -ONE}
    q2 = fock.expand_q_power(2)
    assert q2.terms == {(2, 2, 0): scalar(4), (1, 1, 2): scalar(-4), (0, 0, 4): ONE}
    assert q2 == q1 * q1


def test_q_power_matches_operator_route():
    cat = ops.catalogue()
    state = ground_state()
    for k in (1, 2, 3):
        state = cat["Q+"].apply(state)
        assert fock.to_gaussian_state(fock.expand_q_power(k)) == state


def test_single_letter_wavefunctions():
    lam, g = LAM, G
    z = Poly3({(1, 0, 0): ONE}, SPACE_ZZB)
    zb = Poly3({(0, 1, 0): ONE}, SPACE_ZZB)
    x3 = Poly3({(0, 0, 1): ONE}, SPACE_ZZB)
    assert fock.to_gaussian_state(CreationPolynomial.word(1, 0, 0)) == \
        GaussianState(zb.scale(-2 * lam))
    assert fock.to_gaussian_state(CreationPolynomial.word(0, 1, 0)) == \
        GaussianState(z.scale(-lam) + x3.scale(2 * g))
    assert fock.to_gaussian_state(CreationPolynomial.word(0, 0, 1)) == \
        GaussianState(zb.scale(2 * g) + x3.scale(-2 * lam))


def test_word_map_carries_corrections():
    # repeated letters are not plain monomial substitutions
    cc = fock.creation_to_uvw(CreationPolynomial.word(0, 0, 2))
    w2 = Poly3({(0, 0, 2): scalar(4)}, "uvw")
    c0 = Poly3({(0, 0, 0): -2 * LAM}, "uvw")
    assert cc == w2 + c0


def test_moment_anchors():
    psi0 = ground_state()
    assert gaussian_moment_inner(psi0, psi0) == ONE
    # second moment of the third coordinate from the exact inverse
    x3 = GaussianState(Poly3({(0, 0, 1): ONE}, SPACE_ZZB))
    assert gaussian_moment_inner(x3, x3) == ONE / (2 * LAM)


def test_moment_matches_contraction_value():
    # pairing of the first two letters reproduces the cross contraction
    a = fock.to_gaussian_state(CreationPolynomial.word(1, 0, 0))
    b = fock.to_gaussian_state(CreationPolynomial.word(0, 1, 0))
    assert gaussian_moment_inner(a, b) == 2 * LAM
    assert wick_inner(CreationPolynomial.word(1, 0, 0),
                      CreationPolynomial.word(0, 1, 0)) == 2 * LAM


def words(max_deg=3):
    return st.tuples(st.integers(0, max_deg), st.integers(0, max_deg),
                     st.integers(0, max_deg)).filter(lambda w: sum(w) <= max_deg)


def creation_polys():
    coeffs = st.sampled_from([ONE, -ONE, LAM, G, scalar(2)])
    term = st.tuples(words(), coeffs)
    return st.builds(
        lambda ts: CreationPolynomial({w: c for w, c in ts}),
        st.lists(term, min_size=0, max_size=2))


@settings(max_examples=20, deadline=None)
@given(creation_polys(), creation_polys())
def test_oracle_equivalence_random(p, q):
    assert wick_inner(p, q) == gaussian_moment_inner(
        fock.to_gaussian_state(p), fock.to_gaussian_state(q))


@settings(max_examples=25, deadline=None)
@given(creation_polys(), creation_polys())
def test_wick_symmetry(p, q):
    assert wick_inner(p, q) == wick_inner(q, p)


@settings(max_examples=25, deadline=None)
@given(words(), words())
def test_wick_vanishes_on_unequal_lengths(w1, w2):
    if sum(w1) != sum(w2):
        assert wick_inner(CreationPolynomial.word(*w1),
                          CreationPolynomial.word(*w2)).is_zero()


@settings(max_examples=10, deadline=None)
@given(creation_polys(), creation_polys())
def test_h_symmetry_of_the_form(p, q):
    # the structural source of the Hankel property
    cat = ops.catalogue()
    hp = fock.gaussian_state_to_creation(cat["H"].apply(fock.to_gaussian_state(p)))
    hq = fock.gaussian_state_to_creation(cat["H"].apply(fock.to_gaussian_state(q)))
    assert wick_inner(hp, q) == wick_inner(p, hq)


def test_eta_apply_function():
    s = fock.to_gaussian_state(CreationPolynomial.word(1, 0, 0))
    flipped = s.eta_apply()
    assert flipped.poly.terms == {(1, 0, 0): -2 * LAM}   # zb became z
    assert flipped.eta_apply() == s


def test_word_states_do_not_depend_on_letter_order():
    # the cached words apply A+ outermost; here C+ is outermost
    cat = ops.catalogue()
    for d in range(5):
        for i in range(d + 1):
            for j in range(d - i + 1):
                l = d - i - j
                state = ground_state()
                for letter, count in (("A+", i), ("B+", j), ("C+", l)):
                    for _ in range(count):
                        state = cat[letter].apply(state)
                assert fock.to_gaussian_state(CreationPolynomial.word(i, j, l)) == state


def test_word_uvw_polys_match_the_raising_letters_in_the_uvw_picture():
    # a word's (u, v, w) form, its zzb state carried over by the change of
    # variables, against the raising letters applied in the (u, v, w)
    # picture to 1, A+ outermost
    cat = ops.catalogue()
    raising = [fock.uvw_picture(cat[f"{letter}+"]) for letter in "ABC"]
    for d in range(6):
        for i in range(d + 1):
            for j in range(d - i + 1):
                word = (i, j, d - i - j)
                p = Poly3({(0, 0, 0): ONE}, SPACE_UVW)
                for axis in (2, 1, 0):
                    for _ in range(word[axis]):
                        p = raising[axis].apply_poly(p)
                assert fock._word_uvw_poly(word) == p, word


@settings(max_examples=20, deadline=None)
@given(creation_polys())
def test_round_trips_random(p):
    assert fock.gaussian_state_to_creation(fock.to_gaussian_state(p)) == p
    assert fock.uvw_to_creation(fock.creation_to_uvw(p)) == p


def uvw_peeling(p):
    """The former elimination, in (u, v, w): the graded-lex leading term of a
    word's (u, v, w) form is (-2*lam)^i * 2^l * u^i v^j w^l, so peel leading
    terms off the residue until nothing is left."""
    minus_2lam, two = scalar(-2) * LAM, scalar(2)
    residue, out = p, {}
    while not residue.is_zero():
        mono, coeff = max(residue.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        i, _, l = mono
        c = coeff / (minus_2lam ** i * two ** l)
        cur = out.get(mono)
        out[mono] = c if cur is None else cur + c
        residue = residue - fock._word_uvw_poly(mono).scale(c)
    return CreationPolynomial(out)


def zzb_polys(max_deg=3):
    coeffs = st.sampled_from([ONE, -ONE, LAM, G, scalar(2), I])
    return st.builds(lambda ts: Poly3(dict(ts), SPACE_ZZB),
                     st.lists(st.tuples(words(max_deg), coeffs), max_size=3))


def assert_elimination_matches_uvw_peeling(state):
    want = uvw_peeling(fock.zzb_poly_to_uvw(state.poly))
    assert fock.gaussian_state_to_creation(state) == want
    assert fock.uvw_to_creation(fock.zzb_poly_to_uvw(state.poly)) == want
    return want


@settings(max_examples=30, deadline=None)
@given(creation_polys())
def test_zzb_elimination_matches_uvw_peeling_on_creation_polys(p):
    assert assert_elimination_matches_uvw_peeling(fock.to_gaussian_state(p)) == p


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([None, "H", "Q+", "A-", "E12"]), zzb_polys())
def test_zzb_elimination_matches_uvw_peeling_off_the_round_trip(name, poly):
    # states no creation polynomial was built from: random polynomials, and
    # operators that lower, keep or raise the degree applied to them
    state = GaussianState(poly)
    if name is not None:
        state = ops.op(name).apply(state)
    assert_elimination_matches_uvw_peeling(state)


def moment_of_product_oracle(bra, ket):
    """The moment engine's former route: the whole product written in the
    real coordinates (z = x1 + i x2, zb = x1 - i x2, stated here on their
    own), then every monomial paired by ``fock._moment``."""
    x1, x2, x3 = (poly_var(i, SPACE_X123) for i in range(3))
    real = (bra.poly * ket.poly).substitute((x1 + x2.scale(I), x1 + x2.scale(-I), x3))
    total = ZERO
    for mono, coeff in real.terms.items():
        total = total + coeff * fock._moment(mono)
    return total


def moment_test_states(max_deg=4, max_size=3):
    # not creation words: arbitrary monomials (a degree, then its split, so
    # nothing is filtered), with coefficients that carry i and a monomial
    # denominator
    monos = st.integers(0, max_deg).flatmap(
        lambda d: st.integers(0, d).flatmap(
            lambda a: st.integers(0, d - a).map(lambda b: (a, b, d - a - b))))
    coeffs = st.sampled_from([ONE, -ONE, I, LAM, G * I, G / (3 * LAM ** 2),
                              scalar(Fraction(3, 4)) - I / 2])
    return st.builds(lambda ts: GaussianState(Poly3(dict(ts), SPACE_ZZB)),
                     st.lists(st.tuples(monos, coeffs), min_size=1, max_size=max_size))


@settings(max_examples=25, deadline=None)
@given(moment_test_states(), moment_test_states(), moment_test_states(2, 1),
       st.sampled_from([ONE / (LAM - G), I / (LAM - G) + G]))
def test_moment_table_matches_the_product_substitution(bra, ket, extra, c):
    assert gaussian_moment_inner(bra, ket) == moment_of_product_oracle(bra, ket)
    # a coefficient with a non-monomial denominator: the product route spends
    # seconds per example in the sympy field, so the oracle takes that term
    # by linearity
    mixed = ket + extra.scale(c)
    assert gaussian_moment_inner(bra, mixed) == (moment_of_product_oracle(bra, ket)
                                                 + c * moment_of_product_oracle(bra, extra))


def test_moment_table_anchors():
    def mono(a, b, c):
        return GaussianState(Poly3({(a, b, c): ONE}, SPACE_ZZB))

    psi0 = ground_state()
    for d in (1, 3, 5):
        for a in range(d + 1):
            for b in range(d - a + 1):
                assert fock._zzb_moment((a, b, d - a - b)).is_zero()
                assert gaussian_moment_inner(mono(a, b, d - a - b), psi0).is_zero()
    cov = fock._covariance()
    # z zb = x1^2 + x2^2, and x3 is a real coordinate
    assert gaussian_moment_inner(mono(1, 0, 0), mono(0, 1, 0)) == cov[0][0] + cov[1][1]
    assert gaussian_moment_inner(mono(0, 0, 1), mono(0, 0, 1)) == cov[2][2]
    assert fock._zzb_moment((2, 0, 0)) == cov[0][0] - cov[1][1] + 2 * I * cov[0][1]
    assert fock._zzb_moment((1, 0, 1)) == cov[0][2] + I * cov[1][2]


def test_oracle_agreement_substitutes_each_monomial_once(monkeypatch):
    from quadosc import biortho
    seen = []
    substitute = Poly3.substitute

    def recording(self, images):
        if images[0].space == SPACE_X123:
            seen.append(self)
        return substitute(self, images)

    monkeypatch.setattr(Poly3, "substitute", recording)
    fock._zzb_moment.cache_clear()
    assert all(r.ok for r in biortho.verify_oracle_agreement(4))
    assert seen
    assert all(len(p.terms) == 1 for p in seen)          # never a product
    monos = [next(iter(p.terms)) for p in seen]
    assert len(set(monos)) == len(monos)                 # each monomial once


def test_swapped_weight_has_no_creation_polynomial():
    # the parity image of Psi0 is not Psi0, though its polynomial part is 1
    with pytest.raises(ValueError):
        fock.gaussian_state_to_creation(ground_state().eta_apply())


def test_round_trip_uvw_creation():
    p = CreationPolynomial({(2, 1, 0): ONE, (0, 0, 3): scalar(5), (1, 1, 1): G})
    assert fock.uvw_to_creation(fock.creation_to_uvw(p)) == p


def test_serialization():
    p = CreationPolynomial({(1, 1, 0): scalar(2), (0, 0, 2): -ONE})
    assert p.to_json() == [
        {"word": [1, 1, 0], "coeff": "2"},
        {"word": [0, 0, 2], "coeff": "-1"},
    ]


def test_containers_render_coefficients_alike():
    # operators, polynomials and creation polynomials share one rendering
    # rule: a rational multiple of a monomial is bare, a sum is parenthesized,
    # whether it multiplies a monomial or stands alone as the constant term
    terms = {(1, 0, 0): scalar(Fraction(1, 2)) * LAM, (0, 1, 0): -LAM - G,
             (0, 0, 0): LAM + G}
    op = WeylOperator({m + (0, 0, 0): c for m, c in terms.items()})
    assert op.render() == "(1/2)*lam*z + (-lam - g)*zb + (lam + g)"
    assert Poly3(terms).render() == op.render()
    assert CreationPolynomial(terms).render() == "(1/2)*lam*A+ + (-lam - g)*B+ + (lam + g)"


def test_creation_polynomial_arithmetic_keeps_its_class():
    p = CreationPolynomial({(1, 0, 0): LAM, (0, 0, 2): -ONE})
    for value in (p + p, p - p, -p, p.scale(2), 2 * p, p * p, p ** 2):
        assert type(value) is CreationPolynomial
    assert p * p == p ** 2
    assert p + p == p.scale(2) and (p - p).is_zero()
    assert p != Poly3(p.terms)                    # same terms, other space
    with pytest.raises(ValueError):
        _ = p + poly_var(0)
