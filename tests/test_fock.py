"""Inner-product engines: contraction permanents vs Gaussian moments."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from quadosc.coeff import LAM, G, I, ONE, ZERO, scalar
from quadosc.weyl import (ground_state, GaussianState, Poly3, WeylOperator, SPACE_ZZB,
                          SPACE_UVW, poly_var)
from quadosc import biortho, fock, weyl
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


def test_word_inner_matches_ryser_on_every_pair_to_degree_six():
    # the closed-form table against the explicit permanent, exhaustively
    for d in range(7):
        words = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        for bra in words:
            for ket in words:
                value = ryser_permanent(contraction_rows(bra, ket))
                assert fock._word_inner(bra, ket) == (-value if d % 2 else value), (bra, ket)


def test_word_inner_refuses_a_support_other_than_the_letter_tree(monkeypatch):
    table = dict(fock.contraction_matrix())
    table[("A", "A")] = LAM
    monkeypatch.setattr(fock, "contraction_matrix", lambda: table)
    fock._tree_weights.cache_clear()
    fock._word_inner.cache_clear()
    try:
        with pytest.raises(ValueError, match="letter tree"):
            fock._word_inner((1, 0, 0), (1, 0, 0))
    finally:
        fock._tree_weights.cache_clear()
        fock._word_inner.cache_clear()


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


def test_contraction_matrix_reads_the_ladder_rows(monkeypatch):
    rows = {(x, y): rhs for _, _, x, y, rhs, *_ in ops._LADDER_TABLE}
    K = fock.contraction_matrix()
    for x, y in itertools.product("ABC", repeat=2):
        rhs = rows[(f"{x}-", f"{y}+")]
        assert rhs.keys() <= {"1"}
        assert K[(x, y)] == rhs.get("1", 0)
    # a row that is not a constant is refused, not read as one
    table = tuple(row[:4] + ({"A+": 1},) + row[5:] if row[2:4] == ("A-", "B+") else row
                  for row in ops._LADDER_TABLE)
    monkeypatch.setattr(ops, "_LADDER_TABLE", table)
    fock.contraction_matrix.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"^\[A-, B\+\] is not a constant"):
            fock.contraction_matrix()
    finally:
        fock.contraction_matrix.cache_clear()


def test_letter_picture_of_h_renders_with_the_letter_derivatives():
    # H = 2*lam*(A dA + B dB + C dC) - 2*g*(A dC + C dB) on creation polynomials
    h = fock.letter_picture(ops.op("H"))
    assert h.render() == ("2*lam*A+*dA+ - 2*g*A+*dC+ + 2*lam*B+*dB+ - 2*g*C+*dB+"
                          " + 2*lam*C+*dC+")
    assert h.apply_poly(CreationPolynomial.word(0, 1, 0)) == \
        CreationPolynomial({(0, 1, 0): 2 * LAM, (0, 0, 1): -2 * G})


def test_letter_images_reject_a_wrong_contraction_entry(monkeypatch):
    K = dict(fock.contraction_matrix())
    assert len(fock._letter_images.__wrapped__()) == 6
    K[("A", "B")] = 2 * LAM
    monkeypatch.setattr(fock, "contraction_matrix", lambda: K)
    with pytest.raises(ValueError, match="commutation relations"):
        fock._letter_images.__wrapped__()


@pytest.mark.parametrize("space", [weyl.SPACE_ABC, SPACE_UVW])
def test_letter_picture_takes_only_zzb_operators(space):
    # a picture pictured again would read its letters as z, zb, x3
    op = WeylOperator({(1, 0, 0, 0, 1, 0): ONE}, space)
    with pytest.raises(ValueError, match="zzb"):
        fock.letter_picture(op)
    with pytest.raises(ValueError, match="zzb"):
        fock.letter_picture(fock.letter_picture(ops.op("Q-")))


def test_picture_suite_records():
    recs = fock.verify_letter_picture()
    assert [r.id for r in recs] == (
        [f"picture/letter-{x}{s}" for x in "ABC" for s in "+-"]
        + [f"picture/vacuum-{x}-" for x in "ABC"])
    assert all(r.ok for r in recs)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["A+", "B-", "C-", "H", "Q-", "V", "R2"]),
       st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3), max_size=4))
def test_letter_picture_commutes_with_action(name, words):
    p = CreationPolynomial({w: scalar(c) for w, c in words.items()})
    op = ops.op(name)
    assert fock.to_gaussian_state(fock.letter_picture(op).apply_poly(p)) == \
        op.apply(fock.to_gaussian_state(p))


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


@pytest.mark.parametrize("k", range(7))
def test_expand_q_power_matches_the_binomial_terms(k):
    # (2 A+ B+ - (C+)^2)^k summed term by term: C(k, j) 2^j (-1)^(k-j) on
    # the word (j, j, 2(k-j))
    want = {(j, j, 2 * (k - j)): scalar(math.comb(k, j) * 2 ** j * (-1) ** (k - j))
            for j in range(k + 1)}
    assert fock.expand_q_power(k).terms == want


def test_expand_q_power_rejects_negative_k():
    with pytest.raises(ValueError):
        fock.expand_q_power(-1)


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
    cc = fock.zzb_poly_to_uvw(fock.to_gaussian_state(CreationPolynomial.word(0, 0, 2)).poly)
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
                state = fock.to_gaussian_state(CreationPolynomial.word(*word))
                assert fock.zzb_poly_to_uvw(state.poly) == p, word


@settings(max_examples=20, deadline=None)
@given(creation_polys())
def test_round_trips_random(p):
    state = fock.to_gaussian_state(p)
    assert fock.gaussian_state_to_creation(state) == p
    uvw = fock.zzb_poly_to_uvw(state.poly)
    assert fock.gaussian_state_to_creation(GaussianState(fock.uvw_poly_to_zzb(uvw))) == p


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
        word_state = fock.to_gaussian_state(CreationPolynomial.word(*mono))
        residue = residue - fock.zzb_poly_to_uvw(word_state.poly).scale(c)
    return CreationPolynomial(out)


def zzb_polys(max_deg=3):
    coeffs = st.sampled_from([ONE, -ONE, LAM, G, scalar(2), I])
    return st.builds(lambda ts: Poly3(dict(ts), SPACE_ZZB),
                     st.lists(st.tuples(words(max_deg), coeffs), max_size=3))


def assert_elimination_matches_uvw_peeling(state):
    uvw = fock.zzb_poly_to_uvw(state.poly)
    want = uvw_peeling(uvw)
    assert fock.gaussian_state_to_creation(state) == want
    assert fock.gaussian_state_to_creation(GaussianState(fock.uvw_poly_to_zzb(uvw))) == want
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


# The real coordinates z = x1 + i x2, zb = x1 - i x2, x3, in which Psi0^2 is
# exp(-x^T A x): the moment engine's former route, stated here on its own.
SPACE_REAL = "x123"
REAL_FORM = [[LAM, ZERO, -G],
             [ZERO, LAM, I * G],
             [-G, I * G, LAM]]


@lru_cache(maxsize=None)
def real_covariance():
    """(A^-1)/2 for the real quadratic form A."""
    return tuple(tuple(x / 2 for x in row) for row in fock._inverse3(REAL_FORM))


@lru_cache(maxsize=None)
def real_moment(e):
    """<x1^e1 x2^e2 x3^e3> by Isserlis' recursion over the real covariance."""
    if sum(e) % 2:
        return ZERO
    if sum(e) == 0:
        return ONE
    i = next(k for k in range(3) if e[k])
    base = list(e)
    base[i] -= 1
    total = ZERO
    for j in range(3):
        if base[j]:
            rest = list(base)
            rest[j] -= 1
            total = total + real_covariance()[i][j] * base[j] * real_moment(tuple(rest))
    return total


def moment_of_product_oracle(bra, ket):
    """The whole product written in the real coordinates, then every
    monomial paired by :func:`real_moment`."""
    x1, x2, x3 = (poly_var(i, SPACE_REAL) for i in range(3))
    real = (bra.poly * ket.poly).substitute((x1 + x2.scale(I), x1 + x2.scale(-I), x3))
    total = ZERO
    for mono, coeff in real.terms.items():
        total = total + coeff * real_moment(mono)
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
       st.sampled_from([I / (2 * LAM) + G, (1 - I) / (LAM * G ** 2)]))
def test_moment_table_matches_the_product_substitution(bra, ket, extra, c):
    assert gaussian_moment_inner(bra, ket) == moment_of_product_oracle(bra, ket)
    # a ket whose terms carry two different denominators
    mixed = ket + extra.scale(c)
    assert gaussian_moment_inner(bra, mixed) == moment_of_product_oracle(bra, mixed)


def word_states(max_total):
    """Each creation word of degree <= max_total and its zzb state."""
    return {w: fock.to_gaussian_state(CreationPolynomial.word(*w))
            for w in itertools.product(range(max_total + 1), repeat=3) if sum(w) <= max_total}


def word_pairs_to(max_total):
    words = sorted(word_states(max_total))
    return [(w1, w2) for i, w1 in enumerate(words) for w2 in words[i:]
            if sum(w1) + sum(w2) <= max_total]


def test_integer_moment_pairing_matches_the_real_coordinate_oracle_to_degree_six():
    states = word_states(6)
    pairs = word_pairs_to(6)
    assert len(pairs) == 472
    for w1, w2 in pairs:
        bra, ket = states[w1], states[w2]
        assert gaussian_moment_inner(bra, ket) == moment_of_product_oracle(bra, ket), (w1, w2)


@pytest.fixture
def fresh_moments():
    # request it before monkeypatch, so that it clears again after the undo
    fock._moment.cache_clear()
    yield
    fock._moment.cache_clear()


def test_a_perturbed_covariance_turns_only_the_moment_engine_red(fresh_moments, monkeypatch):
    # the moment engine reads the covariance and nothing of the contraction
    # table; the Wick engine reads the table and nothing of the covariance
    words = word_states(4)
    wick = {(w1, w2): wick_inner(CreationPolynomial.word(*w1), CreationPolynomial.word(*w2))
            for w1, w2 in word_pairs_to(4)}
    cov = [list(row) for row in fock._covariance()]
    cov[2][2] = cov[2][2] * 2
    monkeypatch.setattr(fock, "_covariance", lambda: tuple(map(tuple, cov)))
    fock._moment.cache_clear()
    agreement = biortho.verify_oracle_agreement(4)[0]
    assert agreement.id == "biortho/oracle-agreement" and not agreement.ok
    assert gaussian_moment_inner(words[(0, 0, 1)], words[(0, 0, 1)]) != \
        wick[((0, 0, 1), (0, 0, 1))]
    for (w1, w2), value in wick.items():
        assert wick_inner(CreationPolynomial.word(*w1), CreationPolynomial.word(*w2)) == value


def test_the_moment_pairing_of_empty_states_is_zero():
    empty = GaussianState(Poly3({}, SPACE_ZZB))
    assert gaussian_moment_inner(empty, ground_state()).is_zero()
    assert gaussian_moment_inner(ground_state(), empty).is_zero()


def test_moment_table_anchors():
    def mono(a, b, c):
        return GaussianState(Poly3({(a, b, c): ONE}, SPACE_ZZB))

    psi0 = ground_state()
    for d in (1, 3, 5):
        for a in range(d + 1):
            for b in range(d - a + 1):
                assert fock._moment((a, b, d - a - b)).is_zero()
                assert gaussian_moment_inner(mono(a, b, d - a - b), psi0).is_zero()
    cov = real_covariance()
    # z zb = x1^2 + x2^2, and x3 is a real coordinate
    assert fock._moment((1, 1, 0)) == cov[0][0] + cov[1][1]
    assert gaussian_moment_inner(mono(1, 0, 0), mono(0, 1, 0)) == cov[0][0] + cov[1][1]
    assert gaussian_moment_inner(mono(0, 0, 1), mono(0, 0, 1)) == cov[2][2]
    assert fock._moment((2, 0, 0)) == cov[0][0] - cov[1][1] + 2 * I * cov[0][1]
    assert fock._moment((1, 0, 1)) == cov[0][2] + I * cov[1][2]


def test_round_trip_uvw_creation():
    p = CreationPolynomial({(2, 1, 0): ONE, (0, 0, 3): scalar(5), (1, 1, 1): G})
    uvw = fock.zzb_poly_to_uvw(fock.to_gaussian_state(p).poly)
    assert fock.gaussian_state_to_creation(GaussianState(fock.uvw_poly_to_zzb(uvw))) == p


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
