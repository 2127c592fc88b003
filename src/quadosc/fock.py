"""States as polynomials in the three commuting creation letters, and two
independent exact engines for the bilinear pairing <<Psi | Phi>> = int Psi Phi.

All pairings are reported in units of <<Psi0 | Psi0>>; the absolute value of
that constant is (pi/lam)^(3/2), which never needs to be represented because
only ratios enter every verified statement.

The two engines are deliberately unrelated:

* :func:`wick_inner` contracts creation words against each other with the
  constant cross-brackets of the letters, reducing each monomial pairing to a
  signed matrix permanent, summed over tables of letter-pair counts.
* :func:`gaussian_moment_inner` works directly with wavefunctions: it
  multiplies them in (z, zb, x3) and sums each monomial's formal Gaussian
  moment, which it expands over the real coordinates and evaluates from the
  exact inverse of the quadratic-form matrix, once per monomial.

Their agreement on a sweep of states is one of the acceptance criteria.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from .coeff import ParamScalar, LAM, G, I, ONE, ZERO, scalar
from .weyl import (WeylOperator, Poly3, GaussianState, SPACE_ZZB, SPACE_UVW, SPACE_X123,
                   SPACE_ABC, WEIGHT_STD, ground_state, poly_var, derivative,
                   multiplication, _add_into, _conjugated)
from . import operators as _ops

__all__ = [
    "CreationPolynomial", "contraction_matrix", "expand_q_power",
    "wick_inner", "gaussian_moment_inner", "to_gaussian_state",
    "gaussian_state_to_creation", "creation_to_uvw", "uvw_to_creation",
    "uvw_poly_to_zzb", "zzb_poly_to_uvw", "verify_contraction_matrix",
]

_LETTERS = ("A", "B", "C")


class CreationPolynomial(Poly3):
    """Finite sum of creation words (i, j, l) with ParamScalar coefficients.

    A word (i, j, l) denotes the state  (A+)^i (B+)^j (C+)^l  applied to the
    ground state; the letters commute, so the exponent triple is well defined
    and a creation polynomial is a :class:`Poly3` in the letters A+, B+, C+.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__(terms, SPACE_ABC)

    @classmethod
    def word(cls, i: int, j: int, l: int, coeff=None):
        return cls({(i, j, l): coeff if coeff is not None else ONE})

    @classmethod
    def letter(cls, name: str):
        """The one-letter word of the raising letter ``name`` (A+, B+ or
        C+); None for any other name."""
        for axis, x in enumerate(_LETTERS):
            if name == f"{x}+":
                return cls.word(*(int(i == axis) for i in range(3)))
        return None

    @classmethod
    def zero(cls):
        return cls({})

    def to_json(self):
        return [{"word": list(m), "coeff": c.render()} for m, c in self.sorted_terms()]


# ---------------------------------------------------------------------------
# Contraction table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def contraction_matrix():
    """3x3 table K[x][y] = bracket of the x-lowering with the y-raising letter.

    Cross-validated against the Weyl-algebra brackets on first use; raising
    letters are also checked to commute among themselves (which is what makes
    creation words well defined).
    """
    minus_2lam = scalar(-2) * LAM
    two_g = scalar(2) * G
    table = {
        ("A", "A"): ZERO, ("A", "B"): minus_2lam, ("A", "C"): ZERO,
        ("B", "A"): minus_2lam, ("B", "B"): ZERO, ("B", "C"): two_g,
        ("C", "A"): ZERO, ("C", "B"): two_g, ("C", "C"): minus_2lam,
    }
    _crosscheck_contractions(table)
    return table


def _crosscheck_contractions(table):
    cat = _ops.catalogue()
    ident = {(0, 0, 0, 0, 0, 0)}
    for x in _LETTERS:
        for y in _LETTERS:
            br = cat[f"{x}-"].commutator(cat[f"{y}+"])
            expected = table[(x, y)]
            if expected.is_zero():
                ok = br.is_zero()
            else:
                ok = set(br.terms) == ident and br.terms[(0, 0, 0, 0, 0, 0)] == expected
            if not ok:
                raise AssertionError(f"contraction table mismatch at [{x}-, {y}+]")
    for pair in (("A+", "B+"), ("A+", "C+"), ("B+", "C+"),
                 ("A-", "B-"), ("A-", "C-"), ("B-", "C-")):
        if not cat[pair[0]].commutator(cat[pair[1]]).is_zero():
            raise AssertionError(f"letters {pair} do not commute")


def verify_contraction_matrix() -> list:
    """Identity records for the table cross-validation."""
    from .weyl import identity_op
    cat = _ops.catalogue()
    table = contraction_matrix()
    out = []
    for x in _LETTERS:
        for y in _LETTERS:
            out.append(_ops.record(
                f"fock/contraction-{x}{y}", "contraction table matches the algebra",
                cat[f"{x}-"].commutator(cat[f"{y}+"]),
                identity_op().scale(table[(x, y)])))
    return out


# ---------------------------------------------------------------------------
# Wick engine
# ---------------------------------------------------------------------------

def _pair_tables(rows, cols, K):
    """The 3x3 tables of letter-pair counts with the given row and column
    sums, leaving out those with a count on a zero entry of K (they weigh 0)."""
    free = [range(1) if K[x][y].is_zero() else range(min(rows[x], cols[y]) + 1)
            for x in range(2) for y in range(2)]
    for t00, t01, t10, t11 in product(*free):
        table = [[t00, t01, rows[0] - t00 - t01], [t10, t11, rows[1] - t10 - t11]]
        table.append([cols[y] - table[0][y] - table[1][y] for y in range(3)])
        if all(t == 0 or (t > 0 and not K[x][y].is_zero())
               for x, row in enumerate(table) for y, t in enumerate(row)):
            yield table


@lru_cache(maxsize=None)
def _word_inner(bra, ket) -> ParamScalar:
    """Pairing of two creation words: (-1)^d times the permanent of their
    d x d contraction matrix.  Its rows and columns repeat only three letters,
    so the permanent is MacMahon's sum over the letter-pair tables T with row
    sums ``bra`` and column sums ``ket``: T stands for
    prod r! * prod c! / prod T! permutations, each weighing prod K[x,y]^T[x,y].
    """
    d = sum(bra)
    if d != sum(ket):
        return ZERO
    K = [[contraction_matrix()[(x, y)] for y in _LETTERS] for x in _LETTERS]
    margins = math.prod(math.factorial(n) for n in bra + ket)
    total = ZERO
    for table in _pair_tables(bra, ket, K):
        count, weight = margins, ONE
        for x, row in enumerate(table):
            for y, t in enumerate(row):
                if t:
                    count //= math.factorial(t)
                    weight = weight * K[x][y] ** t
        total = total + count * weight
    return -total if d % 2 else total


def wick_inner(bra: CreationPolynomial, ket: CreationPolynomial) -> ParamScalar:
    """<<bra Psi0 | ket Psi0>> in units of <<Psi0 | Psi0>>, by contraction
    permanents summed over letter-pair tables; symmetric and bilinear."""
    total = ZERO
    for wb, cb in bra.terms.items():
        for wk, ck in ket.terms.items():
            v = _word_inner(wb, wk)
            if not v.is_zero():
                total = total + cb * ck * v
    return total


def expand_q_power(k: int) -> CreationPolynomial:
    """(Q+)^k applied to the ground state, via the trinomial expansion of the
    factorized form 2 A+ B+ - (C+)^2."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = {}
    for j in range(k + 1):
        coeff = scalar(math.comb(k, j)) * scalar(2) ** j * scalar(-1) ** (k - j)
        out[(j, j, 2 * (k - j))] = coeff
    return CreationPolynomial(out)


# ---------------------------------------------------------------------------
# Variable changes and word wavefunctions: a word's wavefunction is the
# catalogue's raising letters applied to Psi0, built once per word; its
# (u, v, w) form is the linear change of variables of that polynomial.
# ---------------------------------------------------------------------------

# The change to the transformed variables, stated once: row i is the i-th of
# (u, v, w) as a linear form in (z, zb, x3).
_UVW_FORMS = ((ZERO, ONE, ZERO),
              (-LAM, ZERO, scalar(2) * G),
              (ZERO, G, -LAM))


def _linear_images(matrix, space):
    """Row i of ``matrix`` as a linear polynomial in the variables of ``space``."""
    xs = [poly_var(j, space) for j in range(3)]
    return tuple(sum((x.scale(c) for x, c in zip(xs, row)), Poly3({}, space))
                 for row in matrix)


@lru_cache(maxsize=None)
def _uvw_images_in_zzb():
    return _linear_images(_UVW_FORMS, SPACE_ZZB)


@lru_cache(maxsize=None)
def _zzb_images_in_uvw():
    """(z, zb, x3) in (u, v, w): the inverse of the forms.  Its determinant
    is -lam^2, so the division stays in the Laurent ring."""
    return _linear_images(_inverse3(_UVW_FORMS), SPACE_UVW)


@lru_cache(maxsize=None)
def _uvw_change_images():
    """Images of the zzb generators (z, zb, x3, dz, dzb, d3) in the uvw
    algebra: the variables by the inverse change, and by the chain rule each
    derivative d/dx_j by sum_i M[i][j] d/du_i, column j of the forms M."""
    M = _UVW_FORMS
    ders = tuple(sum((derivative(i, SPACE_UVW).scale(M[i][j]) for i in range(3)),
                     WeylOperator({}, SPACE_UVW))
                 for j in range(3))
    return tuple(multiplication(p) for p in _zzb_images_in_uvw()) + ders


@lru_cache(maxsize=None)
def uvw_picture(op: WeylOperator) -> WeylOperator:
    """A zzb operator conjugated by Psi0 and written in (u, v, w): its action
    on poly * Psi0, read on the (u, v, w) form of poly."""
    return _conjugated(op, WEIGHT_STD).substitute(_uvw_change_images())


def uvw_poly_to_zzb(p: Poly3) -> Poly3:
    return p.substitute(_uvw_images_in_zzb())


def zzb_poly_to_uvw(p: Poly3) -> Poly3:
    return p.substitute(_zzb_images_in_uvw())


@lru_cache(maxsize=None)
def _word_state(word) -> GaussianState:
    """(A+)^i (B+)^j (C+)^l Psi0 for the word (i, j, l), by applying the
    catalogue's raising letters, A+ outermost."""
    for axis, letter in enumerate(_LETTERS):
        if word[axis]:
            inner = list(word)
            inner[axis] -= 1
            return _ops.catalogue()[f"{letter}+"].apply(_word_state(tuple(inner)))
    return ground_state()


def creation_to_uvw(p: CreationPolynomial) -> Poly3:
    """Exact wavefunction of a creation polynomial in the (u, v, w) variables:
    the change of variables of its zzb wavefunction."""
    return zzb_poly_to_uvw(to_gaussian_state(p).poly)


def uvw_to_creation(p: Poly3) -> CreationPolynomial:
    """Inverse of :func:`creation_to_uvw`: the zzb elimination of
    :func:`gaussian_state_to_creation`, applied to p's zzb form."""
    if p.space != SPACE_UVW:
        raise ValueError("expected a uvw polynomial")
    return gaussian_state_to_creation(GaussianState(uvw_poly_to_zzb(p)))


def to_gaussian_state(p: CreationPolynomial) -> GaussianState:
    """The wavefunction of a creation polynomial, as poly(z, zb, x3) * Psi0."""
    out = {}
    for word, c in p.terms.items():
        _add_into(out, _word_state(word).poly.terms, c)
    return GaussianState(Poly3(out, SPACE_ZZB))


@lru_cache(maxsize=None)
def _peeling_order(degree):
    """The zzb monomials z^a zb^b x3^c of total degree at most ``degree``,
    highest first in graded-lex order with z before x3 before zb."""
    monos = [(a, b, d - a - b) for d in range(degree + 1)
             for a in range(d + 1) for b in range(d - a + 1)]
    return sorted(monos, key=lambda m: (sum(m), m[0], m[2]), reverse=True)


def _leading_coeff(i, j, l):
    """The coefficient of z^j zb^i x3^l in the state of the word (i, j, l)."""
    return (scalar(-2) * LAM) ** (i + l) * (-LAM) ** j


def gaussian_state_to_creation(s: GaussianState) -> CreationPolynomial:
    """Inverse of :func:`to_gaussian_state` by triangular elimination in zzb;
    only standard-weight states are creation polynomials applied to Psi0.

    The raising letters' top-degree parts are -2*lam*zb, -lam*z + 2*g*x3 and
    2*g*zb - 2*lam*x3.  In graded-lex order with z before x3 before zb the
    word (i, j, l) therefore leads with z^j zb^i x3^l, and every other term
    of its state is lower.  Each monomial leads exactly one word, so one
    pass over the monomials, highest first, peels every word off the
    residue, dividing only by the monomial :func:`_leading_coeff`.
    """
    if s.weight != WEIGHT_STD:
        raise ValueError("only standard-weight states have a creation polynomial")
    residue = dict(s.poly.terms)
    out = {}
    for a, b, c in _peeling_order(s.poly.degree()):
        coeff = residue.get((a, b, c))
        if coeff is None or coeff.is_zero():
            continue
        word = (b, a, c)
        k = coeff / _leading_coeff(*word)
        out[word] = k
        _add_into(residue, _word_state(word).poly.terms, -k)
    return CreationPolynomial(out)


# ---------------------------------------------------------------------------
# Gaussian-moment engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _covariance():
    """Exact (A^-1)/2 for the squared-ground-state weight exp(-x^T A x)."""
    lam, g = LAM, G
    A = [[lam, ZERO, -g],
         [ZERO, lam, I * g],
         [-g, I * g, lam]]
    half = ONE / scalar(2)
    return tuple(tuple(x * half for x in row) for row in _inverse3(A))


def _inverse3(M):
    """The inverse of a 3x3 matrix by cofactors."""
    det = _det3(M)
    return [[_cofactor(M, j, i) / det for j in range(3)] for i in range(3)]


def _det3(M):
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def _cofactor(M, i, j):
    rows = [r for k, r in enumerate(M) if k != i]
    m = [[v for k, v in enumerate(r) if k != j] for r in rows]
    det2 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return det2 if (i + j) % 2 == 0 else -det2


@lru_cache(maxsize=None)
def _moment(e) -> ParamScalar:
    """Formal Gaussian moment <x1^e1 x2^e2 x3^e3> by Wick pairing."""
    if sum(e) == 0:
        return ONE
    if sum(e) % 2:
        return ZERO
    cov = _covariance()
    i = next(k for k in range(3) if e[k])
    total = ZERO
    base = list(e)
    base[i] -= 1
    for j in range(3):
        mult = base[j]
        if mult:
            rest = list(base)
            rest[j] -= 1
            total = total + cov[i][j] * mult * _moment(tuple(rest))
    return total


@lru_cache(maxsize=None)
def _x123_images():
    x1, x2, x3 = (poly_var(i, SPACE_X123) for i in range(3))
    return (x1 + x2.scale(I), x1 + x2.scale(-I), x3)


@lru_cache(maxsize=None)
def _zzb_moment(mono) -> ParamScalar:
    """<z^a zb^b x3^c> for the zzb monomial ``mono``: the monomial written in
    the real coordinates, each of its terms paired by :func:`_moment`."""
    if sum(mono) % 2:
        return ZERO
    total = ZERO
    for real, coeff in Poly3({mono: ONE}, SPACE_ZZB).substitute(_x123_images()).terms.items():
        m = _moment(real)
        if not m.is_zero():
            total = total + coeff * m
    return total


def gaussian_moment_inner(bra: GaussianState, ket: GaussianState) -> ParamScalar:
    """Independent oracle: int bra ket Psi0^2 / int Psi0^2 by formal Gaussian
    moments over the real coordinates, tabulated per zzb monomial of the
    product bra * ket."""
    if bra.weight != ket.weight or bra.weight != WEIGHT_STD:
        raise ValueError("the moment oracle pairs standard-weight states")
    total = ZERO
    for mono, coeff in (bra.poly * ket.poly).terms.items():
        m = _zzb_moment(mono)
        if not m.is_zero():
            total = total + coeff * m
    return total
