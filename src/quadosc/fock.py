"""States as polynomials in the three commuting creation letters, and two
independent exact engines for the bilinear pairing <<Psi | Phi>> = int Psi Phi.

All pairings are reported in units of <<Psi0 | Psi0>>; the absolute value of
that constant is (pi/lam)^(3/2), which never needs to be represented because
only ratios enter every verified statement.

The two engines are deliberately unrelated:

* :func:`wick_inner` contracts creation words against each other with the
  constant cross-brackets of the letters, reducing each monomial pairing to a
  signed matrix permanent, read off the one table of letter-pair counts that
  its margins allow.
* :func:`gaussian_moment_inner` works directly with wavefunctions: it sums
  c1 * c2 times the formal Gaussian moment of m1 * m2 over their term pairs
  in (z, zb, x3), as integers; each moment is paired by Isserlis' recursion
  over the covariance of Psi0^2 in (z, zb, x3), the exact inverse of its
  quadratic form, once per monomial.

Their agreement on a sweep of states is one of the acceptance criteria.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .coeff import ParamScalar, LAM, G, ONE, ZERO, scalar, _lcd, _integer_form, _collect
from .weyl import (WeylOperator, Poly3, GaussianState, SPACE_ZZB, SPACE_UVW, SPACE_ABC,
                   ground_state, identity_op, variable, derivative, symplectic,
                   symplectic_inverse, linear_images, _add_into, _conjugated, _unit)
from . import operators as _ops

__all__ = [
    "CreationPolynomial", "contraction_matrix", "expand_q_power",
    "wick_inner", "gaussian_moment_inner", "to_gaussian_state",
    "gaussian_state_to_creation", "uvw_poly_to_zzb", "zzb_poly_to_uvw",
    "letter_picture", "pictures", "verify_contraction_matrix", "verify_letter_picture",
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

    def to_json(self):
        return [{"word": list(m), "coeff": c.render()} for m, c in self.sorted_terms()]


# ---------------------------------------------------------------------------
# Contraction table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def contraction_matrix():
    """3x3 table K[x][y] = [x-, y+], the bracket of the x-lowering with the
    y-raising letter, read from the nine rows of the ladder relations that
    state it.  Each of those rows must be a constant; any other right-hand
    side raises ValueError.  The ladder suite checks every row against the
    algebra, and with them that same-sign letters commute, which is what
    makes creation words well defined.
    """
    rows = {(x, y): rhs for _, _, x, y, rhs, *_ in _ops._LADDER_TABLE}
    table = {}
    for x in _LETTERS:
        for y in _LETTERS:
            rhs = rows[(f"{x}-", f"{y}+")]
            if rhs.keys() - {"1"}:
                raise ValueError(f"[{x}-, {y}+] is not a constant: {rhs}")
            table[(x, y)] = rhs.get("1", ZERO)
    return table


def verify_contraction_matrix() -> list:
    """Identity records for the table cross-validation."""
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

_TREE = (("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("C", "C"))


@lru_cache(maxsize=None)
def _tree_weights():
    """K on its support, which must be the spanning tree AB, BA, BC, CB, CC
    of the bipartite graph of lowering and raising letters, the support
    :func:`_word_inner` reads its one table off; any other raises ValueError."""
    K = contraction_matrix()
    support = {p for p, k in K.items() if not k.is_zero()}
    if support != set(_TREE):
        raise ValueError(f"the contraction table's support {sorted(support)}"
                         " is not the letter tree")
    return tuple(K[p] for p in _TREE)


@lru_cache(maxsize=None)
def _word_inner(bra, ket) -> ParamScalar:
    """Pairing of two creation words: (-1)^d times the permanent of their
    d x d contraction matrix.  Its rows and columns repeat only three letters,
    so the permanent is MacMahon's sum over the letter-pair tables T with row
    sums ``bra`` and column sums ``ket``: T stands for
    prod r! * prod c! / prod T! permutations, each weighing prod K[x,y]^T[x,y].
    K's support is a spanning tree, so the margins fix the one table:
    T_AB = a, T_BA = x, T_BC = b - x, T_CB = y - a, T_CC = c - y + a for
    bra (a, b, c) and ket (x, y, z), and there is none if an entry is negative.
    """
    weights, d = _tree_weights(), sum(bra)
    (a, b, c), (x, y, _) = bra, ket
    table = (a, x, b - x, y - a, c - y + a)
    if d != sum(ket) or min(table) < 0:
        return ZERO
    count = math.prod(math.factorial(n) for n in bra + ket)
    weight = ONE
    for k, t in zip(weights, table):
        if t:
            count //= math.factorial(t)
            weight = weight * k ** t
    total = count * weight
    return -total if d % 2 else total


def wick_inner(bra: CreationPolynomial, ket: CreationPolynomial) -> ParamScalar:
    """<<bra Psi0 | ket Psi0>> in units of <<Psi0 | Psi0>>, by contraction
    permanents read off letter-pair tables; symmetric and bilinear."""
    total = ZERO
    for wb, cb in bra.terms.items():
        for wk, ck in ket.terms.items():
            v = _word_inner(wb, wk)
            if not v.is_zero():
                total = total + cb * ck * v
    return total


def expand_q_power(k: int) -> CreationPolynomial:
    """(Q+)^k applied to the ground state: the k-th power of the factorized
    form 2 A+ B+ - (C+)^2; a negative k raises ValueError."""
    return CreationPolynomial({(1, 1, 0): scalar(2), (0, 0, 2): -ONE}) ** k


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


@lru_cache(maxsize=None)
def _uvw_images():
    """The change to (u, v, w) as a picture M = blockdiag(F^-1, F^T): the zzb
    variables by the inverse forms (determinant -lam^2), d/dx_j by the chain
    rule, sum_i F[i][j] d/du_i.  Returns M's images, then as polynomials
    (z, zb, x3) in (u, v, w) and, off M's inverse, (u, v, w) in (z, zb, x3)."""
    zero = (ZERO,) * 3
    M = symplectic([tuple(row) + zero for row in _inverse3(_UVW_FORMS)]
                   + [zero + column for column in zip(*_UVW_FORMS)], "uvw change")
    return (linear_images(M, SPACE_UVW),) + tuple(
        linear_images([row[:3] for row in X[:3]], space)
        for X, space in ((M, SPACE_UVW), (symplectic_inverse(M), SPACE_ZZB)))


@lru_cache(maxsize=None)
def uvw_picture(op: WeylOperator) -> WeylOperator:
    """A zzb operator conjugated by Psi0 and written in (u, v, w): its action
    on poly * Psi0, read on the (u, v, w) form of poly."""
    return _conjugated(op).substitute(_uvw_images()[0])


def _letter_targets():
    """Each catalogue letter's picture: X+ is the letter X, and X- is
    sum_Y K[X, Y] d/dY, since X- kills Psi0 and [X-, Y+] = K[X, Y]."""
    K, ders = contraction_matrix(), [derivative(j, SPACE_ABC) for j in range(3)]
    out = {}
    for i, x in enumerate(_LETTERS):
        out[f"{x}+"] = variable(i, SPACE_ABC)
        out[f"{x}-"] = sum(d.scale(K[(x, y)]) for d, y in zip(ders, _LETTERS))
    return out


def _linear_form(op, name):
    """A first-order operator's coefficients on the six generators."""
    if any(sum(mono) != 1 for mono in op.terms):
        raise ValueError(f"{name} is not a linear form in the generators: {op.render()}")
    return tuple(op.terms.get(_unit(j), ZERO) for j in range(6))


@lru_cache(maxsize=None)
def _letter_images():
    """Images of (z, zb, x3, dz, dzb, d3) on the letters: the inverse of P, whose
    rows are the catalogue's A+, B+, C+ and, as X- = sum_Y K[X, Y] dY+, K^-1
    times its A-, B-, C- (det K is a monomial).  P keeps the commutation
    relations exactly when K is the letters' bracket table."""
    cat, K = _ops.catalogue(), contraction_matrix()
    raising, lowering = ([_linear_form(cat[x + s], x + s) for x in _LETTERS] for s in "+-")
    k_inv = _inverse3([[K[(x, y)] for y in _LETTERS] for x in _LETTERS])
    ders = [tuple(sum((k * row[c] for k, row in zip(ks, lowering)), ZERO) for c in range(6))
            for ks in k_inv]
    return linear_images(symplectic_inverse(symplectic(raising + ders, "letter")), SPACE_ABC)


@lru_cache(maxsize=None)
def _letter_monomial(mono) -> WeylOperator:
    """The letter picture of one zzb monomial, shared by every operator
    that has it (the E_ij, D+-_ij and a_i+- of the sp6 suite use 28)."""
    return WeylOperator({mono: ONE}, SPACE_ZZB).substitute(_letter_images())


@lru_cache(maxsize=None)
def letter_picture(op: WeylOperator) -> WeylOperator:
    """A zzb operator acting on creation polynomials (the Bargmann-Fock
    picture): ``op`` on p(A+, B+, C+) Psi0 is (letter_picture(op) p) Psi0.
    An operator of any other space raises ValueError: a picture is not
    pictured again."""
    if op.space != SPACE_ZZB:
        raise ValueError(f"the letter picture takes zzb operators, not {op.space}")
    return op._sum_images(_letter_monomial, _letter_images()[0])


def pictures(names) -> dict:
    """The letter pictures of the catalogue operators ``names``, by name."""
    cat = _ops.catalogue()
    return {name: letter_picture(cat[name]) for name in names}


def verify_letter_picture() -> list:
    """Each catalogue letter's picture is the letter itself, and each lowering
    letter kills Psi0.  With the contraction records these make the picture an
    algebra map that sends Psi0 to 1 and commutes with action."""
    cat = _ops.catalogue()
    out = [_ops.record(f"picture/letter-{name}", "the letter picture of a letter is itself",
                       letter_picture(cat[name]), target)
           for name, target in _letter_targets().items()]
    for x in _LETTERS:
        vac = cat[f"{x}-"].apply(ground_state())
        out.append(_ops.check(f"picture/vacuum-{x}-", "the lowering letter kills Psi0",
                              vac.is_zero(), vac))
    return out


def uvw_poly_to_zzb(p: Poly3) -> Poly3:
    return p.substitute(_uvw_images()[2])


def zzb_poly_to_uvw(p: Poly3) -> Poly3:
    return p.substitute(_uvw_images()[1])


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


def to_gaussian_state(p: CreationPolynomial) -> GaussianState:
    """The wavefunction of a creation polynomial, as poly(z, zb, x3) * Psi0."""
    return p._sum_images(_word_state, ground_state())


@lru_cache(maxsize=None)
def _peeling_order(degree):
    """The zzb monomials z^a zb^b x3^c of total degree at most ``degree``,
    highest first in graded-lex order with z before x3 before zb."""
    monos = [(a, b, d - a - b) for d in range(degree + 1)
             for a in range(d + 1) for b in range(d - a + 1)]
    return sorted(monos, key=lambda m: (sum(m), m[0], m[2]), reverse=True)


def gaussian_state_to_creation(s: GaussianState) -> CreationPolynomial:
    """Inverse of :func:`to_gaussian_state` by triangular elimination in zzb.

    The raising letters' top-degree parts are -2*lam*zb, -lam*z + 2*g*x3 and
    2*g*zb - 2*lam*x3.  In graded-lex order with z before x3 before zb the
    word (i, j, l) therefore leads with z^j zb^i x3^l, and every other term
    of its state is lower.  Each monomial leads exactly one word, so one
    pass over the monomials, highest first, peels every word off the
    residue, dividing only by that leading coefficient, a monomial.
    """
    residue = dict(s.terms)
    out = {}
    for a, b, c in _peeling_order(s.degree()):
        coeff = residue.get((a, b, c))
        if coeff is None or coeff.is_zero():
            continue
        word = (b, a, c)
        lead = _word_state(word)
        k = coeff / lead.terms[(a, b, c)]
        out[word] = k
        _add_into(residue, lead.terms, -k)
    return CreationPolynomial(out)


# ---------------------------------------------------------------------------
# Gaussian-moment engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _covariance():
    """Exact (M^-1)/2 for the squared ground state Psi0^2 = exp(-y^T M y) in
    y = (z, zb, x3).  The determinant of M is -lam^3/4, so the inverse stays
    in the Laurent ring."""
    half = ONE / scalar(2)
    M = [[ZERO, LAM * half, ZERO],
         [LAM * half, ZERO, -G],
         [ZERO, -G, LAM]]
    return tuple(tuple(x * half for x in row) for row in _inverse3(M))


def _inverse3(M):
    """The inverse of a 3x3 matrix by cofactors, each signed by its cyclic indices."""
    def cofactor(i, j):
        (a, b), (c, d) = ((i + 1) % 3, (i + 2) % 3), ((j + 1) % 3, (j + 2) % 3)
        return M[a][c] * M[b][d] - M[a][d] * M[b][c]
    det = sum(M[0][j] * cofactor(0, j) for j in range(3))
    return [[cofactor(j, i) / det for j in range(3)] for i in range(3)]


@lru_cache(maxsize=None)
def _moment(e) -> ParamScalar:
    """Formal Gaussian moment <z^e1 zb^e2 x3^e3> by Isserlis' recursion."""
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


def gaussian_moment_inner(bra: GaussianState, ket: GaussianState) -> ParamScalar:
    """Independent oracle: int bra ket Psi0^2 / int Psi0^2, the sum of
    c1 * c2 * <m1 + m2> over the term pairs of bra and ket, with each zzb
    monomial's formal Gaussian moment <m> tabulated.  No product polynomial
    is formed: the triple products are summed as Gaussian integers over the
    operands' common denominators d1*d2, one sum per moment denominator and
    exponent pair; the sums then meet over the moments' common denominator,
    and the total is canonicalized once."""
    d1, d2 = _lcd(bra.terms.values()), _lcd(ket.terms.values())
    kets = []
    for mono, coeff in ket.terms.items():
        d, num = _integer_form(coeff)
        kets.append((mono, d2 // d, num))
    moments, acc = {}, {}
    for (a, b, c), c1 in bra.terms.items():
        d, num1 = _integer_form(c1)
        k1 = d1 // d
        for (x, y, z), k2, num2 in kets:
            if (a + b + c + x + y + z) % 2:
                continue   # odd moments vanish
            m = (a + x, b + y, c + z)
            if m not in moments:
                moments[m] = _integer_form(_moment(m))
            d3, num3 = moments[m]
            k = k1 * k2
            for (e, f), (r1, i1) in num1:
                for (p, q), (r2, i2) in num2:
                    re, im = (r1 * r2 - i1 * i2) * k, (r1 * i2 + i1 * r2) * k
                    for (s, t), (r3, i3) in num3:
                        key = (d3, e + p + s, f + q + t)
                        cur = acc.get(key, (0, 0))
                        acc[key] = (cur[0] + re * r3 - im * i3, cur[1] + re * i3 + im * r3)
    d3 = math.lcm(*(d for d, _ in moments.values()))
    total = {}
    for (d, e, f), (re, im) in acc.items():
        cur = total.get((None, (e, f)), (0, 0))
        total[None, (e, f)] = (cur[0] + re * (d3 // d), cur[1] + im * (d3 // d))
    return _collect(total, d1 * d2 * d3).get(None, ZERO)
