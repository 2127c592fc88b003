"""Normal-ordered differential operators in three variables, and their action
on polynomial-times-Gaussian states.

An operator is a finite sum of monomials  x1^a x2^b x3^c d1^d d2^e d3^f  (all
multiplication operators to the left of all derivatives) with ParamScalar
coefficients.  Three operator "spaces" share this structure:

* ``zzb``  — variables (z, zb, x3), derivatives (dz, dzb, d3); the model space.
* ``uvw``  — variables (u, v, w), derivatives (du, dv, dw); the transformed
  space used for the multivariate-polynomial layer.
* ``abc``  — the creation letters (A+, B+, C+) and their derivatives; the
  letter picture, which acts on creation polynomials.

Operators, polynomials, creation-letter polynomials and states are all sparse
sums of monomials; :class:`SparseTerms` holds their shared additive structure,
equality and rendering, and each subclass adds only its own product (a state
has none).
Equality is exact term-wise equality, so operator identities are decidable.
All values are immutable; operations are pure.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import combinations, product as _iproduct

from .coeff import (ParamScalar, ZERO, ONE, LAM, G, power, _scalar_atomic,
                    _lcd, _flatten, _accumulate, _collect)

__all__ = [
    "SparseTerms", "WeylOperator", "Poly3", "GaussianState",
    "SPACE_ZZB", "SPACE_UVW", "SPACE_ABC", "variable", "derivative", "identity_op",
    "symplectic", "symplectic_inverse", "linear_images",
]

SPACE_ZZB = "zzb"
SPACE_UVW = "uvw"
SPACE_ABC = "abc"     # creation letters (fock.CreationPolynomial, fock.letter_picture)

_NAMES = {
    SPACE_ZZB: ("z", "zb", "x3", "dz", "dzb", "d3"),
    SPACE_UVW: ("u", "v", "w", "du", "dv", "dw"),
    SPACE_ABC: ("A+", "B+", "C+", "dA+", "dB+", "dC+"),
}


def _grlex_key(mono):
    return (sum(mono), mono)


def _clean(terms):
    return {m: c for m, c in terms.items() if not c.is_zero()}


def _add_into(out, terms, scale=None):
    """Add ``terms`` (each times ``scale``, when given) into the dict ``out``
    in place; the caller cleans zeros once, when it builds the result."""
    for m, c in terms.items():
        if scale is not None:
            c = scale * c
        cur = out.get(m)
        out[m] = c if cur is None else cur + c


class SparseTerms:
    """Immutable finite sum of monomials (exponent tuples) with ParamScalar
    coefficients, in one named variable space.

    Holds everything the four containers share: the additive structure,
    scaling, equality, hashing and the one rendering rule.  Subclasses supply
    the product.  Results keep the class of ``self`` through :meth:`_new`.
    """

    __slots__ = ("terms", "space")
    _UNIT = (0, 0, 0)   # exponent tuple of the constant monomial

    def __init__(self, terms=None, space=SPACE_ZZB):
        object.__setattr__(self, "terms", _clean(terms or {}))
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _new(self, terms):
        """A value of the same class and space as ``self``, built without
        calling a subclass constructor (CreationPolynomial's takes no space)."""
        out = object.__new__(type(self))
        object.__setattr__(out, "terms", _clean(terms))
        object.__setattr__(out, "space", self.space)
        return out

    def _coerce(self, other):
        """``other`` as a value of this class, or None when it is not one."""
        return other if isinstance(other, type(self)) else None

    def _check(self, other):
        if self.space != other.space:
            raise ValueError(f"spaces differ: {self.space} vs {other.space}")

    # -- additive structure -------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def scale(self, c):
        c = c if isinstance(c, ParamScalar) else ParamScalar(c)
        return self._new({m: c * v for m, v in self.terms.items()})

    __rmul__ = scale

    def __pow__(self, n: int):
        """``self ** n``, squaring repeatedly by :func:`quadosc.coeff.power`."""
        if n < 0:
            raise ValueError("negative power")
        return power(self, n, operator.mul) if n else self._new({self._UNIT: ONE})

    def substitute(self, images):
        """The homomorphism that sends generator i to images[i] (all of one
        class and space): each monomial's image is a product of powers of
        the images, each power formed once per call, and the images are
        summed by :meth:`_sum_images`."""
        unit = images[0]._new({images[0]._UNIT: ONE})
        powers = [[unit, image] for image in images]

        def image(mono):
            term = unit
            for i, e in enumerate(mono):
                if e:
                    row = powers[i]
                    while len(row) <= e:
                        row.append(row[-1] * images[i])
                    term = row[e] if term is unit else term * row[e]
            return term
        return self._sum_images(image, unit)

    def _sum_images(self, image, like):
        """The sum of c * image(m) over this value's terms, of the class and
        space of ``like``: the coefficient products are summed as integers
        over one denominator, and each result coefficient is canonicalized
        once."""
        imgs = [image(m).terms for m in self.terms]
        d1, d2 = _lcd(self.terms.values()), _lcd(c for t in imgs for c in t.values())
        acc = {}
        for (_, c1), img in zip(_flatten(self.terms, d1), imgs):
            for m, c2 in _flatten(img, d2):
                _accumulate(acc, c1, c2, ((m, 1),))
        return like._new(_collect(acc, d1 * d2))

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    # -- presentation -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def render(self) -> str:
        if not self.terms:
            return "0"
        names = _NAMES[self.space]
        pieces = []
        for mono, coeff in self.sorted_terms():
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(mono) if e]
            cs = coeff.render()
            if factors:
                if coeff.is_one():
                    body = "*".join(factors)
                elif (-coeff).is_one():
                    body = "-" + "*".join(factors)
                else:
                    cs = cs if _scalar_atomic(cs) else f"({cs})"
                    body = cs + "*" + "*".join(factors)
            else:
                body = cs if _scalar_atomic(cs) else f"({cs})"
            if not pieces:
                pieces.append(body)
            elif body.startswith("-"):
                pieces.append(" - " + body[1:])
            else:
                pieces.append(" + " + body)
        return "".join(pieces)

    def __repr__(self):
        return f"{type(self).__name__}<{self.space}>({self.render()})"


class WeylOperator(SparseTerms):
    """Finite normal-ordered sum of Weyl-algebra monomials."""

    __slots__ = ()
    _UNIT = (0, 0, 0, 0, 0, 0)

    def _coerce(self, other):
        if isinstance(other, WeylOperator):
            return other
        if isinstance(other, int):
            other = ParamScalar(other)
        if isinstance(other, ParamScalar):
            return self._new({self._UNIT: other})   # the scalar 0 is the empty sum
        return None

    def __mul__(self, other):
        if isinstance(other, WeylOperator):
            self._check(other)
            return self._new(_contract(self.terms, other.terms, _reorder))
        if isinstance(other, (int, ParamScalar)):
            return self.scale(other)
        return NotImplemented

    def commutator(self, other):
        return self._bracket(other, -1)

    def anticommutator(self, other):
        return self._bracket(other, 1)

    def _bracket(self, other, sign):
        """``self*other + sign*other*self``, each term pair contracted once by
        :func:`_bracket_terms`.  Scalars act as multiples of the identity; any
        other operand (the s-extension) takes the bracket over."""
        coerced = self._coerce(other)
        if coerced is None:
            flipped = other._bracket(self, sign)
            return flipped if sign == 1 else -flipped
        self._check(coerced)
        return self._new(_contract(self.terms, coerced.terms, _bracket_terms, sign))

    # -- involutions --------------------------------------------------------

    def formal_adjoint(self) -> "WeylOperator":
        """Hermitian adjoint under the L2 product in the real coordinates.

        Reverses each monomial, conjugates coefficients, and applies the rules
        z <-> zb, dz -> -dzb, dzb -> -dz, x3 -> x3, d3 -> -d3: the transpose,
        then the x2-parity swap, then complex conjugation of the coefficients.
        This is an antilinear anti-homomorphism and an involution.
        """
        swapped = self.transpose().eta_conjugate()
        return swapped._new({m: c.conjugate() for m, c in swapped.terms.items()})

    def transpose(self) -> "WeylOperator":
        """Integration-by-parts transpose of the bilinear form (no conjugation,
        variables fixed, each derivative maps to minus itself): each term
        x^a d^d becomes (-1)^|d| d^d x^a, read off :func:`_reorder`."""
        if self.space != SPACE_ZZB:
            raise ValueError("transpose is defined on the zzb space")

        def flipped(m, _unit):
            pairs = _reorder((0, 0, 0) + m[3:], m[:3] + (0, 0, 0))
            return [(n, -w) for n, w in pairs] if sum(m[3:]) % 2 else pairs
        return self._new(_contract(self.terms, {self._UNIT: ONE}, flipped))

    def eta_conjugate(self) -> "WeylOperator":
        """Conjugation by the x2-parity operator: the linear swap z <-> zb,
        dz <-> dzb (coefficients are NOT conjugated)."""
        if self.space != SPACE_ZZB:
            raise ValueError("eta_conjugate is defined on the zzb space")
        return WeylOperator(
            {(b, a, c, e, d, f): coeff
             for (a, b, c, d, e, f), coeff in self.terms.items()},
            self.space)

    # -- action on states ---------------------------------------------------

    def apply(self, state: "GaussianState") -> "GaussianState":
        """Exact action on a polynomial-times-Gaussian state: the operator
        conjugated by Psi0, acting on the polynomial part."""
        if self.space != SPACE_ZZB:
            raise ValueError("only zzb operators act on Gaussian states")
        return _conjugated(self).apply_poly(state)

    def apply_poly(self, poly: "Poly3") -> "Poly3":
        """Action on a bare polynomial, term pairs contracted by :func:`_act`.
        The result has the class of ``poly``, so a state's terms give a state."""
        if self.space != poly.space:
            raise ValueError("operator and polynomial space mismatch")
        return poly._new(_contract(self.terms, poly.terms, _act))


def _contract(terms1, terms2, expand, *args):
    """Sum over term pairs of ``c1*c2`` times ``expand(m1, m2, *args)``, the
    pair's rule as (monomial, int weight) pairs (:func:`_expand`'s product and
    brackets, :func:`_act`, :func:`_times`), in Gaussian integers over the
    common denominator d1*d2 of the two operands' integer denominators: each
    output coefficient is canonicalized once."""
    if not terms1 or not terms2:
        return {}
    d1, d2 = _lcd(terms1.values()), _lcd(terms2.values())
    flat2 = _flatten(terms2, d2)
    acc = {}
    for m1, c1 in _flatten(terms1, d1):
        for m2, c2 in flat2:
            pairs = expand(m1, m2, *args)
            if pairs:
                _accumulate(acc, c1, c2, pairs)
    return _collect(acc, d1 * d2)


def _expand(m1, m2, sign):
    """Expansion of (m1*m2 + sign*m2*m1) in normal order (sign 0: m1*m2 alone)
    as (monomial, int weight) pairs, zero weights dropped.  Per variable,
    d^p x^q = sum_j C(p,j) C(q,j) j! x^(q-j) d^(p-j), so with m = x^v d^d the
    j-th terms of both orders land on x^(v1+v2-j) d^(d1+d2-j), weighted
    w1 = prod C(d1,j) C(v2,j) j! and w2 = prod C(d2,j) C(v1,j) j! (math.comb
    is 0 past its top).  For sign -1 the j = 0 terms cancel: a commuting pair gives [].
    """
    tops = [max(min(m1[i + 3], m2[i]), min(m2[i + 3], m1[i]) if sign else 0) for i in range(3)]
    a, b, c, d, e, f = map(operator.add, m1, m2)
    out = []
    for j in _iproduct(*[range(t + 1) for t in tops]):
        w1 = w2 = 1
        for i, k in enumerate(j):
            if k:
                fact = math.factorial(k)
                w1 *= math.comb(m1[i + 3], k) * math.comb(m2[i], k) * fact
                if sign:
                    w2 *= math.comb(m2[i + 3], k) * math.comb(m1[i], k) * fact
        if w := w1 + sign * w2:
            out.append(((a - j[0], b - j[1], c - j[2], d - j[0], e - j[1], f - j[2]), w))
    return out


def _act(m, q):
    """x^a d^d on the polynomial monomial x^q: per variable q!/(q-d)! x^(q-d+a),
    the fully contracted term of :func:`_expand`'s formula, as one pair, or
    none when a derivative's order passes its power."""
    a, b, c, d, e, f = m
    r, s, t = q
    if r < d or s < e or t < f:
        return ()
    perm = math.perm
    return (((r - d + a, s - e + b, t - f + c), perm(r, d) * perm(s, e) * perm(t, f)),)


def _times(m1, m2):
    """The product of two polynomial monomials: exponents added, weight 1."""
    return (((m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2]), 1),)


# a dict, not lru_cache: the benchmark's tracer reads its size as the miss count
_REORDER_CACHE = {}


def _reorder(m1, m2):
    """:func:`_expand`'s product m1*m2, memoized in ``_REORDER_CACHE``."""
    hit = _REORDER_CACHE.get((m1, m2))
    if hit is None:
        hit = _REORDER_CACHE[m1, m2] = _expand(m1, m2, 0)
    return hit


# the brackets' memo (sign +1 or -1), apart from the products' dict
_bracket_terms = lru_cache(maxsize=None)(_expand)


def identity_op(space=SPACE_ZZB) -> WeylOperator:
    return WeylOperator({(0, 0, 0, 0, 0, 0): ONE}, space)


def _unit(j: int, n: int = 6):
    """The exponent tuple of generator j among n."""
    return tuple(int(k == j) for k in range(n))


def variable(i: int, space=SPACE_ZZB) -> WeylOperator:
    """Multiplication operator by the i-th variable (0, 1, 2)."""
    return WeylOperator({_unit(i): ONE}, space)


def derivative(i: int, space=SPACE_ZZB) -> WeylOperator:
    return WeylOperator({_unit(3 + i): ONE}, space)


# ---------------------------------------------------------------------------
# Polynomials and states
# ---------------------------------------------------------------------------

class Poly3(SparseTerms):
    """Polynomial in three commuting variables over ParamScalar."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, Poly3):
            self._check(other)
            return self._new(_contract(self.terms, other.terms, _times))
        return self.scale(other)

    substitute = SparseTerms.substitute


def poly_one(space=SPACE_ZZB) -> Poly3:
    return Poly3({(0, 0, 0): ONE}, space)


def poly_var(i, space=SPACE_ZZB) -> Poly3:
    return Poly3({_unit(i, 3): ONE}, space)


# ---------------------------------------------------------------------------
# Pictures: changes of variables as 6x6 matrices of linear forms
# ---------------------------------------------------------------------------

def symplectic(matrix, what):
    """``matrix``, once its images keep the commutation relations, that is
    M Omega M^T = Omega: rows a, b bracket to sum_k a[k+3] b[k] - a[k] b[k+3].
    Raises ValueError naming the first of the 15 pairs that breaks."""
    for (i, a), (j, b) in combinations(enumerate(matrix), 2):
        if sum((a[k + 3] * b[k] - a[k] * b[k + 3] for k in range(3)), ZERO) != -(j == i + 3):
            raise ValueError(f"{what} images {i} and {j} break the commutation relations")
    return matrix


def symplectic_inverse(M):
    """-Omega M^T Omega, the block transpose [[D^T, -B^T], [-C^T, A^T]] of a
    symplectic [[A, B], [C, D]]: its inverse, with no elimination."""
    return tuple(tuple(M[(j + 3) % 6][(i + 3) % 6] if (i < 3) == (j < 3)
                       else -M[(j + 3) % 6][(i + 3) % 6] for j in range(6)) for i in range(6))


def linear_images(matrix, space):
    """Row i of ``matrix`` as generator i's image for :meth:`SparseTerms.substitute`,
    sum_k M[i][k] g_k over the generators g of ``space``: an operator for a
    row of six, a polynomial for a row of three."""
    return tuple((WeylOperator if len(row) == 6 else Poly3)(
        {_unit(j, len(row)): c for j, c in enumerate(row)}, space) for row in matrix)


# d_i log Psi0 as linear forms in (z, zb, x3), stated once: the Hessian of log Psi0
_LOG_PSI0_GRADIENT = ((ZERO, -LAM / 2, ZERO), (-LAM / 2, ZERO, G), (ZERO, G, -LAM))


@lru_cache(maxsize=None)
def _psi0_images():
    """Conjugation by Psi0 as a picture: x_i stays and d_i goes to
    d_i + d_i log Psi0, so [[1, 0], [H, 1]] with H the gradient table,
    which keeps the commutation relations exactly when H is symmetric."""
    matrix = [tuple(ONE if k == i else ZERO for k in range(6)) for i in range(3)]
    matrix += [tuple(h) + matrix[i][:3] for i, h in enumerate(_LOG_PSI0_GRADIENT)]
    return linear_images(symplectic(matrix, "Psi0 conjugation"), SPACE_ZZB)


@lru_cache(maxsize=16)
def _conjugated(op: WeylOperator) -> WeylOperator:
    """Psi0^-1 op Psi0: the operator whose action on a bare polynomial is
    ``op``'s action on the polynomial times Psi0.  The bound keeps the
    catalogue's letters and H warm and lets one-off operators go."""
    return op.substitute(_psi0_images())


class GaussianState(SparseTerms):
    """A state  poly(z, zb, x3) * Psi0  with Psi0 the model ground state: the
    zzb terms of ``poly``, with the additive structure of every container but
    no product.  Under the bilinear pairing a state's left partner is the same
    polynomial times Psi0, so no other Gaussian factor is needed."""

    __slots__ = ()

    def __init__(self, poly: Poly3):
        if poly.space != SPACE_ZZB:
            raise ValueError("GaussianState polynomials live in the zzb space")
        object.__setattr__(self, "terms", poly.terms)
        object.__setattr__(self, "space", SPACE_ZZB)

    @property
    def poly(self) -> Poly3:
        """The polynomial factor, over this state's terms (already clean)."""
        out = object.__new__(Poly3)
        object.__setattr__(out, "terms", self.terms)
        object.__setattr__(out, "space", SPACE_ZZB)
        return out

    def render(self) -> str:
        return f"({super().render()}) * Psi0"

    def __repr__(self):
        return f"GaussianState({self.render()})"


def ground_state() -> GaussianState:
    return GaussianState(poly_one())
