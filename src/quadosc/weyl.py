"""Normal-ordered differential operators in three variables, and their action
on polynomial-times-Gaussian states.

An operator is a finite sum of monomials  x1^a x2^b x3^c d1^d d2^e d3^f  (all
multiplication operators to the left of all derivatives) with ParamScalar
coefficients.  Two operator "spaces" share this structure:

* ``zzb``  — variables (z, zb, x3), derivatives (dz, dzb, d3); the model space.
* ``uvw``  — variables (u, v, w), derivatives (du, dv, dw); the transformed
  space used for the multivariate-polynomial layer.

Operators, polynomials and creation-letter polynomials are all sparse sums of
monomials; :class:`SparseTerms` holds their shared additive structure,
equality and rendering, and each subclass adds only its own product.
Equality is exact term-wise equality, so operator identities are decidable.
All values are immutable; operations are pure.
"""

from __future__ import annotations

import math
from itertools import product as _iproduct

from .coeff import ParamScalar, ZERO, ONE, LAM, G, scalar

__all__ = [
    "SparseTerms", "WeylOperator", "Poly3", "GaussianState",
    "SPACE_ZZB", "SPACE_UVW", "SPACE_ABC", "variable", "derivative", "identity_op",
]

SPACE_ZZB = "zzb"
SPACE_UVW = "uvw"
SPACE_X123 = "x123"   # real coordinates; used only inside the moment oracle
SPACE_ABC = "abc"     # commuting creation letters (fock.CreationPolynomial)

_NAMES = {
    SPACE_ZZB: ("z", "zb", "x3", "dz", "dzb", "d3"),
    SPACE_UVW: ("u", "v", "w", "du", "dv", "dw"),
    SPACE_X123: ("x1", "x2", "x3", "dx1", "dx2", "dx3"),
    SPACE_ABC: ("A+", "B+", "C+"),
}


def _grlex_key(mono):
    return (sum(mono), mono)


def _clean(terms):
    return {m: c for m, c in terms.items() if not c.is_zero()}


def _scalar_atomic(s: str) -> bool:
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "(*/^":
            return False
    return True


class SparseTerms:
    """Immutable finite sum of monomials (exponent tuples) with ParamScalar
    coefficients, in one named variable space.

    Holds everything the three containers share: the additive structure,
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
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
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
        if n < 0:
            raise ValueError("negative power")
        acc = self._new({self._UNIT: ONE})
        for _ in range(n):
            acc = acc * self
        return acc

    def substitute(self, images):
        """The homomorphism that sends generator i to images[i] (all of one
        class and space), applied monomial by monomial in generator order."""
        unit = images[0]._new({images[0]._UNIT: ONE})
        powers = [[unit, image] for image in images]
        out = images[0]._new({})
        for mono, coeff in self.terms.items():
            term = None
            for i, e in enumerate(mono):
                if e:
                    row = powers[i]
                    while len(row) <= e:
                        row.append(row[-1] * images[i])
                    term = row[e] if term is None else term * row[e]
            out = out + (unit if term is None else term).scale(coeff)
        return out

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
        if isinstance(other, (int, ParamScalar)):
            return identity_op(self.space).scale(other)
        return None

    def __mul__(self, other):
        if isinstance(other, WeylOperator):
            self._check(other)
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    c12 = c1 * c2
                    for m, k in _reorder(m1, m2):
                        cur = out.get(m)
                        add = c12 if k == 1 else c12 * k
                        out[m] = add if cur is None else cur + add
            return self._new(out)
        if isinstance(other, (int, ParamScalar)):
            return self.scale(other)
        return NotImplemented

    def commutator(self, other) -> "WeylOperator":
        return self * other - other * self

    def anticommutator(self, other) -> "WeylOperator":
        return self * other + other * self

    # -- involutions --------------------------------------------------------

    def formal_adjoint(self) -> "WeylOperator":
        """Hermitian adjoint under the L2 product in the real coordinates.

        Reverses each monomial, conjugates coefficients, and applies the rules
        z <-> zb, dz -> -dzb, dzb -> -dz, x3 -> x3, d3 -> -d3.  This is an
        antilinear anti-homomorphism and an involution.
        """
        if self.space != SPACE_ZZB:
            raise ValueError("formal_adjoint is defined on the zzb space")
        out = WeylOperator({}, self.space)
        for (a, b, c, d, e, f), coeff in self.terms.items():
            sign = -1 if (d + e + f) % 2 else 1
            ders = WeylOperator({(0, 0, 0, e, d, f): scalar(sign)}, self.space)
            vars_ = WeylOperator({(b, a, c, 0, 0, 0): coeff.conjugate()}, self.space)
            out = out + ders * vars_
        return out

    def transpose(self) -> "WeylOperator":
        """Integration-by-parts transpose of the bilinear form (no conjugation,
        variables fixed, each derivative maps to minus itself)."""
        if self.space != SPACE_ZZB:
            raise ValueError("transpose is defined on the zzb space")
        out = WeylOperator({}, self.space)
        for (a, b, c, d, e, f), coeff in self.terms.items():
            sign = -1 if (d + e + f) % 2 else 1
            ders = WeylOperator({(0, 0, 0, d, e, f): scalar(sign)}, self.space)
            vars_ = WeylOperator({(a, b, c, 0, 0, 0): coeff}, self.space)
            out = out + ders * vars_
        return out

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
        """Exact action on a polynomial-times-Gaussian state."""
        if self.space != SPACE_ZZB:
            raise ValueError("only zzb operators act on Gaussian states")
        rules = state._dlog_rules()
        out = Poly3({}, SPACE_ZZB)
        for (a, b, c, d, e, f), coeff in self.terms.items():
            p = state.poly
            for axis, count in ((0, d), (1, e), (2, f)):
                for _ in range(count):
                    p = p.diff(axis) + p * rules[axis]
            p = p * _var_mono(SPACE_ZZB, (a, b, c))
            out = out + p.scale(coeff)
        return GaussianState(out, state.weight)

    def apply_poly(self, poly: "Poly3") -> "Poly3":
        """Action on a bare polynomial (no Gaussian weight attached)."""
        if self.space != poly.space:
            raise ValueError("operator and polynomial space mismatch")
        out = Poly3({}, poly.space)
        for (a, b, c, d, e, f), coeff in self.terms.items():
            p = poly
            for axis, count in ((0, d), (1, e), (2, f)):
                for _ in range(count):
                    p = p.diff(axis)
            p = p * _var_mono(poly.space, (a, b, c))
            out = out + p.scale(coeff)
        return out


_REORDER_CACHE = {}


def _reorder(m1, m2):
    """Expansion of (m1 * m2) in normal order: list of (monomial, int weight).

    Uses  d^p x^q = sum_j C(p,j) C(q,j) j! x^(q-j) d^(p-j)  independently in
    each of the three variables.
    """
    key = (m1, m2)
    hit = _REORDER_CACHE.get(key)
    if hit is not None:
        return hit
    v1, d1 = m1[:3], m1[3:]
    v2, d2 = m2[:3], m2[3:]
    ranges = [range(min(d1[i], v2[i]) + 1) for i in range(3)]
    out = []
    for j in _iproduct(*ranges):
        w = 1
        for i in range(3):
            if j[i]:
                w *= math.comb(d1[i], j[i]) * math.comb(v2[i], j[i]) * math.factorial(j[i])
        mono = (v1[0] + v2[0] - j[0], v1[1] + v2[1] - j[1], v1[2] + v2[2] - j[2],
                d1[0] + d2[0] - j[0], d1[1] + d2[1] - j[1], d1[2] + d2[2] - j[2])
        out.append((mono, w))
    _REORDER_CACHE[key] = out
    return out


def identity_op(space=SPACE_ZZB) -> WeylOperator:
    return WeylOperator({(0, 0, 0, 0, 0, 0): ONE}, space)


def variable(i: int, space=SPACE_ZZB) -> WeylOperator:
    """Multiplication operator by the i-th variable (0, 1, 2)."""
    mono = [0] * 6
    mono[i] = 1
    return WeylOperator({tuple(mono): ONE}, space)


def derivative(i: int, space=SPACE_ZZB) -> WeylOperator:
    mono = [0] * 6
    mono[3 + i] = 1
    return WeylOperator({tuple(mono): ONE}, space)


# ---------------------------------------------------------------------------
# Polynomials and states
# ---------------------------------------------------------------------------

class Poly3(SparseTerms):
    """Polynomial in three commuting variables over ParamScalar."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, Poly3):
            self._check(other)
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    add = c1 * c2
                    cur = out.get(m)
                    out[m] = add if cur is None else cur + add
            return self._new(out)
        return self.scale(other)

    def diff(self, axis: int) -> "Poly3":
        out = {}
        for m, c in self.terms.items():
            e = m[axis]
            if e:
                m2 = list(m)
                m2[axis] = e - 1
                m2 = tuple(m2)
                add = c * e
                cur = out.get(m2)
                out[m2] = add if cur is None else cur + add
        return self._new(out)

    substitute = SparseTerms.substitute

    def swap01(self) -> "Poly3":
        """Exchange the first two variables (the x2-parity action on zzb)."""
        return self._new({(b, a, c): v for (a, b, c), v in self.terms.items()})


def _var_mono(space, exps) -> Poly3:
    return Poly3({tuple(exps): ONE}, space)


def poly_one(space=SPACE_ZZB) -> Poly3:
    return Poly3({(0, 0, 0): ONE}, space)


def poly_var(i, space=SPACE_ZZB) -> Poly3:
    mono = [0, 0, 0]
    mono[i] = 1
    return Poly3({tuple(mono): ONE}, space)


WEIGHT_STD = "psi0"
WEIGHT_SWAPPED = "psi0_swapped"

_HALF = scalar(1) / scalar(2)


class GaussianState:
    """A state  poly(z, zb, x3) * Psi0  with Psi0 the model ground state.

    ``weight`` selects the Gaussian factor: the standard one, or its image
    under the x2-parity map (the partner functions for the adjoint problem).
    """

    __slots__ = ("poly", "weight")

    def __init__(self, poly: Poly3, weight: str = WEIGHT_STD):
        if poly.space != SPACE_ZZB:
            raise ValueError("GaussianState polynomials live in the zzb space")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianState is immutable")

    def _dlog_rules(self):
        z, zb, x3 = (poly_var(i) for i in range(3))
        if self.weight == WEIGHT_STD:
            return (zb.scale(-_HALF * LAM),
                    z.scale(-_HALF * LAM) + x3.scale(G),
                    x3.scale(-LAM) + zb.scale(G))
        return (zb.scale(-_HALF * LAM) + x3.scale(G),
                z.scale(-_HALF * LAM),
                x3.scale(-LAM) + z.scale(G))

    def __add__(self, other):
        if self.weight != other.weight:
            raise ValueError("cannot add states with different weights")
        return GaussianState(self.poly + other.poly, self.weight)

    def __sub__(self, other):
        if self.weight != other.weight:
            raise ValueError("cannot subtract states with different weights")
        return GaussianState(self.poly - other.poly, self.weight)

    def __neg__(self):
        return GaussianState(-self.poly, self.weight)

    def scale(self, c) -> "GaussianState":
        return GaussianState(self.poly.scale(c), self.weight)

    def __eq__(self, other):
        if not isinstance(other, GaussianState):
            return NotImplemented
        return self.weight == other.weight and self.poly == other.poly

    def __hash__(self):
        return hash((self.weight, self.poly))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def eta_apply(self) -> "GaussianState":
        """x2-parity image: swaps z and zb in both the polynomial part and the
        Gaussian exponent; an involution."""
        w = WEIGHT_SWAPPED if self.weight == WEIGHT_STD else WEIGHT_STD
        return GaussianState(self.poly.swap01(), w)

    def render(self) -> str:
        tag = "Psi0" if self.weight == WEIGHT_STD else "P2.Psi0"
        return f"({self.poly.render()}) * {tag}"

    def __repr__(self):
        return f"GaussianState({self.render()})"


def ground_state() -> GaussianState:
    return GaussianState(poly_one(), WEIGHT_STD)
