"""Exact scalar arithmetic for the model coefficients.

Every coefficient in the oscillator algebra lives in the field of rational
functions in the two real model parameters ``lam`` and ``g``, with Gaussian
rational (a + b*I) coefficients.  All arithmetic is exact; there is no
floating point anywhere in this package.

Canonical form: numerator and denominator are coprime, the denominator is
monic under graded lexicographic order with lam > g, and zero is stored as
0/1.  Values are immutable and hashable.

Sums, differences and products of two values whose denominators are
monomials lam^a*g^b (every value the suites build) skip the general GCD:
the only common factor such a denominator can share with a numerator is a
monomial, which is divided out directly.  The result is the same canonical
pair the general route gives.  Constants, conjugates and the generators
``lam`` and ``g`` are canonical pairs as built, so they never enter the
fraction field either; only division, powers and non-monomial denominators
take the general route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from sympy.polys.domains import QQ, QQ_I
from sympy.polys.fields import field as _field

__all__ = ["GaussianRational", "ParamScalar", "LAM", "G", "I", "ZERO", "ONE"]


class GaussianRational:
    """A complex number a + b*I with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        other = _as_gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_as_gauss(other))

    def __rsub__(self, other):
        return _as_gauss(other) + (-self)

    def __mul__(self, other):
        other = _as_gauss(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gauss(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return self * GaussianRational(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return _as_gauss(other) / self

    def __eq__(self, other):
        try:
            other = _as_gauss(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return _render_gauss(self, wrap=False)


def _as_gauss(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot interpret {x!r} as GaussianRational")


def _render_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_gauss(c: GaussianRational, wrap: bool = True) -> str:
    """Render a Gaussian rational; `wrap` parenthesizes anything non-atomic."""
    re, im = c.re, c.im
    if im == 0:
        s = _render_fraction(re)
        return f"({s})" if wrap and re.denominator != 1 else s
    if re == 0:
        if im == 1:
            return "I"
        if im == -1:
            return "-I"
        s = f"{_render_fraction(abs(im))}*I"
        s = s if im > 0 else "-" + s
        return f"({s})" if wrap and (im.denominator != 1 or im < 0) else s
    im_part = "I" if abs(im) == 1 else f"{_render_fraction(abs(im))}*I"
    sign = "+" if im > 0 else "-"
    s = f"{_render_fraction(re)} {sign} {im_part}"
    return f"({s})" if wrap else s


# Shared ground field: rational functions in (lam, g) over QQ_I, grlex, lam > g.
_FIELD = _field("lam,g", QQ_I, order="grlex")[0]
_RING = _FIELD.ring
_ONE_POLY = _RING.one
_ZERO_POLY = _RING.zero


def _gauss_to_dom(c: GaussianRational):
    return QQ_I.new(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))


@lru_cache(maxsize=None)
def _monomial(e_lam: int, e_g: int):
    """The monic monomial lam^e_lam * g^e_g as a ring element (shared, never mutated)."""
    return _RING({(e_lam, e_g): QQ_I.one})


def _den_exps(den):
    """(e_lam, e_g) when `den` (monic) is the monomial lam^e_lam*g^e_g, else None."""
    if len(den) != 1:
        return None
    (m,) = den.keys()
    return m


def _shift(p, d_lam: int, d_g: int):
    """p * lam^d_lam * g^d_g for d_lam, d_g >= 0."""
    if not (d_lam or d_g):
        return p
    return p.new([((a + d_lam, b + d_g), c) for (a, b), c in p.items()])


def _over_monomial(num, e_lam: int, e_g: int) -> "ParamScalar":
    """Canonical num / (lam^e_lam * g^e_g): divide out the common monomial."""
    if not num:
        return ParamScalar._make(_ZERO_POLY, _ONE_POLY)
    c_lam = min(e_lam, min(a for a, _ in num))
    c_g = min(e_g, min(b for _, b in num))
    if c_lam or c_g:
        num = num.new([((a - c_lam, b - c_g), c) for (a, b), c in num.items()])
    return ParamScalar._make(num, _monomial(e_lam - c_lam, e_g - c_g))


def _dom_to_gauss(c) -> GaussianRational:
    return GaussianRational(Fraction(int(c.x.numerator), int(c.x.denominator)),
                            Fraction(int(c.y.numerator), int(c.y.denominator)))


class ParamScalar:
    """Element of Q(I)(lam, g), kept in canonical reduced form."""

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, value=0):
        if isinstance(value, ParamScalar):
            num, den = value._num, value._den
        else:
            num, den = _RING.ground_new(_gauss_to_dom(_as_gauss(value))), _ONE_POLY
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, frac):
        num, den = frac.numer, frac.denom
        lc = den.LC
        if lc != QQ_I.one:
            num = num.quo_ground(lc)
            den = den.quo_ground(lc)
        return cls._make(num, den)

    @classmethod
    def _make(cls, num, den):
        """Wrap a pair that is already canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ParamScalar is immutable")

    def _frac(self):
        return _FIELD.raw_new(self._num, self._den)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other, sign: int):
        """self + sign*other."""
        e1, e2 = _den_exps(self._den), _den_exps(other._den)
        if e1 is None or e2 is None:
            if sign > 0:
                return ParamScalar._raw(self._frac() + other._frac())
            return ParamScalar._raw(self._frac() - other._frac())
        e_lam, e_g = max(e1[0], e2[0]), max(e1[1], e2[1])
        n1 = _shift(self._num, e_lam - e1[0], e_g - e1[1])
        n2 = _shift(other._num, e_lam - e2[0], e_g - e2[1])
        return _over_monomial(n1 + n2 if sign > 0 else n1 - n2, e_lam, e_g)

    def __add__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar._make(-self._num, self._den)

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        e1, e2 = _den_exps(self._den), _den_exps(other._den)
        if e1 is None or e2 is None:
            return ParamScalar._raw(self._frac() * other._frac())
        return _over_monomial(self._num * other._num, e1[0] + e2[0], e1[1] + e2[1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("ParamScalar division by zero")
        return ParamScalar._raw(self._frac() / other._frac())

    def __rtruediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return ParamScalar(1)
        if n < 0 and self.is_zero():
            raise ZeroDivisionError("0 ** negative")
        return ParamScalar._raw(self._frac() ** n)

    def __eq__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self._num, self._den))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == _ONE_POLY and self._den == _ONE_POLY

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "ParamScalar":
        """Map I -> -I in every coefficient; lam and g are real and fixed."""
        # a monic denominator stays monic and coprimality is preserved
        return ParamScalar._make(_conj_poly(self._num), _conj_poly(self._den))

    def evaluate(self, lam0, g0) -> GaussianRational:
        """Exact substitution lam -> lam0, g -> g0 (rationals or Gaussian rationals)."""
        lam_v = _gauss_to_dom(_as_gauss(lam0))
        g_v = _gauss_to_dom(_as_gauss(g0))
        subs = [(_RING.gens[0], lam_v), (_RING.gens[1], g_v)]
        den_v = self._den.evaluate(subs)
        if not den_v:
            raise ZeroDivisionError(
                f"pole: denominator vanishes at (lam, g) = ({lam0}, {g0})")
        num_v = self._num.evaluate(subs)
        return _dom_to_gauss(num_v) / _dom_to_gauss(den_v)

    def __repr__(self):
        return f"ParamScalar({self.render()!r})"

    def __str__(self):
        return self.render()

    def render(self) -> str:
        """Canonical text form, e.g. ``(3/2)*lam^2*g - I*g^3``.

        Round-trips through the CLI expression parser.
        """
        num = _render_poly(self._num)
        if self._den == _ONE_POLY:
            return num
        den = _render_poly(self._den)
        num_s = num if _is_atomic(num) and "/" not in num else f"({num})"
        den_s = den if _is_atomic_factor(den) else f"({den})"
        return f"{num_s}/{den_s}"


def _conj_poly(p):
    return _RING.from_dict({m: QQ_I.new(c.x, -c.y) for m, c in p.terms()})


def _monom_str(m) -> str:
    parts = []
    for name, e in zip(("lam", "g"), m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _render_poly(p) -> str:
    if not p:
        return "0"
    out = []
    for m, c in p.terms():
        gc = _dom_to_gauss(c)
        mono = _monom_str(m)
        if not mono:
            piece = _render_gauss(gc, wrap=False)
            piece = f"({piece})" if (gc.im != 0 and gc.re != 0) else piece
        elif gc == GaussianRational(1):
            piece = mono
        elif gc == GaussianRational(-1):
            piece = f"-{mono}"
        else:
            piece = f"{_render_gauss(gc)}*{mono}"
        if not out:
            out.append(piece)
        elif piece.startswith("-"):
            out.append(" - " + piece[1:])
        else:
            out.append(" + " + piece)
    return "".join(out)


def _is_atomic(s: str) -> bool:
    """No top-level + or - (a single product term renders unparenthesized)."""
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return False
    return not s.startswith("-") or False


def _is_atomic_factor(s: str) -> bool:
    return _is_atomic(s) and "*" not in s and "/" not in s


def _as_scalar(x):
    if isinstance(x, ParamScalar):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return ParamScalar(x)
    return None


def scalar(value) -> ParamScalar:
    """Convenience constructor accepting int, Fraction, or GaussianRational."""
    return ParamScalar(value)


LAM = ParamScalar._make(_monomial(1, 0), _ONE_POLY)
G = ParamScalar._make(_monomial(0, 1), _ONE_POLY)
I = ParamScalar(GaussianRational(0, 1))
ZERO = ParamScalar(0)
ONE = ParamScalar(1)
