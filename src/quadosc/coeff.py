"""Exact scalar arithmetic for the model coefficients.

Every coefficient in the oscillator algebra lives in the field Q(i)(lam, g)
of rational functions in the two real model parameters ``lam`` and ``g``,
with Gaussian rational (a + b*I) coefficients.  All arithmetic is exact;
there is no floating point anywhere in this package.

Representation.  A value is a pair of sparse maps from exponent pairs
``(e_lam, e_g)`` to Gaussian integers ``(re, im)``, all plain Python ints:

* ``_num`` is a Laurent polynomial: a negative exponent carries a monomial
  denominator lam^a*g^b;
* ``_den`` is a polynomial divisible by neither lam nor g.

Canonical form: ``_num`` and ``_den`` share no factor but units and
monomials, the leading coefficient of ``_den`` under graded lexicographic
order with lam > g is a positive integer, and the integers of both maps have
no common divisor.  So every value has one representation, and zero is
``{}`` over ``{(0, 0): (1, 0)}``.  A monomial denominator, the only kind the
suites build, leaves ``_den`` the constant ``{(0, 0): (d, 0)}``, so
``len(_den) == 1`` exactly when the denominator is a monomial.  A constant
value is a Gaussian rational; there is no separate type for one.  Values
are immutable and hashable, and a real constant hashes like its
``Fraction``.

Arithmetic.  ``+``, ``-``, ``*``, powers, conjugation and division by a unit
times a monomial stay in this Laurent ring: integer products and sums, then
one ``math.gcd`` pass over the coefficients.  Powers square repeatedly.  The
Weyl kernel and the span reduction sum integer maps over a common
denominator and pay that pass once per result (:func:`_add_times`).  None of
this imports sympy.  An operation with an operand whose denominator is not a
monomial, a division by anything but a unit times a monomial, and a negative
power of such a value take sympy's fraction field over QQ_I, which is
imported on the first such operation: only these need a polynomial GCD, as
in ``(lam^2-g^2)/(lam-g)`` or ``H/(lam+g)`` on the command line.

``render``, ``evaluate`` and ``_frac`` read the classical pair: numerator
and monic denominator with nonnegative exponents, coprime.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = ["ParamScalar", "LAM", "G", "I", "ZERO", "ONE"]


def power(base, n: int, mul):
    """``base ** n`` for n >= 1 by repeated squaring under the product
    ``mul``: the bit length of n plus its count of one bits, less two,
    products."""
    acc = None
    while True:
        if n & 1:
            acc = base if acc is None else mul(acc, base)
        n >>= 1
        if not n:
            return acc
        base = mul(base, base)


def _render_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_gauss(c, wrap: bool = True) -> str:
    """Render a Gaussian rational, the pair (re, im) of Fractions; `wrap`
    parenthesizes anything non-atomic."""
    re, im = c
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


# -- the Laurent ring: maps (e_lam, e_g) -> (re, im) -------------------------

_UNIT = (0, 0)
_ONE_DEN = {_UNIT: (1, 0)}   # shared denominator of every value over 1; never mutated


def _grlex(m):
    """Sort key of graded lexicographic order with lam > g."""
    return (m[0] + m[1], m[0])


def _mul_terms(n1, n2):
    """The product of two Laurent maps."""
    out = {}
    for (a, b), (x, y) in n1.items():
        for (p, q), (u, v) in n2.items():
            m = (a + p, b + q)
            re, im = x * u - y * v, x * v + y * u
            cur = out.get(m)
            if cur is not None:
                re += cur[0]
                im += cur[1]
            out[m] = (re, im)
    if len(out) < len(n1) * len(n2):
        # terms collided, so some may cancel; Z[i] has no zero divisors,
        # so without a collision nothing does
        out = {m: c for m, c in out.items() if c[0] or c[1]}
    return out


def _mul_pairs(x, y):
    """The product of two (Laurent map, integer denominator) pairs."""
    return _mul_terms(x[0], y[0]), x[1] * y[1]


def _new(num, den) -> "ParamScalar":
    """Wrap a pair that is already canonical."""
    self = object.__new__(ParamScalar)
    _SET_NUM(self, num)
    _SET_DEN(self, den)
    return self


def _laurent(num, d: int) -> "ParamScalar":
    """The canonical value num/d of a Laurent map num and an integer d > 0."""
    if d != 1:
        g = d
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            num = {m: (re // g, im // g) for m, (re, im) in num.items()}
            d //= g
    return _new(num, _ONE_DEN if d == 1 else {_UNIT: (d, 0)})


def _lcd(values):
    """The values' least common integer denominator; None for a non-monomial."""
    d = 1
    for c in values:
        den = c._den
        if len(den) != 1:
            return None
        d = lcm(d, den[_UNIT][0])
    return d


def _product_over(a, b, d: int):
    """(num, s) with a*b = s*num/d, for d a multiple of both denominators."""
    return _mul_terms(a._num, b._num), d // (a._den[_UNIT][0] * b._den[_UNIT][0])


def _add_times(acc, num, k: int):
    """acc += k*num for Laurent maps, in place; cancelled terms are dropped."""
    for m, (x, y) in num.items():
        if k != 1:
            x, y = x * k, y * k
        cur = acc.get(m)
        if cur is not None:
            x, y = cur[0] + x, cur[1] + y
            if not (x or y):
                del acc[m]
                continue
        acc[m] = (x, y)


def _minus_product(c, a, b):
    """c - a*b, canonicalized once: the product stays unreduced till then."""
    da, db = a._den, b._den
    if len(da) != 1 or len(db) != 1:
        return c - a * b
    return c._plus(_new(_mul_terms(a._num, b._num), {_UNIT: (da[_UNIT][0] * db[_UNIT][0], 0)}), -1)


@lru_cache(maxsize=None)
def _sympy_field():
    """sympy's Q(i)(lam, g) with grlex order, lam > g; imported on first use."""
    from sympy.polys.domains import QQ_I
    from sympy.polys.fields import field
    return field("lam,g", QQ_I, order="grlex")[0]


class ParamScalar:
    """Element of Q(I)(lam, g), kept in canonical reduced form."""

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, value=0):
        if isinstance(value, ParamScalar):
            num, den = value._num, value._den
        elif isinstance(value, (int, Fraction)):
            n, d = value.numerator, value.denominator
            num = {_UNIT: (n, 0)} if n else {}
            den = _ONE_DEN if d == 1 else {_UNIT: (d, 0)}
        else:
            raise TypeError(f"cannot interpret {value!r} as ParamScalar")
        _SET_NUM(self, num)
        _SET_DEN(self, den)

    @classmethod
    def _raw(cls, frac):
        """The canonical value of an element of sympy's field, whose
        numerator and denominator the field keeps coprime."""
        def terms(p):
            return {m: (Fraction(int(c.x.numerator), int(c.x.denominator)),
                        Fraction(int(c.y.numerator), int(c.y.denominator)))
                    for m, c in p.items()}

        num, den = terms(frac.numer), terms(frac.denom)
        # times the conjugate of den's leading coefficient, which turns it
        # real and positive; then to coprime integers, and den's monomial
        # factor into num's exponents
        x0, y0 = den[max(den, key=_grlex)]
        num = {m: (x * x0 + y * y0, y * x0 - x * y0) for m, (x, y) in num.items()}
        den = {m: (x * x0 + y * y0, y * x0 - x * y0) for m, (x, y) in den.items()}
        parts = [q for side in (num, den) for c in side.values() for q in c]
        scale = lcm(*(q.denominator for q in parts))
        content = gcd(*(q.numerator * (scale // q.denominator) for q in parts))
        s_lam = min(a for a, _ in den)
        s_g = min(b for _, b in den)

        def ints(terms):
            return {(a - s_lam, b - s_g): (int(x * scale) // content, int(y * scale) // content)
                    for (a, b), (x, y) in terms.items()}

        return _new(ints(num), ints(den))

    def __setattr__(self, name, value):
        raise AttributeError("ParamScalar is immutable")

    def _frac(self):
        """This value as an element of sympy's field."""
        field = _sympy_field()
        ring = field.ring
        dom = ring.domain
        qq = dom.dom

        def poly(terms):
            return ring.from_dict({m: dom.new(qq(re.numerator, re.denominator),
                                              qq(im.numerator, im.denominator))
                                   for m, (re, im) in terms})

        num, den = self._parts()
        return field.raw_new(poly(num), poly(den))

    # -- arithmetic ---------------------------------------------------------
    # A value over a monomial has len(_den) == 1 and the integer
    # denominator _den[_UNIT][0]; any other operand takes sympy's field.

    def _plus(self, other, sign: int):
        """self + sign*other."""
        den1, den2 = self._den, other._den
        if len(den1) != 1 or len(den2) != 1:
            return _via_field(operator.add if sign > 0 else operator.sub, self, other)
        n1, n2 = self._num, other._num
        if not n2:
            return self
        d1, d2 = den1[_UNIT][0], den2[_UNIT][0]
        g = gcd(d1, d2)
        s1 = d2 // g
        out = dict(n1) if s1 == 1 else {m: (x * s1, y * s1) for m, (x, y) in n1.items()}
        _add_times(out, n2, sign * (d1 // g))
        return _laurent(out, d1 * s1)

    def __add__(self, other):
        if other.__class__ is not ParamScalar:
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new({m: (-x, -y) for m, (x, y) in self._num.items()}, self._den)

    def __sub__(self, other):
        if other.__class__ is not ParamScalar:
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
        den = self._den
        if other.__class__ is not ParamScalar:
            if other.__class__ is int and len(den) == 1:
                num = {m: (x * other, y * other) for m, (x, y) in self._num.items()}
                return _laurent(num if other else {}, den[_UNIT][0])
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        if len(den) != 1 or len(other._den) != 1:
            return _via_field(operator.mul, self, other)
        return _laurent(_mul_terms(self._num, other._num), den[_UNIT][0] * other._den[_UNIT][0])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("ParamScalar division by zero")
        inverse = other._unit_inverse()
        if inverse is None or len(self._den) != 1:
            return _via_field(operator.truediv, self, other)
        num, d = inverse
        return _laurent(_mul_terms(self._num, num), self._den[_UNIT][0] * d)

    def __rtruediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other / self

    def _unit_inverse(self):
        """(num, d) with 1/self = num/d when self is a nonzero unit times a
        monomial, else None."""
        if len(self._num) != 1 or len(self._den) != 1:
            return None
        ((a, b), (x, y)), = self._num.items()
        d = self._den[_UNIT][0]
        return {(-a, -b): (d * x, -d * y)}, x * x + y * y

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return ONE
        if n < 0 and self.is_zero():
            raise ZeroDivisionError("0 ** negative")
        if n > 0 and len(self._den) == 1:
            pair = self._num, self._den[_UNIT][0]
        elif n < 0 and (pair := self._unit_inverse()) is not None:
            n = -n
        else:
            return ParamScalar._raw(self._frac() ** n)
        return _laurent(*power(pair, n, _mul_pairs))

    def __eq__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:   # first call: the slot starts unset
            pass
        c = self._constant_part()
        if c is not None:
            h = hash(c) if c[1] else hash(c[0])   # a real one like its Fraction
        else:
            h = hash((frozenset(self._num.items()), frozenset(self._den.items())))
        object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == ONE._num and self._den == _ONE_DEN

    def _constant_part(self):
        """(re, im) as Fractions when this value is a constant, else None."""
        num, den = self._num, self._den
        if len(den) != 1 or not num.keys() <= {_UNIT}:
            return None
        d = den[_UNIT][0]
        re, im = num.get(_UNIT, (0, 0))
        return Fraction(re, d), Fraction(im, d)

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "ParamScalar":
        """Map I -> -I in every coefficient; lam and g are real and fixed."""
        # the leading coefficient of the denominator is real, so the result
        # is canonical as it stands
        def conj(terms):
            return {m: (x, -y) for m, (x, y) in terms.items()}
        den = self._den
        return _new(conj(self._num), den if len(den) == 1 else conj(den))

    def _parts(self):
        """The classical canonical pair: numerator and monic denominator with
        nonnegative exponents, each a list of ((e_lam, e_g), (re, im)) with
        Fraction parts, in descending grlex order."""
        num, den = self._num, self._den
        lc = den[max(den, key=_grlex)][0]
        s_lam = max(0, -min((a for a, _ in num), default=0))
        s_g = max(0, -min((b for _, b in num), default=0))

        def shifted(terms):
            out = [((a + s_lam, b + s_g), (Fraction(x, lc), Fraction(y, lc)))
                   for (a, b), (x, y) in terms.items()]
            out.sort(key=lambda t: _grlex(t[0]), reverse=True)
            return out

        return shifted(num), shifted(den)

    def evaluate(self, lam0, g0) -> "ParamScalar":
        """Exact substitution lam -> lam0, g -> g0, each an int, a Fraction or
        a constant ParamScalar such as ``1 + I/2``; the value is a constant."""
        point = _as_scalar(lam0), _as_scalar(g0)
        if any(v is None or v._constant_part() is None for v in point):
            raise TypeError(f"cannot evaluate at the non-constant point ({lam0!r}, {g0!r})")
        lam_v, g_v = point

        def value(terms):
            total = ZERO
            for (a, b), (re, im) in terms:
                total = total + (re + I * im) * lam_v ** a * g_v ** b
            return total

        num, den = self._parts()
        den_v = value(den)
        if not den_v:
            raise ZeroDivisionError(
                f"pole: denominator vanishes at (lam, g) = ({lam0}, {g0})")
        return value(num) / den_v

    def __repr__(self):
        return f"ParamScalar({self.render()!r})"

    def __str__(self):
        return self.render()

    def render(self) -> str:
        """Canonical text form, e.g. ``(3/2)*lam^2*g - I*g^3``.

        Round-trips through the CLI expression parser.
        """
        num_terms, den_terms = self._parts()
        num = _render_poly(num_terms)
        if den_terms[0][0] == _UNIT:
            return num
        den = _render_poly(den_terms)
        num_s = num if _is_atomic(num) and "/" not in num else f"({num})"
        den_s = den if _is_atomic_factor(den) else f"({den})"
        return f"{num_s}/{den_s}"


# the slots' own setters: they pass by the immutability guard of __setattr__
_SET_NUM = ParamScalar._num.__set__
_SET_DEN = ParamScalar._den.__set__


def _via_field(op, a: ParamScalar, b: ParamScalar) -> ParamScalar:
    """op(a, b) in sympy's fraction field: the route that needs a GCD."""
    return ParamScalar._raw(op(a._frac(), b._frac()))


def _monom_str(m) -> str:
    parts = []
    for name, e in zip(("lam", "g"), m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _render_poly(terms) -> str:
    if not terms:
        return "0"
    out = []
    for m, gc in terms:
        mono = _monom_str(m)
        if not mono:
            piece = _render_gauss(gc, wrap=False)
            piece = f"({piece})" if all(gc) else piece
        elif gc == (1, 0):
            piece = mono
        elif gc == (-1, 0):
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


def _scalar_atomic(s: str) -> bool:
    """No top-level binary + or -: a sign after ``(*/^`` is unary.  A
    rendered value that passes needs no parentheses as a factor."""
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "(*/^":
            return False
    return True


def _is_atomic(s: str) -> bool:
    """A single product term with no leading sign."""
    return _scalar_atomic(s) and not s.startswith("-")


def _is_atomic_factor(s: str) -> bool:
    return _is_atomic(s) and "*" not in s and "/" not in s


def _as_scalar(x):
    if isinstance(x, ParamScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ParamScalar(x)
    return None


def scalar(value) -> ParamScalar:
    """Convenience constructor accepting int or Fraction."""
    return ParamScalar(value)


ZERO = _new({}, _ONE_DEN)
ONE = _new({_UNIT: (1, 0)}, _ONE_DEN)
LAM = _new({(1, 0): (1, 0)}, _ONE_DEN)
G = _new({(0, 1): (1, 0)}, _ONE_DEN)
I = _new({_UNIT: (0, 1)}, _ONE_DEN)
