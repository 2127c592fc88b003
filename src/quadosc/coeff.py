"""Exact scalar arithmetic for the model coefficients.

Every coefficient in the oscillator algebra lives in the Laurent ring
Q(i)[lam^±1, g^±1] of the two real model parameters ``lam`` and ``g``, with
Gaussian rational (a + b*I) coefficients: the ladder coefficients with
powers of g in the denominator, the 1/(2*lam) of the biorthogonal basis and
the residual -8*g^2 all lie in it.  All arithmetic is exact; there is no
floating point anywhere in this package.

Representation.  A value is a Laurent map ``_num`` from exponent pairs
``(e_lam, e_g)``, negative ones included, to Gaussian integers ``(re, im)``,
over a positive integer denominator d, kept as the one-entry map
``_den = {(0, 0): (d, 0)}``.  All are plain Python ints.  Canonical form: the
integers of ``_num`` and d have no common divisor, so every value has one
representation, and zero is ``{}`` over 1.  A constant value is a Gaussian
rational; there is no separate type for one.  Values are immutable and
hashable, and a real constant hashes like its ``Fraction``.

Arithmetic.  ``+``, ``-``, ``*``, powers and conjugation are integer products
and sums, then one ``math.gcd`` pass over the coefficients.  Powers square
repeatedly.  Every product over term pairs (``weyl._contract``),
substitution and the span solver flatten their operands over a common
denominator (:func:`_flatten`; a value already over it hands its own Laurent
map through), sum the products as integers (:func:`_accumulate`) and pay that
pass once per result (:func:`_collect`).
Division and negative powers need an inverse in the ring, so the divisor
must be a nonzero unit times a monomial, as in ``1/(2*lam)``; any other
divisor, such as ``lam - g``, raises a ``ValueError`` that names it.  A zero
divisor raises ``ZeroDivisionError``.

``render`` reads the classical pair: a numerator with nonnegative exponents
over the monomial lam^a*g^b.
"""

from __future__ import annotations

from fractions import Fraction
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
    """The values' least common integer denominator."""
    d = 1
    for c in values:
        d = lcm(d, c._den[_UNIT][0])
    return d


def _flatten(terms, d: int):
    """The values of ``terms`` as (key, items) pairs, items the ((e_lam, e_g),
    (re, im)) of the Laurent map d*value, for d a multiple of every
    denominator.  A value over d hands its own map's items through; only the
    others are scaled into a new list."""
    out = []
    for key, c in terms.items():
        k = d // c._den[_UNIT][0]
        out.append((key, c._num.items() if k == 1
                    else [(e, (x * k, y * k)) for e, (x, y) in c._num.items()]))
    return out


def _accumulate(acc, c1, c2, pairs):
    """Add the product of two flattened values (items of :func:`_flatten`)
    times each int weight k at each key m of ``pairs`` into the integer sums
    ``acc``, {(m, (e_lam, e_g)): (re, im)}, that :func:`_collect` reads."""
    for (a, b), (x, y) in c1:
        for (p, q), (u, v) in c2:
            e, re, im = (a + p, b + q), x * u - y * v, x * v + y * u
            for m, k in pairs:
                cur = acc.get((m, e))
                acc[m, e] = ((re * k, im * k) if cur is None
                             else (cur[0] + re * k, cur[1] + im * k))


def _collect(acc, d: int):
    """{key: value} from integer sums {(key, (e_lam, e_g)): (re, im)} over d;
    each value is canonicalized once, and a key whose sums cancel is dropped."""
    nums = {}
    for (key, e), c in acc.items():
        if c[0] or c[1]:
            num = nums.get(key)
            if num is None:
                nums[key] = {e: c}
            else:
                num[e] = c
    return {key: _laurent(num, d) for key, num in nums.items()}


class ParamScalar:
    """Element of Q(i)[lam^±1, g^±1], kept in canonical reduced form."""

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

    def __setattr__(self, name, value):
        raise AttributeError("ParamScalar is immutable")

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other, sign: int):
        """self + sign*other, summed as integers over the common denominator;
        cancelled terms are dropped."""
        n1, n2 = self._num, other._num
        if not n2:
            return self
        d1, d2 = self._den[_UNIT][0], other._den[_UNIT][0]
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        out = dict(n1) if s1 == 1 else {m: (x * s1, y * s1) for m, (x, y) in n1.items()}
        for m, (x, y) in n2.items():
            cur = out.get(m, (0, 0))
            x, y = cur[0] + x * s2, cur[1] + y * s2
            if x or y:
                out[m] = (x, y)
            else:
                del out[m]
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
        d = self._den[_UNIT][0]
        if other.__class__ is not ParamScalar:
            if other.__class__ is int:
                num = {m: (x * other, y * other) for m, (x, y) in self._num.items()}
                return _laurent(num if other else {}, d)
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        return _laurent(_mul_terms(self._num, other._num), d * other._den[_UNIT][0])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("ParamScalar division by zero")
        num, d = other._inverse()
        return _laurent(_mul_terms(self._num, num), self._den[_UNIT][0] * d)

    def __rtruediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other / self

    def _inverse(self):
        """(num, d) with 1/self = num/d, for self a nonzero unit times a
        monomial: the only values with an inverse in the ring."""
        if len(self._num) != 1:
            raise ValueError(f"cannot divide by {self.render()}: not a unit times a monomial")
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
        if n > 0:
            pair = self._num, self._den[_UNIT][0]
        else:
            pair, n = self._inverse(), -n
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
        num, d = self._num, self._den[_UNIT][0]
        if num.keys() <= {_UNIT}:   # a constant; a real one hashes like its Fraction
            re, im = (Fraction(x, d) for x in num.get(_UNIT, (0, 0)))
            h = hash((re, im)) if im else hash(re)
        else:
            h = hash((frozenset(num.items()), frozenset(self._den.items())))
        object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == ONE._num and self._den == _ONE_DEN

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "ParamScalar":
        """Map I -> -I in every coefficient; lam and g are real and fixed."""
        # the denominator is a positive integer, so the result is canonical
        return _new({m: (x, -y) for m, (x, y) in self._num.items()}, self._den)

    def _parts(self):
        """The classical pair: the numerator with nonnegative exponents, a
        list of ((e_lam, e_g), (re, im)) with Fraction parts in descending
        graded lexicographic order (lam > g), and the denominator monomial
        (e_lam, e_g)."""
        num, d = self._num, self._den[_UNIT][0]
        s_lam = max(0, -min((a for a, _ in num), default=0))
        s_g = max(0, -min((b for _, b in num), default=0))
        out = [((a + s_lam, b + s_g), (Fraction(x, d), Fraction(y, d)))
               for (a, b), (x, y) in num.items()]
        out.sort(key=lambda t: (t[0][0] + t[0][1], t[0][0]), reverse=True)
        return out, (s_lam, s_g)

    def __repr__(self):
        return f"ParamScalar({self.render()!r})"

    def __str__(self):
        return self.render()

    def render(self) -> str:
        """Canonical text form, e.g. ``(3/2)*lam^2*g - I*g^3``.

        Round-trips through the CLI expression parser.
        """
        num_terms, den_mono = self._parts()
        num = _render_poly(num_terms)
        if den_mono == _UNIT:
            return num
        den = _monom_str(den_mono)
        num_s = num if _is_atomic(num) and "/" not in num else f"({num})"
        den_s = den if "*" not in den else f"({den})"
        return f"{num_s}/{den_s}"


# the slots' own setters: they pass by the immutability guard of __setattr__
_SET_NUM = ParamScalar._num.__set__
_SET_DEN = ParamScalar._den.__set__


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
