"""Named operator catalogue and the exhaustive identity suites.

Every named operator is built from its own defining expression, never from a
derived identity, so that each verified relation is a genuine check.  Suites
return lists of :class:`IdentityRecord`; a record verifies iff its residual
is exactly zero (or, for span-membership checks, iff an exact certificate
exists).
"""

from __future__ import annotations

import operator
import time
from fractions import Fraction
from functools import lru_cache

from .coeff import (ParamScalar, LAM, G, I, ONE, ZERO, scalar, _is_atomic, _lcd, _flatten,
                    _accumulate, _collect)
from .weyl import WeylOperator, SPACE_ZZB, variable, derivative, identity_op, _grlex_key

__all__ = [
    "IdentityRecord", "check", "catalogue", "op", "boson", "SqrtTwoLamOperator",
    "verify_ladder_relations", "verify_q_factorization",
    "verify_nine_dim_algebra", "verify_gl3", "verify_boson_layer",
    "verify_sp6_osp16_closure", "verify_integrals_cubic_algebra",
]

_Z, _ZB, _X3 = (variable(i) for i in range(3))
_DZ, _DZB, _D3 = (derivative(i) for i in range(3))
_ID = identity_op()

_HALF = scalar(Fraction(1, 2))
_TWO_LAM = scalar(2) * LAM

_E_NAMES = [f"E{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
_D_NAMES = [f"D{t}{i}{j}" for t in "+-" for i in (1, 2, 3) for j in range(i, 4)]


class IdentityRecord:
    """Outcome of one exact identity check: equal to a record of the same
    class and fields, unhashable, as a mutable record is."""

    __slots__ = ("id", "anchor", "status", "residual", "ms", "note")
    __hash__ = None

    def __init__(self, id: str, anchor: str, status: str, residual: str,
                 ms: float = 0.0, note: str = ""):
        self.id, self.anchor = id, anchor
        self.status = status          # "verified" | "failed"
        self.residual = residual      # canonical rendering of lhs - rhs ("0" when verified)
        self.ms, self.note = ms, note

    def _key(self) -> tuple:
        return (self.id, self.anchor, self.status, self.residual, self.ms, self.note)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._key())) + ")"

    @property
    def ok(self) -> bool:
        return self.status == "verified"


def record(ident: str, anchor: str, lhs, rhs, note: str = "") -> IdentityRecord:
    """Build a record from two operators/states/scalars with exact equality."""
    t0 = time.perf_counter()
    residual = lhs - rhs
    return check(ident, anchor, residual.is_zero(), residual, note,
                 (time.perf_counter() - t0) * 1000.0)


def check(ident: str, anchor: str, ok: bool, residual, note: str = "",
          ms: float = 0.0) -> IdentityRecord:
    """Build a record from a verdict computed by the caller.  ``residual`` is
    a string or a value with ``render()``, shown only when the check fails;
    ``ms`` is the time the caller measured for the verdict."""
    if ok:
        return IdentityRecord(ident, anchor, "verified", "0", ms, note)
    if not isinstance(residual, str):
        residual = residual.render()
    return IdentityRecord(ident, anchor, "failed", residual, ms, note)


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------

def _hamiltonian() -> WeylOperator:
    # -4 dz dzb - d3^2 + lam^2 (z zb + x3^2) + g^2 zb^2 - 4 lam g zb x3 - 3 lam
    return (
        (_DZ * _DZB).scale(-4)
        - _D3 * _D3
        + (_Z * _ZB + _X3 * _X3).scale(LAM * LAM)
        + (_ZB * _ZB).scale(G * G)
        + (_ZB * _X3).scale(scalar(-4) * LAM * G)
        - _ID.scale(scalar(3) * LAM)
    )


def _a(sign: int) -> WeylOperator:
    # A± = 2 dz ∓ lam zb
    return _DZ.scale(2) + _ZB.scale(-sign * LAM)


def _b(sign: int) -> WeylOperator:
    # B± = dzb ∓ (lam/2) z ± g x3
    return _DZB + _Z.scale(-sign * _HALF * LAM) + _X3.scale(sign * G)


def _c(sign: int) -> WeylOperator:
    # C± = d3 ± g zb ∓ lam x3
    return _D3 + _ZB.scale(sign * G) + _X3.scale(-sign * LAM)


def _q(sign: int) -> WeylOperator:
    # Q± = 4 dz dzb - d3^2 ∓ 2 lam (z dz + zb dzb - x3 d3) ± 4 g x3 dz
    #      ∓ 2 g zb d3 + lam^2 (z zb - x3^2) - g^2 zb^2 ∓ lam
    s = scalar(sign)
    return (
        (_DZ * _DZB).scale(4)
        - _D3 * _D3
        + (_Z * _DZ + _ZB * _DZB - _X3 * _D3).scale(s * scalar(-2) * LAM)
        + (_X3 * _DZ).scale(s * scalar(4) * G)
        + (_ZB * _D3).scale(s * scalar(-2) * G)
        + (_Z * _ZB - _X3 * _X3).scale(LAM * LAM)
        - (_ZB * _ZB).scale(G * G)
        - _ID.scale(s * LAM)
    )


def _r1_differential() -> WeylOperator:
    # R1 = 2 dz d3 + lam zb (g zb - lam x3)
    return (_DZ * _D3).scale(2) + (_ZB * _ZB).scale(LAM * G) + (_ZB * _X3).scale(-LAM * LAM)


# The bilinears and the gl(3) generators are combinations of the nine ladder
# products X+ * Y-, keyed "XY"; "1" names the identity.
_BILINEARS = {
    "R": {"AA": 1}, "S": {"BB": 1}, "T": {"CC": 1},
    "U": {"AB": 1, "BA": 1}, "V": {"AC": 1, "CA": 1}, "W": {"BC": 1, "CB": 1},
    "X": {"AB": 1, "BA": -1}, "Y": {"AC": 1, "CA": -1}, "Z": {"BC": 1, "CB": -1},
}

_GL3_FROM_LADDERS = {
    "E11": {"CC": -1 / (2 * LAM), "1": _HALF},
    "E22": {"BB": LAM / (2 * G * G), "CC": 1 / (2 * LAM), "BC": 1 / (2 * G),
            "CB": 1 / (2 * G), "1": _HALF},
    "E33": {"AA": -G * G / (2 * LAM ** 3), "BB": -LAM / (2 * G * G), "CC": -1 / (2 * LAM),
            "AB": -1 / (2 * LAM), "BA": -1 / (2 * LAM), "AC": -G / (2 * LAM * LAM),
            "CA": -G / (2 * LAM * LAM), "BC": -1 / (2 * G), "CB": -1 / (2 * G), "1": _HALF},
    "E12": {"CC": I / (2 * LAM), "CB": I / (2 * G)},
    "E21": {"CC": I / (2 * LAM), "BC": I / (2 * G)},
    "E13": {"CC": -1 / (2 * LAM), "CB": -1 / (2 * G), "CA": -G / (2 * LAM * LAM)},
    "E31": {"CC": -1 / (2 * LAM), "BC": -1 / (2 * G), "AC": -G / (2 * LAM * LAM)},
    "E23": {"BB": I * LAM / (2 * G * G), "CC": I / (2 * LAM), "BA": I / (2 * LAM),
            "BC": I / (2 * G), "CA": I * G / (2 * LAM * LAM), "CB": I / (2 * G)},
    "E32": {"BB": I * LAM / (2 * G * G), "CC": I / (2 * LAM), "AB": I / (2 * LAM),
            "CB": I / (2 * G), "AC": I * G / (2 * LAM * LAM), "BC": I / (2 * G)},
}

# The same generators over the bilinears, an independent statement that
# gl3/double-* compares with the one above
_GL3_FROM_BILINEARS = {
    "E11": {"T": -1 / (2 * LAM), "1": _HALF},
    "E22": {"S": LAM / (2 * G * G), "T": 1 / (2 * LAM), "W": 1 / (2 * G), "1": _HALF},
    "E33": {"R": -G * G / (2 * LAM ** 3), "S": -LAM / (2 * G * G), "T": -1 / (2 * LAM),
            "U": -1 / (2 * LAM), "V": -G / (2 * LAM * LAM), "W": -1 / (2 * G), "1": _HALF},
    "E12": {"T": I / (2 * LAM), "W": I / (4 * G), "Z": -I / (4 * G)},
    "E21": {"T": I / (2 * LAM), "W": I / (4 * G), "Z": I / (4 * G)},
    "E13": {"T": -1 / (2 * LAM), "V": -G / (4 * LAM * LAM), "W": -1 / (4 * G),
            "Y": G / (4 * LAM * LAM), "Z": 1 / (4 * G)},
    "E31": {"T": -1 / (2 * LAM), "V": -G / (4 * LAM * LAM), "W": -1 / (4 * G),
            "Y": -G / (4 * LAM * LAM), "Z": -1 / (4 * G)},
    "E23": {"S": I * LAM / (2 * G * G), "T": I / (2 * LAM), "U": I / (4 * LAM),
            "V": I * G / (4 * LAM * LAM), "W": I / (2 * G), "X": -I / (4 * LAM),
            "Y": -I * G / (4 * LAM * LAM)},
    "E32": {"S": I * LAM / (2 * G * G), "T": I / (2 * LAM), "U": I / (4 * LAM),
            "V": I * G / (4 * LAM * LAM), "W": I / (2 * G), "X": I / (4 * LAM),
            "Y": I * G / (4 * LAM * LAM)},
}


def _combine(c, table):
    """The sum of coefficient * ``c[name]`` over ``table``, with "1" read as
    the identity; the empty table is the scalar 0."""
    acc = 0
    for name, coeff in table.items():
        acc = acc + (_ID if name == "1" else c[name]).scale(coeff)
    return acc


@lru_cache(maxsize=None)
def catalogue():
    """All named zzb-space operators, built from their defining formulas."""
    cat = {
        "H": _hamiltonian(),
        "A+": _a(+1), "A-": _a(-1),
        "B+": _b(+1), "B-": _b(-1),
        "C+": _c(+1), "C-": _c(-1),
        "Q+": _q(+1), "Q-": _q(-1),
    }
    products = {x + y: cat[f"{x}+"] * cat[f"{y}-"] for x in "ABC" for y in "ABC"}
    for table in (_BILINEARS, _GL3_FROM_LADDERS):
        cat.update((name, _combine(products, row)) for name, row in table.items())
    # integrals of motion, from their defining combinations
    H, Qp, Qm, Ap, Am = cat["H"], cat["Q+"], cat["Q-"], cat["A+"], cat["A-"]
    r0 = Ap * Am
    r1 = (Qp.commutator(Qm).scale(_HALF) + H.scale(scalar(4) * LAM)
          + _ID.scale(scalar(12) * LAM * LAM)).scale(ONE / (scalar(8) * G))
    r2 = r0.commutator(Qp * Qm).scale(ONE / (scalar(8) * LAM))
    r3 = Qp * Am * Am
    cat["R0"], cat["R1"], cat["R2"], cat["R3"] = r0, r1, r2, r3
    cat["Rt1"] = (H.scale(LAM) - r1.scale(scalar(2) * G)
                  + _ID.scale(scalar(3) * LAM * LAM)).scale(-4)
    return cat


def op(name: str) -> WeylOperator:
    return catalogue()[name]


def gl3_from_bilinears() -> dict:
    """The alternative construction of the gl(3) generators as combinations of
    the nine bilinears; must coincide with the ladder-product construction."""
    c = catalogue()
    return {name: _combine(c, row) for name, row in _GL3_FROM_BILINEARS.items()}


def bilinear_differential_forms() -> dict:
    """The explicit differential realizations of the nine bilinears."""
    lam, g = LAM, G
    z, zb, x3, dz, dzb, d3 = _Z, _ZB, _X3, _DZ, _DZB, _D3
    return {
        "R": (dz * dz).scale(4) + (zb * zb).scale(-lam * lam),
        "S": (dzb * dzb) + (z * z).scale(-lam * lam / 4)
             + (z * x3).scale(lam * g) + (x3 * x3).scale(-g * g),
        "T": (d3 * d3) + (zb * zb).scale(-g * g) + (zb * x3).scale(2 * lam * g)
             + (x3 * x3).scale(-lam * lam) + _ID.scale(lam),
        "U": (dz * dzb).scale(4) + (z * zb).scale(-lam * lam)
             + (zb * x3).scale(2 * lam * g) + _ID.scale(2 * lam),
        "V": (dz * d3).scale(4) + (zb * zb).scale(2 * lam * g)
             + (zb * x3).scale(-2 * lam * lam),
        "W": (dzb * d3).scale(2) + (z * zb).scale(lam * g)
             + (z * x3).scale(-lam * lam) + (zb * x3).scale(-2 * g * g)
             + (x3 * x3).scale(2 * lam * g) + _ID.scale(-2 * g),
        "X": ((z.scale(lam) + x3.scale(-2 * g)) * dz).scale(2)
             + (zb * dzb).scale(-2 * lam),
        "Y": ((zb.scale(g) + x3.scale(-lam)) * dz).scale(-4)
             + (zb * d3).scale(-2 * lam),
        # the final factor is d3: the dz variant fails against the definition
        "Z": ((zb.scale(g) + x3.scale(-lam)) * dzb).scale(-2)
             - (z.scale(lam) + x3.scale(-2 * g)) * d3,
    }


# ---------------------------------------------------------------------------
# The quadratic extension by s = sqrt(2*lam):  elements  even + s*odd
# ---------------------------------------------------------------------------

class SqrtTwoLamOperator:
    """Element of the Weyl algebra extended by a unit s with s^2 = 2*lam.

    The boson layer lives here: each boson operator is purely odd (a single
    s-multiple of a zzb operator), so all the defining identities close inside
    this ring without ever introducing algebraic numbers.
    """

    __slots__ = ("even", "odd")

    def __init__(self, even: WeylOperator = None, odd: WeylOperator = None):
        # a missing part is the zero of the given part's space (zzb if none)
        given = even if even is not None else odd
        space = SPACE_ZZB if given is None else given.space
        object.__setattr__(self, "even", even if even is not None else WeylOperator({}, space))
        object.__setattr__(self, "odd", odd if odd is not None else WeylOperator({}, space))

    def __setattr__(self, name, value):
        raise AttributeError("SqrtTwoLamOperator is immutable")

    @classmethod
    def of(cls, even_op: WeylOperator):
        return cls(even_op, None)

    @classmethod
    def s_times(cls, odd_op: WeylOperator):
        return cls(None, odd_op)

    def __add__(self, other):
        other = _as_ext(other)
        return SqrtTwoLamOperator(self.even + other.even, self.odd + other.odd)

    __radd__ = __add__

    def __neg__(self):
        return SqrtTwoLamOperator(-self.even, -self.odd)

    def __sub__(self, other):
        return self + (-_as_ext(other))

    def __rsub__(self, other):
        return _as_ext(other) + (-self)

    def _by_parts(self, other, binary):
        """``binary``, a product or bracket of Weyl operators, extended by parts:
        s is central and s^2 = 2*lam, so the even part is binary(e1, e2) +
        2 lam binary(o1, o2) and the odd part binary(e1, o2) + binary(o1, e2), each
        over its pairs with no empty operand (none left: the zero of e1's space)."""
        other = _as_ext(other)
        e1, o1, e2, o2 = self.even, self.odd, other.even, other.odd

        def part(*pairs):
            terms = [binary(a, b).scale(c) if c else binary(a, b)
                     for a, b, c in pairs if a.terms and b.terms]
            return sum(terms[1:], terms[0]) if terms else WeylOperator({}, e1.space)
        return SqrtTwoLamOperator(part((e1, e2, None), (o1, o2, _TWO_LAM)),
                                  part((e1, o2, None), (o1, e2, None)))

    def __mul__(self, other):
        return self._by_parts(other, operator.mul)

    def __rmul__(self, other):
        return _as_ext(other) * self

    def scale(self, c):
        return SqrtTwoLamOperator(self.even.scale(c), self.odd.scale(c))

    def commutator(self, other):
        return self._bracket(other, -1)

    def anticommutator(self, other):
        return self._bracket(other, 1)

    def _bracket(self, other, sign):
        """``self*other + sign*other*self`` by parts, through the Weyl kernel."""
        return self._by_parts(other, lambda a, b: a._bracket(b, sign))

    def __eq__(self, other):
        try:
            other = _as_ext(other)
        except TypeError:   # a foreign value, as WeylOperator.__eq__ answers it
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def render(self) -> str:
        if self.odd.is_zero():
            return self.even.render()
        if self.even.is_zero():
            return f"s*({self.odd.render()})"
        return f"{self.even.render()} + s*({self.odd.render()})"

    def __repr__(self):
        return f"SqrtTwoLamOperator({self.render()})"


def _as_ext(x):
    if isinstance(x, SqrtTwoLamOperator):
        return x
    if isinstance(x, WeylOperator):
        return SqrtTwoLamOperator.of(x)
    if isinstance(x, (int, ParamScalar)):
        return SqrtTwoLamOperator.of(_ID.scale(x))
    raise TypeError(f"cannot lift {x!r}")


@lru_cache(maxsize=None)
def boson() -> dict:
    """Boson operators a_i± as s-extension elements (definitions), plus the
    symmetrized quadratics D±_ij used for the symplectic embedding."""
    c = catalogue()
    inv_2lam = ONE / _TWO_LAM   # 1/s = s/(2 lam), so (1/s) X = s * X/(2 lam)
    out = {}
    for tag in ("+", "-"):
        A, B, C = c[f"A{tag}"], c[f"B{tag}"], c[f"C{tag}"]
        cb = C + B.scale(LAM / G)
        cba = cb + A.scale(G / LAM)
        out[f"a1{tag}"] = SqrtTwoLamOperator.s_times(C.scale(I * inv_2lam))
        out[f"a2{tag}"] = SqrtTwoLamOperator.s_times(cb.scale(inv_2lam))
        out[f"a3{tag}"] = SqrtTwoLamOperator.s_times(cba.scale(I * inv_2lam))
    for name in _D_NAMES:   # D±ij = {ai±, aj±}/2
        tag, i, j = name[1:]
        out[name] = out[f"a{i}{tag}"].anticommutator(out[f"a{j}{tag}"]).scale(_HALF)
    return out


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

# (id, anchor, X, Y, [X, Y] as {catalogue name: coefficient}, optional note);
# the id is prefixed with "ladder/", and "1" names the identity
_LADDER_TABLE = (
    ("H-A+", "H ladder relation with A+", "H", "A+", {"A+": 2 * LAM}),
    ("H-A-", "H ladder relation with A-", "H", "A-", {"A-": -2 * LAM}),
    ("A-A+", "degenerate bracket of the A pair", "A-", "A+", {}),
    ("H-Q+", "H ladder relation with Q+", "H", "Q+", {"Q+": 4 * LAM}),
    ("H-Q-", "H ladder relation with Q-", "H", "Q-", {"Q-": -4 * LAM}),
    ("A+Q-", "A/Q cross bracket (upper)", "A+", "Q-", {"A-": 4 * LAM},
     "right-hand side carries the opposite-sign ladder operator"),
    ("A-Q+", "A/Q cross bracket (lower)", "A-", "Q+", {"A+": -4 * LAM},
     "right-hand side carries the opposite-sign ladder operator"),
    ("A+Q+", "A/Q same-sign bracket", "A+", "Q+", {}),
    ("A-Q-", "A/Q same-sign bracket", "A-", "Q-", {}),
    ("Q-Q+-tilde", "Q pair bracket in terms of the auxiliary operator", "Q-", "Q+", {"Rt1": -2}),
    ("H-B+", "H ladder relation with B+", "H", "B+", {"B+": 2 * LAM, "C+": -2 * G}),
    ("H-B-", "H ladder relation with B-", "H", "B-", {"B-": -2 * LAM, "C-": 2 * G}),
    ("H-C+", "H ladder relation with C+", "H", "C+", {"A+": -2 * G, "C+": 2 * LAM}),
    ("H-C-", "H ladder relation with C-", "H", "C-", {"A-": 2 * G, "C-": -2 * LAM}),
    ("A-B+", "constant cross contraction", "A-", "B+", {"1": -2 * LAM}),
    ("B-A+", "constant cross contraction", "B-", "A+", {"1": -2 * LAM}),
    ("C-C+", "constant cross contraction", "C-", "C+", {"1": -2 * LAM}),
    ("B-C+", "constant cross contraction", "B-", "C+", {"1": 2 * G}),
    ("C-B+", "constant cross contraction", "C-", "B+", {"1": 2 * G}),
    ("A+B+-zero", "vanishing cross bracket", "A+", "B+", {}),
    ("A+C+-zero", "vanishing cross bracket", "A+", "C+", {}),
    ("B+C+-zero", "vanishing cross bracket", "B+", "C+", {}),
    ("A-B--zero", "vanishing cross bracket", "A-", "B-", {}),
    ("A-C--zero", "vanishing cross bracket", "A-", "C-", {}),
    ("B-C--zero", "vanishing cross bracket", "B-", "C-", {}),
    ("A-C+-zero", "vanishing cross bracket", "A-", "C+", {}),
    ("C-A+-zero", "vanishing cross bracket", "C-", "A+", {}),
    ("B-B+-zero", "vanishing cross bracket", "B-", "B+", {}),
    ("B+Q+", "B/Q same-sign bracket", "B+", "Q+", {}),
    ("C+Q+", "C/Q same-sign bracket", "C+", "Q+", {}),
    ("B+Q-", "B/Q cross bracket", "B+", "Q-", {"B-": 4 * LAM, "C-": 4 * G}),
    ("C+Q-", "C/Q cross bracket", "C+", "Q-", {"A-": -4 * G, "C-": -4 * LAM}),
    ("B-Q-", "B/Q same-sign bracket", "B-", "Q-", {}),
    ("C-Q-", "C/Q same-sign bracket", "C-", "Q-", {}),
    ("B-Q+", "B/Q cross bracket", "B-", "Q+", {"B+": -4 * LAM, "C+": -4 * G}),
    ("C-Q+", "C/Q cross bracket", "C-", "Q+", {"A+": 4 * G, "C+": 4 * LAM}),
)


def verify_ladder_relations() -> list:
    """Commutation relations among H, A±, B±, C±, Q± (including the zero
    brackets among same-sign letters).

    The cross relation [A±, Q∓] is asserted in the form ±4*lam*A∓, the form
    consistent with direct expansion and with every downstream use.  The
    bracket [Q-, Q+] against H and R1 is built outright: its right-hand side
    uses R1's differential form, since the catalogue's R1 is itself defined
    from [Q+, Q-].
    """
    c = catalogue()
    out = [record("ladder/Q-Q+", "Q pair bracket against H and the first integral",
                  c["Q-"].commutator(c["Q+"]),
                  (c["H"].scale(LAM) - _r1_differential().scale(2 * G) + 3 * LAM * LAM).scale(8))]
    for ident, anchor, x, y, rhs, *note in _LADDER_TABLE:
        out.append(record(f"ladder/{ident}", anchor, c[x].commutator(c[y]), _combine(c, rhs),
                          *note))
    return out


def verify_q_factorization() -> list:
    """Q± factor through the three letter pairs; H is minus the sum of the
    diagonal bilinears."""
    c = catalogue()
    return [
        record("factor/Q+", "factorization of Q+ through the letters",
               c["Q+"], c["A+"] * c["B+"] * 2 - c["C+"] * c["C+"]),
        record("factor/Q-", "factorization of Q- through the letters",
               c["Q-"], c["A-"] * c["B-"] * 2 - c["C-"] * c["C-"]),
        record("factor/H+U+T", "H expressed through the diagonal bilinears",
               c["H"] + c["U"] + c["T"], 0),
    ]


_NINE_TABLE = {
    # (lhs, rhs) -> linear combination {name: coefficient}
    ("R", "S"): {"X": -2 * LAM},
    ("R", "T"): {},
    ("R", "U"): {},
    ("R", "V"): {},
    ("R", "W"): {"Y": -2 * LAM},
    ("R", "X"): {"R": 4 * LAM},
    ("R", "Y"): {},
    ("R", "Z"): {"V": -2 * LAM},
    ("S", "T"): {"Z": 2 * G},
    ("S", "U"): {},
    ("S", "V"): {"Z": -2 * LAM, "X": -2 * G},
    ("S", "W"): {},
    ("S", "X"): {"S": -4 * LAM},
    ("S", "Y"): {"W": -2 * LAM, "U": -2 * G},
    ("S", "Z"): {"S": -4 * G},
    ("T", "U"): {"Y": -2 * G},
    ("T", "V"): {"Y": 2 * LAM},
    ("T", "W"): {"Z": 2 * LAM},
    ("T", "X"): {"V": -2 * G},
    ("T", "Y"): {"V": 2 * LAM},
    ("T", "Z"): {"W": 2 * LAM, "T": 4 * G},
    ("U", "V"): {"Y": -2 * LAM},
    ("U", "W"): {"Z": -2 * LAM, "X": 2 * G},
    ("U", "X"): {},
    ("U", "Y"): {"V": -2 * LAM, "R": -4 * G},
    ("U", "Z"): {"W": -2 * LAM, "U": -2 * G},
    ("V", "W"): {"X": -2 * LAM, "Y": 2 * G},
    ("V", "X"): {"V": 2 * LAM, "R": -4 * G},
    ("V", "Y"): {"R": 4 * LAM},
    ("V", "Z"): {"U": 2 * LAM, "T": -4 * LAM, "V": 2 * G},
    ("W", "X"): {"W": -2 * LAM, "U": -2 * G},
    ("W", "Y"): {"U": 2 * LAM, "T": -4 * LAM, "V": -2 * G},
    ("W", "Z"): {"S": 4 * LAM},
    ("X", "Y"): {"Y": -2 * LAM},
    ("X", "Z"): {"Z": 2 * LAM, "X": -2 * G},
    ("Y", "Z"): {"X": 2 * LAM, "Y": 2 * G},
}

_H_TABLE = {
    "R": {},
    "S": {"Z": 2 * G},
    "T": {"Y": -2 * G},
    "U": {"Y": 2 * G},
    "V": {},
    "W": {"X": -2 * G},
    "X": {"V": 2 * G},
    "Y": {"R": 4 * G},
    "Z": {"U": 2 * G, "T": -4 * G},
}


def verify_nine_dim_algebra() -> list:
    """All 36 pairwise brackets of the nine bilinears, their 9 brackets with
    H, and the 9 differential-realization identities."""
    c = catalogue()
    out = []
    for (x, y), table in _NINE_TABLE.items():
        out.append(record(f"alg9/{x}{y}", f"nine-dimensional algebra bracket [{x},{y}]",
                          c[x].commutator(c[y]), _combine(c, table)))
    for x, table in _H_TABLE.items():
        out.append(record(f"alg9/H{x}", f"bracket of H with the bilinear {x}",
                          c["H"].commutator(c[x]), _combine(c, table)))
    for name, form in bilinear_differential_forms().items():
        out.append(record(f"alg9/real-{name}",
                          f"differential realization of the bilinear {name}",
                          c[name], form))
    return out


def verify_gl3() -> list:
    """Double construction of the gl(3) generators, all 81 structure-constant
    identities, and the linear Casimir combination.  The structure constants
    are brackets of the generators' letter pictures, an injective algebra
    map, so each residual is zero exactly when the zzb one is."""
    from .fock import letter_picture   # fock imports this module
    c = catalogue()
    alt = gl3_from_bilinears()
    e = {n: letter_picture(c[n]) for n in _E_NAMES}
    out = []
    for n in _E_NAMES:
        out.append(record(f"gl3/double-{n}", f"two constructions of {n} agree",
                          c[n], alt[n]))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                for l in (1, 2, 3):
                    rhs = 0
                    if j == k:
                        rhs = rhs + e[f"E{i}{l}"]
                    if i == l:
                        rhs = rhs - e[f"E{k}{j}"]
                    out.append(record(
                        f"gl3/ccr-E{i}{j}-E{k}{l}",
                        "gl(3) structure constants",
                        e[f"E{i}{j}"].commutator(e[f"E{k}{l}"]), rhs))
    casimir_rhs = (c["H"] - c["R"].scale(G * G / LAM ** 2) - c["V"].scale(G / LAM)
                   + 3 * LAM).scale(ONE / (2 * LAM))
    out.append(record("gl3/casimir", "linear Casimir as a combination of commuting integrals",
                      casimir_operator(), casimir_rhs))
    return out


def casimir_operator() -> WeylOperator:
    c = catalogue()
    return c["E11"] + c["E22"] + c["E33"]


def verify_boson_layer() -> list:
    """Canonical commutation relations, the gl(3)-from-bosons identity, the
    inverse transformation, the boson forms of Q± and H, and the nonstandard
    differential realization.  Plain catalogue operators and scalars meet the
    extension elements directly: the extension's arithmetic lifts them."""
    b = boson()
    out = []
    for i in range(1, 4):
        for j in range(1, 4):
            out.append(record(f"boson/ccr-{i}{j}", "boson canonical commutation relations",
                              b[f"a{i}-"].commutator(b[f"a{j}+"]), 1 if i == j else 0))
    for tag in ("+", "-"):
        for i in range(1, 4):
            for j in range(i, 4):
                out.append(record(f"boson/a{i}{tag}a{j}{tag}-commute",
                                  "same-sign boson operators commute",
                                  b[f"a{i}{tag}"].commutator(b[f"a{j}{tag}"]), 0))
    for i in range(1, 4):
        for j in range(1, 4):
            rhs = b[f"a{i}+"] * b[f"a{j}-"]
            if i == j:
                rhs = rhs + _HALF
            out.append(record(f"boson/E{i}{j}", "gl(3) generators from boson pairs",
                              op(f"E{i}{j}"), rhs))
    s = SqrtTwoLamOperator.s_times(_ID)
    for tag in ("+", "-"):
        a1, a2, a3 = b[f"a1{tag}"], b[f"a2{tag}"], b[f"a3{tag}"]
        out.append(record(f"boson/inverse-A{tag}", "inverse transformation for A",
                          op(f"A{tag}"),
                          (s * (a2 + a3.scale(I))).scale(-LAM / G)))
        out.append(record(f"boson/inverse-B{tag}", "inverse transformation for B",
                          op(f"B{tag}"),
                          (s * (a2 + a1.scale(I))).scale(G / LAM)))
        out.append(record(f"boson/inverse-C{tag}", "inverse transformation for C",
                          op(f"C{tag}"),
                          (s * a1).scale(-I)))
        q_rhs = (a1 * a1 - (a2 * a2).scale(2) - (a1 * a2).scale(scalar(2) * I)
                 + (a1 * a3).scale(2) - (a2 * a3).scale(scalar(2) * I)).scale(scalar(2) * LAM)
        out.append(record(f"boson/Q{tag}", "boson form of the double-step ladder operator",
                          op(f"Q{tag}"), q_rhs))
    h_rhs = (b["a1+"] * b["a1-"] + (b["a2+"] * b["a2-"]).scale(2)
             + (b["a1+"] * b["a2-"] + b["a2+"] * b["a1-"]).scale(I)
             - (b["a1+"] * b["a3-"] + b["a3+"] * b["a1-"])
             + (b["a2+"] * b["a3-"] + b["a3+"] * b["a2-"]).scale(I)
             ).scale(scalar(2) * LAM)
    out.append(record("boson/H", "boson form of the Hamiltonian",
                      op("H"), h_rhs))
    # nonstandard differential realization
    lam, g = LAM, G
    inv_2lam = ONE / (scalar(2) * lam)
    for sgn, tag in ((+1, "+"), (-1, "-")):
        sg = scalar(sgn)
        d1 = _D3 + _ZB.scale(sg * g) + _X3.scale(-sg * lam)
        d2 = _DZB.scale(lam / g) + _D3 + _Z.scale(-sg * lam * lam / (2 * g)) + _ZB.scale(sg * g)
        d3_ = _DZ.scale(2 * g / lam) + _DZB.scale(lam / g) + _D3 + _Z.scale(-sg * lam * lam / (2 * g))
        out.append(record(f"boson/diff-a1{tag}", "nonstandard differential realization",
                          b[f"a1{tag}"], SqrtTwoLamOperator.s_times(d1.scale(I * inv_2lam))))
        out.append(record(f"boson/diff-a2{tag}", "nonstandard differential realization",
                          b[f"a2{tag}"], SqrtTwoLamOperator.s_times(d2.scale(inv_2lam))))
        out.append(record(f"boson/diff-a3{tag}", "nonstandard differential realization",
                          b[f"a3{tag}"], SqrtTwoLamOperator.s_times(d3_.scale(I * inv_2lam))))
    return out


def _span_basis() -> list:
    """Spanning set {1, E_ij, D±_ij} of the even quadratic algebra."""
    b, c = boson(), catalogue()
    return ([("1", SqrtTwoLamOperator.of(_ID))]
            + [(n, SqrtTwoLamOperator.of(c[n])) for n in _E_NAMES] + [(n, b[n]) for n in _D_NAMES])


class SpanSolver:
    """Exact membership oracle for the span of a fixed operator set whose
    even parts fill the monomials they use, as {1, E_ij, D±_ij} fill the
    constant and the 21 quadratic monomials.  Gauss-Jordan elimination makes
    each row one monomial and its combination of basis names: ``rows`` is the
    inverse of the basis matrix, as integer rows over one denominator ``den``.
    """

    def __init__(self, basis):
        self.basis = list(basis)
        rows = []   # (pivot, vec, combo); vec is 1 at its pivot, 0 at earlier ones
        for name, ext in self.basis:
            row = (None, dict(ext.even.terms), {name: ONE})
            for other in rows:
                _eliminate(row, other)
            if row[1]:
                pivot = max(row[1], key=_grlex_key)
                inv = ONE / row[1][pivot]
                rows.append((pivot, *({k: c * inv for k, c in part.items()} for part in row[1:])))
        for i in reversed(range(len(rows))):   # back substitution: 0 at every other pivot
            for other in rows[:i]:
                _eliminate(other, rows[i])
        if any(len(vec) > 1 for _, vec, _ in rows):
            raise ValueError("the span does not fill the monomials it uses")
        self.den = _lcd([c for _, _, combo in rows for c in combo.values()])
        self.rows = {pivot: _flatten(combo, self.den) for pivot, _, combo in rows}

    def express(self, target: "SqrtTwoLamOperator"):
        """Coefficients {name: scalar} with target = sum, or None."""
        terms = target.even.terms
        if not target.odd.is_zero() or not terms.keys() <= self.rows.keys():
            return None
        d = _lcd(terms.values())
        acc = {}
        for m, c in _flatten(terms, d):
            for name, entries in self.rows[m]:
                _accumulate(acc, c, entries, ((name, 1),))
        return _collect(acc, d * self.den)


def _eliminate(row, other):
    """row -= f*other in place, f being row's entry at other's pivot."""
    f = row[1].get(other[0])
    if f is not None:
        for acc, part in zip(row[1:], other[1:]):
            for k, v in part.items():
                nv = acc.pop(k, ZERO) - f * v
                if nv:
                    acc[k] = nv


def _certificate(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for name in sorted(coeffs):
        cs = coeffs[name].render()
        cs = cs if _is_atomic(cs) and "(" not in cs else f"({cs})"
        parts.append(f"{cs}*{name}" if name != "1" else cs)
    return " + ".join(parts)


def verify_sp6_osp16_closure() -> list:
    """Closure certificates: every bracket of the even quadratic generators,
    and every anticommutator of odd elements, lies in the quadratic span.
    Both parts of every element are taken to the letter picture, an
    injective algebra map, so each certificate is the zzb one."""
    from .fock import letter_picture   # fock imports this module

    def pictured(x):
        return SqrtTwoLamOperator(letter_picture(x.even), letter_picture(x.odd))
    b = {name: pictured(x) for name, x in boson().items()}
    c = {name: letter_picture(catalogue()[name]) for name in _E_NAMES}
    solver = SpanSolver([(name, pictured(x)) for name, x in _span_basis()])
    out = []

    def member(ident, anchor, bracket):
        t0 = time.perf_counter()
        target = bracket()
        coeffs = solver.express(target)
        ms = (time.perf_counter() - t0) * 1000.0
        note = "" if coeffs is None else f"= {_certificate(coeffs)}"
        out.append(check(ident, anchor, coeffs is not None, target, note, ms))

    for en in _E_NAMES:
        for dn in _D_NAMES:
            member(f"sp6/[{en},{dn}]", "even part closes under brackets",
                   lambda: c[en].commutator(b[dn]))
    plus, minus = _D_NAMES[:6], _D_NAMES[6:]
    for dm in minus:
        for dp in plus:
            member(f"sp6/[{dm},{dp}]", "mixed quadratic brackets close",
                   lambda: b[dm].commutator(b[dp]))
    for group in (plus, minus):
        for idx, d1 in enumerate(group):
            for d2 in group[idx:]:
                member(f"sp6/[{d1},{d2}]", "same-sign quadratic brackets close",
                       lambda: b[d1].commutator(b[d2]))
    odd = [f"a{i}{t}" for t in ("+", "-") for i in range(1, 4)]
    for idx, x in enumerate(odd):
        for y in odd[idx:]:
            member(f"osp16/{{{x},{y}}}", "odd anticommutators land in the even part",
                   lambda: b[x].anticommutator(b[y]))
    return out


def verify_integrals_cubic_algebra() -> list:
    """The four integrals of motion, their commuting with H, the quadratic and
    cubic brackets, the computed bracket of the zeroth and third integrals,
    and the bilinear re-expressions."""
    c = catalogue()
    out = [record(f"integrals/H-R{i}", "integrals commute with H",
                  c["H"].commutator(c[f"R{i}"]), 0) for i in range(4)]
    r0sq = c["R0"] * c["R0"]
    out.append(record("integrals/R0R1", "lowest pair commutes",
                      c["R0"].commutator(c["R1"]), 0))
    out.append(record("integrals/R0R2", "quadratic bracket",
                      c["R0"].commutator(c["R2"]), r0sq.scale(scalar(-4) * LAM)))
    out.append(record("integrals/R1R2", "quadratic bracket",
                      c["R1"].commutator(c["R2"]), r0sq.scale(scalar(2) * G)))
    out.append(record("integrals/R1R3", "quadratic bracket",
                      c["R1"].commutator(c["R3"]), r0sq.scale(scalar(2) * G)))
    cubic_rhs = ((c["R1"] * r0sq).scale(scalar(8) * G)
                 + ((c["R3"] - c["R2"]) * c["R0"]).scale(scalar(4) * LAM)
                 + (c["R1"] * c["R1"] * c["R0"]).scale(scalar(8) * LAM))
    out.append(record("integrals/R2R3", "cubic bracket closing the algebra",
                      c["R2"].commutator(c["R3"]), cubic_rhs))
    # The bracket [R0, R3]: computed outright and matched to c * R0^2.
    br = c["R0"].commutator(c["R3"])
    candidates = ((scalar(-4) * LAM, "-4*lam"), (scalar(4) * LAM, "4*lam"))
    label = next((label for cval, label in candidates if (br - r0sq.scale(cval)).is_zero()), None)
    note = (f"[R0,R3] = ({label})*R0^2, coefficient fixed by computation" if label
            else "not proportional to R0^2")
    out.append(check("integrals/R0R3", "computed bracket of the zeroth and third integrals",
                     label is not None, br, note=note))
    out.append(record("integrals/R0-bilinear", "zeroth integral as a bilinear",
                      c["R0"], c["R"]))
    out.append(record("integrals/R1-bilinear", "first integral as a bilinear",
                      c["R1"], c["V"].scale(_HALF)))
    out.append(record("integrals/R1-differential", "explicit differential form of the first integral",
                      c["R1"], _r1_differential()))
    out.append(record("integrals/R2-bilinear", "second integral as a bilinear",
                      c["R2"],
                      (-(c["R"] * (c["X"] - _ID.scale(scalar(2) * LAM))))
                      + c["V"].anticommutator(c["Y"]).scale(scalar(Fraction(1, 4)))))
    out.append(record("integrals/R3-bilinear", "third integral as a bilinear",
                      c["R3"],
                      c["R"] * (c["U"] - c["X"] + _ID.scale(scalar(4) * LAM))
                      - (c["V"] * c["V"] + c["Y"] * c["Y"]
                         - c["V"].anticommutator(c["Y"])).scale(scalar(Fraction(1, 4)))))
    return out
