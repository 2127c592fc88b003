"""Named operator catalogue and the exhaustive identity suites.

Every named operator is built from its own defining expression, never from a
derived identity, so that each verified relation is a genuine check.  Suites
return lists of :class:`IdentityRecord`; a record verifies iff its residual
is exactly zero (or, for span-membership checks, iff an exact certificate
exists).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coeff import ParamScalar, LAM, G, I, ONE, ZERO, scalar, _is_atomic, _minus_product
from .weyl import (WeylOperator, SPACE_ZZB, variable, derivative, identity_op)

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


@dataclass
class IdentityRecord:
    """Outcome of one exact identity check."""

    id: str
    anchor: str
    status: str          # "verified" | "failed"
    residual: str        # canonical rendering of lhs - rhs ("0" when verified)
    ms: float = 0.0
    note: str = ""

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


_BILINEAR_DEFS = {
    "R": lambda c: c["A+"] * c["A-"],
    "S": lambda c: c["B+"] * c["B-"],
    "T": lambda c: c["C+"] * c["C-"],
    "U": lambda c: c["A+"] * c["B-"] + c["B+"] * c["A-"],
    "V": lambda c: c["A+"] * c["C-"] + c["C+"] * c["A-"],
    "W": lambda c: c["B+"] * c["C-"] + c["C+"] * c["B-"],
    "X": lambda c: c["A+"] * c["B-"] - c["B+"] * c["A-"],
    "Y": lambda c: c["A+"] * c["C-"] - c["C+"] * c["A-"],
    "Z": lambda c: c["B+"] * c["C-"] - c["C+"] * c["B-"],
}


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
    for name, build in _BILINEAR_DEFS.items():
        cat[name] = build(cat)
    # gl(3) generators in terms of the ladder bilinears
    cat.update(_gl3_from_ladders(cat))
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


def _gl3_from_ladders(c) -> dict:
    """gl(3) generators built directly from products of the six ladder ops."""
    Ap, Am, Bp, Bm, Cp, Cm = (c[k] for k in ("A+", "A-", "B+", "B-", "C+", "C-"))
    lam, g = LAM, G
    half = _HALF
    e = {}
    e["E11"] = (Cp * Cm).scale(-ONE / (2 * lam)) + _ID.scale(half)
    e["E22"] = ((Bp * Bm).scale(lam / (2 * g * g)) + (Cp * Cm).scale(ONE / (2 * lam))
                + (Bp * Cm + Cp * Bm).scale(ONE / (2 * g)) + _ID.scale(half))
    e["E33"] = ((Ap * Am).scale(-g * g / (2 * lam ** 3))
                + (Bp * Bm).scale(-lam / (2 * g * g))
                + (Cp * Cm).scale(-ONE / (2 * lam))
                + (Ap * Bm + Bp * Am).scale(-ONE / (2 * lam))
                + (Ap * Cm + Cp * Am).scale(-g / (2 * lam * lam))
                + (Bp * Cm + Cp * Bm).scale(-ONE / (2 * g))
                + _ID.scale(half))
    e["E12"] = ((Cp * Cm).scale(ONE / (2 * lam)) + (Cp * Bm).scale(ONE / (2 * g))).scale(I)
    e["E21"] = ((Cp * Cm).scale(ONE / (2 * lam)) + (Bp * Cm).scale(ONE / (2 * g))).scale(I)
    e["E13"] = ((Cp * Cm).scale(-ONE / (2 * lam)) + (Cp * Bm).scale(-ONE / (2 * g))
                + (Cp * Am).scale(-g / (2 * lam * lam)))
    e["E31"] = ((Cp * Cm).scale(-ONE / (2 * lam)) + (Bp * Cm).scale(-ONE / (2 * g))
                + (Ap * Cm).scale(-g / (2 * lam * lam)))
    e["E23"] = ((Bp * Bm).scale(lam / (2 * g * g)) + (Cp * Cm).scale(ONE / (2 * lam))
                + (Bp * Am).scale(ONE / (2 * lam)) + (Bp * Cm).scale(ONE / (2 * g))
                + (Cp * Am).scale(g / (2 * lam * lam))
                + (Cp * Bm).scale(ONE / (2 * g))).scale(I)
    e["E32"] = ((Bp * Bm).scale(lam / (2 * g * g)) + (Cp * Cm).scale(ONE / (2 * lam))
                + (Ap * Bm).scale(ONE / (2 * lam)) + (Cp * Bm).scale(ONE / (2 * g))
                + (Ap * Cm).scale(g / (2 * lam * lam))
                + (Bp * Cm).scale(ONE / (2 * g))).scale(I)
    return e


@lru_cache(maxsize=None)
def gl3_from_bilinears() -> dict:
    """The alternative construction of the gl(3) generators as combinations of
    the nine bilinears; must coincide with the ladder-product construction."""
    c = catalogue()
    R, S, T, U, V, W, X, Y, Z = (c[k] for k in "RSTUVWXYZ")
    lam, g = LAM, G
    half = _HALF
    e = {}
    e["E11"] = T.scale(-ONE / (2 * lam)) + _ID.scale(half)
    e["E22"] = (S.scale(lam / (2 * g * g)) + T.scale(ONE / (2 * lam))
                + W.scale(ONE / (2 * g)) + _ID.scale(half))
    e["E33"] = (R.scale(-g * g / (2 * lam ** 3)) + S.scale(-lam / (2 * g * g))
                + T.scale(-ONE / (2 * lam)) + U.scale(-ONE / (2 * lam))
                + V.scale(-g / (2 * lam * lam)) + W.scale(-ONE / (2 * g))
                + _ID.scale(half))
    e["E12"] = (T.scale(ONE / (2 * lam)) + W.scale(ONE / (4 * g))
                + Z.scale(-ONE / (4 * g))).scale(I)
    e["E21"] = (T.scale(ONE / (2 * lam)) + W.scale(ONE / (4 * g))
                + Z.scale(ONE / (4 * g))).scale(I)
    e["E13"] = (T.scale(-ONE / (2 * lam)) + V.scale(-g / (4 * lam * lam))
                + W.scale(-ONE / (4 * g)) + Y.scale(g / (4 * lam * lam))
                + Z.scale(ONE / (4 * g)))
    e["E31"] = (T.scale(-ONE / (2 * lam)) + V.scale(-g / (4 * lam * lam))
                + W.scale(-ONE / (4 * g)) + Y.scale(-g / (4 * lam * lam))
                + Z.scale(-ONE / (4 * g)))
    e["E23"] = (S.scale(lam / (2 * g * g)) + T.scale(ONE / (2 * lam))
                + U.scale(ONE / (4 * lam)) + V.scale(g / (4 * lam * lam))
                + W.scale(ONE / (2 * g)) + X.scale(-ONE / (4 * lam))
                + Y.scale(-g / (4 * lam * lam))).scale(I)
    e["E32"] = (S.scale(lam / (2 * g * g)) + T.scale(ONE / (2 * lam))
                + U.scale(ONE / (4 * lam)) + V.scale(g / (4 * lam * lam))
                + W.scale(ONE / (2 * g)) + X.scale(ONE / (4 * lam))
                + Y.scale(g / (4 * lam * lam))).scale(I)
    return e


@lru_cache(maxsize=None)
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
        object.__setattr__(self, "even", even if even is not None else WeylOperator({}, SPACE_ZZB))
        object.__setattr__(self, "odd", odd if odd is not None else WeylOperator({}, SPACE_ZZB))

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

    def __mul__(self, other):
        other = _as_ext(other)
        even = self.even * other.even + (self.odd * other.odd).scale(_TWO_LAM)
        odd = self.even * other.odd + self.odd * other.even
        return SqrtTwoLamOperator(even, odd)

    def __rmul__(self, other):
        return _as_ext(other) * self

    def scale(self, c):
        return SqrtTwoLamOperator(self.even.scale(c), self.odd.scale(c))

    def commutator(self, other):
        return self._bracket(other, -1)

    def anticommutator(self, other):
        return self._bracket(other, 1)

    def _bracket(self, other, sign):
        """``self*other + sign*other*self`` by parts, each through the Weyl
        bracket kernel: s is central, so the even part is [e1,e2] + 2 lam [o1,o2]
        and the odd part [e1,o2] + [o1,e2]."""
        other = _as_ext(other)
        even = (self.even._bracket(other.even, sign)
                + self.odd._bracket(other.odd, sign).scale(_TWO_LAM))
        odd = self.even._bracket(other.odd, sign) + self.odd._bracket(other.even, sign)
        return SqrtTwoLamOperator(even, odd)

    def __eq__(self, other):
        other = _as_ext(other)
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
    for tag in ("+", "-"):
        for i in range(1, 4):
            for j in range(i, 4):
                ai, aj = out[f"a{i}{tag}"], out[f"a{j}{tag}"]
                out[f"D{tag}{i}{j}"] = ai.anticommutator(aj).scale(_HALF)
    return out


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def verify_ladder_relations() -> list:
    """Commutation relations among H, A±, B±, C±, Q± (including the zero
    brackets among same-sign letters).

    The cross relation [A±, Q∓] is asserted in the form ±4*lam*A∓, the form
    consistent with direct expansion and with every downstream use.
    """
    c = catalogue()
    H = c["H"]
    lam, g = LAM, G
    out = []

    def rec(ident, anchor, lhs, rhs, note=""):
        out.append(record(ident, anchor, lhs, rhs, note))

    four_lam = scalar(4) * lam
    two_lam = scalar(2) * lam
    two_g = scalar(2) * g

    rec("ladder/H-A+", "H ladder relation with A+", H.commutator(c["A+"]), c["A+"].scale(two_lam))
    rec("ladder/H-A-", "H ladder relation with A-", H.commutator(c["A-"]), c["A-"].scale(-two_lam))
    rec("ladder/A-A+", "degenerate bracket of the A pair", c["A-"].commutator(c["A+"]),
        WeylOperator({}, SPACE_ZZB))
    rec("ladder/H-Q+", "H ladder relation with Q+", H.commutator(c["Q+"]), c["Q+"].scale(four_lam))
    rec("ladder/H-Q-", "H ladder relation with Q-", H.commutator(c["Q-"]), c["Q-"].scale(-four_lam))
    rec("ladder/A+Q-", "A/Q cross bracket (upper)", c["A+"].commutator(c["Q-"]),
        c["A-"].scale(four_lam),
        note="right-hand side carries the opposite-sign ladder operator")
    rec("ladder/A-Q+", "A/Q cross bracket (lower)", c["A-"].commutator(c["Q+"]),
        c["A+"].scale(-four_lam),
        note="right-hand side carries the opposite-sign ladder operator")
    rec("ladder/A+Q+", "A/Q same-sign bracket", c["A+"].commutator(c["Q+"]), WeylOperator({}, SPACE_ZZB))
    rec("ladder/A-Q-", "A/Q same-sign bracket", c["A-"].commutator(c["Q-"]), WeylOperator({}, SPACE_ZZB))
    rec("ladder/Q-Q+", "Q pair bracket against H and the first integral",
        c["Q-"].commutator(c["Q+"]),
        (H.scale(lam) - _r1_differential().scale(two_g) + _ID.scale(scalar(3) * lam * lam)).scale(8))
    rec("ladder/Q-Q+-tilde", "Q pair bracket in terms of the auxiliary operator",
        c["Q-"].commutator(c["Q+"]), c["Rt1"].scale(-2))
    rec("ladder/H-B+", "H ladder relation with B+", H.commutator(c["B+"]),
        c["B+"].scale(two_lam) - c["C+"].scale(two_g))
    rec("ladder/H-B-", "H ladder relation with B-", H.commutator(c["B-"]),
        c["B-"].scale(-two_lam) + c["C-"].scale(two_g))
    rec("ladder/H-C+", "H ladder relation with C+", H.commutator(c["C+"]),
        c["A+"].scale(-two_g) + c["C+"].scale(two_lam))
    rec("ladder/H-C-", "H ladder relation with C-", H.commutator(c["C-"]),
        c["A-"].scale(two_g) - c["C-"].scale(two_lam))
    minus_two_lam_const = _ID.scale(-two_lam)
    rec("ladder/A-B+", "constant cross contraction", c["A-"].commutator(c["B+"]), minus_two_lam_const)
    rec("ladder/B-A+", "constant cross contraction", c["B-"].commutator(c["A+"]), minus_two_lam_const)
    rec("ladder/C-C+", "constant cross contraction", c["C-"].commutator(c["C+"]), minus_two_lam_const)
    two_g_const = _ID.scale(two_g)
    rec("ladder/B-C+", "constant cross contraction", c["B-"].commutator(c["C+"]), two_g_const)
    rec("ladder/C-B+", "constant cross contraction", c["C-"].commutator(c["B+"]), two_g_const)
    zero = WeylOperator({}, SPACE_ZZB)
    for x, y in (("A+", "B+"), ("A+", "C+"), ("B+", "C+"),
                 ("A-", "B-"), ("A-", "C-"), ("B-", "C-"),
                 ("A-", "C+"), ("C-", "A+"), ("B-", "B+")):
        rec(f"ladder/{x}{y}-zero", "vanishing cross bracket", c[x].commutator(c[y]), zero)
    for sgn, tag, cotag in ((+1, "+", "-"), (-1, "-", "+")):
        s = scalar(sgn)
        rec(f"ladder/B{tag}Q{tag}", "B/Q same-sign bracket", c[f"B{tag}"].commutator(c[f"Q{tag}"]), zero)
        rec(f"ladder/C{tag}Q{tag}", "C/Q same-sign bracket", c[f"C{tag}"].commutator(c[f"Q{tag}"]), zero)
        rec(f"ladder/B{tag}Q{cotag}", "B/Q cross bracket",
            c[f"B{tag}"].commutator(c[f"Q{cotag}"]),
            c[f"B{cotag}"].scale(s * four_lam) + c[f"C{cotag}"].scale(s * scalar(4) * g))
        rec(f"ladder/C{tag}Q{cotag}", "C/Q cross bracket",
            c[f"C{tag}"].commutator(c[f"Q{cotag}"]),
            c[f"A{cotag}"].scale(-s * scalar(4) * g) + c[f"C{cotag}"].scale(-s * four_lam))
    return out


def verify_q_factorization() -> list:
    """Q± factor through the three letter pairs; H is minus the sum of the
    diagonal bilinears."""
    c = catalogue()
    out = [
        record("factor/Q+", "factorization of Q+ through the letters",
               c["Q+"], c["A+"] * c["B+"] * 2 - c["C+"] * c["C+"]),
        record("factor/Q-", "factorization of Q- through the letters",
               c["Q-"], c["A-"] * c["B-"] * 2 - c["C-"] * c["C-"]),
        record("factor/H+U+T", "H expressed through the diagonal bilinears",
               c["H"] + c["U"] + c["T"], WeylOperator({}, SPACE_ZZB)),
    ]
    return out


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


def _combine(c, table) -> WeylOperator:
    acc = WeylOperator({}, SPACE_ZZB)
    for name, coeff in table.items():
        acc = acc + c[name].scale(coeff)
    return acc


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
    identities, and the linear Casimir combination."""
    c = catalogue()
    alt = gl3_from_bilinears()
    names = [f"E{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    out = []
    for n in names:
        out.append(record(f"gl3/double-{n}", f"two constructions of {n} agree",
                          c[n], alt[n]))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                for l in (1, 2, 3):
                    rhs = WeylOperator({}, SPACE_ZZB)
                    if j == k:
                        rhs = rhs + c[f"E{i}{l}"]
                    if i == l:
                        rhs = rhs - c[f"E{k}{j}"]
                    out.append(record(
                        f"gl3/ccr-E{i}{j}-E{k}{l}",
                        "gl(3) structure constants",
                        c[f"E{i}{j}"].commutator(c[f"E{k}{l}"]), rhs))
    casimir_rhs = (c["H"] - c["R"].scale(G * G / LAM ** 2) - c["V"].scale(G / LAM)
                   + _ID.scale(scalar(3) * LAM)).scale(ONE / (scalar(2) * LAM))
    out.append(record("gl3/casimir", "linear Casimir as a combination of commuting integrals",
                      c["E11"] + c["E22"] + c["E33"], casimir_rhs))
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
    bp = {k: b[k] for k in ("a1+", "a2+", "a3+", "a1-", "a2-", "a3-")}
    h_rhs = (bp["a1+"] * bp["a1-"] + (bp["a2+"] * bp["a2-"]).scale(2)
             + (bp["a1+"] * bp["a2-"] + bp["a2+"] * bp["a1-"]).scale(I)
             - (bp["a1+"] * bp["a3-"] + bp["a3+"] * bp["a1-"])
             + (bp["a2+"] * bp["a3-"] + bp["a3+"] * bp["a2-"]).scale(I)
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
    basis = [("1", SqrtTwoLamOperator.of(_ID))]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            basis.append((f"E{i}{j}", SqrtTwoLamOperator.of(c[f"E{i}{j}"])))
    for tag in ("+", "-"):
        for i in range(1, 4):
            for j in range(i, 4):
                basis.append((f"D{tag}{i}{j}", b[f"D{tag}{i}{j}"]))
    return basis


class SpanSolver:
    """Exact membership oracle for the linear span of a fixed operator set.

    The basis is brought to echelon form once: each row vanishes at every
    earlier pivot, so a query is a single reduction pass over the rows in
    order.  Coefficient bookkeeping recovers the certificate.
    """

    def __init__(self, basis):
        self.basis = list(basis)
        self.rows = []          # (pivot monomial, vector dict, combo dict)
        for name, ext in self.basis:
            vec = dict(ext.even.terms)
            combo = {name: ONE}
            self._reduce(vec, combo)
            if vec:
                pivot = max(vec, key=lambda m: (sum(m), m))
                inv = ONE / vec[pivot]
                vec = {m: c * inv for m, c in vec.items()}
                combo = {n: c * inv for n, c in combo.items()}
                self.rows.append((pivot, vec, combo))

    def _reduce(self, vec, combo):
        for pivot, rvec, rcombo in self.rows:
            f = vec.get(pivot)
            if f is not None and not f.is_zero():
                _sub_scaled(vec, rvec, f)
                _sub_scaled(combo, rcombo, f)

    def express(self, target: "SqrtTwoLamOperator"):
        """Coefficients {name: scalar} with target = sum, or None."""
        if not target.odd.is_zero():
            return None
        vec = dict(target.even.terms)
        combo = {}
        self._reduce(vec, combo)
        if vec:
            return None
        return {n: -c for n, c in combo.items() if not c.is_zero()}


def _sub_scaled(acc: dict, other: dict, factor):
    """acc -= factor*other, each entry canonicalized once."""
    for k, v in other.items():
        nv = _minus_product(acc.get(k, ZERO), factor, v)
        if nv.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = nv


def express_in_span(target: SqrtTwoLamOperator):
    """Exact coefficients expressing an even element in the quadratic span,
    or None when no representation exists."""
    return _span_solver().express(target)


@lru_cache(maxsize=None)
def _span_solver() -> "SpanSolver":
    return SpanSolver(_span_basis())


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
    and every anticommutator of odd elements, lies in the quadratic span."""
    b, c = boson(), catalogue()
    solver = _span_solver()
    out = []

    def member(ident, anchor, bracket):
        t0 = time.perf_counter()
        target = bracket()
        coeffs = solver.express(target)
        ms = (time.perf_counter() - t0) * 1000.0
        note = "" if coeffs is None else f"= {_certificate(coeffs)}"
        out.append(check(ident, anchor, coeffs is not None, target, note, ms))

    e_names = [f"E{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    d_names = [f"D{t}{i}{j}" for t in ("+", "-") for i in range(1, 4) for j in range(i, 4)]
    for en in e_names:
        for dn in d_names:
            member(f"sp6/[{en},{dn}]", "even part closes under brackets",
                   lambda: c[en].commutator(b[dn]))
    minus = [d for d in d_names if d.startswith("D-")]
    plus = [d for d in d_names if d.startswith("D+")]
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
    out = []
    zero = WeylOperator({}, SPACE_ZZB)
    for i in range(4):
        out.append(record(f"integrals/H-R{i}", "integrals commute with H",
                          c["H"].commutator(c[f"R{i}"]), zero))
    r0sq = c["R0"] * c["R0"]
    out.append(record("integrals/R0R1", "lowest pair commutes",
                      c["R0"].commutator(c["R1"]), zero))
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
