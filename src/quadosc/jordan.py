"""Jordan-block associated states, their coefficient tables, ladder actions,
and the multivariate-polynomial layer in the transformed variables (u, v, w).

States are kept unnormalized throughout this module (the normalization
constant of each block is handled in :mod:`quadosc.biortho`), so every ladder
coefficient below is the exact ratio with all normalization factors
cancelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .coeff import ParamScalar, LAM, G, ONE, ZERO, scalar
from .weyl import (WeylOperator, Poly3, GaussianState, SPACE_ZZB, SPACE_UVW,
                   poly_var, poly_one, variable, derivative, identity_op)
from . import operators as _ops
from .operators import check, record
from . import fock as _fock
from .fock import CreationPolynomial

__all__ = [
    "JordanLabel", "AssociatedState", "coeff_a", "coeff_b",
    "build_state", "build_state_direct", "ladder_apply",
    "special_operator_actions", "d_p", "f_polynomial",
    "verify_jordan_layer", "verify_coefficient_recursions",
    "verify_auxiliary_relations", "verify_ladder_actions",
    "verify_special_actions", "verify_uvw_layer",
]


def _dfact(m: int) -> int:
    """Double factorial with (-1)!! = 1."""
    if m < -1:
        raise ValueError("double factorial of integer below -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@dataclass(frozen=True)
class JordanLabel:
    """Block member label (k, n, m) with 0 <= m <= 2n."""

    k: int
    n: int
    m: int

    def __post_init__(self):
        if self.k < 0 or self.n < 0:
            raise ValueError("negative block indices")
        if not (0 <= self.m <= 2 * self.n):
            raise ValueError(f"m = {self.m} outside the block of size {2 * self.n + 1}")

    @property
    def energy(self) -> ParamScalar:
        return scalar(2 * (2 * self.k + self.n)) * LAM

    @property
    def block_dimension(self) -> int:
        return 2 * self.n + 1

    def to_json(self):
        return {"k": self.k, "n": self.n, "m": self.m, "energy": self.energy.render()}


@dataclass(frozen=True)
class AssociatedState:
    """Unnormalized block member with its creation-polynomial representation."""

    label: JordanLabel
    creation: CreationPolynomial

    def uvw_poly(self) -> Poly3:
        """The wavefunction in (u, v, w): the change of variables of the zzb one."""
        return _fock.zzb_poly_to_uvw(self._zzb.poly)

    @cached_property
    def _zzb(self) -> GaussianState:
        return _fock.to_gaussian_state(self.creation)

    def gaussian(self) -> GaussianState:
        """The wavefunction, built on the first call and kept with the state."""
        return self._zzb

    def to_json(self):
        return {
            "label": self.label.to_json(),
            "creation": self.creation.to_json(),
            "uvw": self.uvw_poly().render(),
            "zzb": self.gaussian().poly.render(),
        }


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def coeff_a(n: int, p: int, q: int) -> ParamScalar:
    """Closed-form even-step coefficient; vanishes when q < 2p - n."""
    if not (0 <= p <= n):
        raise ValueError(f"coeff_a: p = {p} outside 0..{n}")
    if not (0 <= q <= p):
        raise ValueError(f"coeff_a: q = {q} outside 0..{p}")
    if n - 2 * p + q < 0:
        return ZERO
    val = (Fraction(math.factorial(n), math.factorial(n - 2 * p + q))
           * Fraction(math.factorial(p), math.factorial(q) * math.factorial(p - q))
           * Fraction(_dfact(2 * p - 1), _dfact(2 * p - 2 * q - 1))
           * Fraction(2) ** (2 * p))
    return scalar(val) * G ** (2 * p)


@lru_cache(maxsize=None)
def coeff_b(n: int, p: int, q: int) -> ParamScalar:
    """Closed-form odd-step coefficient; vanishes when q < 2p + 1 - n."""
    if not (0 <= p <= n - 1):
        raise ValueError(f"coeff_b: p = {p} outside 0..{n - 1}")
    if not (0 <= q <= p):
        raise ValueError(f"coeff_b: q = {q} outside 0..{p}")
    if n - 2 * p + q - 1 < 0:
        return ZERO
    val = (Fraction(math.factorial(n), math.factorial(n - 2 * p + q - 1))
           * Fraction(math.factorial(p), math.factorial(q) * math.factorial(p - q))
           * Fraction(_dfact(2 * p + 1), _dfact(2 * p - 2 * q + 1))
           * (-Fraction(2) ** (2 * p + 1)))
    return scalar(val) * G ** (2 * p + 1)


def _a_guarded(n, p, q):
    if q < 0 or q > p:
        return ZERO
    return coeff_a(n, p, q)


def _b_guarded(n, p, q):
    if q < 0 or q > p:
        return ZERO
    return coeff_b(n, p, q)


def rec_b_from_a(n: int, p: int, q: int) -> ParamScalar:
    """Odd-step coefficients from the even-step table (first cross relation)."""
    return scalar(-2) * G * (scalar(2 * p - 2 * q + 2) * _a_guarded(n, p, q - 1)
                             + scalar(n - 2 * p + q) * _a_guarded(n, p, q))


def rec_a_from_b(n: int, p1: int, q: int) -> ParamScalar:
    """Even-step coefficients at level p1 = p + 1 from the odd-step table."""
    p = p1 - 1
    return scalar(-2) * G * (scalar(2 * p + 3 - 2 * q) * _b_guarded(n, p, q - 1)
                             + scalar(n - 2 * p + q - 1) * _b_guarded(n, p, q))


def rec_a_step(n: int, p1: int, q: int) -> ParamScalar:
    """Pure even-step recursion from level p = p1 - 1."""
    p = p1 - 1
    return scalar(4) * G * G * (
        scalar(2 * p - 2 * q + 3) * (2 * p - 2 * q + 4) * _a_guarded(n, p, q - 2)
        + scalar(n - 2 * p + q - 1) * (4 * p - 4 * q + 5) * _a_guarded(n, p, q - 1)
        + scalar(n - 2 * p + q - 1) * (n - 2 * p + q) * _a_guarded(n, p, q))


def rec_b_step(n: int, p1: int, q: int) -> ParamScalar:
    """Pure odd-step recursion from level p = p1 - 1."""
    p = p1 - 1
    return scalar(4) * G * G * (
        scalar(2 * p - 2 * q + 4) * (2 * p - 2 * q + 5) * _b_guarded(n, p, q - 2)
        + scalar(n - 2 * p + q - 2) * (4 * p - 4 * q + 7) * _b_guarded(n, p, q - 1)
        + scalar(n - 2 * p + q - 2) * (n - 2 * p + q - 1) * _b_guarded(n, p, q))


# ---------------------------------------------------------------------------
# Associated states
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_state(label: JordanLabel) -> AssociatedState:
    """Block member from the closed-form expansion in creation letters."""
    k, n, m = label.k, label.n, label.m
    mu = m // 2
    terms = {}
    if m % 2 == 0:
        p = n - mu
        for q in range(max(0, n - 2 * mu), n - mu + 1):
            word = (q, 2 * mu - n + q, 2 * n - 2 * mu - 2 * q)
            c = coeff_a(n, p, q)
            if not c.is_zero():
                terms[word] = c
    else:
        p = n - mu - 1
        for q in range(max(0, n - 2 * mu - 1), n - mu):
            word = (q, 2 * mu + 1 - n + q, 2 * n - 2 * mu - 2 * q - 1)
            c = coeff_b(n, p, q)
            if not c.is_zero():
                terms[word] = c
    base = CreationPolynomial(terms)
    if k:
        base = base * _fock.expand_q_power(k)
    return AssociatedState(label, base)


@lru_cache(maxsize=None)
def _direct_chain(k: int, n: int):
    """All 2n+1 members of a block by repeatedly applying (H - E) to the
    chain top, re-expressed in creation letters; the expensive direct route."""
    h_shift = _ops.catalogue()["H"] - identity_op().scale(JordanLabel(k, n, 0).energy)
    top = _fock.to_gaussian_state(
        CreationPolynomial.word(0, n, 0) * _fock.expand_q_power(k))
    chain = {2 * n: top}
    for m in range(2 * n, 0, -1):
        chain[m - 1] = h_shift.apply(chain[m])
    return {m: _fock.gaussian_state_to_creation(s) for m, s in chain.items()}


def build_state_direct(label: JordanLabel) -> AssociatedState:
    """Block member built by direct operator application; must agree exactly
    with the closed-form construction."""
    chain = _direct_chain(label.k, label.n)
    return AssociatedState(label, chain[label.m])


# ---------------------------------------------------------------------------
# Ladder actions on block members (normalization-free coefficients)
# ---------------------------------------------------------------------------

def _ratio(num, den) -> ParamScalar:
    return scalar(Fraction(num, den))


def _emit(out: list, k: int, n: int, m: int, coeff: ParamScalar) -> None:
    """Append (JordanLabel(k, n, m), coeff) unless the coefficient vanishes or
    the label lies outside every block."""
    if coeff.is_zero() or k < 0 or n < 0 or not (0 <= m <= 2 * n):
        return
    out.append((JordanLabel(k, n, m), coeff))


def ladder_apply(op_name: str, label: JordanLabel):
    """Expansion of a ladder operator over unnormalized block members.

    Returns a list of (JordanLabel, ParamScalar); terms whose target label
    falls outside any block are exactly the ones whose stated coefficient
    vanishes, and are omitted.
    """
    k, n, m = label.k, label.n, label.m
    lam, g = LAM, G
    out = []
    if op_name == "A+":
        _emit(out, k, n + 1, m, ONE / (scalar(4 * (n + 1) * (2 * n + 1)) * g * g))
        _emit(out, k + 1, n - 1, m - 2, _ratio(n, 2 * n + 1))
    elif op_name == "B+":
        _emit(out, k, n + 1, m + 2, _ratio((m + 1) * (m + 2), 2 * (n + 1) * (2 * n + 1)))
        _emit(out, k + 1, n - 1, m,
              scalar(Fraction(2 * n * (2 * n - m - 1) * (2 * n - m), 2 * n + 1)) * g * g)
    elif op_name == "C+":
        _emit(out, k, n + 1, m + 1, -scalar(m + 1) / (scalar(2 * (n + 1) * (2 * n + 1)) * g))
        _emit(out, k + 1, n - 1, m - 1, scalar(Fraction(2 * n * (2 * n - m), 2 * n + 1)) * g)
    elif op_name == "A-":
        _emit(out, k - 1, n + 1, m, -scalar(k) * lam / (scalar((n + 1) * (2 * n + 1)) * g * g))
        _emit(out, k, n - 1, m - 2,
              -scalar(Fraction(2 * n * (2 * k + 2 * n + 1), 2 * n + 1)) * lam)
    elif op_name == "B-":
        _emit(out, k - 1, n + 1, m + 1, _ratio(2 * k * (m + 1), (n + 1) * (2 * n + 1)))
        _emit(out, k - 1, n + 1, m + 2,
              -scalar(Fraction(2 * k * (m + 1) * (m + 2), (n + 1) * (2 * n + 1))) * lam)
        _emit(out, k, n - 1, m - 1,
              -scalar(Fraction(4 * n * (2 * n - m) * (2 * k + 2 * n + 1), 2 * n + 1)) * g * g)
        _emit(out, k, n - 1, m,
              -scalar(Fraction(4 * n * (2 * n - m) * (2 * n - m - 1) * (2 * k + 2 * n + 1),
                               2 * n + 1)) * lam * g * g)
    elif op_name == "C-":
        _emit(out, k - 1, n + 1, m, scalar(k) / (scalar((n + 1) * (2 * n + 1)) * g))
        _emit(out, k - 1, n + 1, m + 1,
              -scalar(2 * k * (m + 1)) * lam / (scalar((n + 1) * (2 * n + 1)) * g))
        _emit(out, k, n - 1, m - 2,
              scalar(Fraction(2 * n * (2 * k + 2 * n + 1), 2 * n + 1)) * g)
        _emit(out, k, n - 1, m - 1,
              scalar(Fraction(4 * n * (2 * k + 2 * n + 1) * (2 * n - m), 2 * n + 1)) * lam * g)
    else:
        raise ValueError(f"unknown ladder operator {op_name!r}")
    return out


def special_operator_actions(label: JordanLabel) -> dict:
    """Expansions of H, of the two commuting quadratic integrals appearing in
    the Casimir combination, and the Casimir eigenvalue."""
    k, n, m = label.k, label.n, label.m
    lam, g = LAM, G
    h_terms = [(label, label.energy)]
    _emit(h_terms, k, n, m - 1, ONE)

    r_terms = []
    v_terms = []
    _emit(r_terms, k - 1, n + 2, m,
          -scalar(k) * lam / (scalar(4 * (n + 1) * (n + 2) * (2 * n + 1) * (2 * n + 3)) * g ** 4))
    _emit(r_terms, k, n, m - 2,
          -scalar(Fraction(4 * k + 2 * n + 3, 2 * (2 * n - 1) * (2 * n + 3))) * lam / (g * g))
    _emit(r_terms, k + 1, n - 2, m - 4,
          -scalar(Fraction(2 * n * (n - 1) * (2 * k + 2 * n + 1),
                           (2 * n - 1) * (2 * n + 1))) * lam)

    _emit(v_terms, k - 1, n + 2, m,
          scalar(k) / (scalar(4 * (n + 1) * (n + 2) * (2 * n + 1) * (2 * n + 3)) * g ** 3))
    _emit(v_terms, k, n, m - 2,
          scalar(Fraction(4 * k + 2 * n + 3, 2 * (2 * n - 1) * (2 * n + 3))) / g)
    _emit(v_terms, k, n, m - 1, lam / g)
    _emit(v_terms, k + 1, n - 2, m - 4,
          scalar(Fraction(2 * n * (n - 1) * (2 * k + 2 * n + 1),
                          (2 * n - 1) * (2 * n + 1))) * g)

    return {
        "H": h_terms,
        "R": r_terms,
        "V": v_terms,
        "casimir_eigenvalue": casimir_eigenvalue(label),
    }


def casimir_eigenvalue(label: JordanLabel) -> ParamScalar:
    return scalar(Fraction(4 * label.k + 2 * label.n + 3, 2))


# ---------------------------------------------------------------------------
# The transformed-variable layer
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def d_p(p: int) -> WeylOperator:
    """The weight-stripped energy-shift operator in the (u, v, w) variables."""
    u, v, w = (variable(i, SPACE_UVW) for i in range(3))
    du, dv, dw = (derivative(i, SPACE_UVW) for i in range(3))
    lam, g = LAM, G
    return (
        (du * dv).scale(scalar(4) * lam)
        + (dv * dv).scale(scalar(-4) * g * g)
        + (dv * dw).scale(scalar(8) * lam * g)
        + (dw * dw).scale(-lam * lam)
        + (u * du + v * dv + w * dw).scale(scalar(2) * lam)
        - identity_op(SPACE_UVW).scale(scalar(2 * p) * lam)
        + (w * dv).scale(scalar(-4) * g)
        + (u * dw).scale(scalar(2) * lam * g)
    )


def conjugated_shift_in_uvw(p: int) -> WeylOperator:
    """The operator (H - 2*lam*p) conjugated by the ground state and written
    in the (u, v, w) variables, where the constant shift stays as it is; the
    independent route to d_p."""
    shift = identity_op(SPACE_UVW).scale(scalar(2 * p) * LAM)
    return _fock.uvw_picture(_ops.catalogue()["H"]) - shift


def v_falling(n: int, i: int) -> Poly3:
    """v_i = n(n-1)...(n-i+1) * v^(n-i); zero when i exceeds n."""
    if i > n:
        return Poly3({}, SPACE_UVW)
    c = Fraction(math.factorial(n), math.factorial(n - i))
    return (poly_var(1, SPACE_UVW) ** (n - i)).scale(scalar(c))


@lru_cache(maxsize=None)
def f_polynomial(p: int, q: int) -> Poly3:
    """The (u, w)-polynomial multiplying the falling-factorial v power in the
    expansion of the lower-lattice block members; built from the two-index
    recursion with base 1 at p = q = 0.

    The recursion term proportional to the u*dw part of the shift operator
    carries a factor 2*lam*g*(s+1); a printed source of the relation shows a
    q in place of the g, which fails against direct expansion.
    """
    if q < 0 or q > 2 * p or p < 0:
        return Poly3({}, SPACE_UVW)
    if p == 0:
        return poly_one(SPACE_UVW) if q == 0 else Poly3({}, SPACE_UVW)
    lam, g = LAM, G
    prev_q = f_polynomial(p - 1, q)
    prev_q1 = f_polynomial(p - 1, q - 1)
    prev_q2 = f_polynomial(p - 1, q - 2)
    terms = {}

    def add(r, s, c):
        if c.is_zero() or r < 0 or s < 0:
            return
        key = (r, 0, s)
        cur = terms.get(key)
        terms[key] = c if cur is None else cur + c

    for (r, _, s), c in prev_q.terms.items():
        add(r, s, lam * scalar(2 * (r + s - q)) * c)
        add(r + 1, s - 1, lam * scalar(2) * g * scalar(s) * c)
        add(r, s - 2, -lam * lam * scalar((s - 1) * s) * c)
    for (r, _, s), c in prev_q1.terms.items():
        add(r, s + 1, scalar(-4) * g * c)
        add(r, s - 1, scalar(8) * lam * g * scalar(s) * c)
        add(r - 1, s, scalar(4) * lam * scalar(r) * c)
    for (r, _, s), c in prev_q2.terms.items():
        add(r, s, scalar(-4) * g * g * c)
    return Poly3(terms, SPACE_UVW)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _blocks(max_k: int, max_n: int):
    """Block indices (k, n) with k <= max_k, n <= max_n and
    k + n <= max(max_k, max_n), k-major."""
    cap = max(max_k, max_n)
    for k in range(max_k + 1):
        for n in range(max_n + 1):
            if k + n <= cap:
                yield k, n


def _labels(max_k: int, max_n: int):
    for k, n in _blocks(max_k, max_n):
        for m in range(2 * n + 1):
            yield JordanLabel(k, n, m)


def verify_jordan_layer(max_k: int, max_n: int) -> list:
    """Chain relation, closed-form/direct equality, block dimension, and the
    Casimir eigenvalue on every member within the index caps."""
    out = []
    cat = _ops.catalogue()
    casimir = _ops.casimir_operator()
    for k, n in _blocks(max_k, max_n):
        label_top = JordanLabel(k, n, 2 * n)
        E = label_top.energy
        h_shift = cat["H"] - identity_op().scale(E)
        states = {m: build_state(JordanLabel(k, n, m)) for m in range(2 * n + 1)}
        # all 2n+1 members nonzero; with the chain relation below this
        # forces linear independence, hence the block dimension
        nonzero = all(not s.creation.is_zero() for s in states.values())
        out.append(check(f"jordan/dim-{k}-{n}", "block dimension", nonzero, "vanishing member"))
        for m in range(2 * n + 1):
            st = states[m]
            direct = build_state_direct(st.label)
            out.append(record(
                f"jordan/closed-direct-{k}-{n}-{m}",
                "closed-form expansion equals repeated application",
                st.creation, direct.creation))
            shifted = h_shift.apply(st.gaussian())
            target = (states[m - 1].gaussian() if m >= 1
                      else GaussianState(Poly3({}, SPACE_ZZB)))
            out.append(record(
                f"jordan/chain-{k}-{n}-{m}",
                "chain relation under the shifted Hamiltonian",
                shifted, target))
            out.append(record(
                f"jordan/casimir-{k}-{n}-{m}",
                "Casimir eigenvalue on block members",
                casimir.apply(st.gaussian()),
                st.gaussian().scale(casimir_eigenvalue(st.label))))
    return out


def verify_coefficient_recursions(n_max: int) -> list:
    """The closed forms satisfy all four recursion families exactly."""
    out = []
    for n in range(1, n_max + 1):
        ok_ba = ok_ab = ok_aa = ok_bb = True
        for p in range(0, n):
            for q in range(0, p + 1):
                if coeff_b(n, p, q) != rec_b_from_a(n, p, q):
                    ok_ba = False
        for p1 in range(1, n + 1):
            for q in range(0, p1 + 1):
                if coeff_a(n, p1, q) != rec_a_from_b(n, p1, q):
                    ok_ab = False
                if coeff_a(n, p1, q) != rec_a_step(n, p1, q):
                    ok_aa = False
        for p1 in range(1, n):
            for q in range(0, p1 + 1):
                if coeff_b(n, p1, q) != rec_b_step(n, p1, q):
                    ok_bb = False
        for tag, ok in (("odd-from-even", ok_ba), ("even-from-odd", ok_ab),
                        ("even-step", ok_aa), ("odd-step", ok_bb)):
            out.append(check(f"jordan/recursion-{tag}-n{n}", "coefficient recursion family",
                             ok, "mismatch"))
    out.append(record("jordan/a-top", "top even coefficient in closed form",
                      coeff_a(4, 4, 4),
                      scalar(Fraction(2) ** 8 * math.factorial(4) * _dfact(7)) * G ** 8))
    return out


def verify_auxiliary_relations(n_max: int, p_max: int) -> list:
    """Shift relations for powers of the three raising letters.

    The correction term for the second letter is -2*p*g*(B+)^(p-1)*C+;
    a printed source shows a q in place of that g, which fails symbolically.
    Every product is taken once, before the loop over n: by bilinearity
    (H - 2*n*lam) X^p = H X^p - 2*n*lam X^p, so H X^p and X^p H serve all n.
    """
    cat = _ops.catalogue()
    H = cat["H"]
    powers = {}
    for x in "ABC":
        row = [identity_op(), cat[f"{x}+"]]
        while len(row) <= p_max:
            row.append(row[-1] * row[1])
        powers[x] = row
    A, B, C = powers["A"], powers["B"], powers["C"]
    sides = {}
    for p in range(1, p_max + 1):
        corrections = {"B": B[p - 1] * C[1], "C": A[1] * C[p - 1]}
        for x in "ABC":
            xp = powers[x][p]
            right = xp * H
            if x in corrections:
                right = right - corrections[x].scale(scalar(2 * p) * G)
            sides[(x, p)] = (xp, H * xp, right)
    out = []
    for n in range(0, n_max + 1):
        for p in range(1, p_max + 1):
            for x in "ABC":
                xp, left, right = sides[(x, p)]
                out.append(record(
                    f"jordan/aux-{x}-n{n}-p{p}", f"shift relation for powers of {x}+",
                    left - xp.scale(scalar(2 * n) * LAM),
                    right - xp.scale(scalar(2 * (n - p)) * LAM)))
    return out


def _expansion_state(terms) -> GaussianState:
    acc = GaussianState(Poly3({}, SPACE_ZZB))
    for lbl, coeff in terms:
        acc = acc + build_state(lbl).gaussian().scale(coeff)
    return acc


def _action_records(max_k: int, max_n: int, kind: str, anchor: str, op_names,
                    expansions) -> list:
    """Each catalogue operator of ``op_names`` applied to every member with
    label in ``_labels(max_k, max_n)``, against the claimed expansion
    ``expansions(label)[op_name]``, taken once per label."""
    cat = _ops.catalogue()
    out = []
    for label in _labels(max_k, max_n):
        st_gauss = build_state(label).gaussian()
        claimed = expansions(label)
        for op_name in op_names:
            out.append(record(
                f"jordan/{kind}-{op_name}-{label.k}-{label.n}-{label.m}", anchor,
                cat[op_name].apply(st_gauss), _expansion_state(claimed[op_name])))
    return out


def verify_ladder_actions(max_k: int, max_n: int) -> list:
    """Claimed expansions of the six letters equal direct application on
    every member of the blocks within the bounds."""
    letters = ("A+", "B+", "C+", "A-", "B-", "C-")
    return _action_records(
        max_k, max_n, "ladder", "ladder action on block members", letters,
        lambda label: {op_name: ladder_apply(op_name, label) for op_name in letters})


def verify_special_actions(max_k: int, max_n: int) -> list:
    """H, the two commuting integrals in the Casimir combination, and the
    Casimir eigenvalue, against direct application."""
    return _action_records(
        max_k, max_n, "special", "distinguished operator action on block members",
        ("H", "R", "V"), special_operator_actions)


def verify_uvw_layer(n_max: int) -> list:
    """The transformed-variable layer: the shift-operator realization, its
    monomial actions, the falling-factorial recursion, the polynomial tables,
    and the expansion of the lower-lattice block members."""
    out = []
    lam, g = LAM, G
    u, v, w = (variable(i, SPACE_UVW) for i in range(3))
    du, dv, dw = (derivative(i, SPACE_UVW) for i in range(3))
    ident = identity_op(SPACE_UVW)

    for p in range(0, 2 * n_max + 1):
        out.append(record(
            f"uvw/dp-realization-p{p}",
            "weight-stripped shift operator matches the conjugated Hamiltonian",
            d_p(p), conjugated_shift_in_uvw(p)))

    dp0 = d_p(0)
    for i in range(1, 5):
        ui, vi, wi = u ** i, v ** i, w ** i
        out.append(record(
            f"uvw/action-u{i}", "monomial action of the shift operator",
            dp0.commutator(ui),
            ((u ** (i - 1)) * (dv.scale(2) + u)).scale(scalar(2 * i) * lam)))
        out.append(record(
            f"uvw/action-v{i}", "monomial action of the shift operator",
            dp0.commutator(vi),
            ((v ** (i - 1)) * (du.scale(scalar(4) * lam) + dv.scale(scalar(-8) * g * g)
                               + dw.scale(scalar(8) * lam * g) + v.scale(scalar(2) * lam)
                               + w.scale(scalar(-4) * g))).scale(i)
            - (v ** (i - 2) if i >= 2 else ident.scale(ZERO)).scale(
                scalar(4 * i * (i - 1)) * g * g)))
        out.append(record(
            f"uvw/action-w{i}", "monomial action of the shift operator",
            dp0.commutator(wi),
            ((w ** (i - 1)) * (dv.scale(scalar(4) * g) + dw.scale(-lam)
                               + u.scale(g) + w)).scale(scalar(2 * i) * lam)
            - (w ** (i - 2) if i >= 2 else ident.scale(ZERO)).scale(
                scalar(i * (i - 1)) * lam * lam)))

    for n in range(1, n_max + 1):
        dn = d_p(n)
        ok = True
        for i in range(0, n + 1):
            lhs = dn.apply_poly(v_falling(n, i))
            rhs = (v_falling(n, i).scale(scalar(-2 * i) * lam)
                   + (v_falling(n, i + 1) * poly_var(2, SPACE_UVW)).scale(scalar(-4) * g)
                   + v_falling(n, i + 2).scale(scalar(-4) * g * g))
            if lhs != rhs:
                ok = False
        out.append(check(f"uvw/v-falling-n{n}", "falling-factorial action of the shift operator",
                         ok, "mismatch"))

    appendix = {
        (1, 1): poly_var(2, SPACE_UVW).scale(scalar(-4) * g),
        (1, 2): poly_one(SPACE_UVW).scale(scalar(-4) * g * g),
        (2, 1): poly_var(0, SPACE_UVW).scale(scalar(-8) * g * g * lam),
        (2, 2): (poly_var(2, SPACE_UVW) ** 2 - poly_one(SPACE_UVW).scale(lam)).scale(
            scalar(16) * g * g),
        (2, 3): poly_var(2, SPACE_UVW).scale(scalar(32) * g ** 3),
        (2, 4): poly_one(SPACE_UVW).scale(scalar(16) * g ** 4),
        (3, 2): (poly_var(0, SPACE_UVW) * poly_var(2, SPACE_UVW)).scale(
            scalar(96) * g ** 3 * lam),
        (3, 3): (poly_var(0, SPACE_UVW).scale(scalar(-3) * lam * g)
                 + (poly_var(2, SPACE_UVW) ** 3).scale(scalar(2))
                 + poly_var(2, SPACE_UVW).scale(scalar(-6) * lam)).scale(
            scalar(-32) * g ** 3),
        (3, 4): (poly_var(2, SPACE_UVW) ** 2 - poly_one(SPACE_UVW).scale(lam)).scale(
            scalar(-192) * g ** 4),
        (3, 5): poly_var(2, SPACE_UVW).scale(scalar(-192) * g ** 5),
        (3, 6): poly_one(SPACE_UVW).scale(scalar(-64) * g ** 6),
    }
    for (p, q), expected in appendix.items():
        out.append(record(
            f"uvw/f-table-p{p}-q{q}", "tabulated expansion polynomial",
            f_polynomial(p, q), expected))

    for p in range(0, 2 * n_max + 1):
        lo = (p + 1) // 2
        for q in range(0, 2 * p + 1):
            f = f_polynomial(p, q)
            if q < lo and not f.is_zero():
                out.append(check(f"uvw/f-range-p{p}-q{q}", "expansion polynomial index range",
                                 False, f))
                continue
            ok = True
            for (r, _, s) in f.terms:
                if 3 * r + s > 2 * p - q or (3 * r + s - q) % 2 != 0:
                    ok = False
            out.append(check(f"uvw/f-shape-p{p}-q{q}",
                             "degree and parity of expansion polynomials", ok, f))

    for n in range(1, n_max + 1):
        dn = d_p(n)
        power = poly_var(1, SPACE_UVW) ** n
        for p in range(0, 2 * n + 1):
            rhs = Poly3({}, SPACE_UVW)
            for q in range(0, 2 * p + 1):
                rhs = rhs + v_falling(n, q) * f_polynomial(p, q)
            out.append(record(
                f"uvw/expansion-n{n}-p{p}",
                "lower-lattice member expands over falling powers",
                power, rhs))
            # also the state itself: matches the direct chain member
            st = build_state(JordanLabel(0, n, 2 * n - p))
            out.append(record(
                f"uvw/state-n{n}-p{p}",
                "lower-lattice member equals its creation-letter form",
                st.uvw_poly(), power))
            power = dn.apply_poly(power)
    return out
