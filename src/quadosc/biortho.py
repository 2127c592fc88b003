"""Normalization constants, Gram matrices of Jordan blocks, and construction
of the orthogonalized dual basis.

Everything is expressed for the unnormalized block members; the block
normalization constant N(k, n) is then the pairing of any member with its
mirror partner, independent of the member, and the Gram matrix of a block is
Hankel with zeros above the anti-diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coeff import ParamScalar, LAM, G, ONE, ZERO, scalar
from . import operators as _ops
from .operators import check, record
from . import fock as _fock
from .fock import CreationPolynomial, wick_inner
from .jordan import JordanLabel, build_state, _blocks, _dfact

__all__ = [
    "normalization", "creation_over_normalized_ratio", "norm_pairing",
    "GramBlock", "gram", "PhiTransform", "orthogonalize",
    "verify_normalization", "verify_T_vanishing", "verify_q_identities",
    "verify_gram_blocks", "verify_orthogonalization", "verify_reference_phi_blocks",
    "verify_adjoint_rules", "verify_cross_block_orthogonality",
    "verify_oracle_agreement",
]


def normalization(k: int, n: int) -> ParamScalar:
    """Block constant N(k, n): the mirror pairing of any member of the block,
    in units of the squared ground-state integral."""
    val = Fraction(8 ** (k + n) * math.factorial(k) * math.factorial(n) ** 2
                   * _dfact(2 * n + 2 * k + 1), 2 * n + 1)
    return scalar(val) * G ** (2 * n) * LAM ** (2 * k + n)


def creation_over_normalized_ratio(n: int) -> ParamScalar:
    """Ratio between the two historical normalization conventions for the
    chain top: (2g)^(2n) n! (2n-1)!!."""
    return scalar(Fraction(2 ** (2 * n) * math.factorial(n) * _dfact(2 * n - 1))) * G ** (2 * n)


def norm_pairing(k: int, n: int, m: int) -> ParamScalar:
    """Pairing of the m-th member with its mirror member 2n - m."""
    bra = build_state(JordanLabel(k, n, m)).creation
    ket = build_state(JordanLabel(k, n, 2 * n - m)).creation
    return wick_inner(bra, ket)


@dataclass(frozen=True)
class GramBlock:
    """Exact Gram matrix of one Jordan block under the bilinear pairing."""

    k: int
    n: int
    matrix: tuple          # (2n+1) x (2n+1) tuple of tuples of ParamScalar
    hankel: tuple          # h_j for j = 0 .. 4n, with matrix[m][m'] = h_{m+m'}

    @property
    def dimension(self) -> int:
        return 2 * self.n + 1

    def to_json(self):
        return {
            "k": self.k, "n": self.n,
            "matrix": [[c.render() for c in row] for row in self.matrix],
            "hankel": [c.render() for c in self.hankel],
            "normalization": normalization(self.k, self.n).render(),
        }


def gram(k: int, n: int) -> GramBlock:
    """Full exact Gram of the block (k, n); raises if the Hankel structure or
    the zero pattern fails (they never do while the algebra holds)."""
    dim = 2 * n + 1
    states = [build_state(JordanLabel(k, n, m)).creation for m in range(dim)]
    mat = [[None] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            val = wick_inner(states[a], states[b])
            mat[a][b] = mat[b][a] = val
    hankel = []
    for j in range(4 * n + 1):
        a = min(j, dim - 1)
        b = j - a
        hankel.append(mat[a][b])
    for a in range(dim):
        for b in range(dim):
            if mat[a][b] != hankel[a + b]:
                raise AssertionError(f"Gram of block ({k},{n}) is not Hankel")
    for j in range(2 * n):
        if not hankel[j].is_zero():
            raise AssertionError(f"Gram of block ({k},{n}) violates the zero pattern")
    return GramBlock(k, n, tuple(tuple(row) for row in mat), tuple(hankel))


@dataclass(frozen=True)
class PhiTransform:
    """Unit lower-triangular Toeplitz change of basis producing the
    anti-diagonal Kronecker pairing pattern inside one block: the m-th new
    member is t(H - E) applied to the m-th member."""

    k: int
    n: int
    rows: tuple            # rows[m] = (t_m, ..., t_1), the coefficients on members 0..m-1

    def apply_rows(self):
        """Full coefficient rows including the unit diagonal."""
        return [tuple(row) + (ONE,) for row in self.rows]


def _phi_gram_is_antidiagonal(block: GramBlock, rows) -> bool:
    """rows[m] = coefficients of the m-th new member on members 0..m (unit
    diagonal included); checks the pairing pattern exactly."""
    n = block.n
    h = block.hankel
    norm = normalization(block.k, block.n)
    dim = block.dimension
    for a in range(dim):
        for b in range(a, dim):
            acc = ZERO
            for i, ca in enumerate(rows[a]):
                if ca.is_zero():
                    continue
                for j, cb in enumerate(rows[b]):
                    if cb.is_zero():
                        continue
                    acc = acc + ca * cb * h[i + j]
            target = norm if a + b == 2 * n else ZERO
            if acc != target:
                return False
    return True


def orthogonalize(k: int, n: int) -> PhiTransform:
    """Orthogonalization of the block (k, n) by a polynomial in H - E.

    The Gram is Hankel with h_(2n+j) = N(k, n) u_j, u_0 = 1, and zeros below.
    Replacing every member by t(H - E) applied to it multiplies the pairing's
    generating series by t^2, so the anti-diagonal pattern holds exactly when
    t^2 u = 1 mod x^(2n+1), that is t = u^(-1/2).  Its coefficients come from
    J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7).  t(H - E)
    commutes with H, so the new members are again a Jordan chain.
    """
    block = gram(k, n)
    norm = normalization(k, n)
    u = [c / norm for c in block.hankel[2 * n:]]
    t = [ONE]
    for j in range(1, 2 * n + 1):
        acc = ZERO
        for i in range(1, j + 1):
            acc = acc + scalar(Fraction(i - 2 * j, 2 * j)) * u[i] * t[j - i]
        t.append(acc)
    phi = PhiTransform(k, n, tuple(tuple(t[m:0:-1]) for m in range(2 * n + 1)))
    if not _phi_gram_is_antidiagonal(block, phi.apply_rows()):
        raise ArithmeticError(f"orthogonalization failed for block ({k},{n})")
    return phi


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def verify_normalization(max_k: int, max_n: int) -> list:
    """Mirror pairings equal N(k, n) for every member; the closed form
    reduces correctly on the two boundary families."""
    out = []
    for k, n in _blocks(max_k, max_n):
        want = normalization(k, n)
        for m in range(2 * n + 1):
            out.append(record(
                f"biortho/norm-{k}-{n}-{m}",
                "mirror pairing is member-independent",
                norm_pairing(k, n, m), want))
    for n in range(max_n + 1):
        reduced = scalar(Fraction(8 ** n * math.factorial(n) ** 2 * _dfact(2 * n - 1))) \
            * LAM ** n * G ** (2 * n)
        out.append(record(f"biortho/norm-reduce-lower-{n}",
                          "closed form at the lower lattice", normalization(0, n), reduced))
    for k in range(max_k + 1):
        reduced = scalar(Fraction(8 ** k * math.factorial(k) * _dfact(2 * k + 1))) \
            * LAM ** (2 * k)
        out.append(record(f"biortho/norm-reduce-tower-{k}",
                          "closed form on the single-member blocks", normalization(k, 0), reduced))
    return out


def t_vanishing_value(which: int, k: int, n: int) -> ParamScalar:
    """The three vacuum pairings whose vanishing drives the normalization
    induction; evaluated by contraction permanents."""
    qk1 = _fock.expand_q_power(k - 1)
    bra = CreationPolynomial.word(n, 0, 0) * qk1
    if which == 1:
        if k < 2:
            raise ValueError("first pairing needs k >= 2")
        ket = CreationPolynomial.word(2, n, 0) * _fock.expand_q_power(k - 2)
    elif which == 2:
        if k < 1 or n < 1:
            raise ValueError("second pairing needs k >= 1, n >= 1")
        ket = CreationPolynomial.word(1, n - 1, 0) * _fock.expand_q_power(k - 1)
    elif which == 3:
        if k < 1 or n < 2:
            raise ValueError("third pairing needs k >= 1, n >= 2")
        ket = CreationPolynomial.word(0, n - 2, 0) * _fock.expand_q_power(k)
    else:
        raise ValueError("which must be 1, 2, or 3")
    sign = -ONE if n % 2 else ONE
    return sign * wick_inner(bra, ket)


def verify_T_vanishing(max_k: int, max_n: int) -> list:
    out = []
    for k, n in _blocks(max_k, max_n):
        if k >= 2:
            out.append(record(f"biortho/T1-{k}-{n}", "vanishing pairing (first kind)",
                              t_vanishing_value(1, k, n), ZERO))
        if k >= 1 and n >= 1:
            out.append(record(f"biortho/T2-{k}-{n}", "vanishing pairing (second kind)",
                              t_vanishing_value(2, k, n), ZERO))
        if k >= 1 and n >= 2:
            out.append(record(f"biortho/T3-{k}-{n}", "vanishing pairing (third kind)",
                              t_vanishing_value(3, k, n), ZERO))
    return out


def verify_q_identities(k_max: int, n_max: int) -> list:
    """Bracket identities for powers of the double-step operator and the
    letter actions on its powers applied to the ground state."""
    cat = _ops.catalogue()
    out = []
    Qp, Qm = cat["Q+"], cat["Q-"]
    lam, g = LAM, G
    from .weyl import identity_op
    one = identity_op()
    for k in range(1, k_max + 1):
        rhs = (Qp ** (k - 1) * (cat["H"].scale(lam) - cat["V"].scale(g)
                                + one.scale(scalar(2 * k + 1) * lam * lam))).scale(scalar(8 * k))
        if k >= 2:
            rhs = rhs - (Qp ** (k - 2) * cat["A+"] * cat["A+"]).scale(
                scalar(16 * k * (k - 1)) * g * g)
        out.append(record(f"biortho/q-bracket-k{k}",
                          "bracket of the lowering double-step with a power of the raising one",
                          Qm.commutator(Qp ** k), rhs))
    for n in range(1, n_max + 1):
        Bp = cat["B+"]
        rhs = ((Bp ** (n - 1) * cat["B-"]).scale(scalar(-4 * n) * lam)
               + (Bp ** (n - 1) * cat["C-"]).scale(scalar(-4 * n) * g))
        if n >= 2:
            rhs = rhs - (Bp ** (n - 2)).scale(scalar(4 * n * (n - 1)) * g * g)
        out.append(record(f"biortho/qb-bracket-n{n}",
                          "bracket with a power of the second raising letter",
                          Qm.commutator(Bp ** n), rhs))
    for k in range(1, k_max + 1):
        qk = _fock.to_gaussian_state(_fock.expand_q_power(k))
        qk1 = _fock.expand_q_power(k - 1)
        out.append(record(
            f"biortho/q-lower-k{k}", "lowering the double-step power on the ground state",
            Qm.apply(qk),
            _fock.to_gaussian_state(qk1).scale(scalar(8 * k * (2 * k + 1)) * lam * lam)
            + (_fock.to_gaussian_state(CreationPolynomial.word(2, 0, 0)
                                       * _fock.expand_q_power(k - 2)).scale(
                scalar(-16 * k * (k - 1)) * g * g)
               if k >= 2 else _fock.to_gaussian_state(CreationPolynomial.zero()))))
        out.append(record(
            f"biortho/b-lower-k{k}", "second letter lowering on double-step powers",
            cat["B-"].apply(qk),
            _fock.to_gaussian_state(
                (CreationPolynomial.word(0, 1, 0).scale(scalar(-4 * k) * lam)
                 + CreationPolynomial.word(0, 0, 1).scale(scalar(-4 * k) * g)) * qk1)))
        out.append(record(
            f"biortho/c-lower-k{k}", "third letter lowering on double-step powers",
            cat["C-"].apply(qk),
            _fock.to_gaussian_state(
                (CreationPolynomial.word(1, 0, 0).scale(scalar(4 * k) * g)
                 + CreationPolynomial.word(0, 0, 1).scale(scalar(4 * k) * lam)) * qk1)))
    return out


def verify_gram_blocks(max_k: int, max_n: int) -> list:
    """Hankel structure, zero pattern, anti-diagonal value, and the
    self-orthogonality of the chain top."""
    out = []
    for k, n in _blocks(max_k, max_n):
        try:
            block = gram(k, n)
        except AssertionError as exc:
            out.append(check(f"biortho/gram-{k}-{n}", "Gram block structure", False, str(exc)))
            continue
        ok_anti = block.hankel[2 * n] == normalization(k, n)
        ok_self = n == 0 or block.matrix[0][0].is_zero()
        out.append(check(f"biortho/gram-{k}-{n}", "Gram block structure", ok_anti and ok_self,
                         "anti-diagonal or self-pairing mismatch",
                         note="Hankel with zeros above the anti-diagonal"))
    return out


def verify_orthogonalization(max_k: int, max_n: int) -> list:
    """The transform t(H - E) yields the exact anti-diagonal pattern."""
    out = []
    for k, n in _blocks(max_k, max_n):
        try:
            orthogonalize(k, n)
        except ArithmeticError as exc:
            failure = str(exc)
        else:
            failure = None
        out.append(check(f"biortho/phi-{k}-{n}", "triangular orthogonalization",
                         failure is None, failure))
    return out


_REFERENCE_PHI = {
    (0, 1): {1: {0: lambda: -ONE / (2 * LAM)}},
    (0, 2): {
        1: {0: lambda: -ONE / (2 * LAM)},
        2: {0: lambda: ONE / (6 * LAM ** 2), 1: lambda: -ONE / (2 * LAM)},
        3: {0: lambda: ONE / (48 * LAM ** 3), 1: lambda: -ONE / (24 * LAM ** 2)},
    },
    (0, 3): {
        1: {0: lambda: -ONE / (2 * LAM)},
        2: {0: lambda: scalar(Fraction(3, 20)) / LAM ** 2, 1: lambda: -ONE / (2 * LAM)},
        3: {0: lambda: -ONE / (30 * LAM ** 3), 1: lambda: scalar(Fraction(3, 20)) / LAM ** 2,
            2: lambda: -ONE / (2 * LAM)},
        4: {0: lambda: -ONE / (300 * LAM ** 4), 1: lambda: ONE / (60 * LAM ** 3),
            2: lambda: -ONE / (20 * LAM ** 2)},
    },
}


def verify_reference_phi_blocks() -> list:
    """The published triangular coefficients for the three lower-lattice
    blocks satisfy every anti-diagonal pairing condition exactly."""
    out = []
    for (k, n), rows_spec in _REFERENCE_PHI.items():
        block = gram(k, n)
        dim = 2 * n + 1
        rows = []
        for m in range(dim):
            row = [ZERO] * (m + 1)
            row[m] = ONE
            for mp, cf in rows_spec.get(m, {}).items():
                row[mp] = cf()
            rows.append(tuple(row))
        ok = _phi_gram_is_antidiagonal(block, rows)
        out.append(check(f"biortho/phi-reference-{k}-{n}",
                         "published triangular coefficients satisfy the pairing conditions",
                         ok, "pairing condition violated"))
    return out


def verify_adjoint_rules() -> list:
    """The parity-twisted adjoint rules for the six letters, the double-step
    pair, and the Hamiltonian, as exact operator identities."""
    cat = _ops.catalogue()
    out = []
    for name in ("A", "B", "C"):
        out.append(record(
            f"biortho/adjoint-{name}", "parity-twisted adjoint of the raising letter",
            cat[f"{name}+"].formal_adjoint(), -(cat[f"{name}-"].eta_conjugate())))
    out.append(record("biortho/adjoint-Q", "parity-twisted adjoint of the double-step operator",
                      cat["Q+"].formal_adjoint(), cat["Q-"].eta_conjugate()))
    out.append(record("biortho/adjoint-H", "generalized Hermiticity of the Hamiltonian",
                      cat["H"].formal_adjoint(), cat["H"].eta_conjugate()))
    return out


def verify_cross_block_orthogonality(max_k: int, max_n: int) -> list:
    """Members of distinct blocks pair to zero, including at the degenerate
    energy where two different blocks share an eigenvalue."""
    out = []
    pairs = []
    labels = list(_blocks(max_k, max_n))
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            pairs.append((a, b))
    if ((0, 2), (1, 0)) not in pairs:
        pairs.append(((0, 2), (1, 0)))
    for (k1, n1), (k2, n2) in pairs:
        degenerate = 2 * k1 + n1 == 2 * k2 + n2
        ok = True
        witnesses = []
        for m1 in range(2 * n1 + 1):
            bra = build_state(JordanLabel(k1, n1, m1)).creation
            for m2 in range(2 * n2 + 1):
                ket = build_state(JordanLabel(k2, n2, m2)).creation
                val = wick_inner(bra, ket)
                if not val.is_zero():
                    ok = False
                    witnesses.append(f"m={m1} x m'={m2}: {val.render()}")
        note = "degenerate energy pair" if degenerate else ""
        if not ok and degenerate:
            note += ("; nonzero pairing is forced at the chain bottom, where the"
                     " symmetry argument does not reach")
        out.append(check(f"biortho/cross-{k1}-{n1}-x-{k2}-{n2}", "cross-block orthogonality",
                         ok, "; ".join(witnesses), note=note))
    return out


def verify_oracle_agreement(max_total: int) -> list:
    """The contraction-permanent engine agrees with the Gaussian-moment
    engine on every creation-word pair of combined degree <= max_total."""
    words = [(i, j, l)
             for i in range(max_total + 1)
             for j in range(max_total + 1)
             for l in range(max_total + 1)
             if i + j + l <= max_total]
    out = []
    ok = True
    witness = None
    count = 0
    for idx, w1 in enumerate(words):
        p1 = CreationPolynomial.word(*w1)
        s1 = _fock.to_gaussian_state(p1)
        for w2 in words[idx:]:
            if sum(w1) + sum(w2) > max_total:
                continue
            p2 = CreationPolynomial.word(*w2)
            a = wick_inner(p1, p2)
            b = _fock.gaussian_moment_inner(s1, _fock.to_gaussian_state(p2))
            count += 1
            if a != b:
                ok = False
                witness = f"{w1} x {w2}: {a.render()} vs {b.render()}"
    out.append(check("biortho/oracle-agreement", "contraction engine equals the moment engine",
                     ok, witness, note=f"{count} word pairs, combined degree <= {max_total}"))
    out.extend(_fock.verify_contraction_matrix())
    return out
