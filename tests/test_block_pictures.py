"""The shift relations jordan/aux-* and the brackets biortho/q-bracket-* and
biortho/qb-bracket-* are computed in the letter picture; the zzb route,
written out here as the reference, must agree with it side by side and
verdict by verdict."""

import pytest

from quadosc import biortho, fock, jordan
from quadosc import operators as ops
from quadosc.coeff import LAM, scalar
from quadosc.weyl import identity_op

AUX = (3, 4)          # verify_auxiliary_relations(n_max, p_max)
Q = (3, 3)            # verify_q_identities(k_max, n_max)
Q_PICTURES = ("Q+", "Q-", "H", "V", "A+", "B+", "B-", "C-")


def zzb_shift_sides(p_max):
    """[H, X^p] and 2*p*lam X^p + correction in zzb, keyed (X, p); the
    correction's g is read from ``jordan`` when called."""
    cat, sides = ops.catalogue(), {}
    for x in "ABC":
        letter, prev = cat[f"{x}+"], identity_op()
        for p in range(1, p_max + 1):
            xp = letter if p == 1 else prev * letter
            target = xp.scale(scalar(2 * p) * jordan.LAM)
            if x != "A":
                correction = prev * cat["C+"] if x == "B" else cat["A+"] * prev
                target = target - correction.scale(scalar(2 * p) * jordan.G)
            sides[(x, p)] = (cat["H"].commutator(xp), target)
            prev = xp
    return sides


def zzb_bracket_sides(k_max, n_max):
    """The q- and qb-bracket records' sides in zzb, by id; g and lam are read
    from ``biortho`` when called."""
    cat, lam, g, one = ops.catalogue(), biortho.LAM, biortho.G, identity_op()
    Qp, Qm, Bp = cat["Q+"], cat["Q-"], cat["B+"]
    sides = {}
    for k in range(1, k_max + 1):
        rhs = (Qp ** (k - 1) * (cat["H"].scale(lam) - cat["V"].scale(g)
                                + one.scale(scalar(2 * k + 1) * lam * lam))).scale(scalar(8 * k))
        if k >= 2:
            rhs = rhs - (Qp ** (k - 2) * cat["A+"] * cat["A+"]).scale(
                scalar(16 * k * (k - 1)) * g * g)
        sides[f"biortho/q-bracket-k{k}"] = (Qm.commutator(Qp ** k), rhs)
    for n in range(1, n_max + 1):
        rhs = ((Bp ** (n - 1) * cat["B-"]).scale(scalar(-4 * n) * lam)
               + (Bp ** (n - 1) * cat["C-"]).scale(scalar(-4 * n) * g))
        if n >= 2:
            rhs = rhs - (Bp ** (n - 2)).scale(scalar(4 * n * (n - 1)) * g * g)
        sides[f"biortho/qb-bracket-n{n}"] = (Qm.commutator(Bp ** n), rhs)
    return sides


def zzb_sides():
    """The pictured records of both suites, by id, with their zzb sides."""
    shift = zzb_shift_sides(AUX[1])
    out = {f"jordan/aux-{x}-n{n}-p{p}": shift[(x, p)]
           for n in range(AUX[0] + 1) for p in range(1, AUX[1] + 1) for x in "ABC"}
    out.update(zzb_bracket_sides(*Q))
    return out


def pictured_sides():
    shift = jordan._shift_sides(AUX[1])
    out = {f"jordan/aux-{x}-n{n}-p{p}": shift[(x, p)]
           for n in range(AUX[0] + 1) for p in range(1, AUX[1] + 1) for x in "ABC"}
    out.update({ident: (lhs, rhs) for ident, _, lhs, rhs
                in biortho._bracket_sides(*Q, fock.pictures(Q_PICTURES))})
    return out


def suite_red_ids():
    """The red pictured records of the two suites, as they run."""
    records = jordan.verify_auxiliary_relations(*AUX) + biortho.verify_q_identities(*Q)
    pictured = zzb_sides()
    assert pictured.keys() <= {r.id for r in records}
    return {r.id for r in records if r.id in pictured and not r.ok}


def zzb_red_ids():
    return {ident for ident, (lhs, rhs) in zzb_sides().items() if lhs != rhs}


def test_each_pictured_side_is_the_picture_of_its_zzb_side():
    zzb, pictured = zzb_sides(), pictured_sides()
    assert zzb.keys() == pictured.keys() and len(zzb) == 4 * 4 * 3 + 3 + 3
    for ident, sides in zzb.items():
        for side, picture in zip(sides, pictured[ident]):
            assert picture.space == "abc"
            assert fock.letter_picture(side) == picture, ident


def test_the_pictured_records_are_green_on_both_routes():
    assert suite_red_ids() == zzb_red_ids() == set()


@pytest.mark.parametrize("module", [jordan, biortho])
def test_a_wrong_g_turns_the_same_records_red_on_both_routes(monkeypatch, module):
    # g read as lam breaks every correction of the second and third letters
    # and every bracket that carries g; the A+ relations keep no g
    monkeypatch.setattr(module, "G", LAM)
    red = zzb_red_ids()
    prefix = "jordan/aux-" if module is jordan else "biortho/q"
    assert red and all(ident.startswith(prefix) for ident in red)
    if module is jordan:
        assert not any(ident.startswith("jordan/aux-A") for ident in red)
    assert suite_red_ids() == red
