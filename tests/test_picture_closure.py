"""The gl(3) structure constants and the sp(6)/osp(1/6) closure are computed
in the letter picture; the zzb route, written out here, must agree with it
bracket by bracket, certificate by certificate and verdict by verdict.  The
picture's substitution sums its images as integers, against a reference that
scales and adds every image term as a scalar."""

import pytest

from quadosc import fock, weyl
from quadosc import operators as ops
from quadosc.coeff import ONE, ZERO

E_NAMES = [f"E{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
D_NAMES = [f"D{t}{i}{j}" for t in "+-" for i in (1, 2, 3) for j in range(i, 4)]
ODD = [f"a{i}{t}" for t in "+-" for i in (1, 2, 3)]
INDICES = [(i, j, k, l) for i in (1, 2, 3) for j in (1, 2, 3)
           for k in (1, 2, 3) for l in (1, 2, 3)]


def pictured(x):
    return ops.SqrtTwoLamOperator(fock.letter_picture(x.even), fock.letter_picture(x.odd))


def ccr_sides(e, i, j, k, l):
    """[E_ij, E_kl] and d_jk E_il - d_il E_kj over the generators ``e``."""
    rhs = 0
    if j == k:
        rhs = rhs + e[f"E{i}{l}"]
    if i == l:
        rhs = rhs - e[f"E{k}{j}"]
    return e[f"E{i}{j}"].commutator(e[f"E{k}{l}"]), rhs


def closure_brackets():
    """(id, zzb bracket) for the 207 sp6/osp16 records, in report order."""
    b, c = ops.boson(), ops.catalogue()
    out = [(f"sp6/[{en},{dn}]", c[en].commutator(b[dn])) for en in E_NAMES for dn in D_NAMES]
    plus, minus = D_NAMES[:6], D_NAMES[6:]
    out += [(f"sp6/[{dm},{dp}]", b[dm].commutator(b[dp])) for dm in minus for dp in plus]
    for group in (plus, minus):
        out += [(f"sp6/[{d1},{d2}]", b[d1].commutator(b[d2]))
                for idx, d1 in enumerate(group) for d2 in group[idx:]]
    out += [(f"osp16/{{{x},{y}}}", b[x].anticommutator(b[y]))
            for idx, x in enumerate(ODD) for y in ODD[idx:]]
    return out


def zzb_red_ids():
    """The red gl3/ccr and sp6/osp16 ids of the zzb route."""
    c, red = ops.catalogue(), set()
    for i, j, k, l in INDICES:
        lhs, rhs = ccr_sides(c, i, j, k, l)
        if not (lhs - rhs).is_zero():
            red.add(f"gl3/ccr-E{i}{j}-E{k}{l}")
    solver = ops.SpanSolver(ops._span_basis())
    return red | {ident for ident, target in closure_brackets() if solver.express(target) is None}


def picture_red_ids():
    records = ops.verify_gl3() + ops.verify_sp6_osp16_closure()
    return {r.id for r in records if not r.ok and not r.id.startswith(("gl3/double", "gl3/cas"))}


def clear_caches():
    for fn in (ops.catalogue, ops.boson, fock.letter_picture, fock._letter_monomial,
               fock._letter_images):
        fn.cache_clear()


@pytest.fixture
def fresh_caches():
    # request it before monkeypatch, so that it clears again after the undo
    clear_caches()
    yield
    clear_caches()


def test_the_81_structure_constants_picture_bracket_by_bracket():
    c = ops.catalogue()
    e = {n: fock.letter_picture(c[n]) for n in E_NAMES}
    for i, j, k, l in INDICES:
        zzb, _ = ccr_sides(c, i, j, k, l)
        lhs, rhs = ccr_sides(e, i, j, k, l)
        assert fock.letter_picture(zzb) == lhs, (i, j, k, l)
        assert (lhs - rhs).is_zero()


def test_the_207_closure_brackets_picture_bracket_by_bracket():
    b, c = ops.boson(), ops.catalogue()
    pb = {n: pictured(x) for n, x in b.items()}
    pe = {n: fock.letter_picture(c[n]) for n in E_NAMES}
    brackets = closure_brackets()
    assert len(brackets) == 207
    for ident, zzb in brackets:
        names = ident[ident.index("/") + 2:-1].split(",")
        x, y = (pe[n] if n in pe else pb[n] for n in names)
        picture = x.anticommutator(y) if ident.startswith("osp16") else x.commutator(y)
        assert pictured(zzb) == picture, ident


def test_closure_certificates_are_the_zzb_certificates():
    zzb_solver = ops.SpanSolver(ops._span_basis())
    picture_solver = ops.SpanSolver([(n, pictured(x)) for n, x in ops._span_basis()])
    notes = {r.id: r.note for r in ops.verify_sp6_osp16_closure()}
    for ident, target in closure_brackets():
        certificate = zzb_solver.express(target)
        assert certificate is not None and certificate == picture_solver.express(pictured(target))
        assert notes[ident] == f"= {ops._certificate(certificate)}", ident


def test_a_planted_generator_turns_the_same_records_red_on_both_routes(fresh_caches,
                                                                        monkeypatch):
    # a tripled entry of E12's table breaks twelve structure constants; the
    # span still fills, so no closure record turns red
    row = dict(ops._GL3_FROM_LADDERS["E12"])
    row["CC"] = row["CC"] * 3
    monkeypatch.setitem(ops._GL3_FROM_LADDERS, "E12", row)
    clear_caches()
    red = zzb_red_ids()
    assert len(red) == 12 and all(ident.startswith("gl3/ccr-") for ident in red)
    assert picture_red_ids() == red


def test_a_planted_boson_turns_the_same_anticommutators_red_on_both_routes(fresh_caches,
                                                                           monkeypatch):
    # an even part in a1+ gives each anticommutator with it an odd part,
    # outside the span; the D+-ij basis keeps the true bosons
    bosons = dict(ops.boson())
    bosons["a1+"] = bosons["a1+"] + ops.SqrtTwoLamOperator.of(ops.op("E11"))
    monkeypatch.setattr(ops, "boson", lambda: bosons)
    red = zzb_red_ids()
    assert red == {f"osp16/{{{x},{y}}}" for x, y in
                   [("a1+", "a1+"), ("a1+", "a2+"), ("a1+", "a3+"),
                    ("a1+", "a1-"), ("a1+", "a2-"), ("a1+", "a3-")]}
    assert picture_red_ids() == red


def test_the_untouched_catalogue_has_no_red_closure_record():
    assert zzb_red_ids() == picture_red_ids() == set()


def reference_substitute(value, images):
    """Each monomial's image as a product of its generators' images, every
    image term scaled by the monomial's coefficient and added as a scalar."""
    unit = images[0]._new({images[0]._UNIT: ONE})
    out = {}
    for mono, c in value.terms.items():
        term = unit
        for i, e in enumerate(mono):
            for _ in range(e):
                term = term * images[i]
        for m, v in term.terms.items():
            out[m] = out.get(m, ZERO) + c * v
    return unit._new(out)


@pytest.mark.parametrize("name", sorted(ops.catalogue()))
def test_integer_substitution_matches_the_scalar_reference(name):
    op = ops.op(name)
    conjugated = reference_substitute(op, weyl._psi0_images())
    assert op.substitute(weyl._psi0_images()) == conjugated
    uvw = fock._uvw_images()[0]
    assert conjugated.substitute(uvw) == reference_substitute(conjugated, uvw)
    letters = reference_substitute(op, fock._letter_images())
    assert op.substitute(fock._letter_images()) == letters
    assert fock.letter_picture(op) == letters


def test_integer_substitution_of_polynomials_and_of_zero():
    state = fock.to_gaussian_state(fock.expand_q_power(2)).poly
    images = fock._uvw_images()[1]
    assert state.substitute(images) == reference_substitute(state, images)
    zero = weyl.WeylOperator({}, weyl.SPACE_ZZB)
    assert fock.letter_picture(zero) == weyl.WeylOperator({}, weyl.SPACE_ABC)


def test_a_missing_extension_part_takes_the_given_part_space():
    picture = fock.letter_picture(ops.op("E11"))
    for ext in (ops.SqrtTwoLamOperator(picture), ops.SqrtTwoLamOperator(None, picture)):
        assert ext.even.space == ext.odd.space == weyl.SPACE_ABC
        assert (ext.commutator(ext)).is_zero()
    assert ops.SqrtTwoLamOperator().even.space == weyl.SPACE_ZZB
