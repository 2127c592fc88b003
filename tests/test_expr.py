"""Expression language: parsing, rendering, evaluation, round trips."""

import random
from fractions import Fraction

import pytest

from quadosc.coeff import LAM, G, I, ONE, scalar
from quadosc.weyl import identity_op
from quadosc import expr as E
from quadosc import operators as ops


def test_bracket_ast():
    node = E.parse("[Q-,Q+]")
    assert node.kind == "bracket"
    assert node.children[0].name == "Q-"
    assert node.children[1].name == "Q+"


def test_factorization_expression():
    assert (E.evaluate("2*A+*B+ - C+^2") - ops.op("Q+")).is_zero()


def test_nested_brackets():
    node = E.parse("[H,[H,Y]]")
    assert node.kind == "bracket"
    assert node.children[1].kind == "bracket"
    got = E.evaluate(node)
    want = ops.op("H").commutator(ops.op("H").commutator(ops.op("Y")))
    assert got == want


def test_anticommutator_and_parens():
    got = E.evaluate("{V,Y} - (V*Y + Y*V)")
    assert got.is_zero()


def test_scalar_arithmetic():
    assert E.evaluate("(3/2)*lam^2*g - I*g^3") == \
        identity_op().scale(scalar(Fraction(3, 2)) * LAM ** 2 * G - I * G ** 3)
    assert E.evaluate("1/(2*lam)") == identity_op().scale(ONE / (2 * LAM))


def test_catalogue_names_round_trip():
    for name in ops.catalogue():
        node = E.parse(name)
        assert E.render(node) == name
        assert E.evaluate(node) == ops.op(name)


def test_generator_names():
    from quadosc.weyl import variable, derivative, SPACE_ZZB, SPACE_UVW
    assert E.evaluate("zb") == variable(1, SPACE_ZZB)
    assert E.evaluate("dzb") == derivative(1, SPACE_ZZB)
    assert E.evaluate("du") == derivative(0, SPACE_UVW)


def test_dp_round_trip():
    from quadosc.jordan import d_p
    assert E.evaluate("Dp(2)") == d_p(2)
    assert E.render(E.parse("Dp(2)")) == "Dp(2)"


def test_space_mixing_rejected():
    with pytest.raises(E.ExprError):
        E.evaluate("H + Dp(1)")


def test_scalars_are_promoted_into_the_operator_space():
    from quadosc.weyl import SPACE_UVW, SPACE_ZZB, identity_op, variable
    assert E.evaluate("2 + u") == identity_op(SPACE_UVW).scale(2) + variable(0, SPACE_UVW)
    bracket = E.evaluate("[lam,u]")
    assert bracket.is_zero() and bracket.space == SPACE_UVW
    assert E.evaluate("{2,H}") == ops.op("H").scale(4)
    assert E.evaluate("lam").space == SPACE_ZZB


def test_product_across_spaces_raises_the_algebra_error():
    with pytest.raises(ValueError, match="^spaces differ: uvw vs zzb$"):
        E.evaluate("u*H")


def test_errors_carry_position():
    with pytest.raises(E.ExprError) as err:
        E.parse("H + + A+")
    assert "position" in str(err.value)
    with pytest.raises(E.ExprError):
        E.parse("Foo + H")
    with pytest.raises(E.ExprError):
        E.parse("A * 2")           # bare letter requires a sign
    with pytest.raises(E.ExprError):
        E.evaluate("H / A+")       # operator divisor
    with pytest.raises(E.ExprError):
        E.evaluate("H / 0")


@pytest.mark.parametrize("text, message, pos", [
    ("1/0", "division by zero", 2),
    ("H/z", "division requires a scalar divisor", 2),
    ("[H,u]", "operator spaces differ in one expression", 3),
    ("z + u", "operator spaces differ in one expression", 4),
    ("z - 2*u", "operator spaces differ in one expression", 4),
    ("R4", "unknown name 'R4'", 0),
    ("H + E14", "unknown name 'E14'", 4),
    ("[Rt2,H]", "unknown name 'Rt2'", 1),
    ("2*S1", "unknown name 'S1'", 2),
    ("E10^2", "unknown name 'E10'", 0),
    ("x4 + z", "unknown name 'x4'", 0),
    ("i*H", "unknown name 'i'", 0),
], ids=[   # fixed: mending a message keeps the names the cases were collected under
    "1/0-division by zero-2",
    "H/z-division requires a scalar divisor-2",
    "[H,u]-operator spaces differ in one expression-3",
    "z + u-operator spaces differ in one expression-4",
    "z - 2*u-operator spaces differ in one expression-4",
    "R4-unknown name-0",
    "H + E14-unknown name-4",
    "[Rt2,H]-unknown name-1",
    "2*S1-unknown name-2",
    "E10^2-unknown name-0",
    "x4 + z-unknown name-0",
    "i*H-unknown name-0",
])
def test_evaluation_errors_point_at_the_offending_token(text, message, pos):
    # the divisor, the second bracket operand, the sum term that does not fit,
    # a word next to a known name that is none: the parser's names are exactly
    # the catalogue's keys, the generators and the scalars
    with pytest.raises(E.ExprError) as err:
        E.evaluate(text)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


@pytest.mark.parametrize("text, message", [
    ("A+ +", "unexpected end of input (at position 4)"),
    ("(H", "expected ')', found end of input (at position 2)"),
    ("[H,A+", "expected ']', found end of input (at position 5)"),
    ("(H,A+)", "expected ')', found token ',' (at position 2)"),
    ("lam^-2", "expected a non-negative integer, found token '-' (at position 4)"),
    ("2^x", "expected a non-negative integer, found token 'x' (at position 2)"),
    ("Dp(x)", "expected a non-negative integer, found token 'x' (at position 3)"),
    ("A+^(2)", "expected a non-negative integer, found token '(' (at position 3)"),
    ("Dp(", "expected a non-negative integer, found end of input (at position 3)"),
], ids=[   # fixed: mending a message keeps the names the cases were collected under
    "A+ +-unexpected end of input (at position 4)",
    "(H-expected ')', found end of input (at position 2)",
    "[H,A+-expected ']', found end of input (at position 5)",
    "(H,A+)-expected ')', found token ',' (at position 2)",
    "lam^-2-expected a non-negative integer, found token '-' (at position 4)",
    "2^x-expected a non-negative integer, found token 'x' (at position 2)",
    "Dp(x)-expected a non-negative integer, found token 'x' (at position 3)",
    "A+^(2)-expected a non-negative integer, found token '(' (at position 3)",
    "Dp(-expected a non-negative integer, found end of input (at position 3)",
])
def test_parser_errors_name_the_end_of_input(text, message):
    with pytest.raises(E.ExprError) as err:
        E.parse(text)
    assert str(err.value) == message


def random_ast(rng, depth):
    """Random well-formed expression tree over a small name pool."""
    names = ["H", "A+", "B-", "Q+", "R", "V", "E12", "R2", "Rt1", "z", "dzb"]
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.4:
            return E.Node("name", name=rng.choice(names))
        if roll < 0.6:
            return E.Node("name", name=rng.choice(["lam", "g", "I"]))
        return E.Node("scalar", value=Fraction(rng.randint(0, 9)))
    kind = rng.choice(["sum", "product", "power", "bracket", "antibracket", "neg"])
    if kind == "sum":
        return E.Node("sum", tuple(random_ast(rng, depth - 1) for _ in range(2)))
    if kind == "product":
        lhs = random_ast(rng, depth - 1)
        rhs = random_ast(rng, depth - 1)
        # the parser keeps products left-flattened
        if lhs.kind == "product":
            return E.Node("product", lhs.children + (rhs,))
        return E.Node("product", (lhs, rhs))
    if kind == "power":
        return E.Node("power", (random_ast(rng, depth - 1),),
                      value=Fraction(rng.randint(0, 3)))
    if kind == "neg":
        return E.Node("neg", (random_ast(rng, depth - 1),))
    return E.Node(kind, (random_ast(rng, depth - 1), random_ast(rng, depth - 1)))


def test_parse_render_identity_on_random_asts():
    rng = random.Random(20240817)
    for _ in range(100):
        ast = random_ast(rng, rng.randint(1, 5))
        text = E.render(ast)
        again = E.parse(text)
        # rendering is canonical: a second round trip is exact
        assert E.render(again) == text
        assert again == ast
        # and evaluation agrees wherever the original evaluates
        try:
            want = E.evaluate(ast)
        except (E.ExprError, ZeroDivisionError):
            continue
        assert E.evaluate(again) == want


def test_equal_trees_at_different_positions_are_equal():
    # a node's position serves error messages only
    a, b = E.parse("[A+,B-]"), E.parse("  [ A+ , B- ]")
    assert (a.pos, a.children[0].pos) != (b.pos, b.children[0].pos)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != E.parse("[B-,A+]")
    assert E.Node("name", name="H", pos=3) == E.Node("name", name="H")
    assert E.Node("scalar", value=Fraction(2)) != E.Node("scalar", value=Fraction(3))
    assert E.Node("name", name="Dp", arg=1) != E.Node("name", name="Dp", arg=2)


def test_scalar_render_round_trip():
    values = [
        ONE / (2 * LAM),
        scalar(Fraction(3, 2)) * LAM ** 2 * G - I * G ** 3,
        I / (2 * LAM) + G,
        (LAM ** 2 - G ** 2) / (LAM * G ** 3),
        (ONE + I) / (LAM * G ** 2),
        -LAM ** 3 / (scalar(48)),
    ]
    for v in values:
        assert E.evaluate(v.render()) == identity_op().scale(v)
