"""Text round-trips for fields, elements, and polynomials."""

import random

import pytest

from oreelim import (
    NotPrime,
    ParseError,
    field_new,
    make_rings,
    parse_bivar_poly,
    parse_element,
    parse_field_spec,
    parse_ore_poly,
)
from support import rand_bivar, rand_orepoly


def test_parse_field_specs():
    ctx = parse_field_spec("GF(2^2; modulus = 1 + t + t^2)")
    assert ctx == field_new(2, 2)
    assert parse_field_spec("GF(5)") == field_new(5, 1)
    assert parse_field_spec("GF(3^4)") == field_new(3, 4)


def test_field_spec_roundtrip():
    for ctx in (field_new(2, 2), field_new(5, 1), field_new(3, 4)):
        assert parse_field_spec(ctx.spec_string()) == ctx


def test_parse_element():
    ctx = field_new(2, 2)
    assert parse_element("t + 1", ctx).coords == (1, 1)
    assert parse_element("0", ctx) == ctx.zero
    ctx5 = field_new(5, 1)
    assert parse_element("3", ctx5).val == 3
    assert parse_element("-1", ctx5).val == 4


def test_parse_polynomials_match_construction():
    ring = make_rings(field_new(2, 2), 1, 1)
    w = ring.ctx.from_coords([0, 1])
    f = parse_bivar_poly("(x1 + t)*x2^2 + (t*x1)*x2 + 1", ring)
    expected = (
        (ring.x1() + ring.constant(w)) * ring.x2() ** 2
        + (ring.constant(w) * ring.x1()) * ring.x2()
        + ring.one()
    )
    assert f == expected


def test_parse_preserves_factor_order():
    # coefficients and indeterminates do not commute
    ring = make_rings(field_new(2, 2), 1, 1)
    assert parse_bivar_poly("x2*t", ring) != parse_bivar_poly("t*x2", ring)


def test_uni_roundtrip_random():
    ring = make_rings(field_new(3, 2), 1, 0).inner
    rng = random.Random(0)
    for _ in range(300):
        f = rand_orepoly(ring, rng, 4)
        assert parse_ore_poly(f.text(), ring) == f


def test_bivar_roundtrip_random():
    rng = random.Random(1)
    for e1, e2 in [(0, 0), (1, 0), (1, 1)]:
        ring = make_rings(field_new(3, 2), e1, e2)
        for _ in range(200):
            f = rand_bivar(ring, rng, 3, 2)
            assert parse_bivar_poly(f.text(), ring) == f


def test_eliminant_text_roundtrips():
    ring = make_rings(field_new(5, 1), 0, 0)
    from oreelim import res_x2_direct

    f = parse_bivar_poly("x2 - x1", ring)
    g = parse_bivar_poly("x2 - 2", ring)
    d = res_x2_direct(f, g)
    assert parse_ore_poly(d.rep.text("x1"), ring.inner, var="x1") == d.rep


def test_parse_errors_carry_columns():
    ring = make_rings(field_new(2, 2), 1, 1)
    with pytest.raises(ParseError) as err:
        parse_bivar_poly("x1 + $", ring)
    assert err.value.column == 6
    with pytest.raises(ParseError):
        parse_bivar_poly("x3 + 1", ring)
    with pytest.raises(ParseError):
        parse_bivar_poly("(x1", ring)
    with pytest.raises(ParseError):
        parse_bivar_poly("x1 ^ x2", ring)
    with pytest.raises(ParseError):
        parse_field_spec("GF[5]")
    with pytest.raises(NotPrime):
        parse_field_spec("GF(6)")


@pytest.mark.parametrize(
    "text, column",
    [("x2 - x1^\u00b2", 9), ("x2 - \u0663", 6), ("x2 - \u00e9", 6), ("x\u00b2", 2)],
)
def test_non_ascii_digits_and_letters_are_unexpected(text, column):
    # str.isdigit accepts the superscript two and the Arabic-Indic three
    ring = make_rings(field_new(5, 1), 0, 0)
    with pytest.raises(ParseError) as err:
        parse_bivar_poly(text, ring)
    assert str(err.value) == f"unexpected character {text[column - 1]!r} (column {column})"


@pytest.mark.parametrize(
    "text, column",
    [("x2\x1c+ 1", 3), ("x2 +\x1f1", 5), ("x2\u00a0+ 1", 3), ("x2 + \u30001", 6)],
)
def test_non_ascii_whitespace_is_unexpected(text, column):
    # str.isspace accepts the separators U+001C-U+001F and non-ASCII spaces
    ring = make_rings(field_new(5, 1), 0, 0)
    with pytest.raises(ParseError) as err:
        parse_bivar_poly(text, ring)
    assert str(err.value) == f"unexpected character {text[column - 1]!r} (column {column})"


def test_ascii_whitespace_is_skipped():
    ring = make_rings(field_new(5, 1), 0, 0)
    spaced = parse_bivar_poly("x2\t+\n1\r*\x0bx1\x0c", ring)
    assert spaced == parse_bivar_poly("x2+1*x1", ring)


def test_field_spec_non_ascii_degree_is_unexpected():
    with pytest.raises(ParseError) as err:
        parse_field_spec("GF(5^\u00b2)")
    assert str(err.value) == "unexpected character '\u00b2' (column 6)"


@pytest.mark.parametrize(
    "spec, column",
    [("GF(5; modulus = t + x)", 21), ("GF(5^2; modulus = t^2 + + 2)", 25)],
)
def test_field_spec_modulus_errors_point_into_the_spec(spec, column):
    with pytest.raises(ParseError) as err:
        parse_field_spec(spec)
    assert err.value.column == column
    assert spec[column - 1] in "x+"


def test_field_spec_checks_the_prime_before_its_modulus():
    with pytest.raises(NotPrime):
        parse_field_spec("GF(6; modulus = t)")


def test_parse_rejects_trailing_garbage():
    ring = make_rings(field_new(2, 2), 1, 1)
    with pytest.raises(ParseError):
        parse_bivar_poly("x1 x2", ring)  # juxtaposition needs '*'


@pytest.mark.parametrize(
    "spec, message",
    [
        ("GF(5", "expected ')', found end of input (column 5)"),
        ("", "expected 'NAME', found end of input (column 1)"),
    ],
)
def test_field_spec_end_of_input_is_named(spec, message):
    with pytest.raises(ParseError) as err:
        parse_field_spec(spec)
    assert str(err.value) == message


def test_polynomial_end_of_input_is_named():
    ring = make_rings(field_new(5, 1), 0, 0)
    for text, message in [
        ("(x1", "expected ')', found end of input (column 4)"),
        ("x1 +", "unexpected end of input (column 5)"),
        ("", "unexpected end of input (column 1)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_bivar_poly(text, ring)
        assert str(err.value) == message
