import time

import pytest

from charp import PolyParseError, PolyRing, parse_polynomial


@pytest.fixture
def ring():
    return PolyRing(7, ["x", "y", "z"])


@pytest.mark.parametrize("text,canonical", [
    ("x^3+y^3+z^3", "x^3 + y^3 + z^3"),
    ("3x^2y", "3*x^2*y"),
    ("3*x^2*y", "3*x^2*y"),
    ("3 x^2 y", "3*x^2*y"),
    ("x y z", "x*y*z"),
    ("xyz", "x*y*z"),
    ("xy^2", "x*y^2"),
    ("x - y", "x + 6*y"),
    ("-x + 2", "6*x + 2"),
    ("10", "3"),
    ("x + x", "2*x"),
    ("7x + y", "y"),
    ("x*x", "x^2"),
    ("x^0", "1"),
])
def test_parse_examples(ring, text, canonical):
    assert str(parse_polynomial(ring, text)) == canonical


def test_juxtaposition_prefers_longest_name():
    ring = PolyRing(5, ["x", "xy", "y"])
    f = parse_polynomial(ring, "xy")  # the declared variable, not x*y
    assert f == ring.var("xy")
    assert parse_polynomial(ring, "x*y") == ring.var("x") * ring.var("y")


def test_long_juxtapositions_split_longest_first_in_linear_time():
    """A split takes the longest name that leaves a splittable rest; an
    identifier as long as an exponent needs no recursion per variable,
    and one that does not split is rejected without trying every split
    of its prefix."""
    ring = PolyRing(5, ["x"])
    assert parse_polynomial(ring, "x" * 5000) == ring.var("x") ** 5000
    ring = PolyRing(5, ["a", "aa"])
    a, aa = ring.gens()
    assert parse_polynomial(ring, "aaa") == aa * a
    assert parse_polynomial(ring, "aaaa") == aa**2
    start = time.perf_counter()
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(ring, "a" * 300 + "b")
    assert time.perf_counter() - start < 1
    assert (err.value.line, err.value.column) == (1, 1)
    assert "unknown variable" in str(err.value)


@pytest.mark.parametrize("text,col", [
    ("w + x", 1),
    ("x + w", 5),
    ("x +", 4),       # dangling sign
    ("x ^ y", 5),     # non-integer exponent
    ("2*", 3),        # dangling star
    ("x ? y", 3),     # stray character
    ("", 1),
])
def test_parse_errors_carry_positions(ring, text, col):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(ring, text)
    assert err.value.line == 1
    assert err.value.column == col


def test_multiline_positions(ring):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(ring, "x +\n  w")
    assert (err.value.line, err.value.column) == (2, 3)


def test_coefficients_reduced_mod_p(ring):
    f = parse_polynomial(ring, "9x + 14y")
    assert str(f) == "2*x"
