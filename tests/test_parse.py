import collections
import random
import re
import sys
import time

import pytest

from charp import PolyParseError, PolyRing, RingFileError, parse_polynomial, parse_ring_file
from charp.parse import parse_polynomials
from support import reference_parse_polynomial


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


_PARSE_ERRORS = [
    ("w + x", "unknown variable 'w'", 1),
    ("x + w", "unknown variable 'w'", 5),
    ("x +", "expected a term", 4),  # dangling sign
    ("x ^ y", "expected an integer exponent after '^'", 5),
    ("2*", "expected a variable after '*'", 3),  # dangling star
    ("x ? y", "unexpected character '?'", 3),
    ("", "empty polynomial", 1),
    # a stray character anywhere is reported before an earlier syntax error
    ("x + + y $", "unexpected character '$'", 9),
    ("x - -y", "expected a term", 5),
    ("2 3", "expected '+' or '-', got '3'", 3),
    ("x^2^3", "expected '+' or '-', got '^'", 4),
    ("x**y", "expected a variable after '*'", 3),
    ("*x", "expected a term", 1),
    ("9" * 4301, "numeral of 4301 digits is too long", 1),
]


@pytest.mark.parametrize("text,message,col", _PARSE_ERRORS,
                         ids=[f"{text[:20]}-{col}" for text, _, col in _PARSE_ERRORS])
def test_parse_errors_carry_positions(ring, text, message, col):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(ring, text)
    assert (err.value.message, err.value.line, err.value.column) == (message, 1, col)


def test_numeral_limit_does_not_follow_the_interpreter(ring):
    """A numeral of more than 4300 digits, CPython's default limit for
    int(), is refused, and one of 4300 digits parses, also where the
    interpreter lifts its own limit (PYTHONINTMAXSTRDIGITS=0); a lower
    limit set there still gives the positioned error."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this interpreter has no limit on int() to set")
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(ring, "x + " + "9" * 4301 + "y")
        assert (err.value.message, err.value.line, err.value.column) == (
            "numeral of 4301 digits is too long", 1, 5)
        with pytest.raises(PolyParseError, match="numeral of 4301 digits is too long"):
            parse_polynomial(ring, "x^" + "1" * 4301)
        assert parse_polynomial(ring, "8" * 4300 + "x") == int("8" * 4300) % 7 * ring.var("x")
        set_limit(1000)
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(ring, "x + " + "9" * 2000)
        assert (err.value.message, err.value.column) == ("numeral of 2000 digits is too long", 5)
    finally:
        set_limit(limit)


@pytest.mark.parametrize("text,col", [("x, , y", 3), ("x, y,", 6)])
def test_empty_list_entries_carry_positions(ring, text, col):
    with pytest.raises(PolyParseError) as err:
        parse_polynomials(ring, text)
    assert (err.value.message, err.value.line, err.value.column) == ("empty polynomial", 1, col)


def test_multiline_positions(ring):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(ring, "x +\n  w")
    assert (err.value.line, err.value.column) == (2, 3)


def test_coefficients_reduced_mod_p(ring):
    f = parse_polynomial(ring, "9x + 14y")
    assert str(f) == "2*x"


# -- the term-pattern parser against the token-list oracle ---------------------

_DIFFERENTIAL_RINGS = (
    PolyRing(7, ["x", "xy", "y"]),  # names that share a prefix
    PolyRing(5, ["a", "aa"]),
    PolyRing(2, ["x", "y", "z"]),
    PolyRing(3, ["x1", "x_2", "y"]),
)
_STRAYS = ("$", "?", "é", "²", "(", "!", ".", ",")
_SPACES = ("", "", "", " ", " ", "\t", "\n", " \n\t ")


def _random_numeral(rng, p):
    r = rng.random()
    if r < 0.005:
        return "7" * rng.choice((4300, 4301, 4400))  # int() takes at most 4300 digits
    if r < 0.04:
        return rng.choice(("٣", "٠١", "३", "1٣"))  # \d reads non-ASCII digits too
    if r < 0.2:
        return str(p * rng.randint(0, 3))
    return str(rng.randint(0, 20))


def _random_name(rng, ring):
    if rng.random() < 0.08:
        return rng.choice(("w", "xw", "b", "_", "q1", "aab"))
    return "".join(rng.choice(ring.variables) for _ in range(rng.choice((1, 1, 1, 2, 3))))


def _random_tokens(rng, ring):
    """The tokens of a random polynomial, then a few random edits, each
    possibly followed by a stray character further on."""
    tokens = []
    for i in range(rng.randint(1, 4)):
        if i or rng.random() < 0.3:
            tokens.append(rng.choice("+-"))
        coefficient = rng.random() < 0.5
        if coefficient:
            tokens.append(_random_numeral(rng, ring.p))
        for _ in range(rng.randint(0 if coefficient else 1, 3)):
            if len(tokens) > 1 and rng.random() < 0.5:
                tokens.append("*")
            tokens.append(_random_name(rng, ring))
            if rng.random() < 0.4:
                tokens += ["^", _random_numeral(rng, ring.p)]
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        at = rng.randint(0, len(tokens))
        if tokens and rng.random() < 0.3:
            del tokens[min(at, len(tokens) - 1)]
        else:
            tokens.insert(at, rng.choice(("+", "-", "*", "^", "*", "^0", "x^", _random_numeral(rng, ring.p),
                                          _random_name(rng, ring), rng.choice(_STRAYS))))
        if rng.random() < 0.3:
            tokens.insert(rng.randint(min(at, len(tokens)), len(tokens)), rng.choice(_STRAYS))
    return tokens


def _random_text(rng, ring):
    return "".join(token + rng.choice(_SPACES) for token in _random_tokens(rng, ring))


def _outcome(parse, *args):
    """What ``parse(*args)`` returns, or its error's class, message and position."""
    try:
        return parse(*args)
    except ValueError as err:
        return type(err), err.message, err.line, err.column


def _reference_polynomials(ring, text, start, end):
    """``parse_polynomials`` over the oracle: the same comma split."""
    polys = []
    while (comma := text.find(",", start, end)) >= 0:
        polys.append(reference_parse_polynomial(ring, text, start, comma))
        start = comma + 1
    return polys + [reference_parse_polynomial(ring, text, start, end)]


def test_term_parser_equals_token_oracle():
    """Seeded valid and invalid texts, whole, as slices of a longer text,
    as comma lists and as ring-file ideals, parse to the oracle's
    polynomial or raise its error class, message, line and column."""
    rng = random.Random(20260101)
    kinds = collections.Counter()  # outcomes, errors by message without its quoted part
    for case in range(5000):
        ring = _DIFFERENTIAL_RINGS[case % len(_DIFFERENTIAL_RINGS)]
        text = _random_text(rng, ring)
        expected = _outcome(reference_parse_polynomial, ring, text)
        assert _outcome(parse_polynomial, ring, text) == expected, text
        kinds[re.sub(r" '.*|\d+", "", expected[1]) if isinstance(expected, tuple) else "ok"] += 1
        prefix = f"{rng.choice(_STRAYS)}\n{rng.choice(_SPACES)}"
        outer = f"{prefix}{text}{rng.choice(_SPACES)}{rng.choice(_STRAYS)}"
        start, end = len(prefix), len(prefix) + len(text)
        assert (_outcome(parse_polynomial, ring, outer, start, end)
                == _outcome(reference_parse_polynomial, ring, outer, start, end)), outer
        if case % 4 == 0:
            listed = ",".join(_random_text(rng, ring) for _ in range(rng.randint(1, 3)))
            assert (_outcome(parse_polynomials, ring, listed, 0, len(listed))
                    == _outcome(_reference_polynomials, ring, listed, 0, len(listed))), listed
        if case % 5 == 0 and not set(text) & set(";#="):
            head = f"char {ring.p};\nvars {' '.join(ring.variables)};\nideal I ="
            expected = _outcome(_reference_polynomials, ring, head + text + ";", len(head), len(head) + len(text))
            got = _outcome(parse_ring_file, head + text + ";")
            if isinstance(expected, tuple):
                assert got == (RingFileError, *expected[1:]), text
            else:
                assert list(got.ideals["I"]) == expected, text
    # well-formed text and each of the eight errors are drawn
    assert len(kinds) == 9 and kinds["ok"] > 1000, kinds
