import random

import pytest

from charp import PolyParseError, RingFileError, parse_polynomial, parse_ring_file, print_ring_file

FERMAT = """# Fermat cubic over F_2
char 2;
vars x y z;
quotient x^3+y^3+z^3;
ideal I = x, y;
"""


def test_parse_fermat_file():
    rf = parse_ring_file(FERMAT)
    assert rf.ring.p == 2
    assert rf.ring.variables == ("x", "y", "z")
    x, y, z = rf.ring.gens()
    assert rf.quotient == (x**3 + y**3 + z**3,)
    assert rf.ideals["I"] == (x, y)
    R = rf.quotient_ring()
    assert R.dimension == 2


def test_roundtrip_canonical_print():
    for text in [
        FERMAT,
        "char 5; vars a b; ideal J = a^2+3b, b;",
        "char 3; vars x y; quotient x^2; ideal A = x; ideal B = y;",
        "char 2; vars x;",
    ]:
        rf = parse_ring_file(text)
        canonical = print_ring_file(rf)
        rf2 = parse_ring_file(canonical)
        assert rf2 == rf
        assert print_ring_file(rf2) == canonical


def test_assert_cm_is_an_unknown_statement():
    # Cohen-Macaulayness is checked where it is needed, never declared
    with pytest.raises(RingFileError) as info:
        parse_ring_file("char 2; vars x y z;\nquotient x*y, x*z;\n  assert cm;")
    assert (info.value.line, info.value.column) == (3, 3)
    assert "unknown statement 'assert'" in str(info.value)
    rf = parse_ring_file("char 2; vars x y z; quotient x*y, x*z;")
    assert not rf.quotient_ring()._height_test(())


@pytest.mark.parametrize("text,line,col,fragment", [
    ("char 4; vars x;", 1, 1, "not a prime"),
    ("char 65537; vars x;", 1, 1, "not a prime"),
    ("char 2; vars x x;", 1, 9, "duplicate"),
    ("char 2; vars _x;", 1, 9, "reserved"),
    ("char 2; vars x; ideal I = y;", 1, 27, "unknown variable"),
    ("char 2;\nvars x;\nideal I = x,\n   w;", 4, 4, "unknown variable"),
    ("char 2; vars x; ideal I = x", 1, 17, "missing ';'"),
    ("vars x; char 2;", 1, 1, "before 'char'"),
    ("char 2; quotient x;", 1, 9, "before 'vars'"),
    ("char 2; vars x; frobnicate;", 1, 17, "unknown statement"),
    ("char 2; vars x; ideal I = x; ideal I = x;", 1, 30, "duplicate ideal"),
    ("char 2; vars x; assert flat;", 1, 17, "unknown statement"),
    ("", 1, 1, "empty"),
    ("char 2; vars x; ideal 2bad = x;", 1, 17, "invalid ideal name"),
    # a generator list whose statement prefix holds a newline
    ("char 2; vars x;\nideal I =\n  x, w;", 3, 6, "unknown variable"),
    # CRLF line ends: the '\r' is a column of its line
    ("char 2;\r\nvars x;\r\nideal I = x,\r\n w;", 4, 2, "unknown variable"),
    # a tab is one column
    ("char 2;\tvars x;\n\tideal I = x,\tw;", 2, 15, "unknown variable"),
    # a comment inside a generator list
    ("char 2; vars x y;\nideal I = x, # first\n  y, w;", 3, 6, "unknown variable"),
    # the second generator of a quotient
    ("char 2; vars x y;\nquotient x^2, y ?;", 2, 17, "unexpected character"),
])
def test_error_positions(text, line, col, fragment):
    with pytest.raises(RingFileError) as err:
        parse_ring_file(text)
    assert err.value.line == line, err.value
    assert err.value.column == col, err.value
    assert fragment in err.value.message


@pytest.mark.parametrize("text,message,line,col", [
    # each statement but 'ideal' may appear once; 'char' after 'vars' is a second 'char'
    ("char 2; char 3; vars x;", "duplicate 'char' statement", 1, 9),
    ("char 2; vars x; vars y;", "duplicate 'vars' statement", 1, 17),
    ("char 2; vars x; quotient x; quotient x^2;", "duplicate 'quotient' statement", 1, 29),
    ("char 2; vars x; char 3;", "duplicate 'char' statement", 1, 17),
    # 'vars' needs 'char' before it, 'quotient' and 'ideal' need 'vars'
    ("vars x;", "'vars' before 'char'", 1, 1),
    ("quotient x;", "'quotient' before 'vars'", 1, 1),
    ("char 2;\nideal I = x;", "'ideal' before 'vars'", 2, 1),
    ("char 2;\nquotient x; vars x;", "'quotient' before 'vars'", 2, 1),
    # so the first statement is 'char' or an error, and only 'vars' can be missing
    ("ideal I = x;", "'ideal' before 'vars'", 1, 1),
    ("char 2;\n", "missing 'vars' statement", 1, 1),
    ("", "empty ring file", 1, 1),
    ("char 2; vars ;", "'vars' needs at least one variable", 1, 9),
    ("char two; vars x;", "invalid characteristic 'two'", 1, 1),
    ("char 4; vars x;", "characteristic 4 is not a prime in [2, 2^16)", 1, 1),
    ("char 2; vars x;\nideal I x;", "expected 'ideal <Name> = <poly>, ...'", 2, 1),
    ("char 2; vars x x;", "duplicate variable name 'x'", 1, 9),
    ("char 2; vars x; frobnicate;", "unknown statement 'frobnicate'", 1, 17),
    ("char 2; vars x; ideal I = x; ideal I = x;", "duplicate ideal name 'I'", 1, 30),
    ("char 2; vars x; ideal 2bad = x;", "invalid ideal name '2bad'", 1, 17),
    ("char 2; vars x; ideal I = x", "unterminated statement (missing ';')", 1, 17),
    ("char 2; vars x; quotient ;", "empty polynomial", 1, 26),
])
def test_error_messages_exactly(text, message, line, col):
    with pytest.raises(RingFileError) as err:
        parse_ring_file(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, col)
    assert str(err.value) == f"{line}:{col}: {message}"
    assert not isinstance(err.value, PolyParseError)


def test_quotient_may_follow_the_ideals():
    rf = parse_ring_file("char 3; vars x y; ideal I = x; quotient y^2; ideal J = y;")
    x, y = rf.ring.gens()
    assert rf.quotient == (y**2,)
    assert rf.ideals == {"I": (x,), "J": (y,)}


def test_parse_errors_are_not_ring_file_errors():
    # the two positioned errors are siblings: the CLI formats a ring-file
    # error with its path, a polynomial error without
    ring = parse_ring_file("char 2; vars x;").ring
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(ring, "x +\n  w")
    assert (err.value.message, err.value.line, err.value.column) == ("unknown variable 'w'", 2, 3)
    assert str(err.value) == "2:3: unknown variable 'w'"
    assert not isinstance(err.value, RingFileError)


def test_comments_do_not_shift_positions():
    text = "char 2; # the field\nvars x; # names\nideal I = w;"
    with pytest.raises(RingFileError) as err:
        parse_ring_file(text)
    assert (err.value.line, err.value.column) == (3, 11)


def test_error_position_is_the_character_position():
    # one stray '?' at a random place in a multi-line generator list; its
    # line and column are found independently by splitting the text
    rng = random.Random(14)
    for _ in range(200):
        gens = []
        for _ in range(rng.randint(1, 4)):
            gens.append(rng.choice(["x", "y^2", "3x*y", "x + y", "x^3 -\ty"]))
        text = "char 3;\nvars x y;\nideal I ="
        for g in gens:
            text += rng.choice([" ", "\n", "\n  ", "\t", "\r\n "]) + g + ","
        text = text[:-1] + ";\n"
        body = text.index("=") + 1
        cut = rng.randint(body, len(text) - 2)
        text = text[:cut] + "?" + text[cut:]
        lines = text.split("\n")
        line = next(i for i, row in enumerate(lines) if "?" in row)
        with pytest.raises(RingFileError) as err:
            parse_ring_file(text)
        assert err.value.message == "unexpected character '?'"
        assert (err.value.line, err.value.column) == (line + 1, lines[line].index("?") + 1), text


def test_unknown_ideal_lookup():
    rf = parse_ring_file(FERMAT)
    with pytest.raises(KeyError):
        rf.ideal("missing")
    assert rf.ideal("I").gens == rf.ideals["I"]


def test_overlong_numeral_is_a_positioned_error():
    # longer than Python's default limit on integer string conversion
    text = "char 2;\nvars x y;\nideal I = x^" + "9" * 5000 + ";"
    with pytest.raises(RingFileError) as err:
        parse_ring_file(text)
    assert (err.value.line, err.value.column) == (3, 13)
    assert err.value.message == "numeral of 5000 digits is too long"
