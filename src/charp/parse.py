"""Parser for the shared polynomial text syntax.

Terms are joined by ``+`` or ``-``; a term is an optional integer
coefficient followed by variable powers such as ``x^3``, separated by
``*`` or simply juxtaposed (``3x^2y`` == ``3*x^2*y``).  Whitespace is
insignificant and integer coefficients are reduced mod p.  An identifier
that is not a declared variable is split greedily into declared names, so
``xy`` parses as ``x*y`` when ``x`` and ``y`` are variables.

A token keeps only its offset into the text.  Both parsers here take a
slice ``text[start:end]`` and report positions in the whole ``text``, so a
ring file or a comma list is parsed in place; the 1-based line and column
of an offset are worked out by :func:`_position` only when an error is
raised.
"""

from __future__ import annotations

import re

from .poly import Polynomial, PolyRing


class _PositionedError(ValueError):
    """An input error at a 1-based line and column, which its text leads
    with (``line:col: message``)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message, self.line, self.column = message, line, column


class PolyParseError(_PositionedError):
    """Syntax error in polynomial text, with 1-based line/column position."""


_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^])|(?P<bad>\S)")


def _position(text: str, offset: int):
    """The 1-based (line, column) of ``text[offset]``; columns count characters."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _integer(text: str, value: str, offset: int) -> int:
    """The numeral ``value`` at ``text[offset]`` as an int; PolyParseError
    when it is longer than Python converts from a string."""
    try:
        return int(value)
    except ValueError:
        message = f"numeral of {len(value)} digits is too long"
        raise PolyParseError(message, *_position(text, offset)) from None


def _split_variables(name: str, by_length):
    """Decompose a juxtaposed identifier into declared variable names.

    ``by_length`` lists the names longest first.  The decomposition is the
    greedy longest-prefix match with backtracking: at each position, the
    first name in ``by_length`` after which the rest splits.  That is found
    in one pass over the suffixes, from the end, in time linear in the
    identifier's length; returns None when no decomposition exists.
    """
    # first[j]: the name the split of name[j:] starts with; "" at the end,
    # None where name[j:] does not split
    first = [None] * len(name) + [""]
    for j in range(len(name) - 1, -1, -1):
        fits = (v for v in by_length if name.startswith(v, j) and first[j + len(v)] is not None)
        first[j] = next(fits, None)
    parts, j = [], 0
    while first[j]:
        parts.append(first[j])
        j += len(first[j])
    return None if first[j] is None else parts


def parse_polynomial(ring: PolyRing, text: str, start: int = 0, end: int | None = None) -> Polynomial:
    """Parse ``text[start:end]`` as a polynomial of ``ring``.

    Raises PolyParseError with a position in the whole ``text``."""
    end = len(text) if end is None else end
    tokens = []
    for m in _TOKEN_RE.finditer(text, start, end):
        if m.lastgroup == "bad":
            raise PolyParseError(f"unexpected character {m.group()!r}", *_position(text, m.start()))
        tokens.append((m.lastgroup, m.group(), m.start()))
    if not tokens:
        raise PolyParseError("empty polynomial", *_position(text, start))
    tokens.append((None, "", tokens[-1][2] + len(tokens[-1][1])))  # errors past the end point here
    by_length = sorted(ring.variables, key=len, reverse=True)
    index, p = ring._index, ring.p
    terms: dict = {}
    sign, i = 1, 0
    kind, value, offset = tokens[0]
    while True:
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            i += 1
        elif i:  # after a term only a sign or the end may follow
            raise PolyParseError(f"expected '+' or '-', got {value!r}", *_position(text, offset))
        coeff, exponents = 1, [0] * ring.nvars
        kind, value, offset = tokens[i]
        if kind == "num":
            coeff = _integer(text, value, offset)
            i += 1
        elif kind != "name":
            raise PolyParseError("expected a term", *_position(text, offset))
        while True:  # variable powers, '*'-separated or juxtaposed
            kind, value, offset = tokens[i]
            if kind == "op" and value == "*":
                i += 1
                kind, value, offset = tokens[i]
                if kind != "name":
                    raise PolyParseError("expected a variable after '*'", *_position(text, offset))
            if kind != "name":
                break
            parts = [value] if value in index else _split_variables(value, by_length)
            if parts is None:
                raise PolyParseError(f"unknown variable {value!r}", *_position(text, offset))
            exp = 1
            if tokens[i + 1][:2] == ("op", "^"):
                kind, value, offset = tokens[i + 2]
                if kind != "num":
                    raise PolyParseError("expected an integer exponent after '^'", *_position(text, offset))
                exp = _integer(text, value, offset)
                i += 2
            i += 1
            for var in parts[:-1]:
                exponents[index[var]] += 1
            exponents[index[parts[-1]]] += exp
        mono = tuple(exponents)
        c = (terms.get(mono, 0) + sign * coeff) % p
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
        if kind is None:
            return Polynomial(ring, terms)


def parse_polynomials(ring: PolyRing, text: str, start: int = 0, end: int | None = None) -> list:
    """Parse the comma-separated polynomials of ``text[start:end]``.

    Raises PolyParseError with a position in the whole ``text``."""
    end = len(text) if end is None else end
    polys = []
    while (comma := text.find(",", start, end)) >= 0:
        polys.append(parse_polynomial(ring, text, start, comma))
        start = comma + 1
    polys.append(parse_polynomial(ring, text, start, end))
    return polys
