"""Parser for the shared polynomial text syntax.

Terms are joined by ``+`` or ``-``; a term is an optional integer
coefficient followed by variable powers such as ``x^3``, separated by
``*`` or simply juxtaposed (``3x^2y`` == ``3*x^2*y``).  Whitespace is
insignificant and integer coefficients are reduced mod p.  An identifier
that is not a declared variable is split greedily into declared names, so
``xy`` parses as ``x*y`` when ``x`` and ``y`` are variables.

Both parsers here take a slice ``text[start:end]`` and report positions in
the whole ``text``, so a ring file or a comma list is parsed in place.  One
search for a character outside the syntax runs over the slice first, so a
stray character is reported before any earlier syntax error.  Then one
compiled pattern matches each term whole (sign, coefficient and its run of
variable powers) and one ``findall`` reads the powers.  Where a term does
not match or does not follow a sign, the error and its offset are worked
out from the text at that point; the 1-based line and column of an offset
are worked out by :func:`_position` only when an error is raised.  The
tests keep the earlier token-by-token parser as the oracle that every
result and error of this one must equal.
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


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_STRAY_RE = re.compile(r"[^\s\dA-Za-z_+\-*^]")
_TOKEN_RE = re.compile(rf"\d+|{_NAME}|\S")
# a term: its sign, its coefficient and its run of powers.  Each optional
# part starts with a character of its own ('+'/'-', '*', '^') after its
# whitespace, so a match that fails backtracks over a whitespace run once.
_TERM_RE = re.compile(rf"\s*(?:([-+])\s*)?(?:(\d+)|(?=[A-Za-z_]))((?:\s*(?:\*\s*)?{_NAME}(?:\s*\^\s*\d+)?)*)\s*")
# a power of a matched run: only a caret and whitespace stand between a
# name and its exponent there
_POWER_RE = re.compile(rf"({_NAME})[\s^]*(\d*)")


def _position(text: str, offset: int):
    """The 1-based (line, column) of ``text[offset]``; columns count characters."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(text: str, term, value: str, message: str) -> PolyParseError:
    """PolyParseError at the first token ``value`` of the term match
    ``term``: every earlier token passed the check that ``value`` failed,
    so an equal one would have failed first."""
    offset = next(t.start() for t in _TOKEN_RE.finditer(text, term.start(), term.end()) if t.group() == value)
    return PolyParseError(message, *_position(text, offset))


def _integer(text: str, value: str, term) -> int:
    """The numeral ``value`` of the term match ``term`` as an int;
    PolyParseError when it has more than 4300 digits, CPython's default
    limit on converting a string, even where the interpreter lifts that
    limit, or when it is over a lower limit the interpreter sets."""
    try:
        if len(value) <= 4300:
            return int(value)
    except ValueError:
        pass
    raise _error(text, term, value, f"numeral of {len(value)} digits is too long")


def _syntax_error(text: str, start: int, end: int, pos: int, powers) -> PolyParseError:
    """The error where no term, or a term without a sign, starts at
    ``text[pos]``; ``powers`` are the previous term's (name, exponent) pairs."""
    tokens = _TOKEN_RE.finditer(text, pos, end)
    token = next(tokens, None)
    if token is None:
        return PolyParseError("empty polynomial", *_position(text, start))
    value, nxt = token.group(), next(tokens, None)
    following = nxt.start() if nxt else token.end()  # errors past the end point here
    if value in ("+", "-"):
        message, offset = "expected a term", following
    elif pos == start:  # '*' or '^' cannot start the first term
        message, offset = "expected a term", token.start()
    elif value == "*":
        message, offset = "expected a variable after '*'", following
    elif value == "^" and powers and not powers[-1][1]:
        message, offset = "expected an integer exponent after '^'", following
    else:  # after a term only a sign or the end may follow
        message, offset = f"expected '+' or '-', got {value!r}", token.start()
    return PolyParseError(message, *_position(text, offset))


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
    stray = _STRAY_RE.search(text, start, end)
    if stray:
        raise PolyParseError(f"unexpected character {stray.group()!r}", *_position(text, stray.start()))
    index, p, terms, pos, powers = ring._index, ring.p, {}, start, ()
    while True:
        term = _TERM_RE.match(text, pos, end)
        if term is None or (pos > start and not term[1]):
            raise _syntax_error(text, start, end, pos, powers)
        sign, coeff, run = term.groups()
        coeff = _integer(text, coeff, term) if coeff else 1
        exponents = [0] * ring.nvars
        powers = _POWER_RE.findall(run)
        for name, exp in powers:
            if name not in index:  # declared names juxtaposed, or an unknown one
                parts = _split_variables(name, sorted(ring.variables, key=len, reverse=True))
                if parts is None:
                    raise _error(text, term, name, f"unknown variable {name!r}")
                for var in parts[:-1]:
                    exponents[index[var]] += 1
                name = parts[-1]
            exponents[index[name]] += _integer(text, exp, term) if exp else 1
        mono = tuple(exponents)
        c = (terms.get(mono, 0) + (-coeff if sign == "-" else coeff)) % p
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
        pos = term.end()
        if pos == end:
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
