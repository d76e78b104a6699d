"""Parser for the shared polynomial text syntax.

Terms are joined by ``+`` or ``-``; a term is an optional integer
coefficient followed by variable powers such as ``x^3``, separated by
``*`` or simply juxtaposed (``3x^2y`` == ``3*x^2*y``).  Whitespace is
insignificant and integer coefficients are reduced mod p.  An identifier
that is not a declared variable is split greedily into declared names, so
``xy`` parses as ``x*y`` when ``x`` and ``y`` are variables.
"""

from __future__ import annotations

import re

from .poly import Polynomial, PolyRing


class PolyParseError(ValueError):
    """Syntax error in polynomial text, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^])|(?P<bad>\S)")


def _tokenize(text: str):
    line, col = 1, 1
    pos = 0
    tokens = []
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m.lastgroup == "bad":
            raise PolyParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((m.lastgroup, m.group(), line, col))
        col += m.end() - pos
        pos = m.end()
    return tokens


def _split_variables(name: str, ring: PolyRing):
    """Decompose a juxtaposed identifier into declared variable names.

    Greedy longest-prefix match with backtracking; returns None when no
    decomposition exists.
    """
    by_length = sorted(ring.variables, key=len, reverse=True)

    def rec(s):
        if not s:
            return []
        for v in by_length:
            if s.startswith(v):
                rest = rec(s[len(v):])
                if rest is not None:
                    return [v] + rest
        return None

    return rec(name)


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse ``text`` as a polynomial of ``ring``; raises PolyParseError."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 1, 1)
    n = ring.nvars
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, "", 0, 0)

    def error(message, tok=None):
        if tok is None:
            if pos < len(tokens):
                tok = tokens[pos]
            else:
                _, value, line, col = tokens[-1]
                raise PolyParseError(message, line, col + len(value))
        raise PolyParseError(message, tok[2], tok[3])

    def parse_factors(exponents):
        """Parse variable powers into the exponent list; returns count seen."""
        nonlocal pos
        seen = 0
        while True:
            kind, value, line, col = peek()
            if kind == "op" and value == "*":
                pos += 1  # separator after the coefficient or a factor
                kind, value, line, col = peek()
                if kind != "name":
                    error("expected a variable after '*'")
            if kind != "name":
                return seen
            parts = _split_variables(value, ring)
            if parts is None:
                error(f"unknown variable {value!r}", (kind, value, line, col))
            pos += 1
            exp = 1
            k2, v2, _, _ = peek()
            if k2 == "op" and v2 == "^":
                pos += 1
                k3, v3, _, _ = peek()
                if k3 != "num":
                    error("expected an integer exponent after '^'")
                exp = int(v3)
                pos += 1
            for i, var in enumerate(parts):
                e = exp if i == len(parts) - 1 else 1
                exponents[ring._index[var]] += e
            seen += 1

    terms: dict = {}
    p = ring.p
    sign = 1
    kind, value, _, _ = peek()
    if kind == "op" and value in "+-":
        sign = -1 if value == "-" else 1
        pos += 1
    while True:
        kind, value, line, col = peek()
        coeff = 1
        exponents = [0] * n
        if kind == "num":
            coeff = int(value)
            pos += 1
            parse_factors(exponents)
        elif kind == "name":
            parse_factors(exponents)
        else:
            error("expected a term")
        m = tuple(exponents)
        c = (terms.get(m, 0) + sign * coeff) % p
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
        kind, value, line, col = peek()
        if kind is None:
            break
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            pos += 1
            continue
        error(f"expected '+' or '-', got {value!r}")
    return Polynomial(ring, terms, _canonical=True)

