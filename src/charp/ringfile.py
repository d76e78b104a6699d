"""Line-oriented ring-file DSL.

    # comments run to end of line
    char 2;
    vars x y z;
    quotient x^3 + y^3 + z^3;
    ideal I = x, y;

``char`` and ``vars`` are mandatory and come first, ``quotient`` is
optional, and any number of named ideals may follow.  No statement
declares the ring Cohen-Macaulay: the library checks that where it needs
it.  Statements end with ``;`` and may span lines.  Parsing the canonical
printout yields an identical file.

Comments are blanked in place and each statement is found by one regex,
so every position is an offset into the text: a statement's generator
lists are parsed where they stand, and the 1-based line and column of a
``RingFileError`` are worked out from the offset only when it is raised.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import NamedTuple

from .groebner import Ideal
from .parse import PolyParseError, _position, _PositionedError, parse_polynomials
from .poly import GREVLEX, PolyRing, check_characteristic
from .quotient import QuotientRing


class RingFileError(_PositionedError):
    """Ring-file problem with a 1-based source position."""


class RingFile(NamedTuple):
    ring: PolyRing
    quotient: tuple = ()
    ideals: dict = MappingProxyType({})  # read-only: no instance shares a mutable default

    def quotient_ring(self) -> QuotientRing:
        return QuotientRing(self.ring, Ideal(self.ring, list(self.quotient)))

    def ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            known = ", ".join(self.ideals) or "none defined"
            raise KeyError(f"unknown ideal {name!r} (known: {known})")
        return Ideal(self.ring, list(self.ideals[name]))


def print_ring_file(rf: RingFile) -> str:
    """Canonical text; parse(print_ring_file(rf)) == rf."""
    lines = [f"char {rf.ring.p};", f"vars {' '.join(rf.ring.variables)};"]
    if rf.quotient:
        lines.append("quotient " + ", ".join(map(str, rf.quotient)) + ";")
    for name, gens in rf.ideals.items():
        lines.append(f"ideal {name} = " + ", ".join(map(str, gens)) + ";")
    return "\n".join(lines) + "\n"


# A comment runs to the end of its line; blanking it keeps every offset.
_COMMENT_RE = re.compile(r"#[^\n]*")
_STATEMENT_RE = re.compile(r"(?P<head>[^;\s]+)\s*(?P<body>[^;]*)")
# the statement each statement needs before it; every statement but
# 'ideal' may appear once
_BEFORE = {"vars": "char", "quotient": "vars", "ideal": "vars"}


def _generators(ring, clean, start, end):
    """The comma list ``clean[start:end]``, with parse errors as file errors."""
    try:
        return tuple(parse_polynomials(ring, clean, start, end))
    except PolyParseError as err:
        raise RingFileError(err.message, err.line, err.column) from None


def parse_ring_file(text: str) -> RingFile:
    """Parse ring-file text; raises RingFileError with file positions."""
    clean = _COMMENT_RE.sub(lambda m: " " * len(m.group()), text)
    statements = list(_STATEMENT_RE.finditer(clean))
    if not statements:
        raise RingFileError("empty ring file", 1, 1)

    def error(message, stmt):
        return RingFileError(message, *_position(clean, stmt.start()))

    if statements[-1].end() == len(clean):
        raise error("unterminated statement (missing ';')", statements[-1])

    p = ring = None
    quotient: tuple = ()
    ideals: dict = {}
    seen: set = set()  # the heads of the statements read, but for 'ideal'

    for stmt in statements:
        head, body = stmt.group("head", "body")
        before = _BEFORE.get(head)
        if before is not None and before not in seen:
            raise error(f"{head!r} before {before!r}", stmt)
        if head in seen:
            raise error(f"duplicate {head!r} statement", stmt)
        if head != "ideal":
            seen.add(head)
        if head == "char":
            try:
                p = int(body.strip())
            except ValueError:
                raise error(f"invalid characteristic {body.strip()!r}", stmt) from None
            try:
                check_characteristic(p)
            except ValueError as err:
                raise error(str(err), stmt) from None
        elif head == "vars":
            names = body.split()
            if not names:
                raise error("'vars' needs at least one variable", stmt)
            try:
                ring = PolyRing(p, names, GREVLEX)
            except ValueError as err:
                raise error(str(err), stmt) from None
        elif head == "quotient":
            quotient = _generators(ring, clean, stmt.start("body"), stmt.end())
        elif head == "ideal":
            if "=" not in body:
                raise error("expected 'ideal <Name> = <poly>, ...'", stmt)
            name = body[:body.index("=")].strip()
            if not name.isidentifier():
                raise error(f"invalid ideal name {name!r}", stmt)
            if name in ideals:
                raise error(f"duplicate ideal name {name!r}", stmt)
            gens_start = stmt.start("body") + body.index("=") + 1
            ideals[name] = _generators(ring, clean, gens_start, stmt.end())
        else:
            raise error(f"unknown statement {head!r}", stmt)

    if ring is None:  # a file's first statement is 'char', or an error
        raise RingFileError("missing 'vars' statement", 1, 1)
    return RingFile(ring=ring, quotient=quotient, ideals=ideals)
