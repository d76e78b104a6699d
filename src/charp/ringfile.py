"""Line-oriented ring-file DSL.

    # comments run to end of line
    char 2;
    vars x y z;
    quotient x^3 + y^3 + z^3;
    ideal I = x, y;
    assert cm;

``char`` and ``vars`` are mandatory and come first, ``quotient`` is
optional, any number of named ideals may follow, and ``assert cm;`` sets
the quotient ring's reported ``cm_hint``; no computation reads it.
Statements end with ``;`` and may span lines.  Parsing the canonical
printout yields an identical file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .field import MAX_CHARACTERISTIC, is_prime
from .groebner import Ideal
from .parse import PolyParseError, parse_polynomial
from .poly import GREVLEX, PolyRing
from .quotient import QuotientRing


class RingFileError(ValueError):
    """Ring-file problem with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass
class RingFile:
    ring: PolyRing
    quotient: tuple = ()
    ideals: dict = field(default_factory=dict)
    assert_cm: bool = False

    def quotient_ring(self) -> QuotientRing:
        cm = True if self.assert_cm else None
        return QuotientRing(self.ring, Ideal(self.ring, list(self.quotient)), cm_hint=cm)

    def ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            known = ", ".join(self.ideals) or "none defined"
            raise KeyError(f"unknown ideal {name!r} (known: {known})")
        return Ideal(self.ring, list(self.ideals[name]))

    def __eq__(self, other):
        return (
            isinstance(other, RingFile)
            and self.ring == other.ring
            and self.quotient == other.quotient
            and self.ideals == other.ideals
            and self.assert_cm == other.assert_cm
        )


def print_ring_file(rf: RingFile) -> str:
    """Canonical text; parse(print_ring_file(rf)) == rf."""
    lines = [f"char {rf.ring.p};", f"vars {' '.join(rf.ring.variables)};"]
    if rf.quotient:
        lines.append("quotient " + ", ".join(map(str, rf.quotient)) + ";")
    for name, gens in rf.ideals.items():
        lines.append(f"ideal {name} = " + ", ".join(map(str, gens)) + ";")
    if rf.assert_cm:
        lines.append("assert cm;")
    return "\n".join(lines) + "\n"


def _strip_comments(text: str) -> str:
    """Blank out # comments while preserving line/column positions."""
    out = []
    for line in text.split("\n"):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut] + " " * (len(line) - cut)
        out.append(line)
    return "\n".join(out)


def _statements(text: str):
    """Yield (statement_text, start_line, start_col) split on ';'."""
    buf = []
    line, col = 1, 1
    start = None
    for ch in text:
        if ch == ";":
            if start is not None:
                yield "".join(buf), start[0], start[1]
            buf = []
            start = None
        elif start is not None:
            buf.append(ch)
        elif not ch.isspace():
            start = (line, col)
            buf.append(ch)
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
    if start is not None:
        raise RingFileError("unterminated statement (missing ';')", start[0], start[1])


def _relocate(err: PolyParseError, text: str, start_line: int, start_col: int,
              offset_in_stmt: int) -> RingFileError:
    """Translate a polynomial parse error to file coordinates."""
    prefix = text[:offset_in_stmt]
    line = start_line + prefix.count("\n")
    if "\n" in prefix:
        col0 = len(prefix) - prefix.rfind("\n")
    else:
        col0 = start_col + len(prefix)
    if err.line > 1:
        line += err.line - 1
        col = err.column
    else:
        col = col0 + err.column - 1
    return RingFileError(err.message, line, col)


def _parse_poly_list(ring, body: str, stmt: str, start_line: int, start_col: int):
    """Parse comma-separated polynomials from ``body``, a suffix of ``stmt``."""
    polys = []
    offset = len(stmt) - len(body)
    pos = 0
    for segment in body.split(","):
        try:
            polys.append(parse_polynomial(ring, segment))
        except PolyParseError as err:
            raise _relocate(err, stmt, start_line, start_col, offset + pos) from None
        pos += len(segment) + 1
    return polys


def parse_ring_file(text: str) -> RingFile:
    """Parse ring-file text; raises RingFileError with file positions."""
    clean = _strip_comments(text)
    statements = list(_statements(clean))
    if not statements:
        raise RingFileError("empty ring file", 1, 1)

    p = None
    ring = None
    quotient: tuple = ()
    ideals: dict = {}
    assert_cm = False

    for stmt, line, col in statements:
        words = stmt.split(None, 1)
        head = words[0]
        body = words[1] if len(words) > 1 else ""
        if head == "char":
            if p is not None:
                raise RingFileError("duplicate 'char' statement", line, col)
            try:
                p = int(body.strip())
            except ValueError:
                raise RingFileError(f"invalid characteristic {body.strip()!r}", line, col) from None
            if not 2 <= p < MAX_CHARACTERISTIC or not is_prime(p):
                raise RingFileError(f"characteristic {p} is not a prime in [2, 2^16)", line, col)
        elif head == "vars":
            if p is None:
                raise RingFileError("'vars' before 'char'", line, col)
            if ring is not None:
                raise RingFileError("duplicate 'vars' statement", line, col)
            names = body.split()
            if not names:
                raise RingFileError("'vars' needs at least one variable", line, col)
            try:
                ring = PolyRing(p, names, GREVLEX)
            except ValueError as err:
                raise RingFileError(str(err), line, col) from None
        elif head == "quotient":
            if ring is None:
                raise RingFileError("'quotient' before 'vars'", line, col)
            if quotient:
                raise RingFileError("duplicate 'quotient' statement", line, col)
            quotient = tuple(_parse_poly_list(ring, body, stmt, line, col))
        elif head == "ideal":
            if ring is None:
                raise RingFileError("'ideal' before 'vars'", line, col)
            if "=" not in body:
                raise RingFileError("expected 'ideal <Name> = <poly>, ...'", line, col)
            name_part, gens_part = body.split("=", 1)
            name = name_part.strip()
            if not name.isidentifier():
                raise RingFileError(f"invalid ideal name {name!r}", line, col)
            if name in ideals:
                raise RingFileError(f"duplicate ideal name {name!r}", line, col)
            ideals[name] = tuple(_parse_poly_list(ring, gens_part, stmt, line, col))
        elif head == "assert":
            if body.strip() != "cm":
                raise RingFileError(f"unknown assertion {body.strip()!r}", line, col)
            assert_cm = True
        else:
            raise RingFileError(f"unknown statement {head!r}", line, col)

    if p is None:
        raise RingFileError("missing 'char' statement", 1, 1)
    if ring is None:
        raise RingFileError("missing 'vars' statement", 1, 1)
    return RingFile(ring=ring, quotient=quotient, ideals=ideals, assert_cm=assert_cm)
