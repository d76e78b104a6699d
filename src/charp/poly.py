"""Sparse multivariate polynomials over F_p.

A monomial is a tuple of non-negative exponents, one per ring variable; a
polynomial is a table mapping monomials to nonzero residues mod p.  Three
monomial orders are provided: ``lex``, ``grevlex`` (the default) and block
orders (front k variables compared by grevlex, ties broken by grevlex on
the rest), which are elimination orders for the front block.

Everything here is immutable after construction: operations return fresh
objects and never mutate their inputs, so values can be shared freely
between threads or worker processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .field import check_characteristic

Monomial = tuple  # tuple[int, ...], one exponent per ring variable


class RingMismatchError(ValueError):
    pass


class DegreeCapExceeded(RuntimeError):
    """Raised when an intermediate polynomial exceeds the configured degree cap."""


# Optional global guard on intermediate total degree (see the CLI's
# FROB_MAX_DEGREE); None disables the check.  Set once at process start.
_DEGREE_CAP: int | None = None


def set_degree_cap(cap: int | None) -> None:
    global _DEGREE_CAP
    if cap is not None and cap < 1:
        raise ValueError(f"degree cap must be positive, got {cap}")
    _DEGREE_CAP = cap


def degree_cap() -> int | None:
    return _DEGREE_CAP


# ---------------------------------------------------------------------------
# monomial helpers (plain tuple arithmetic)

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b, i.e. every exponent of a is <= that of b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; requires b | a."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError(f"monomial {b} does not divide {a}")
    return out


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


@dataclass(frozen=True)
class MonomialOrder:
    """A total, multiplicative monomial order with 1 as minimum.

    ``kind`` is one of ``"lex"``, ``"grevlex"`` or ``"block"``; for block
    orders ``block`` is the size of the front variable block.
    """

    kind: str
    block: int | None = None

    def key(self, m: Monomial):
        """Sort key: key(m1) < key(m2) iff m1 < m2 in this order."""
        if self.kind == "grevlex":
            return _grevlex_key(m)
        if self.kind == "lex":
            return m
        k = self.block
        return (_grevlex_key(m[:k]), _grevlex_key(m[k:]))

    def __str__(self):
        if self.kind == "block":
            return f"block({self.block})"
        return self.kind


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(front: int) -> MonomialOrder:
    if front < 0:
        raise ValueError("front block size must be non-negative")
    return MonomialOrder("block", front)


def compare_monomials(m1: Monomial, m2: Monomial, order: MonomialOrder = GREVLEX) -> int:
    """-1, 0 or +1 according to m1 <, =, > m2 under ``order``."""
    if len(m1) != len(m2):
        raise ValueError(f"monomial length mismatch: {len(m1)} vs {len(m2)}")
    k1, k2 = order.key(m1), order.key(m2)
    return (k1 > k2) - (k1 < k2)


# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class PolyRing:
    """F_p[x_1, ..., x_n] with a fixed default monomial order.

    Variable names starting with an underscore are reserved for internal
    elimination variables and rejected unless ``internal=True``.
    """

    __slots__ = ("p", "variables", "order", "_index")

    def __init__(self, p, variables, order: MonomialOrder = GREVLEX, internal: bool = False):
        check_characteristic(p)
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial ring needs at least one variable")
        seen = set()
        for name in variables:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name.startswith("_") and not internal:
                raise ValueError(f"variable name {name!r} is reserved (leading underscore)")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        self.p = p
        self.variables = variables
        self.order = order
        self._index = {name: i for i, name in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.p, self.variables, self.order))

    def __repr__(self):
        return f"F_{self.p}[{', '.join(self.variables)}; {self.order}]"

    # -- constructors -------------------------------------------------------

    def poly(self, terms) -> "Polynomial":
        """Canonical polynomial from a {monomial: coefficient} mapping."""
        table = {}
        n = self.nvars
        for m, c in terms.items():
            m = tuple(m)
            if len(m) != n or any(e < 0 for e in m):
                raise ValueError(f"bad monomial {m} for {self!r}")
            c = c % self.p
            if c:
                c0 = table.get(m)
                table[m] = c if c0 is None else (c0 + c) % self.p
                if not table[m]:
                    del table[m]
        return Polynomial(self, table, _canonical=True)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {}, _canonical=True)

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        c %= self.p
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c}, _canonical=True)

    def var(self, name: str) -> "Polynomial":
        i = self._index.get(name)
        if i is None:
            raise ValueError(f"unknown variable {name!r}")
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.nvars)))

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, m: Monomial, c: int = 1) -> "Polynomial":
        return self.poly({tuple(m): c})

    def parse(self, text: str) -> "Polynomial":
        from .parse import parse_polynomial

        return parse_polynomial(self, text)


class Polynomial:
    """Immutable sparse polynomial; construct via :class:`PolyRing` methods."""

    __slots__ = ("ring", "terms", "_sorted", "_hash")

    def __init__(self, ring: PolyRing, terms: dict, _canonical: bool = False):
        if not _canonical:
            terms = dict(ring.poly(terms).terms)
        self.ring = ring
        self.terms = terms
        self._sorted = None
        self._hash = None
        cap = _DEGREE_CAP
        if cap is not None and terms:
            d = max(map(sum, terms))
            if d > cap:
                raise DegreeCapExceeded(
                    f"intermediate polynomial degree {d} exceeds FROB_MAX_DEGREE={cap}"
                )

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def sorted_terms(self, order: MonomialOrder | None = None):
        """Terms as (monomial, coefficient) pairs, descending in the order."""
        if order is None or order == self.ring.order:
            if self._sorted is None:
                key = self.ring.order.key
                self._sorted = tuple(
                    sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)
                )
            return self._sorted
        key = order.key
        return tuple(sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True))

    def leading_monomial(self, order: MonomialOrder | None = None) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        key = (order or self.ring.order).key
        return max(self.terms, key=key)

    def leading_coefficient(self, order: MonomialOrder | None = None) -> int:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder | None = None) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        inv = pow(lc, -1, self.ring.p)
        return Polynomial(
            self.ring, {m: c * inv % self.ring.p for m, c in self.terms.items()}, _canonical=True
        )

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(tuple(m), 0)

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check_ring(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: (-c) % p for m, c in self.terms.items()}, _canonical=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if not c:
                return self.ring.zero()
            p = self.ring.p
            return Polynomial(
                self.ring, {m: a * c % p for m, a in self.terms.items()}, _canonical=True
            )
        self._check_ring(other)
        p = self.ring.p
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                s = (out.get(m, 0) + c1 * c2) % p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out, _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n!r}")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- equality and printing -----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for m, c in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, m)
                if e
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Frobenius maps

def frobenius_power(f: Polynomial, e: int) -> Polynomial:
    """f**(p**e), computed term by term.

    Raising to a p-th power is additive in characteristic p, so exponents
    scale by p**e while coefficients stay fixed (c**p = c in F_p); no
    repeated multiplication is ever performed.
    """
    if e < 0:
        raise ValueError(f"Frobenius exponent must be non-negative, got {e}")
    if e == 0:
        return f
    q = f.ring.p ** e
    return Polynomial(
        f.ring, {tuple(x * q for x in m): c for m, c in f.terms.items()}, _canonical=True
    )


def frobenius_root(f: Polynomial, e: int) -> dict:
    """The decomposition f = sum(h_alpha**(p**e) * x**alpha) over exponents
    0 <= alpha_i < p**e, as {alpha: h_alpha} in ascending alpha.

    The h_alpha generate I_e(f), the smallest ideal whose e-th bracket
    power contains f.  One pass over the terms: c*x**m lands in
    h_(m mod p**e) as c*x**(m // p**e), and coefficients stay fixed because
    c**p = c in F_p.
    """
    if e < 0:
        raise ValueError(f"Frobenius-root exponent must be non-negative, got {e}")
    q = f.ring.p ** e
    tables: dict = {}
    for m, c in f.terms.items():
        alpha = tuple(x % q for x in m)
        tables.setdefault(alpha, {})[tuple(x // q for x in m)] = c
    return {
        alpha: Polynomial(f.ring, tables[alpha], _canonical=True) for alpha in sorted(tables)
    }


def frobenius_substitute(f: Polynomial, e: int) -> Polynomial:
    """Substitute x_i -> x_i**(p**e) for every variable of f's ring; over
    F_p this is f**(p**e), so it is :func:`frobenius_power`."""
    return frobenius_power(f, e)


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """The quotient f/g when g divides f exactly; raises ValueError otherwise."""
    from .groebner import reduce_with_quotients

    f._check_ring(g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    (quot,), rem = reduce_with_quotients(f, [g])
    if not rem.is_zero:
        raise ValueError(f"{g} does not divide {f} exactly")
    return quot
