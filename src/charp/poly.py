"""Sparse multivariate polynomials over F_p.

A monomial is a tuple of non-negative exponents, one per ring variable; a
polynomial is a table mapping monomials to nonzero residues mod p.  Three
monomial orders are provided: ``lex``, ``grevlex`` (the default) and block
orders (front k variables compared by grevlex, ties broken by grevlex on
the rest), which are elimination orders for the front block.

Everything here is immutable after construction: operations return fresh
objects and never mutate their inputs, so values can be shared freely
between threads or worker processes.  A ring is one object per (p,
variables, order), and it unpickles to the receiving process's registered
ring, so every ring check is an identity test (:func:`_check_ring`).
"""

from __future__ import annotations

import re
from typing import NamedTuple

Monomial = tuple  # tuple[int, ...], one exponent per ring variable


class RingMismatchError(ValueError):
    pass


def _check_ring(ring, *items) -> None:
    """Raise RingMismatchError unless every polynomial or ideal in ``items``
    lives in ``ring``; rings are interned, so this is an identity test."""
    for item in items:
        if item.ring is not ring:
            what = f"generator {item}" if isinstance(item, Polynomial) else repr(item)
            raise RingMismatchError(f"{what} does not live in {ring!r}")


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


def check_degree(degree: int) -> None:
    """Raise DegreeCapExceeded when an intermediate polynomial of total
    degree ``degree`` exceeds the degree cap."""
    if _DEGREE_CAP is not None and degree > _DEGREE_CAP:
        raise DegreeCapExceeded(
            f"intermediate polynomial degree {degree} exceeds FROB_MAX_DEGREE={_DEGREE_CAP}"
        )


# ---------------------------------------------------------------------------
# monomial helpers (plain tuple arithmetic)

def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; requires b | a."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError(f"monomial {b} does not divide {a}")
    return out


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


class MonomialOrder(NamedTuple):
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


# ---------------------------------------------------------------------------
# rings

# Residues are plain ints; 2 <= p < 2**16 keeps their products machine-sized.
MAX_CHARACTERISTIC = 1 << 16


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for n < 2**16."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_characteristic(p: int) -> int:
    """Return ``p`` if it is a prime in [2, 2**16), else raise ValueError."""
    if not isinstance(p, int) or not 2 <= p < MAX_CHARACTERISTIC or not is_prime(p):
        raise ValueError(f"characteristic {p!r} is not a prime in [2, 2^16)")
    return p


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# The one ring per (p, variables, order): rings are compared by identity.
_RINGS: dict = {}


class PolyRing:
    """F_p[x_1, ..., x_n] with one fixed monomial order, the only order its
    polynomials and their Groebner bases are ever taken in.

    Variable names starting with an underscore are reserved for internal
    elimination variables and rejected unless ``internal=True``.

    Rings are interned: once the arguments are validated, ``PolyRing(p,
    variables, order)`` returns the one ring registered for those values,
    so two rings are equal exactly when they are the same object.  A ring
    unpickles (in a worker process, say) and copies to the registered ring.
    """

    __slots__ = ("p", "variables", "order", "_index")

    def __new__(cls, p, variables, order: MonomialOrder = GREVLEX, internal: bool = False):
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
        key = (p, variables, order)
        ring = _RINGS.get(key)
        if ring is None:
            ring = super().__new__(cls)
            ring.p = p
            ring.variables = variables
            ring.order = order
            ring._index = {name: i for i, name in enumerate(variables)}
            ring = _RINGS.setdefault(key, ring)  # a racing twin yields to the first
        return ring

    def __reduce__(self):
        return (PolyRing, (self.p, self.variables, self.order, True))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __repr__(self):
        return f"F_{self.p}[{', '.join(self.variables)}; {self.order}]"

    # -- constructors -------------------------------------------------------

    def poly(self, terms) -> "Polynomial":
        """Canonical polynomial from a {monomial: coefficient} mapping."""
        table = {}
        n = self.nvars
        for m, c in terms.items():
            m = tuple(m)
            if len(m) != n or any(not isinstance(e, int) or e < 0 for e in m):
                raise ValueError(f"bad monomial {m} for {self!r}")
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an integer")
            c = c % self.p
            if c:
                c0 = table.get(m)
                table[m] = c if c0 is None else (c0 + c) % self.p
                if not table[m]:
                    del table[m]
        return Polynomial(self, table)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        if not isinstance(c, int):
            raise ValueError(f"coefficient {c!r} is not an integer")
        c %= self.p
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

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
    """Immutable sparse polynomial; construct via :class:`PolyRing` methods.

    The constructor trusts its table: monomials of the ring's length and
    nonzero residues mod p, which the library's own operations produce.
    :meth:`PolyRing.poly` is the validating constructor."""

    __slots__ = ("ring", "terms", "_lm", "_hash", "_pk")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lm = None
        self._hash = None
        self._pk = None  # packed terms, cached by the Groebner division kernel
        if _DEGREE_CAP is not None and terms:
            check_degree(max(map(sum, terms)))

    def __getstate__(self):
        return self.ring, self.terms  # the caches are rebuilt on use

    def __setstate__(self, state):
        self.ring, self.terms = state
        self._lm = self._hash = self._pk = None

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

    def sorted_terms(self):
        """Terms as (monomial, coefficient) pairs, descending in the ring's order."""
        key = self.ring.order.key
        return tuple(sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True))

    def leading_monomial(self) -> Monomial:
        """The largest monomial in the ring's order, computed once."""
        if self._lm is None:
            if not self.terms:
                raise ValueError("the zero polynomial has no leading monomial")
            self._lm = max(self.terms, key=self.ring.order.key)
        return self._lm

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        inv = pow(lc, -1, self.ring.p)
        out = Polynomial(self.ring, {m: c * inv % self.ring.p for m, c in self.terms.items()})
        out._lm = self._lm
        return out

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        _check_ring(self.ring, other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: (-c) % p for m, c in self.terms.items()})

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
            return Polynomial(self.ring, {m: a * c % p for m, a in self.terms.items()})
        _check_ring(self.ring, other)
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
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n!r}")
        if len(self.terms) == 1:  # a term's power is read off its exponents
            (m, c), = self.terms.items()
            return Polynomial(self.ring, {tuple(e * n for e in m): pow(c, n, self.ring.p)})
        p, k = self.ring.p, 0
        while n and n % p == 0:  # h**(m * p**k) is the Frobenius power of h**m
            n //= p
            k += 1
        if k:
            return frobenius_power(self ** n, k)
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
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))  # ints: equal in every process
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
    return Polynomial(f.ring, {tuple(x * q for x in m): c for m, c in f.terms.items()})


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
    return {alpha: Polynomial(f.ring, tables[alpha]) for alpha in sorted(tables)}


def frobenius_substitute(f: Polynomial, e: int) -> Polynomial:
    """Substitute x_i -> x_i**(p**e) for every variable of f's ring; over
    F_p this is f**(p**e), so it is :func:`frobenius_power`."""
    return frobenius_power(f, e)


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """The quotient f/g when g divides f exactly; raises ValueError otherwise.

    Long division on leading terms: each step cancels the remainder's
    leading term by a term times g.  If g divides the remainder, g's
    leading monomial divides the remainder's, so the first leading term it
    does not divide ends the division."""
    _check_ring(f.ring, g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    ring, lm = f.ring, g.leading_monomial()
    inv = pow(g.terms[lm], -1, ring.p)
    quot: dict = {}
    rem = f
    while rem:
        m = rem.leading_monomial()
        shift = tuple(x - y for x, y in zip(m, lm))
        if any(e < 0 for e in shift):
            raise ValueError(f"{g} does not divide {f} exactly")
        c = quot[shift] = rem.terms[m] * inv % ring.p
        rem = rem - g * Polynomial(ring, {shift: c})
    return Polynomial(ring, quot)
