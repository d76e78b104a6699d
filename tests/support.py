"""Shared fixtures-ish helpers: standard rings, seeded random polynomials,
and brute-force enumerations used as independent oracles."""

from __future__ import annotations

import heapq
import itertools
import random
import re

from charp import Ideal, PolyRing, Polynomial, QuotientRing, normal_form, s_polynomial
from charp.parse import PolyParseError, _position, _split_variables
from charp.poly import mono_lcm


def mono_divides(a: tuple, b: tuple) -> bool:
    """True when a | b, i.e. every exponent of a is <= that of b."""
    return all(x <= y for x, y in zip(a, b))


def fermat_ring(p: int, d: int = 3) -> QuotientRing:
    S = PolyRing(p, ["x", "y", "z"])
    x, y, z = S.gens()
    return QuotientRing(S, [x**d + y**d + z**d])


def random_monomial(rng: random.Random, nvars: int, max_degree: int):
    while True:
        m = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        if sum(m) <= max_degree:
            return m


def random_poly(rng: random.Random, ring: PolyRing, max_degree=3, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = random_monomial(rng, ring.nvars, max_degree)
        terms[m] = rng.randint(1, ring.p - 1) if ring.p > 2 else 1
    return ring.poly(terms)


def random_form(rng: random.Random, ring: PolyRing, degree: int, max_terms=3):
    """A nonzero homogeneous polynomial of the given degree."""
    monos = [m for m in itertools.product(range(degree + 1), repeat=ring.nvars)
             if sum(m) == degree]
    terms = {m: rng.randint(1, ring.p - 1) for m in rng.sample(monos, rng.randint(1, max_terms))}
    return ring.poly(terms)


def random_ideal(rng: random.Random, ring: PolyRing, max_gens=3, max_degree=3) -> Ideal:
    gens = [random_poly(rng, ring, max_degree) for _ in range(rng.randint(1, max_gens))]
    return Ideal(ring, gens)


def random_zero_dimensional_colon(rng: random.Random, ring: PolyRing):
    """(I, A) with dim S/I = 0: I from one random polynomial of mixed
    degrees per variable, with pure powers of some variables added, redrawn
    until zero-dimensional; A from 1-3 random polynomials."""
    while True:
        gens = [random_poly(rng, ring) for _ in range(ring.nvars)]
        gens += [v ** rng.randint(2, 4) for v in ring.gens() if rng.random() < 0.4]
        I = Ideal(ring, gens)
        if I.krull_dimension() == 0:
            break
    return I, Ideal(ring, [random_poly(rng, ring) for _ in range(rng.randint(1, 3))])


def monomials_of_degree_at_most(ring: PolyRing, d: int):
    """All monomials of the ring with total degree <= d, as polynomials."""
    out = []
    for m in itertools.product(range(d + 1), repeat=ring.nvars):
        if sum(m) <= d:
            out.append(ring.monomial(m))
    out.sort(key=lambda f: ring.order.key(f.leading_monomial()))
    return out


def all_f2_combinations(polys):
    """Every F_2-linear combination of the given polynomials (2^len of them)."""
    ring = polys[0].ring
    for mask in range(1 << len(polys)):
        acc = ring.zero()
        for i, f in enumerate(polys):
            if mask >> i & 1:
                acc = acc + f
        yield acc


def assert_spolys_reduce_to_zero(basis):
    """Buchberger's criterion, in the order of the basis's ring."""
    for f, g in itertools.combinations(basis, 2):
        assert normal_form(s_polynomial(f, g), basis).is_zero


def count_buchberger_runs(monkeypatch) -> list:
    """Wrap ``charp.groebner.buchberger``, through which every Groebner
    basis of the library is computed; the returned one-element list counts
    the runs from now on."""
    import charp.groebner

    runs = [0]
    original = charp.groebner.buchberger

    def counting(*args, **kwargs):
        runs[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(charp.groebner, "buchberger", counting)
    return runs


# -- the tuple division kernel, the packed kernel's oracle -----------------------

def _reduce_terms(terms: dict, reds, p: int, key, keycache: dict, quots=None) -> dict:
    """Remainder of the term table ``terms`` (consumed) on division by the
    monic polynomials ``reds``.

    The highest pending term is cancelled by the first reducer whose
    leading monomial divides it, or else moved to the remainder.  Every
    term a step adds lies below the term it cancels, so a remainder term
    is never touched again and the cancelled terms strictly decrease.
    With ``quots``, each step therefore sets a new term of ``quots[i]``,
    the multiple of ``reds[i]`` it took.  ``keycache`` maps monomials to
    their order keys and may be shared across calls on the same ring.
    """
    leads = [g.leading_monomial() for g in reds]
    work = terms
    out: dict = {}
    while work:
        target = None
        for m in work:
            k = keycache.get(m)
            if k is None:
                k = keycache[m] = key(m)
            if target is None or k > target_key:
                target, target_key = m, k
        for i, lm in enumerate(leads):
            for a, b in zip(lm, target):
                if a > b:
                    break
            else:
                break
        else:
            out[target] = work.pop(target)
            continue
        factor = work[target]
        shift = tuple(b - a for a, b in zip(lm, target))
        if quots is not None:
            quots[i][shift] = factor
        for mg, cg in reds[i].terms.items():
            mm = tuple(a + b for a, b in zip(mg, shift))
            s = (work.get(mm, 0) - factor * cg) % p
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return out


def oracle_divide(f, reducers):
    """(quotient tables, remainder table) of f on division by the nonzero
    ``reducers`` through the tuple kernel, each table in the order the
    division wrote it."""
    p = f.ring.p
    quots = [{} for _ in reducers]
    out = _reduce_terms(
        dict(f.terms), [g.monic() for g in reducers], p, f.ring.order.key, {}, quots=quots
    )
    for g, q in zip(reducers, quots):
        inv = pow(g.leading_coefficient(), -1, p)
        for m in q:
            q[m] = q[m] * inv % p
    return quots, out


def oracle_reduced_basis(gb):
    """The reduced basis of the nonempty monic Groebner basis ``gb``, each
    element's tail reduced by the other kept elements through the tuple
    kernel."""
    ring = gb[0].ring
    key = ring.order.key
    kept = []
    for g in sorted(gb, key=lambda h: key(h.leading_monomial())):
        if not any(mono_divides(h.leading_monomial(), g.leading_monomial()) for h in kept):
            kept.append(g)
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        if others:
            g = Polynomial(ring, _reduce_terms(dict(g.terms), others, ring.p, key, {}))
        reduced.append(g)
    return tuple(reversed(reduced))


# -- the tuple Gebauer-Moller update, the packed pair heap's oracle --------------

def oracle_buchberger_pairs(generators):
    """(pairs, basis): the pairs (i, j, lcm) Buchberger reduces, in order,
    with lcm an exponent tuple, and the reduced basis, by a Buchberger run
    whose pair update works on exponent tuples and order keys.

    The elements are numbered in the order found, from the generators
    sorted by ascending lead and reduced by the elements before them, then
    from the nonzero normal forms of the pairs' S-polynomials; every
    element is made monic.  The pending pairs are one heap of (order key
    of the lcm, i, j, lcm), and each new element t with lead lt updates it
    in one Gebauer-Moller pass over lcms[i] = lcm(lm_i, lt) for every
    earlier i, retired ones included: criterion B drops a pending pair (i,
    j, l) when lt divides l and l is neither lcms[i] nor lcms[j]; the alive
    elements' pairs with t are walked by ascending lcm, coprime leads are
    never queued, and any other pair is skipped when the next one has the
    same lcm or an lcm kept before divides its own (criteria F and M);
    last, the elements whose lead lt divides retire."""
    gens = [g for g in generators if not g.is_zero]
    key = gens[0].ring.order.key
    reds, lms, alive, heap, pairs = [], [], [], [], []

    def add_element(h):
        t, lt = len(reds), h.leading_monomial()
        reds.append(h)
        lcms = [mono_lcm(lm, lt) for lm in lms]
        heap[:] = [(k, i, j, l) for k, i, j, l in heap
                   if l in (lcms[i], lcms[j]) or not mono_divides(lt, l)]
        heapq.heapify(heap)
        candidates = sorted((key(l), i, l) for i, l in enumerate(lcms) if alive[i])
        kept = []
        for pos, (k, i, l) in enumerate(candidates):
            if sum(l) != sum(lms[i]) + sum(lt):
                if pos + 1 < len(candidates) and candidates[pos + 1][0] == k:
                    continue
                if any(mono_divides(m, l) for m in kept):
                    continue
                heapq.heappush(heap, (k, i, t, l))
            kept.append(l)
        for i, lm in enumerate(lms):
            if alive[i] and mono_divides(lt, lm):
                alive[i] = False
        lms.append(lt)
        alive.append(True)

    for g in sorted(gens, key=lambda h: key(h.leading_monomial())):
        h = normal_form(g, reds) if reds else g
        if not h.is_zero:
            add_element(h.monic())
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pairs.append((i, j, lcm))
        h = normal_form(s_polynomial(reds[i], reds[j]), reds)
        if not h.is_zero:
            add_element(h.monic())
    return pairs, oracle_reduced_basis([h for h, a in zip(reds, alive) if a])


# -- the Fermat cubic's closed form, the torsion orders' oracle -----------------

def fermat_cubic_remainder(terms: dict, N: int, p: int) -> dict:
    """The remainder of {(a, b, c): coefficient} modulo (x^N, y^N) +
    (x^3 + y^3 + z^3) over F_p, in an order where z^3 leads the cubic
    (lex with z first): the leads z^3, x^N and y^N are pairwise coprime,
    so these generators are a Groebner basis there, and the remainder is
    empty exactly when the input lies in the ideal.

    z^3 is rewritten to -(x^3 + y^3), one level of z at a time from the
    highest, so that every monomial is rewritten once with its collected
    coefficient; a term with x^(>=N) or y^(>=N) is dropped as it appears."""
    levels: dict = {}  # exponent of z -> {(a, b): coefficient}
    for (a, b, c), coeff in terms.items():
        if a < N and b < N:
            level = levels.setdefault(c, {})
            level[a, b] = (level.get((a, b), 0) + coeff) % p
    for c in range(max(levels, default=0), 2, -1):
        below = levels.setdefault(c - 3, {})
        for (a, b), coeff in levels.pop(c, {}).items():
            for m in ((a + 3, b), (a, b + 3)):
                if coeff and max(m) < N:
                    below[m] = (below.get(m, 0) - coeff) % p
    return {(a, b, c): v for c, level in levels.items() for (a, b), v in level.items() if v}


def fermat_cubic_torsion_order(terms: dict, n: int, p: int, j_max: int):
    """The torsion order of [r / (xy)^n] in H^2_m of F_p[x,y,z]/(x^3 +
    y^3 + z^3), r given by its terms: the least j <= j_max with r^(p^j) in
    (x^(n p^j), y^(n p^j)) + (x^3 + y^3 + z^3), else None.  r^(p^j) scales
    every exponent by p^j and keeps the coefficients, by Fermat's little
    theorem."""
    for j in range(j_max + 1):
        q = p**j
        if not fermat_cubic_remainder({tuple(e * q for e in m): c for m, c in terms.items()},
                                      n * q, p):
            return j
    return None


_REFERENCE_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^])|(?P<bad>\S)")


def _reference_integer(text: str, value: str, offset: int) -> int:
    """The numeral ``value`` at ``text[offset]`` as an int; PolyParseError
    when it has more than 4300 digits or is over the interpreter's limit."""
    try:
        if len(value) <= 4300:
            return int(value)
    except ValueError:
        pass
    message = f"numeral of {len(value)} digits is too long"
    raise PolyParseError(message, *_position(text, offset))


def reference_parse_polynomial(ring: PolyRing, text: str, start: int = 0, end: int | None = None) -> Polynomial:
    """Parse ``text[start:end]`` as a polynomial of ``ring``, token by token.

    The token-list parser that ``charp.parse.parse_polynomial`` replaced,
    kept unchanged as the oracle for its results and errors.  Raises
    PolyParseError with a position in the whole ``text``."""
    end = len(text) if end is None else end
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text, start, end):
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
            coeff = _reference_integer(text, value, offset)
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
                exp = _reference_integer(text, value, offset)
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
