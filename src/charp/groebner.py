"""Groebner-basis engine and ideal calculus over F_p[x_1, ..., x_n].

Normal forms, Buchberger completion to the unique reduced basis, ideal
membership, colon ideals, intersections, elimination and dimension.  The
reduced basis for a fixed order is unique, so results do not depend on
generator order.  Everything is taken in the ring's own monomial order,
and each Ideal caches its reduced basis, its Krull dimension and its
basis packed for membership tests (cache writes are idempotent and
therefore safe under concurrent population; a pickle carries the
generators and the basis alone).

Every division (normal forms, Buchberger's reductions, interreduction
and the kernel colon's border reductions) is one loop on packed
monomials, by the monic forms of the divisors, that keeps the remainder
alone (the one quotient the library takes, in :meth:`Ideal.colon`, is
the long division of :func:`charp.poly.divide_exact`).  A divisor is
one entry, (packed lead, packed tail, the monic tail's coefficients),
which :meth:`_Divisors.monic` alone builds, and every division enters
the loop through :meth:`_Divisors.divide`; the loop negates the
coefficient of each term it cancels, and nothing else handles a sign.  Each monomial is
one integer holding the order's weight rows above its exponents, so products
are additions and the order is integer comparison, and the pending terms
sit in a heap, whose highest term is cancelled by the first divisor
whose lead divides it or else moved to the remainder.  The field width
comes from the data (the degrees in play) and is fixed for each packing
of divisors.  A packed computation whose terms outgrow it (lex and block
reductions can raise the degree, and so can an lcm) starts over whole,
from its own inputs, on a new packing twice as wide: a division, a
Buchberger run or a kernel colon.  So no packing changes width while a
computation, or another thread, holds it.  A divisor caches its pack on
itself, which any packing of the same width reuses.  Only membership
tests order their divisors by cost (fewest terms first, ties by
ascending lead): they divide by a reduced basis, whose remainder is the
unique normal form whichever element cancels each term.  Every other
division keeps its list order, on which its remainder by a list that is
not a Groebner basis depends.
A membership test, :meth:`Ideal.contains` of f with exponent e, decides
whether f**(p**e) lies in I without forming the power: packing is linear
and Frobenius is additive over F_p, so it divides f's table with every
packed monomial scaled by p**e, and answers from whether the packed
remainder is empty, with no remainder polynomial built.  Certificates,
census rechecks, parameter checks and Cech torsion orders all ask their
question this way; :meth:`Ideal.remainder`, the one division that keeps
its remainder on the same packing, unpacks it (a torsion order's zero
test at its own level).
Buchberger runs on packed monomials from start to finish: each pair's
S-polynomial is the two basis elements' packed tails, shifted by their
packed lcm minus each packed lead, summed into the table the division
reduces; a nonzero remainder becomes a basis element whose packed entry
is that table, made monic.  The pending pairs sit in one heap keyed by
their packed lcm, which each new element updates in one Gebauer-Moller
pass of integer tests, and the run ends in one interreduction of those
divisors, which unpacks each element of the reduced basis once and leaves
it its packed entry, so membership tests and colons on the basis pack
nothing again.

A colon (I : A) with S/I finite dimensional is the kernel of r -> r*A
on the standard monomials of S/I (the linear algebra of FGLM), taken on
packed monomials too: the staircase sorts as integers, each row is its
parent's row shifted by one variable's unit, and each row is eliminated
from a heap of its pending columns.  The kernel vectors and I's basis
form a Groebner basis of the colon: each kernel vector joins the
divisors as a packed table, and they are interreduced with no Buchberger
run by the routine every Buchberger run ends with; otherwise, and as the
kernel route's oracle, the colon is taken by intersections.
:func:`_eliminate` is the only elimination and builds the library's only
block-order rings: :meth:`Ideal.eliminate`, intersections (and so those
colons) and the Frobenius preimage fallback of :mod:`charp.frobenius`
hand it their generators' term tables in one block ring, with a fresh
variable where they need one, and it reads the kept elements straight
back into their own ring.

No modular or tracing shortcuts and no F4/F5: determinism and correctness
over speed, which is adequate at desk scale.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from functools import cache, partial
from operator import itemgetter, mul

from .poly import (
    Polynomial,
    PolyRing,
    _check_ring,
    block_order,
    check_degree,
    degree_cap,
    divide_exact,
    mono_div,
    mono_lcm,
)


_MIN_WIDTH = 32  # bits per packed field, guard bit included


def _width(degree: int) -> int:
    """The packed field width that holds every exponent and every weight
    of a monomial of total degree <= ``degree`` below its guard bit."""
    width = _MIN_WIDTH
    while degree >> (width - 1):
        width *= 2
    return width


class _Overflow(Exception):
    """A packed term outgrew its fields: it set a guard bit."""


def _restarting(attempt, width: int):
    """``attempt(width)``, started over whole in fields twice as wide each
    time a packed term outgrows them (it raises :class:`_Overflow`)."""
    while True:
        try:
            return attempt(width)
        except _Overflow:
            width *= 2


@cache
def _layout(ring: PolyRing, width: int):
    """(units, guards, unpack) for the monomials of ``ring`` packed into
    ``width``-bit fields.

    A monomial packs into n weight fields, the ring order's non-negative
    weight rows from most to least significant, then its n exponents:
    grevlex weighs (deg, deg - x_n, ..., x_1), lex the exponents, and a
    block order the grevlex rows of its front block, then those of the
    rest.  Every weight is a sum of exponents, so packing is linear: a
    monomial is the sum of its exponents times ``units``, a product is an
    addition, and the order is integer comparison.  The top bit of each
    field is a guard: a | b exactly when ``((b | guards) - a) & guards ==
    guards``, and a sum whose field outgrows the width sets its guard.
    ``unpack`` reads the exponent tuple back off the low fields."""
    n, order = ring.nvars, ring.order
    # grevlex on each block [lo, hi) of variables (lex: blocks of one): its
    # r-th row is field lo + r and sums x_lo, ..., x_(hi-1-r)
    k = min(order.block or 0, n)
    blocks = [(i, i + 1) for i in range(n)] if order.kind == "lex" else [(0, k), (k, n)]
    one = [1 << (2 * n - 1 - f) * width for f in range(2 * n)]  # a 1 in each field
    units = tuple(sum(one[lo:lo + hi - i]) + one[n + i] for lo, hi in blocks for i in range(lo, hi))
    guards = sum(one) << (width - 1)
    low = (1 << n * width) - 1
    if width in (32, 64):
        fmt = struct.Struct(f">{n}{'I' if width == 32 else 'Q'}")
        size = n * width // 8

        def unpack(t: int) -> tuple:
            return fmt.unpack((t & low).to_bytes(size, "big"))
    else:
        mask = (1 << width) - 1
        shifts = [(n - 1 - i) * width for i in range(n)]

        def unpack(t: int) -> tuple:
            return tuple(t >> s & mask for s in shifts)
    return units, guards, unpack


class _Divisors:
    """Nonzero polynomials in list order, the divisors of
    :func:`_reduce_terms` (which divides by their monic forms), packed in
    one field width (see :func:`_layout`), by default the least that holds
    each of them; Buchberger and the kernel colon append the elements they
    find as packed entries alone, with no polynomial.  The list order is
    the order in which divisors are tried: the caller's, except for the
    divisors an :class:`Ideal` caches for membership, which it orders by
    cost.

    The width is fixed at construction, and so are ``units``, ``guards``
    and ``unpack``; ``entries`` (one per divisor) and ``top``, the highest
    packed lead, change only as :meth:`append_remainder` adds a divisor,
    or as :func:`_reduced_basis` narrows ``entries`` to the elements it
    keeps on a packing it consumes.  A computation that outgrows the
    width starts over on a new, wider packing, so a packing that readers
    share never changes under them.  Each polynomial caches its pack in
    its ``_pk`` slot as (width, entry), where the entry is (packed lead,
    packed tail, the monic form's tail coefficients) as :meth:`monic`
    builds every entry, and a packing reuses the cached entry exactly when
    its width is the same (and packs again, replacing it, otherwise): so
    a basis that Buchberger or a colon returns, whose elements keep the
    entries they were built with, is not packed again."""

    __slots__ = ("ring", "polys", "width", "units", "guards", "unpack", "entries", "top")

    def __init__(self, ring: PolyRing, polys=(), width: int = 0):
        self.ring = ring
        self.polys = list(polys)
        self.width = width or _width(max([g.total_degree() for g in self.polys], default=0))
        self.units, self.guards, self.unpack = _layout(ring, self.width)
        self.entries = [self._entry(g) for g in self.polys]
        self.top = max([e[0] for e in self.entries], default=-1)

    def _entry(self, g: Polynomial) -> tuple:
        pk = g._pk
        if pk is None or pk[0] != self.width:
            table = self.pack(g.terms)
            pk = g._pk = (self.width, self.monic(max(table), table))
        return pk[1]

    def monic(self, lead: int, table: dict) -> tuple:
        """The entry of the nonzero packed table ``table`` (consumed), whose
        highest key is ``lead``: (packed lead, packed tail, the tail's
        coefficients times the inverse of the lead's), the tail in the
        table's order.  Every entry of every packing is built here."""
        p = self.ring.p
        inv = pow(table.pop(lead), -1, p)
        return lead, tuple(table), tuple([c * inv % p for c in table.values()])

    def divide(self, work: dict) -> dict:
        """The remainder of the packed table ``work`` (consumed) on division
        by the entries, in list order (see :func:`_divide_packed`)."""
        return _divide_packed(work, self.entries, self.top, self.guards, self.ring.p)

    def pack(self, terms: dict, scale: int = 1) -> dict:
        """The term table ``terms``, its exponents multiplied by ``scale``,
        as a table keyed by packed monomial (packing is linear, so a scaled
        monomial packs by the units times ``scale``)."""
        units = self.units if scale == 1 else [u * scale for u in self.units]
        return {sum(map(mul, m, units)): c for m, c in terms.items()}

    def degree(self, terms) -> int:
        """The highest total degree of the packed monomials ``terms``."""
        return max(sum(self.unpack(t)) for t in terms)

    def append_remainder(self, table: dict) -> tuple:
        """Add, after the others, the entry of ``table``, a nonzero packed
        remainder in this packing's width and in descending order
        (consumed), scaled to monic, and return its unpacked lead; for a
        list no other reader holds.  Only the entry is kept, with no
        polynomial (:func:`_reduced_basis` unpacks the basis it keeps);
        under a degree cap, the table's degree counts against it."""
        if degree_cap() is not None:
            check_degree(self.degree(table))
        lead = next(iter(table))
        self.entries.append(self.monic(lead, table))
        self.top = max(self.top, lead)
        return self.unpack(lead)


def _reduce_terms(terms: dict, divs: _Divisors, scale: int = 1) -> tuple:
    """(remainder, packing): the remainder of the term table ``terms``, its
    exponents multiplied by ``scale``, on division by the monic forms of
    the polynomials ``divs``, as a new packed table in descending order,
    and the packing of the divisors it is packed in, ``divs`` itself or a
    wider one.  The remainder must be read with that packing's ``unpack``.

    The terms are packed (see :func:`_layout`) in the divisors' field
    width, or in fields wide enough for the scaled table's degree; packing
    is linear, so a scaled monomial packs by the units times ``scale``,
    and over F_p the table of f scaled by q = p**e is the table of f**q
    (its coefficients stay fixed, as c**p = c).  Pending terms live in a
    table keyed by packed monomial and in a heap of negated keys, so the
    highest pending term is popped next; it is cancelled by the first
    divisor in list order whose lead divides it, or else moved to the
    remainder.  Every term a step adds lies below the term it cancels, so
    each key enters the heap once, a remainder term is never touched
    again, and a divisor whose lead lies above the popped term never
    divides a later one.

    Under grevlex no new term outgrows the input's degree, but under lex
    and block orders one can (x^N by x - y^2 gives y^(2N)): a new key
    with a guard bit set stops the division, which starts over on the
    divisors packed again in fields twice as wide."""
    degree = max(map(sum, terms), default=0) * scale
    return _restarting(partial(_reduce_attempt, terms, divs, scale), max(divs.width, _width(degree)))


def _reduce_attempt(terms: dict, divs: _Divisors, scale: int, width: int) -> tuple:
    """One attempt of :func:`_reduce_terms`, in ``width``-bit fields."""
    if width != divs.width:
        divs = _Divisors(divs.ring, divs.polys, width)
    return divs.divide(divs.pack(terms, scale)), divs


def _divide_packed(work: dict, entries: list, floor: int, guards: int, p: int) -> dict:
    """The loop of :func:`_reduce_terms` on the packed table ``work``
    (consumed), by the divisor entries (packed lead, packed tail, monic
    tail coefficients) whose highest lead is ``floor``, called only by
    :meth:`_Divisors.divide`; raises :class:`_Overflow` when a new term
    outgrows the field width.  A term c*t cancelled by an entry adds
    (p - c) times its tail, shifted by t minus its lead.  Each popped term
    is tested against the entries in their order until one lead divides
    it, so the order sets the number of tests per term; for a Groebner
    basis it does not change the remainder."""
    heap = [-t for t in work]
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, work.get
    out: dict = {}
    while heap:
        t = -pop(heap)
        c = work.pop(t)
        if not c:
            continue
        if t < floor:
            entries = [e for e in entries if e[0] <= t]
            floor = max([e[0] for e in entries], default=-1)
        tg = t | guards
        for lead, ms, cs in entries:
            if (tg - lead) & guards == guards:
                break
        else:
            out[t] = c
            continue
        shift = t - lead
        c = p - c
        for m, mc in zip(ms, cs):
            m += shift
            old = get(m)
            if old is None:
                if m & guards:
                    raise _Overflow
                work[m] = c * mc % p
                push(heap, -m)
            else:
                work[m] = (old + c * mc) % p
    return out


def normal_form(f: Polynomial, reducers) -> Polynomial:
    """Remainder of f on division by ``reducers``; no term of the result is
    divisible by any reducer's leading monomial, and f - result lies in the
    ideal the reducers generate.  Deterministic: the highest pending term
    is cancelled first, by the first divisor in list order, or else set
    aside as a remainder term.  The remainder depends on that order
    unless the reducers are a Groebner basis, whose remainder is the
    unique normal form.  No library path divides through here: an
    :class:`Ideal` divides on its cached packed divisors, and
    :meth:`Ideal.contains` reads only whether the packed remainder is
    empty, while :meth:`Ideal.remainder` unpacks it; this is their
    oracle."""
    reducers = list(reducers)
    _check_ring(f.ring, *reducers)
    if any(g.is_zero for g in reducers):
        raise ValueError("zero polynomial among reducers")
    if not reducers:
        return f
    out, divs = _reduce_terms(f.terms, _Divisors(f.ring, reducers))
    unpack = divs.unpack
    return Polynomial(f.ring, {unpack(t): c for t, c in out.items()})


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial (l/lt(f))*f - (l/lt(g))*g, l the lcm of the leading
    monomials: the public helper for Buchberger's criterion, and the oracle
    of the packed S-polynomials :func:`buchberger` forms itself (see
    :func:`_s_remainder`)."""
    ring = f.ring
    p = ring.p
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lmf, lmg)
    cf = pow(f.terms[lmf], -1, p)
    cg = pow(g.terms[lmg], -1, p)
    return f * ring.monomial(mono_div(lcm, lmf), cf) - g * ring.monomial(mono_div(lcm, lmg), cg)


def _s_remainder(divs: _Divisors, i: int, j: int, lcm: int) -> dict:
    """The remainder of ``_reduce_terms(s_polynomial(f, g).terms, divs)``
    for the monic divisors f and g whose packed entries are
    ``divs.entries[i]`` and ``divs.entries[j]``, with leads of packed lcm
    ``lcm``, formed on those entries: a packed table in descending order,
    in the divisors' width.

    The shifts are the packed lcm minus each packed lead, and the table is
    f's shifted tail minus g's; terms that cancel are dropped.  A guard
    bit set by the lcm, a shifted term or the division raises
    :class:`_Overflow`: the Buchberger run starts over.  The multiples of
    f and g count against the degree cap, as the polynomials of
    :func:`s_polynomial` do; their degrees are read off the entries."""
    p, guards, entries = divs.ring.p, divs.guards, divs.entries
    if degree_cap() is not None:
        check_degree(divs.degree([lcm]) + max(divs.degree((e[0],) + e[1]) - divs.degree([e[0]])
                                              for e in (entries[i], entries[j])))
    (lf, msf, csf), (lg, msg, csg) = entries[i], entries[j]
    over = lcm
    shift = lcm - lf
    work = {m + shift: c for m, c in zip(msf, csf)}
    shift = lcm - lg
    for m, c in zip(msg, csg):
        m += shift
        c = (work.get(m, 0) - c) % p
        if c:
            work[m] = c
        else:
            del work[m]
    for m in work:
        over |= m
    if over & guards:
        raise _Overflow
    return divs.divide(work)


def _reduced_basis(divs: _Divisors) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis of the ideal generated by the divisors
    ``divs``, nonempty and monic, whose leads generate its initial ideal (a
    Groebner basis, perhaps with extra elements, as Buchberger's retired
    ones), sorted by descending leading monomial.  ``divs`` is consumed:
    its entries are narrowed to the kept ones, which then divide.

    On the divisors' packed entries, the elements are walked by ascending
    packed lead (a divisor of a monomial comes before it in every term
    order), and each one whose lead is divisible by a lead already kept is
    dropped; each kept element's packed tail is then reduced by the kept
    entries, and only the result is unpacked, once, into a polynomial
    that keeps the result as its packed entry in the same width: the only
    polynomials a Buchberger run or a kernel colon builds.  Every pending
    term lies below the element's own lead, which therefore divides none
    of them, so the tail is reduced by the other kept elements; their
    leads form an antichain and they are monic, so no lead is cancelled
    or rescaled.  A
    reduction that outgrows the fields (under lex or block orders) raises
    :class:`_Overflow`, and the computation that built the divisors starts
    over from its inputs."""
    guards = divs.guards
    kept: list = []  # the kept entries, by ascending lead
    for e in sorted(divs.entries, key=itemgetter(0)):
        lg = e[0] | guards
        if not any((lg - k[0]) & guards == guards for k in kept):
            kept.append(e)
    divs.entries, divs.top, unpack = kept, kept[-1][0], divs.unpack
    basis = []
    for lead, ms, cs in kept:
        out = divs.divide(dict(zip(ms, cs)))
        lm = unpack(lead)
        terms = {lm: 1}
        terms.update(zip(map(unpack, out), out.values()))
        g = Polynomial(divs.ring, terms)
        g._lm = lm
        out[lead] = 1
        g._pk = (divs.width, divs.monic(lead, out))
        basis.append(g)
    return tuple(reversed(basis))


def buchberger(generators) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of the given generators.

    Pair selection follows the normal strategy (smallest lcm in the order,
    ties by pair index): the pending pairs are one heap of (packed lcm, i,
    j), so the order is integer comparison.  Each new element updates the
    heap in one Gebauer-Moller pass, which subsumes the coprime and chain
    criteria and retires basis elements whose lead becomes redundant; its
    tests are the guard-bit divisibility test of :func:`_layout` and
    integer equality.  Each pair's S-polynomial is formed on packed
    monomials from the basis' packed divisors and reduced in the same
    table (see :func:`_s_remainder`), and a nonzero remainder becomes a
    basis element straight from that table.  The divisors, retired
    elements included, are then interreduced (see :func:`_reduced_basis`):
    a retired element's lead is divisible by a smaller lead found later,
    so the interreduction drops it.  The result is monic, mutually
    reduced, sorted by descending leading monomial and packed; the zero
    ideal yields the empty basis.

    The run packs in the least field width that holds the generators.
    When a term outgrows it (under lex or block orders, or a grevlex lcm
    of degree past the width), the run starts over from the generators in
    fields twice as wide; the packed order does not depend on the width,
    so the wider run reduces the same pairs in the same order.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    _check_ring(gens[0].ring, *gens)
    return _restarting(partial(_buchberger_attempt, gens), _width(max(g.total_degree() for g in gens)))


def _buchberger_attempt(gens: list, width: int) -> tuple[Polynomial, ...]:
    """One run of :func:`buchberger` on the nonzero ``gens``, on new
    divisors in ``width``-bit fields; raises :class:`_Overflow` when a
    term outgrows them."""
    ring = gens[0].ring
    divs = _Divisors(ring, (), width)  # the monic basis elements, in order found
    units, entries = divs.units, divs.entries
    guards = divs.guards & (1 << ring.nvars * width) - 1  # the exponent fields' guards
    lms: list = []  # their leading monomials
    alive: list[bool] = []
    heap: list = []  # (packed lcm, i, j), one per pending pair

    def settle(table):
        """For a nonzero packed remainder ``table``: append its monic
        polynomial as element t with packed lead lt, and update the pairs
        in one Gebauer-Moller pass over lcms[i] = lcm(lead_i, lt) for
        every earlier i, retired ones included, as criterion B reads them:
        B drops a pending pair (l, i, j) when lt divides l and l is neither
        lcms[i] nor lcms[j].  The alive elements' pairs with t are then
        walked by ascending lcm: coprime leads (lcm = lead_i + lt, packed)
        are never queued, and any other pair is skipped when the next one
        has the same lcm or an lcm kept before divides its own (criteria F
        and M).  Last, the elements whose lead lt divides retire.

        The divisibility tests read only the exponent fields' guards: an
        lcm's weights can reach their guard bits (the weights of both
        leads add up in a coprime lcm), its exponents never do."""
        if not table:
            return
        t = len(entries)
        lm = divs.append_remainder(table)
        lt = entries[t][0]
        lcms = [sum(map(mul, map(max, m, lm), units)) for m in lms]
        heap[:] = [(l, i, j) for l, i, j in heap
                   if l == lcms[i] or l == lcms[j] or ((l | guards) - lt) & guards != guards]
        heapq.heapify(heap)
        candidates = sorted((l, i) for i, l in enumerate(lcms) if alive[i])
        kept: list = []  # the lcms kept so far, ascending
        for pos, (l, i) in enumerate(candidates):
            if l != entries[i][0] + lt:
                if pos + 1 < len(candidates) and candidates[pos + 1][0] == l:
                    continue
                lg = l | guards
                if any((lg - k) & guards == guards for k in kept):
                    continue
                heapq.heappush(heap, (l, i, t))
            kept.append(l)
        for i in range(t):
            if alive[i] and ((entries[i][0] | guards) - lt) & guards == guards:
                alive[i] = False
        lms.append(lm)
        alive.append(True)

    # seed with the interreduced input: redundant generators (common in
    # bracket-power lists) reduce to zero here and never enter the queue
    for g in sorted(gens, key=lambda h: ring.order.key(h.leading_monomial())):
        settle(divs.divide(divs.pack(g.terms)))

    while heap:
        lcm, i, j = heapq.heappop(heap)
        settle(_s_remainder(divs, i, j, lcm))
    return _reduced_basis(divs)


def _staircase_rows(index, gens, divs: _Divisors) -> list:
    """The rows of :meth:`Ideal._colon_by_kernel`: for each packed standard
    monomial s, the keys of ``index`` in ascending order, the packed normal
    forms of s*a for the generators a in ``gens``, by the divisors
    ``divs``; raises :class:`_Overflow` when a reduction outgrows their
    field width."""
    width, units, p = divs.width, divs.units, divs.ring.p
    last = len(units) - 1
    nfs = {t: ((t, 1),) for t in index}  # packed monomial -> its normal form
    # the first standard monomial is 1
    rows = [[divs.divide(divs.pack(a.terms)) for a in gens]]
    for t in itertools.islice(index, 1, None):
        # x_j, the last variable of t, owns t's lowest set bit
        u = units[last - ((t & -t).bit_length() - 1) // width]
        row = []
        for vec in rows[index[t - u]]:
            out: dict = {}
            for b, c in vec.items():
                m = b + u
                nf = nfs.get(m)
                if nf is None:
                    nf = nfs[m] = tuple(divs.divide({m: 1}).items())
                for mm, cc in nf:
                    v = (out.get(mm, 0) + c * cc) % p
                    if v:
                        out[mm] = v
                    else:
                        del out[mm]
            row.append(out)
        rows.append(row)
    return rows


def _colon_attempt(gb: tuple, staircase: list, gens, width: int) -> tuple[Polynomial, ...]:
    """One attempt of :meth:`Ideal._colon_by_kernel`: the reduced basis of
    (I : A) for I with reduced basis ``gb`` and standard monomials
    ``staircase``, and A generated by ``gens``, on new divisors in
    ``width``-bit fields; raises :class:`_Overflow` when a term outgrows
    them."""
    p = gb[0].ring.p
    divs = _Divisors(gb[0].ring, gb, width)
    stairs = sorted(sum(map(mul, s, divs.units)) for s in staircase)
    index = {t: k for k, t in enumerate(stairs)}
    rows = _staircase_rows(index, gens, divs)

    # column i*n + k holds staircase monomial k of part i, column -1-k
    # the unit vector of row k
    n = len(stairs)
    pivots: dict = {}  # leading column -> the rest of its row, scaled to lead 1
    for k, row in enumerate(rows):
        vec = {i * n + index[b]: c for i, part in enumerate(row) for b, c in part.items()}
        heap = [-c for c in vec]
        heapq.heapify(heap)
        vec[-1 - k] = 1
        while heap:
            col = -heapq.heappop(heap)
            factor = vec[col]
            if not factor:
                continue
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(factor, -1, p)
                pivots[col] = [(c, v * inv % p) for c, v in vec.items() if v and c != col]
                break
            del vec[col]
            for c, v in pivot:
                old = vec.get(c)
                if old is None:
                    vec[c] = -factor * v % p
                    if c >= 0:
                        heapq.heappush(heap, -c)
                else:
                    vec[c] = (old - factor * v) % p
        else:  # ascending columns: the packed monomials descending
            divs.append_remainder({stairs[-1 - c]: vec[c] for c in sorted(vec) if c < 0 and vec[c]})
    return _reduced_basis(divs)


def _standard_monomials(lms, nvars: int) -> list:
    """The monomials in ``nvars`` variables divisible by none of ``lms``,
    in ascending lex order.  Raises ValueError unless ``lms`` generate a
    monomial ideal of dimension <= 0, i.e. hold the lead 1 or a pure
    power of every variable (otherwise the staircase is infinite).

    Each prefix carries only the leads its exponents cover; among those,
    the ones with no exponent after the current variable bound its run,
    and the last variable's run is emitted as one range."""
    supports = {frozenset(i for i, e in enumerate(lm) if e) for lm in lms}
    if frozenset() not in supports and any(frozenset((i,)) not in supports for i in range(nvars)):
        raise ValueError("the leading monomials generate a positive-dimensional ideal")
    # (lead, index of its last nonzero exponent), -1 for the lead 1
    leads = [(lm, max((i for i, e in enumerate(lm) if e), default=-1)) for lm in lms]
    out: list = []

    def walk(prefix: tuple, i: int, active: list) -> None:
        run = min(lm[i] for lm, last in active if last <= i)
        if i + 1 == nvars:
            out.extend(prefix + (e,) for e in range(run))
            return
        for e in range(run):
            walk(prefix + (e,), i + 1, [(lm, last) for lm, last in active if lm[i] <= e])

    walk((), 0, leads)
    return out


def _dimension_of(gb, nvars: int) -> int:
    """Dimension of S/I for I with reduced basis ``gb``, via independent
    variable sets modulo the initial ideal; -1 for the unit ideal."""
    if not gb:
        return nvars
    supports = [
        frozenset(i for i, e in enumerate(g.leading_monomial()) if e) for g in gb
    ]
    if frozenset() in supports:  # a unit leads the basis
        return -1
    for size in range(nvars, 0, -1):
        for subset in itertools.combinations(range(nvars), size):
            chosen = set(subset)
            if not any(s <= chosen for s in supports):
                return size
    return 0


def _fresh_variable(ring: PolyRing, stem: str) -> str:
    """The first of stem0, stem1, ... that ``ring`` has no variable of."""
    return next(f"{stem}{i}" for i in itertools.count() if f"{stem}{i}" not in ring._index)


def _eliminate(ring: PolyRing, variables: tuple, k: int, tables, back) -> "Ideal":
    """The ideal generated by the term tables ``tables`` in F_p[variables],
    under the block order whose front block is the first ``k`` variables,
    intersected with the subring of the other variables and read back into
    ``ring`` by ``back``, which maps a monomial with no front exponent to
    one of ``ring``.

    The block order makes any monomial with a front exponent larger than
    every monomial without one, so the elements of the reduced basis whose
    leads have no front exponent generate the intersection (the
    elimination theorem; Cox, Little and O'Shea, ch. 3, sect. 1).  The
    block ring is the only ring this builds, and each kept term is
    remapped once."""
    block = PolyRing(ring.p, variables, block_order(k), internal=True)
    gb = buchberger([Polynomial(block, table) for table in tables])
    return Ideal(ring, [Polynomial(ring, {back(m): c for m, c in h.terms.items()})
                        for h in gb if not any(h.leading_monomial()[:k])])


class Ideal:
    """An ideal of a PolyRing, given by generators (zero generators dropped)."""

    __slots__ = ("ring", "gens", "_gb", "_dim", "_divs")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(g for g in gens if not g.is_zero)
        _check_ring(ring, *gens)
        self.ring = ring
        self.gens = gens
        self._gb: tuple[Polynomial, ...] | None = None
        self._dim: int | None = None
        self._divs: _Divisors | None = None  # the basis' packed divisors

    def __getstate__(self):
        return self.ring, self.gens, self._gb  # the other caches are rebuilt on use

    def __setstate__(self, state):
        self.ring, self.gens, self._gb = state
        self._dim = self._divs = None

    def __repr__(self):
        return f"Ideal({', '.join(map(str, self.gens)) or '0'})"

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = buchberger(self.gens)  # idempotent: the reduced basis is unique
        return self._gb

    # -- membership ----------------------------------------------------------

    def contains(self, f: Polynomial, e: int = 0) -> bool:
        """Whether f**(p**e) lies in the ideal: the remainder of its
        division by the cached divisors of the reduced basis is empty.

        The power is never formed.  Over F_p, (sum c*m)**(p**e) is
        sum c*m**(p**e), and packing is linear, so the table divided is f's
        own table with every packed monomial times p**e (see
        :func:`_reduce_terms`), in fields that hold p**e * deg f; the
        remainder stays packed and is only tested for emptiness, and is
        read only with the packing it is in.  Under a degree cap, the power's degree and a nonempty
        remainder's degree count against it, as they do when the oracle,
        ``normal_form(frobenius_power(f, e), basis)``, forms them.

        The divisors are cost-ordered: fewest terms first, ties by
        ascending lead.  The remainder on division by a Groebner basis does
        not depend on which element cancels each term (it is the unique
        normal form), so the order changes only the work: the short
        elements, which cancel most terms of a p^e-th power, are tried
        first.

        The divisors are packed once per width.  When a division needs
        wider fields, it divides on a new, wider packing, which becomes the
        cached one if it is wider than the one cached then: a packing that
        another membership test holds never changes under it, and a narrow
        packing never replaces a wider one."""
        return not self._divide(f, e)[0]

    def remainder(self, f: Polynomial) -> Polynomial:
        """The normal form of f modulo the ideal: the remainder whose
        emptiness :meth:`contains` tests, on the same cached packing,
        unpacked.  ``normal_form(f, self.groebner_basis())`` is its
        oracle."""
        out, divs = self._divide(f)
        unpack = divs.unpack
        return Polynomial(self.ring, {unpack(t): c for t, c in out.items()})

    def _divide(self, f: Polynomial, e: int = 0) -> tuple:
        """(remainder, packing) of f**(p**e) on the cached divisors, as
        :func:`_reduce_terms` returns them: the one division of
        :meth:`contains` and :meth:`remainder`."""
        _check_ring(self.ring, f)
        if e < 0:
            raise ValueError(f"Frobenius exponent must be non-negative, got {e}")
        q = self.ring.p ** e
        capped = degree_cap() is not None
        if capped:
            check_degree(q * f.total_degree())
        gb = self.groebner_basis()
        divs = self._divs
        if divs is None:  # idempotent, as the basis is
            divs = self._divs = _Divisors(self.ring, sorted(reversed(gb), key=lambda g: len(g.terms)))
        out, divs = _reduce_terms(f.terms, divs, scale=q)
        if divs.width > self._divs.width:
            self._divs = divs
        if out and capped:
            check_degree(divs.degree(out))
        return out, divs

    def __contains__(self, f: Polynomial) -> bool:
        return self.contains(f)

    def is_subset_of(self, other: "Ideal") -> bool:
        _check_ring(self.ring, other)
        return all(other.contains(g) for g in self.gens)

    def equals(self, other: "Ideal") -> bool:
        _check_ring(self.ring, other)
        return self.groebner_basis() == other.groebner_basis()

    def __add__(self, other: "Ideal") -> "Ideal":
        _check_ring(self.ring, other)
        return Ideal(self.ring, self.gens + other.gens)

    # -- colon, intersection, elimination -------------------------------------

    def colon(self, f: Polynomial) -> "Ideal":
        """(self : f) = {g : g*f in self}, via intersection with (f)."""
        if f.is_zero:
            raise ValueError("colon by the zero polynomial")
        meet = self.intersect(Ideal(self.ring, [f]))
        return Ideal(self.ring, [divide_exact(g, f) for g in meet.gens])

    def colon_ideal(self, other: "Ideal") -> "Ideal":
        """(self : other) = {r : r*a in self for every a in other}.

        When ``krull_dimension() == 0``, self plus the kernel of
        r -> (r*a_1, ..., r*a_m) on S/self: one sparse elimination over F_p,
        whose kernel vectors are interreduced with self's basis, with no
        Buchberger run (see :meth:`_colon_by_kernel`).  Otherwise the
        intersection of (self : g) over the generators g of ``other``, which
        is also the kernel route's oracle in the tests."""
        _check_ring(self.ring, other)
        if not other.gens:  # colon by the zero ideal is the unit ideal
            return Ideal(self.ring, [self.ring.one()])
        if any(g.total_degree() == 0 for g in other.gens):  # colon by (1)
            return self
        if self.krull_dimension() == 0:
            return self._colon_by_kernel(other)
        result = None
        for g in other.gens:
            piece = self.colon(g)
            result = piece if result is None else result.intersect(piece)
        return result

    def _colon_by_kernel(self, other: "Ideal") -> "Ideal":
        """(self : other) for zero-dimensional self, by linear algebra in
        S/self (the FGLM linear algebra), with no Buchberger run.

        The rows are the normal forms of s*a_1, ..., s*a_m side by side, one
        row per standard monomial s, on packed monomials (see
        :func:`_layout`) in fields that hold the staircase's products and
        A's generators: the staircase is visited in ascending order, which
        for packed monomials is integer order.  A parent s/x_j (packed,
        s - units[j]) is smaller than s, so it comes first, and s's row is
        its parent's row times x_j, an addition of ``units[j]`` per term,
        where a product outside the staircase is a border monomial reduced
        once per call.  A reduction that outgrows the fields (under lex or
        block orders) starts the colon over from self's basis alone, in
        fields twice as wide (see :func:`_colon_attempt`).

        Each row, augmented by its unit vector in the negative columns, is
        top-reduced against the earlier rows that stayed independent, its
        pending columns popped highest first from a heap; a row left with
        only negative columns gives s + (a combination of earlier
        independent monomials) in the colon.  Dependent rows never become
        pivots, so that tail holds only independent monomials, which are
        the standard monomials of the colon: the vector has lead s and is
        already reduced.  Its packed table joins the divisors after self's
        basis (:meth:`_Divisors.append_remainder`).

        The leads of the kernel vectors and of self's basis generate the
        colon's initial ideal, so the kernel vectors and I's basis form a
        Groebner basis of the colon, and :func:`_reduced_basis` interreduces
        the divisors."""
        gb = self.groebner_basis()
        staircase = _standard_monomials([g.leading_monomial() for g in gb], self.ring.nvars)
        degree = max(map(sum, staircase)) + 1 + max(a.total_degree() for a in other.gens)
        width = _width(max([degree] + [g.total_degree() for g in gb]))
        result = Ideal(self.ring, _restarting(partial(_colon_attempt, gb, staircase, other.gens), width))
        result._gb = result.gens
        return result

    def intersect(self, other: "Ideal") -> "Ideal":
        """Tag-variable intersection: eliminate a fresh t from t*I + (1-t)*K,
        in the block ring with t alone in front of the ring's variables
        (see :func:`_eliminate`)."""
        _check_ring(self.ring, other)
        ring = self.ring
        p = ring.p
        tables = [{(1,) + m: c for m, c in g.terms.items()} for g in self.gens]
        for g in other.gens:
            table = {(0,) + m: c for m, c in g.terms.items()}
            table.update(((1,) + m, p - c) for m, c in g.terms.items())
            tables.append(table)
        variables = (_fresh_variable(ring, "_t"),) + ring.variables
        return _eliminate(ring, variables, 1, tables, lambda m: m[1:])

    def eliminate(self, front_vars) -> "Ideal":
        """self ∩ F_p[variables not in front_vars], as an ideal of the same ring.

        The basis is taken in the block ring with ``front_vars`` moved to
        the front and the other variables kept in their order (see
        :func:`_eliminate`)."""
        front = tuple(front_vars)
        for v in front:
            if v not in self.ring._index:
                raise ValueError(f"unknown variable {v!r}")
        if not front:
            return Ideal(self.ring, self.gens)
        ring = self.ring
        perm = [ring._index[v] for v in front] + [i for i, v in enumerate(ring.variables) if v not in front]
        slot = [perm.index(i) for i in range(ring.nvars)]  # each ring variable's block position
        tables = [{tuple(m[i] for i in perm): c for m, c in g.terms.items()} for g in self.gens]
        variables = tuple(ring.variables[i] for i in perm)
        return _eliminate(ring, variables, len(front), tables, lambda m: tuple(m[i] for i in slot))

    # -- dimension -------------------------------------------------------------

    def krull_dimension(self) -> int:
        """Dimension of S/self, computed once (see :func:`_dimension_of`)."""
        if self._dim is None:
            self._dim = _dimension_of(self.groebner_basis(), self.ring.nvars)
        return self._dim
