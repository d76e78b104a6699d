"""The packed division kernel against the tuple kernel it replaced.

Remainders and reduced bases must equal the oracle's in ``support`` term
for term, in the order the division writes them."""

import itertools
import random
import sys
from operator import mul

import pytest

from charp import (
    GREVLEX,
    LEX,
    DegreeCapExceeded,
    Ideal,
    PolyRing,
    Polynomial,
    RingMismatchError,
    block_order,
    buchberger,
    frobenius_power,
    normal_form,
    set_degree_cap,
)
from charp.groebner import _Divisors, _layout, _reduced_basis
from support import (
    oracle_divide,
    oracle_reduced_basis,
    random_form,
    random_poly,
    random_zero_dimensional_colon,
)

ORDERS = (GREVLEX, LEX, block_order(1), block_order(2))


def _items(terms) -> list:
    return list(terms.items())


def assert_division_matches_oracle(f, reducers):
    assert _items(normal_form(f, reducers).terms) == _items(oracle_divide(f, reducers)[1])


def _non_reduced_basis(rng, basis):
    """``basis`` made monic and padded with monic ideal members (variable
    multiples and sums of its elements): still a Groebner basis, but not
    reduced."""
    ring = basis[0].ring
    extra = []
    for _ in range(rng.randint(0, 3)):
        g = rng.choice(basis) * rng.choice(ring.gens())
        if rng.random() < 0.5:
            g = g + rng.choice(basis)
        if not g.is_zero:
            extra.append(g.monic())
    gb = [g.monic() for g in basis] + extra
    rng.shuffle(gb)
    return gb


def test_division_and_reduced_bases_match_the_tuple_kernel():
    rng = random.Random(20260419)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7])
        order = rng.choice(ORDERS)
        ring = PolyRing(p, "xyzw"[:rng.randint(1, 4)], order)
        reducers = [g for g in (random_poly(rng, ring, 3, 4) for _ in range(rng.randint(1, 3)))
                    if not g.is_zero] or [ring.gens()[0]]
        f = random_poly(rng, ring, max_degree=6, max_terms=6)
        assert_division_matches_oracle(f, reducers)
        basis = buchberger(random_poly(rng, ring, 2, 3) for _ in range(rng.randint(1, 3)))
        assert_division_matches_oracle(f, basis)
        gb = _non_reduced_basis(rng, basis)
        assert [_items(g.terms) for g in _reduced_basis(_Divisors(ring, gb))] == [
            _items(g.terms) for g in oracle_reduced_basis(gb)
        ]


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_exponents_beyond_two_to_the_64(order):
    ring = PolyRing(3, ["x", "y", "z"], order)
    x, y, z = ring.gens()
    f = x ** (2**70) * y + 2 * z ** (2**65)
    reducers = [x ** (2**69) - y, z ** (2**64) * y - x]
    assert_division_matches_oracle(f, reducers)
    assert normal_form(x ** (2**70) * y, [x ** (2**69) - y]) == y**3


@pytest.mark.parametrize("order", [LEX, block_order(1)], ids=str)
def test_output_exponents_outgrow_the_input(order):
    ring = PolyRing(5, ["x", "y", "z"], order)
    x, y, z = ring.gens()
    # x^N by x - y^2 gives y^(2N): every exponent of the remainder
    # exceeds every exponent of the input
    assert_division_matches_oracle(x**40, [x - y**2])
    assert normal_form(x**40, [x - y**2]) == y**80
    # remainders past twice the 32-bit and the 64-bit fields the input fits in
    for k in (30, 62):
        assert_division_matches_oracle(x**5 + z, [x - 2 * y ** (2**k) * z, y ** (3 * 2**k) - z])
        assert normal_form(x**5, [x - y ** (2**k)]) == y ** (5 * 2**k)


def test_degree_cap_fires_on_the_remainder():
    ring = PolyRing(5, ["x", "y"], LEX)
    x, y = ring.gens()
    f, g = x**3, x - y**4  # degrees 3 and 4, remainder y^12
    set_degree_cap(10)
    try:
        with pytest.raises(DegreeCapExceeded):
            normal_form(f, [g])
        with pytest.raises(DegreeCapExceeded):  # Buchberger's seeding remainder
            buchberger([g, f])
        with pytest.raises(DegreeCapExceeded):
            Ideal(ring, [g]).contains(f)
        assert normal_form(x**2, [g]) == y**8
    finally:
        set_degree_cap(None)


def test_degree_cap_fires_on_an_s_pair_remainder():
    """Under lex, x*y + 2*y^3 and x^4 + 3*y^4 seed with no remainder over
    degree 4, and their pair's multiples have degree 6, but the pair's
    remainder, a new basis element, is y^9 + 3*y^5: a cap of 8 fires on
    its degree 9, before the next pair's multiples of degree 11 would."""
    ring = PolyRing(5, ["x", "y"], LEX)
    x, y = ring.gens()
    gens = [x**4 + 3 * y**4, x * y + 2 * y**3]
    set_degree_cap(8)
    try:
        with pytest.raises(DegreeCapExceeded, match="degree 9 exceeds"):
            buchberger(gens)
        set_degree_cap(11)
        assert buchberger(gens) == (gens[0], gens[1], y**9 + 3 * y**5)
    finally:
        set_degree_cap(None)


def test_sparse_high_degree_frobenius_power():
    """On the Fermat cubic at p = 5, with I = (l_1, l_2) + J for two
    random linear forms, h^25 for a 6-term degree-5 multiple h of l_1
    against the basis of I^[25] + J: the membership test of a closure
    certificate, once quadratic in the pending terms."""
    rng = random.Random(0)
    ring = PolyRing(5, ["x", "y", "z"])
    x, y, z = ring.gens()
    J = x**3 + y**3 + z**3
    l1, l2 = (sum((rng.randint(1, 4) * v for v in ring.gens()), ring.zero()) for _ in range(2))
    h = l1 * random_form(rng, ring, 4, 2)
    while len(h.terms) != 6:
        h = l1 * random_form(rng, ring, 4, 2)
    basis = buchberger([frobenius_power(g, 2) for g in buchberger([l1, l2, J])] + [J])
    h25 = frobenius_power(h, 2)
    assert normal_form(h25, basis).is_zero
    assert_division_matches_oracle(h25, basis)


@pytest.mark.parametrize("order", ORDERS + (block_order(0), block_order(5)), ids=str)
def test_packed_monomials_follow_the_order(order):
    for n in (1, 2, 3, 4):
        ring = PolyRing(3, "abcd"[:n], order)
        monos = list(itertools.product(range(4), repeat=n))
        for width in (32, 64, 128):
            units, _, unpack = _layout(ring, width)
            packs = {m: sum(map(mul, m, units)) for m in monos}
            assert sorted(monos, key=order.key) == sorted(monos, key=packs.get)
            assert all(unpack(packs[m]) == m for m in monos)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
def test_cost_ordered_divisors_leave_normal_forms_by_a_basis_unchanged(order, p):
    """An Ideal's membership divisors try its reduced basis by cost (fewest
    terms first, ties by ascending lead), where ``normal_form`` by the
    basis as a list tries it by descending lead.  A Groebner basis has one
    normal form, so both remainders equal the tuple oracle's term for
    term: on p^j-th powers of random polynomials, which mostly leave a
    remainder, and on p^j-th powers of multiples of basis elements, which
    leave none.  Some draws must put the divisors in another order."""
    rng = random.Random(f"{order} {p}")
    ring = PolyRing(p, ["x", "y", "z"], order)
    reordered = zero = nonzero = 0
    for _ in range(20):
        I = Ideal(ring, [random_poly(rng, ring, 2, 3) for _ in range(rng.randint(2, 3))])
        gb = I.groebner_basis()
        for _ in range(5):
            h = random_poly(rng, ring, 2, 3)
            if rng.random() < 0.5:
                h = h * rng.choice(gb)
            f = frobenius_power(h, rng.randint(1, 2 if p < 5 else 1))
            member = I.contains(f)
            rem = _items(normal_form(f, I._divs.polys).terms)
            assert rem == _items(normal_form(f, list(gb)).terms) == _items(oracle_divide(f, gb)[1])
            assert member == (not rem)
            zero += member
            nonzero += not member
        reordered += I._divs.polys != list(gb)
    assert reordered and zero and nonzero


def _assert_entries_match_fresh_packs(basis):
    """Each element's cached packed entry, read as its lead and {packed tail
    monomial: coefficient}, equals the entry a new packing of the same
    width makes for a copy of the element with no cached pack; its third
    slot holds the element's tail coefficients times the inverse of its
    lead coefficient mod p, in tail order; the element is monic and its
    cached leading monomial is the copy's."""
    for g in basis:
        width, (lead, ms, cs) = g._pk
        copy = Polynomial(g.ring, dict(g.terms))
        fresh_lead, fresh_ms, fresh_cs = _Divisors(g.ring, (), width)._entry(copy)
        assert (lead, dict(zip(ms, cs))) == (fresh_lead, dict(zip(fresh_ms, fresh_cs)))
        assert len(ms) == len(cs) == len(g.terms) - 1
        p, unpack = g.ring.p, _layout(g.ring, width)[2]
        inv = pow(g.terms[unpack(lead)], -1, p)
        assert list(cs) == [g.terms[unpack(m)] * inv % p for m in ms]
        assert g._lm == copy.leading_monomial() and g.terms[g._lm] == 1


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
def test_written_entries_match_their_polynomials(order, p):
    """The elements a Buchberger run, a kernel colon and an interreduction
    write straight from packed tables carry the packed entry their
    polynomial would be packed to: the packed division of every later
    membership test or colon reads those entries, not the polynomials."""
    rng = random.Random(f"entries {order} {p}")
    ring = PolyRing(p, ["x", "y", "z"], order)
    for _ in range(8):
        basis = buchberger(random_poly(rng, ring, 3, 3) for _ in range(rng.randint(2, 3)))
        _assert_entries_match_fresh_packs(basis)
        gb = [Polynomial(ring, dict(g.terms)) for g in _non_reduced_basis(rng, basis)]
        _assert_entries_match_fresh_packs(_reduced_basis(_Divisors(ring, gb)))
        I, A = random_zero_dimensional_colon(rng, ring)
        _assert_entries_match_fresh_packs(I._colon_by_kernel(A).groebner_basis())


# -- membership of p^e-th powers that are never formed ------------------------

def _power_member(I, f, e) -> bool:
    """Whether f**(p**e) lies in I, by contains(f, e); asserted equal to
    the answer on the formed power and to the tuple oracle's remainder of
    the power by I's reduced basis."""
    member = I.contains(f, e)
    power = frobenius_power(f, e)
    gb = I.groebner_basis()
    assert member == I.contains(power) == (not oracle_divide(power, gb)[1] if gb else power.is_zero)
    return member


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
def test_membership_of_an_unformed_power_matches_the_formed_one(order, p):
    """``I.contains(f, e)`` scales f's packed monomials by p^e in place of
    forming f^(p^e): on seeded reduced bases, for e = 0..3, its answer is
    that of ``contains(frobenius_power(f, e))`` and of the tuple kernel,
    on members (p^e-th powers of multiples of basis elements) and
    non-members, and the zero polynomial lies in every ideal, every power
    in the unit ideal and no nonzero power in the zero ideal.  Some f lie
    outside I while f^(p^e) lies in it, so a wrong scale shows."""
    rng = random.Random(f"unformed power {order} {p}")
    ring = PolyRing(p, ["x", "y", "z"], order)
    unit, zero_ideal = Ideal(ring, [ring.one()]), Ideal(ring, [])
    members = nonmembers = only_powers = 0
    for _ in range(10):
        # pure powers of variables make most ideals non-radical, where f and
        # f^p can differ in membership
        gens = [random_poly(rng, ring, 2, 2) for _ in range(rng.randint(1, 3))]
        I = Ideal(ring, gens + [v ** rng.randint(2, 5) for v in ring.gens() if rng.random() < 0.5])
        gb = I.groebner_basis()
        for e in range(4):
            f = random_poly(rng, ring, 2, 2)
            g = rng.choice(gb) * random_poly(rng, ring, 1, 2)
            for h in (f, g, ring.zero()):
                member = _power_member(I, h, e)
                members += member
                nonmembers += not member
                assert _power_member(unit, h, e)
                assert _power_member(zero_ideal, h, e) == h.is_zero
            assert I.contains(g, e) and I.contains(ring.zero(), e)
            only_powers += I.contains(f, e) and not I.contains(f)
    assert members and nonmembers and only_powers


def test_an_unformed_power_restarts_in_wider_fields(monkeypatch):
    """Under lex, x - y^(2^29) packs in 32-bit fields and so does (x + y)^4
    of degree 4, but the division of x^4 writes y^(2^31), which sets a
    guard bit: the division starts over on the basis packed again in
    64-bit fields, which the ideal caches, and the answers still match the
    formed power's and the tuple kernel's."""
    restarts = []
    init = _Divisors.__init__

    def recording(self, ring, polys=(), width=0):
        if sys._getframe(1).f_code.co_name == "_reduce_attempt":
            restarts.append(width)
        init(self, ring, polys, width)

    monkeypatch.setattr(_Divisors, "__init__", recording)
    ring = PolyRing(2, ["x", "y"], LEX)
    x, y = ring.gens()
    g = x - y ** (2**29)
    I = Ideal(ring, [g])
    assert not _power_member(I, x + y, 2)
    assert restarts == [64] and I._divs.width == 64
    assert _power_member(I, g * (x + y), 2)
    assert _power_member(I, g, 3) and not _power_member(I, x * y, 3)


def test_membership_of_an_unformed_power_checks_its_input():
    """A polynomial of another ring raises RingMismatchError and a negative
    exponent ValueError, whatever the ideal; the degree cap counts the
    power, which is never formed, and a lex or block remainder, which is
    never unpacked into a polynomial, as it counts the formed ones."""
    ring = PolyRing(5, ["x", "y"], LEX)
    x, y = ring.gens()
    other = PolyRing(5, ["x", "y"])
    for I in (Ideal(ring, [x - y**4]), Ideal(ring, []), Ideal(ring, [ring.one()])):
        with pytest.raises(RingMismatchError):
            I.contains(other.gens()[0], 1)
        with pytest.raises(ValueError, match="non-negative"):
            I.contains(x, -1)
    set_degree_cap(10)
    try:
        for order in (LEX, block_order(1)):
            ring = PolyRing(5, ["x", "y"], order)
            x, y = ring.gens()
            I = Ideal(ring, [x - y**2])
            with pytest.raises(DegreeCapExceeded):  # a member of degree 30
                I.contains(x**3 - y**6, 1)
            with pytest.raises(DegreeCapExceeded):  # x^5*y^5 leaves y^15
                I.contains(x * y, 1)
            with pytest.raises(DegreeCapExceeded):  # x^10 leaves y^20
                I.contains(x**2, 1)
            assert I.contains(x - y**2, 1) and not I.contains(x, 1)  # y^10 is under the cap
            for I in (Ideal(ring, []), Ideal(ring, [ring.one()])):
                with pytest.raises(DegreeCapExceeded):
                    I.contains(x * y**2, 1)
    finally:
        set_degree_cap(None)
