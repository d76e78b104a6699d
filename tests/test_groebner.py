import itertools
import pickle
import random
import sys
import threading
from operator import mul

import pytest

from charp import (
    GREVLEX,
    DegreeCapExceeded,
    Ideal,
    LEX,
    PolyRing,
    Polynomial,
    RingMismatchError,
    block_order,
    buchberger,
    divide_exact,
    frobenius_power,
    frobenius_preimage,
    membership_oracle,
    normal_form,
    s_polynomial,
    set_degree_cap,
)
from charp import groebner
from charp.groebner import _Divisors, _standard_monomials
from charp.poly import mono_lcm
from support import (
    assert_spolys_reduce_to_zero,
    mono_divides,
    monomials_of_degree_at_most,
    oracle_buchberger_pairs,
    oracle_divide,
    random_ideal,
    random_monomial,
    random_poly,
    random_zero_dimensional_colon,
)


@pytest.fixture
def f2xyz():
    return PolyRing(2, ["x", "y", "z"])


# -- normal form ---------------------------------------------------------------

def test_normal_form_examples(f2xyz):
    x, y, z = f2xyz.gens()
    assert normal_form(x**2, [x]).is_zero
    assert normal_form(x**2 + y, [x**2 + y]).is_zero
    assert normal_form(y, [x]) == y


@pytest.mark.parametrize("p", [3, 5, 7])
def test_normal_form_idempotent_and_sound(p):
    # random coefficients make the reducers non-monic, so the oracle's
    # quotients are scaled back by their inverse leading coefficients
    ring = PolyRing(p, ["x", "y"])
    rng = random.Random(42)
    for _ in range(20):
        f = random_poly(rng, ring)
        G = [random_poly(rng, ring) for _ in range(2)]
        G = [g for g in G if not g.is_zero] or [ring.one()]
        r = normal_form(f, G)
        assert normal_form(r, G) == r
        leads = [g.leading_monomial() for g in G]
        assert not any(mono_divides(lm, m) for m in r.terms for lm in leads)
        quots, rem = oracle_divide(f, G)
        assert r.terms == rem
        quots = [Polynomial(ring, q) for q in quots]
        assert sum((q * g for q, g in zip(quots, G)), r) == f


def test_normal_form_rejects_zero_reducer(f2xyz):
    x, _, _ = f2xyz.gens()
    with pytest.raises(ValueError):
        normal_form(x, [f2xyz.zero()])


def _foreign_polynomials():
    """x*z + y in F_2[x,y,z], with x + y from a ring with fewer variables
    (on which the division loop never cancelled the top term) and x from
    F_3[x,y,z] (which mixed the characteristics)."""
    S = PolyRing(2, ["x", "y", "z"])
    x, y, z = S.gens()
    a, b = PolyRing(2, ["x", "y"]).gens()
    return x * z + y, [a + b, PolyRing(3, ["x", "y", "z"]).var("x")]


def test_normal_form_rejects_another_ring():
    f, foreign = _foreign_polynomials()
    for g in foreign:
        with pytest.raises(RingMismatchError):
            normal_form(f, [g])


def test_divide_exact_rejects_another_ring():
    f, foreign = _foreign_polynomials()
    for g in foreign:
        with pytest.raises(RingMismatchError):
            divide_exact(f, g)


def test_buchberger_rejects_another_ring():
    f, foreign = _foreign_polynomials()
    for g in foreign:
        with pytest.raises(RingMismatchError):
            buchberger([f, g])


# -- buchberger ----------------------------------------------------------------

def test_buchberger_hand_example():
    # x reduces x^2 - y to -y, so the basis is {x, y}
    ring = PolyRing(3, ["x", "y"])
    x, y = ring.gens()
    gb = Ideal(ring, [x**2 - y, x]).groebner_basis()
    assert gb == (x, y)


def test_buchberger_already_reduced():
    ring = PolyRing(5, ["x", "y"])
    x, y = ring.gens()
    assert Ideal(ring, [x, y]).groebner_basis() == (x, y)


def test_buchberger_zero_ideal(f2xyz):
    assert Ideal(f2xyz, []).groebner_basis() == ()


def test_packed_s_polynomials_match_s_polynomial():
    """Buchberger's S-polynomial remainders, formed on the divisors' packed
    entries from the packed lcm and unpacked, against the normal form of
    the public s_polynomial, term for term, for seeded monic pairs and
    divisor lists (the pair's own elements among them, as in Buchberger)."""
    rng = random.Random(2211)
    seen_zero = seen_nonzero = False
    for order in (GREVLEX, LEX, block_order(1)):
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7])
            ring = PolyRing(p, "xyz"[:rng.randint(2, 3)], order)
            polys = [g.monic() for g in (random_poly(rng, ring, 4, 4) for _ in range(rng.randint(2, 5)))
                     if not g.is_zero]
            if len(polys) < 2:
                continue
            i, j = sorted(rng.sample(range(len(polys)), 2))
            f, g = polys[i], polys[j]
            divs = _Divisors(ring, polys)
            lcm = mono_lcm(f.leading_monomial(), g.leading_monomial())
            table = groebner._s_remainder(divs, i, j, sum(map(mul, lcm, divs.units)))
            remainder = {divs.unpack(t): c for t, c in table.items()}
            expected = normal_form(s_polynomial(f, g), polys).terms
            assert list(remainder.items()) == list(expected.items())
            seen_zero |= not remainder
            seen_nonzero |= bool(remainder)
    assert seen_zero and seen_nonzero


def test_packed_s_polynomials_restart_in_wider_fields(monkeypatch):
    """Generators that fit 32-bit fields whose pair outgrows them: under
    lex a shifted tail term (z * z^(2^31 - 1)), under grevlex the lcm
    itself (degree 2^31).  The pair's S-polynomial overflows, the run
    starts over from the generators in 64-bit fields, and the bases pass
    Buchberger's criterion."""
    overflows, widths = [], []
    s_remainder, attempt = groebner._s_remainder, groebner._buchberger_attempt

    def recording(divs, i, j, lcm):
        try:
            return s_remainder(divs, i, j, lcm)
        except groebner._Overflow:
            overflows.append(divs.width)
            raise

    def attempting(gens, width):
        widths.append(width)
        return attempt(gens, width)

    monkeypatch.setattr(groebner, "_s_remainder", recording)
    monkeypatch.setattr(groebner, "_buchberger_attempt", attempting)
    ring = PolyRing(3, ["x", "y", "z"], LEX)
    x, y, z = ring.gens()
    gb = buchberger([x * y - z ** (2**31 - 1), x * z - 1])
    assert gb == (x * z - 1, y - z ** (2**31))
    assert_spolys_reduce_to_zero(gb)
    assert overflows == [32] and widths == [32, 64]
    ring = PolyRing(3, ["x", "y"])
    x, y = ring.gens()
    gb = buchberger([x ** (2**30) * y - 1, x * y ** (2**30) - 1])
    assert_spolys_reduce_to_zero(gb)
    assert overflows == [32, 32] and widths == [32, 64, 32, 64]


def test_degree_cap_counts_the_s_polynomial_multiples():
    """The pair of x^3 + 1 and x^2*y^2 + 1 takes multiples of degree 5, and
    every other polynomial of the run has degree 4 or less."""
    ring = PolyRing(3, ["x", "y"])
    x, y = ring.gens()
    gens = [x**3 + 1, x**2 * y**2 + 1]
    set_degree_cap(4)
    try:
        with pytest.raises(DegreeCapExceeded):
            buchberger(gens)
        set_degree_cap(5)
        assert buchberger(gens)
    finally:
        set_degree_cap(None)


def test_gebauer_moller_criteria_prune(monkeypatch):
    """The pairs Buchberger reduces, for seeded ideals under grevlex, lex
    and block(1) and for the targets (x^(ap), y^(bp)) + (x^3 + y^3 + z^3)
    at p = 2 and 5: none has coprime leads, and their numbers are the
    ones the pair criteria gave when they were recorded.  A lost
    criterion leaves every basis right and only costs reductions, so
    only these counts show it."""
    pairs = []
    s_remainder = groebner._s_remainder

    def recording(divs, i, j, lcm):
        pairs.append((divs.unpack(divs.entries[i][0]), divs.unpack(divs.entries[j][0])))
        return s_remainder(divs, i, j, lcm)

    monkeypatch.setattr(groebner, "_s_remainder", recording)
    rng = random.Random(2323)
    counts = []
    for order in (GREVLEX, LEX, block_order(1)):
        for _ in range(15):
            ring = PolyRing(rng.choice([2, 3, 5]), ["x", "y", "z"], order)
            buchberger([random_poly(rng, ring) for _ in range(rng.randint(2, 4))])
        counts.append(len(pairs))
    for p in (2, 5):
        ring = PolyRing(p, ["x", "y", "z"])
        x, y, z = ring.gens()
        for a, b in ((1, 1), (1, 2), (2, 3)):
            buchberger([x ** (a * p), y ** (b * p), x**3 + y**3 + z**3])
        counts.append(len(pairs))
    assert all(any(map(min, f, g)) for f, g in pairs)  # no coprime leads
    assert counts == [57, 153, 195, 199, 229]


def _record_pairs(monkeypatch) -> tuple[list, list]:
    """Wrap ``groebner._s_remainder`` and the Buchberger runs it serves.
    The returned lists receive, from now on, the pairs of the latest run,
    (i, j, lcm) with the packed lcm read back as an exponent tuple (a run
    that starts over clears them, so after a basis is returned they are
    the pairs of the run that completed it), and the field width of every
    run, in order."""
    pairs, widths = [], []
    s_remainder, attempt = groebner._s_remainder, groebner._buchberger_attempt

    def recording(divs, i, j, lcm):
        pairs.append((i, j, divs.unpack(lcm)))
        return s_remainder(divs, i, j, lcm)

    def attempting(gens, width):
        pairs.clear()
        widths.append(width)
        return attempt(gens, width)

    monkeypatch.setattr(groebner, "_s_remainder", recording)
    monkeypatch.setattr(groebner, "_buchberger_attempt", attempting)
    return pairs, widths


def _assert_pairs_match_the_oracle(pairs: list, gens) -> tuple:
    """Buchberger on ``gens`` reduces the pairs of the tuple oracle, in its
    order, in the run that completes it, and returns the oracle's reduced
    basis, which is returned."""
    gb = buchberger(gens)
    expected_pairs, expected_gb = oracle_buchberger_pairs(gens)
    assert pairs == expected_pairs
    assert gb == expected_gb
    return gb


def test_packed_pair_heap_matches_the_tuple_oracle(monkeypatch):
    """The pairs the packed heap hands to _s_remainder, (i, j, lcm) in
    order, are those of the tuple Gebauer-Moller update, and the bases
    agree, on the inputs of test_gebauer_moller_criteria_prune: 45 seeded
    ideals under grevlex, lex and block(1) and the targets (x^(ap),
    y^(bp)) + (x^3 + y^3 + z^3) at p = 2 and 5.  One more pass runs 45
    seeded ideals in 4-bit fields (values up to 7), which their
    generators of degree 4 fit while a third of the runs outgrow them,
    under every order: the run that starts over from its generators in
    wider fields reduces the oracle's pairs and returns its basis."""
    pairs, widths = _record_pairs(monkeypatch)
    rng = random.Random(2323)
    total = 0
    for order in (GREVLEX, LEX, block_order(1)):
        for _ in range(15):
            ring = PolyRing(rng.choice([2, 3, 5]), ["x", "y", "z"], order)
            _assert_pairs_match_the_oracle(pairs, [random_poly(rng, ring) for _ in range(rng.randint(2, 4))])
            total += len(pairs)
    for p in (2, 5):
        ring = PolyRing(p, ["x", "y", "z"])
        x, y, z = ring.gens()
        for a, b in ((1, 1), (1, 2), (2, 3)):
            _assert_pairs_match_the_oracle(pairs, [x ** (a * p), y ** (b * p), x**3 + y**3 + z**3])
            total += len(pairs)
    assert total == 229  # the prune test's count: every pair was compared
    assert set(widths) == {32}  # and no run started over
    monkeypatch.setattr(groebner, "_MIN_WIDTH", 4)
    rng = random.Random(2323)
    restarted = []
    for order in (GREVLEX, LEX, block_order(1)):
        restarted.append(0)
        for _ in range(15):
            ring = PolyRing(rng.choice([2, 3, 5]), ["x", "y", "z"], order)
            widths.clear()
            _assert_pairs_match_the_oracle(pairs, [random_poly(rng, ring, 4, 4) for _ in range(rng.randint(2, 4))])
            restarted[-1] += len(widths) > 1
    assert all(restarted) and sum(restarted) > 10


def test_a_restarted_run_reduces_the_oracle_pairs(monkeypatch):
    """Generators that leave 32-bit fields while pairs wait in the heap.
    Under lex, the restart test's x*y - z^(2^31 - 1), x*z - 1 with x^2 + y
    added: the first pair's shifted tail outgrows the fields with two
    pairs queued, and the run starts over in 64-bit fields.  Under
    grevlex, w^(2^31) - 1 is seeded after x*y - 1 and x*z - 1, whose pair
    is queued; the run packs in 64-bit fields from the start.  The run
    that completes the basis hands out the tuple oracle's pairs, and the
    bases agree with the oracle's and pass Buchberger's criterion."""
    pairs, widths = _record_pairs(monkeypatch)
    ring = PolyRing(3, ["x", "y", "z"], LEX)
    x, y, z = ring.gens()
    gb = _assert_pairs_match_the_oracle(pairs, [x * y - z ** (2**31 - 1), x * z - 1, x**2 + y])
    assert_spolys_reduce_to_zero(gb)
    assert widths == [32, 64] and len(pairs) > 2
    widths.clear()
    ring = PolyRing(3, ["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    gb = _assert_pairs_match_the_oracle(pairs, [x * y - 1, x * z - 1, w ** (2**31) - 1])
    assert_spolys_reduce_to_zero(gb)
    assert widths == [64] and pairs[0][:2] == (0, 1)


def test_membership_examples(f2xyz):
    x, y, z = f2xyz.gens()
    assert (x**2 + y**2) in Ideal(f2xyz, [x + y])
    assert f2xyz.one() in Ideal(f2xyz, [x, 1 + x])
    g = x**3 + y**3 + z**3
    I = Ideal(f2xyz, [x, y, g])
    # derived via the degree-2 dense oracle: no product of degree <= 2
    # reaches z^2 (the ideal is homogeneous, so the bound is exact)
    assert not membership_oracle(z**2, I.gens, 2)
    assert z**2 not in I


@pytest.mark.parametrize("p", [2, 3])
def test_groebner_randomized_suite(p):
    ring = PolyRing(p, ["x", "y", "z"])
    rng = random.Random(900 + p)
    for _ in range(12):
        I = random_ideal(rng, ring)
        gb = I.groebner_basis()
        assert_spolys_reduce_to_zero(gb)
        # every generator reduces to zero against the basis
        for g in I.gens:
            assert normal_form(g, gb).is_zero
        # permutation invariance: shuffled generators, same reduced basis
        for _ in range(3):
            shuffled = list(I.gens)
            rng.shuffle(shuffled)
            assert buchberger(shuffled) == gb
        # basis elements belong to the ideal per an independent recomputation
        J = Ideal(ring, list(reversed(I.gens)))
        for b in gb:
            assert b in J


@pytest.mark.parametrize("p", [2, 3])
def test_membership_agrees_with_dense_oracle(p):
    ring = PolyRing(p, ["x", "y"])
    rng = random.Random(77 + p)
    for _ in range(15):
        I = random_ideal(rng, ring, max_gens=2, max_degree=3)
        if not I.gens:
            continue
        gmax = max(g.total_degree() for g in I.gens)
        for _ in range(6):
            f = random_poly(rng, ring, max_degree=3)
            bound = max(f.total_degree(), 0) + gmax + 2
            oracle = membership_oracle(f, I.gens, bound)
            member = f in I
            if oracle:
                assert member  # a positive oracle answer is a certificate
            assert oracle == member  # exact agreement at this bound, on this suite


# -- colon, intersection, elimination -------------------------------------------

def test_colon_examples():
    ring = PolyRing(2, ["x", "y"])
    x, y = ring.gens()
    assert Ideal(ring, [x**2]).colon(x).groebner_basis() == (x,)
    assert Ideal(ring, [x * y]).colon(x).groebner_basis() == (y,)
    assert Ideal(ring, [x]).colon(y).groebner_basis() == (x,)
    with pytest.raises(ValueError):
        Ideal(ring, [x]).colon(ring.zero())
    # the unit ideal, given with a constant generator, leaves the ideal as
    # it is, zero-dimensional or not
    unit = Ideal(ring, [x, ring.one()])
    for I in (Ideal(ring, [x**2, y**3]), Ideal(ring, [x * y])):
        assert I.colon_ideal(unit).equals(I)


def test_colon_soundness_random():
    ring = PolyRing(3, ["x", "y"])
    rng = random.Random(4242)
    for _ in range(10):
        I = random_ideal(rng, ring, max_gens=2)
        f = random_poly(rng, ring, max_degree=2)
        if f.is_zero:
            continue
        Q = I.colon(f)
        for q in Q.gens:
            assert (q * f) in I
        # oracle direction: low-degree members of the colon are found
        for m in [ring.monomial((a, b)) for a in range(3) for b in range(3)]:
            if (m * f) in I:
                assert m in Q


def _colon_by_intersection(I, A):
    """The intersection route: (I : a) for each generator a, then their meet."""
    result = None
    for a in A.gens:
        piece = I.colon(a)
        result = piece if result is None else result.intersect(piece)
    return Ideal(I.ring, result.gens).groebner_basis()


def _colon_by_kernel(monkeypatch, I, A):
    """colon_ideal with intersections forbidden, so only the kernel route
    on S/I can answer."""

    def refuse(*args, **kwargs):
        raise AssertionError("the zero-dimensional colon took the intersection route")

    with monkeypatch.context() as patch:
        patch.setattr(Ideal, "intersect", refuse)
        return I.colon_ideal(A).groebner_basis()


def _random_form(rng, ring, degree, max_terms=3):
    """A random homogeneous polynomial of the given degree."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            m = random_monomial(rng, ring.nvars, degree)
            if sum(m) == degree:
                break
        terms[m] = rng.randint(1, ring.p - 1)
    return ring.poly(terms)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zero_dimensional_colon_matches_intersection_route(p, monkeypatch):
    rng = random.Random(600 + p)
    for order in (GREVLEX, LEX, block_order(1)):
        for homogeneous in (True, False):
            for variables in (["x", "y"], ["x", "y", "z"]):
                ring = PolyRing(p, variables, order)
                if homogeneous:
                    draw = lambda: _random_form(rng, ring, rng.randint(1, 3))
                else:
                    draw = lambda: random_poly(rng, ring, max_degree=3)
                # pure powers force dim S/I <= 0; redraw the unit ideal
                I = Ideal(ring, [ring.one()])
                while I.krull_dimension() != 0:
                    powers = [v ** rng.randint(2, 4) for v in ring.gens()]
                    I = Ideal(ring, [draw() for _ in range(rng.randint(0, 2))] + powers)
                A = Ideal(ring, [draw() for _ in range(rng.randint(1, 3))])
                fast = _colon_by_kernel(monkeypatch, I, A)
                assert fast == _colon_by_intersection(I, A)
                # permuted, unit-scaled generators of I and A give the same basis
                scaled = []
                for ideal in (I, A):
                    gens = [g * rng.randint(1, p - 1) for g in ideal.gens]
                    rng.shuffle(gens)
                    scaled.append(Ideal(ring, gens))
                assert _colon_by_kernel(monkeypatch, *scaled) == fast


def test_zero_dimensional_colon_random_draws(monkeypatch):
    # 17 draws for each characteristic, order and number of variables
    rng = random.Random(1300)
    for p in (2, 3, 5, 7):
        for order in (GREVLEX, LEX, block_order(1)):
            for variables in (["x", "y"], ["x", "y", "z"]):
                ring = PolyRing(p, variables, order)
                for _ in range(17):
                    I, A = random_zero_dimensional_colon(rng, ring)
                    assert _colon_by_kernel(monkeypatch, I, A) == _colon_by_intersection(I, A)


def test_zero_dimensional_colon_rewrites_tails_of_the_old_basis(monkeypatch):
    # the basis elements of I kept in the colon have new leads in their
    # tails, each to be replaced by minus that lead's tail
    ring = PolyRing(7, ["x", "y", "z"])
    x, y, z = ring.gens()
    I = Ideal(ring, [
        x + 2 * x * y + 5 * z + 2 * z**2,
        y**4 + 2 * x**2 * y**2 + 3 * y**2 * z**2 + 5 * x * y,
        z**2 + 4 * z,
    ])
    A = Ideal(ring, [y**3 * z**2 + 6 * x**3 * z, 2 * x**3 * y * z**3 + 5 * x * z**3])
    colon = _colon_by_kernel(monkeypatch, I, A)
    assert x * y + 4 * x + 6 in colon
    assert y**4 + 4 * x**2 + 6 * y**2 + 6 * x in colon
    assert colon == _colon_by_intersection(I, A)


def test_zero_dimensional_colon_edge_cases(monkeypatch):
    ring = PolyRing(3, ["x", "y", "z"])
    x, y, z = ring.gens()
    I = Ideal(ring, [x**2 + y * z, y**3, z**2 - x * y])
    assert I.krull_dimension() == 0
    gb = I.groebner_basis()
    # A holding a unit of S/I (2 + y, with y nilpotent there) leaves I unchanged
    assert _colon_by_kernel(monkeypatch, I, Ideal(ring, [x, 2 + y])) == gb
    # A inside I gives the unit ideal
    inside = Ideal(ring, [y**3, x * (z**2 - x * y)])
    assert _colon_by_kernel(monkeypatch, I, inside) == (ring.one(),)
    assert _colon_by_intersection(I, inside) == (ring.one(),)
    # a hand example: (x^2, y^2, z) : (x, y) = (x^2, x*y, y^2, z)
    J = Ideal(ring, [x**2, y**2, z])
    expected = Ideal(ring, [x**2, x * y, y**2, z]).groebner_basis()
    assert _colon_by_kernel(monkeypatch, J, Ideal(ring, [x, y])) == expected


def test_kernel_colon_restarts_in_wider_fields(monkeypatch):
    """In 4-bit fields (values up to 7) reductions outgrow the colon's
    packing under lex and block orders: the colon starts over from I's
    basis in wider fields and still matches the intersection route."""
    monkeypatch.setattr(groebner, "_MIN_WIDTH", 4)
    attempts = []  # per kernel colon, the field widths of its attempts
    colon, attempt = Ideal._colon_by_kernel, groebner._colon_attempt

    def calling(self, other):
        attempts.append([])
        return colon(self, other)

    def attempting(gb, staircase, gens, width):
        attempts[-1].append(width)
        return attempt(gb, staircase, gens, width)

    monkeypatch.setattr(Ideal, "_colon_by_kernel", calling)
    monkeypatch.setattr(groebner, "_colon_attempt", attempting)
    # the border x^2*y^2 = x*(x*y^2) leaves x*y^5 = y^3*(x*y^2), then y^8
    ring = PolyRing(3, ["x", "y"], LEX)
    x, y = ring.gens()
    I, A = Ideal(ring, [x**3, x * y**2 - y**5, y**6]), Ideal(ring, [y])
    assert _colon_by_kernel(monkeypatch, I, A) == _colon_by_intersection(I, A)
    assert attempts == [[4, 8]]
    # the seeded draws: here A's own generators outgrow the fields
    rng = random.Random(1300)
    for p in (2, 3, 5, 7):
        for order in (GREVLEX, LEX, block_order(1)):
            for variables in (["x", "y"], ["x", "y", "z"]):
                ring = PolyRing(p, variables, order)
                for _ in range(17):
                    I, A = random_zero_dimensional_colon(rng, ring)
                    assert _colon_by_kernel(monkeypatch, I, A) == _colon_by_intersection(I, A)
    assert sum(len(widths) - 1 for widths in attempts) > 1


def test_intersect_examples(f2xyz):
    x, y, _ = f2xyz.gens()
    meet = Ideal(f2xyz, [x]).intersect(Ideal(f2xyz, [y]))
    assert meet.groebner_basis() == (x * y,)
    I = Ideal(f2xyz, [x + y, x * y])
    assert I.intersect(I).equals(I)
    unit = Ideal(f2xyz, [f2xyz.one()])
    assert Ideal(f2xyz, [x]).intersect(unit).groebner_basis() == (x,)


def test_intersect_contained_in_both():
    ring = PolyRing(3, ["x", "y"])
    rng = random.Random(31)
    for _ in range(8):
        I = random_ideal(rng, ring, max_gens=2)
        K = random_ideal(rng, ring, max_gens=2)
        meet = I.intersect(K)
        assert meet.is_subset_of(I)
        assert meet.is_subset_of(K)


def test_eliminate_examples():
    ring = PolyRing(2, ["x", "y"])
    x, y = ring.gens()
    assert Ideal(ring, [y - x**2, x]).eliminate(["x"]).groebner_basis() == (y,)
    assert Ideal(ring, [x]).eliminate(["x"]).groebner_basis() == ()
    I = Ideal(ring, [x + y])
    assert I.eliminate([]).equals(I)


def test_eliminate_output_free_of_front_variables():
    ring = PolyRing(3, ["x", "y", "z"])
    rng = random.Random(8)
    ix = ring._index["x"]
    for _ in range(8):
        I = random_ideal(rng, ring)
        E = I.eliminate(["x"])
        for g in E.gens:
            assert all(m[ix] == 0 for m in g.terms)
        assert E.is_subset_of(I)


def _substitute(f, images: dict):
    """f with each variable named in ``images`` replaced by its image."""
    ring = f.ring
    out = ring.zero()
    for m, c in f.terms.items():
        term = ring.const(c)
        for v, e in zip(ring.variables, m):
            term = term * (images.get(v, ring.var(v)) ** e)
        out = out + term
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_eliminations_in_every_order_and_layout(p):
    """Preimages, intersections and eliminations of one and two variables,
    anywhere in lex, grevlex, block(1) and block(2) rings of 3 and 4
    variables, against oracles that take no elimination:
      - r in U_1(K) exactly when NF(r^p, GB(K)) = 0, for K holding the
        p-th power of a random g, which U_1(K) must then hold;
      - r in I ∩ K exactly when r is in both;
      - for I = K + (v - h_v : v eliminated), each h_v free of the
        eliminated variables, r in I ∩ F_p[rest] exactly when r is in I,
        and exactly when r is in the ideal of K's generators with each v
        replaced by h_v."""
    rng = random.Random(2600 + p)
    for order in (LEX, GREVLEX, block_order(1), block_order(2)):
        for n in (3, 4):
            ring = PolyRing(p, "xyzw"[:n], order)
            gens = ring.gens()
            small = monomials_of_degree_at_most(ring, 2)
            g = random_poly(rng, ring, max_degree=1, max_terms=2)
            K = Ideal(ring, [frobenius_power(g, 1), random_poly(rng, ring, max_degree=2)])
            U = frobenius_preimage(K, 1)
            gb_K = K.groebner_basis()
            sample = small + [g] + list(K.gens) + [u * rng.choice(gens) for u in U.gens]
            sample += [random_poly(rng, ring, max_degree=3) for _ in range(4)]
            for r in sample:
                assert (r in U) == normal_form(frobenius_power(r, 1), gb_K).is_zero

            I = random_ideal(rng, ring, max_gens=2, max_degree=2)
            meet = I.intersect(K)
            sample = small + list(I.gens) + [a * b for a in I.gens for b in K.gens]
            for r in sample:
                assert (r in meet) == (r in I and r in K)

            for size in (1, 2):
                front = rng.sample(ring.variables, size)
                rest = [v for v in ring.variables if v not in front]
                sub = PolyRing(p, rest, order)  # the rest's polynomials, embedded below

                def embed(f):
                    return ring.poly({tuple(dict(zip(rest, m)).get(v, 0) for v in ring.variables): c
                                      for m, c in f.terms.items()})

                images = {v: embed(random_poly(rng, sub, max_degree=2)) for v in front}
                base = random_ideal(rng, ring, max_gens=2, max_degree=2)
                I = Ideal(ring, list(base.gens) + [ring.var(v) - h for v, h in images.items()])
                E = I.eliminate(front)
                closed = Ideal(ring, [_substitute(f, images) for f in base.gens])
                assert all(m[ring._index[v]] == 0 for f in E.gens for m in f.terms for v in front)
                sample = [embed(f) for f in monomials_of_degree_at_most(sub, 2)]
                sample += [embed(random_poly(rng, sub, max_degree=3)) for _ in range(4)]
                sample += list(closed.gens) + [f * embed(rng.choice(sub.gens())) for f in closed.gens]
                for r in sample:
                    assert (r in E) == (r in I) == (r in closed)


def test_standard_monomials_match_box_enumeration():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 4)
        powers = [rng.randint(1, 4) for _ in range(n)]
        lms = [tuple(e if i == j else 0 for i in range(n)) for j, e in enumerate(powers)]
        lms += [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        rng.shuffle(lms)
        box = [
            m for m in itertools.product(*(range(e) for e in powers))
            if not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)
        ]
        assert _standard_monomials(lms, n) == box
    assert _standard_monomials([(1, 2), (0, 0)], 2) == []


def test_standard_monomials_reject_positive_dimension():
    # no pure power of y: the staircase would hold every power of y
    with pytest.raises(ValueError):
        _standard_monomials([(2, 0)], 2)
    with pytest.raises(ValueError):
        _standard_monomials([(2, 0, 0), (0, 3, 0), (1, 1, 1)], 3)


# -- dimension -------------------------------------------------------------------

def test_krull_dimension_examples(f2xyz):
    x, y, z = f2xyz.gens()
    assert Ideal(f2xyz, [x**3 + y**3 + z**3]).krull_dimension() == 2
    assert Ideal(f2xyz, []).krull_dimension() == 3
    assert Ideal(f2xyz, [f2xyz.one()]).krull_dimension() == -1


def test_groebner_cache_is_used(f2xyz):
    x, y, _ = f2xyz.gens()
    I = Ideal(f2xyz, [x, y])
    gb1 = I.groebner_basis()
    assert I.groebner_basis() is gb1
    lex = PolyRing(2, f2xyz.variables, LEX)
    x, y, _ = lex.gens()
    assert Ideal(lex, [x, y]).groebner_basis() == (x, y)


def test_membership_packs_the_basis_once(monkeypatch):
    ring = PolyRing(2, ["x", "y", "z"])
    x, y, z = ring.gens()
    I = Ideal(ring, [x**4, y**5, x**3 + y**3 + z**3])
    gb = I.groebner_basis()
    built = []
    init = _Divisors.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(_Divisors, "__init__", counting)
    members = [g * m for g in gb for m in (x, y * z, z**5)]
    assert all(I.contains(f) for f in members)
    assert not any(I.contains(f) for f in (x * y * z, z**5, x**3 + y))
    assert len(built) == 1


def test_a_fresh_basis_is_packed_once(monkeypatch):
    """The reduced bases that Buchberger and the kernel colon return keep
    the packed entries they were built with, so membership tests and a
    colon on them pack no basis element again: no division finds an
    element without a cached entry of its width."""
    misses = []
    entry = _Divisors._entry

    def counting(self, g):
        if g._pk is None or g._pk[0] != self.width:
            misses.append(g)
        return entry(self, g)

    monkeypatch.setattr(_Divisors, "_entry", counting)
    ring = PolyRing(3, ["x", "y", "z"])
    x, y, z = ring.gens()
    I = Ideal(ring, [x**4, y**5, x**3 + y**3 + z**3])
    gb = I.groebner_basis()
    assert I.krull_dimension() == 0 and all(g._pk is not None for g in gb)
    members = [g * m for g in gb for m in (x, y * z, z**5)]
    assert all(I.contains(f) for f in members)
    assert not any(I.contains(f) for f in (x * y * z, z**5, x**3 + y))
    C = I.colon_ideal(Ideal(ring, [x * y, z]))
    colon = C.groebner_basis()
    assert all(g._pk is not None for g in colon) and len(colon) > len(gb)
    assert all(C.contains(f) for f in colon)
    assert not C.contains(ring.one())
    assert C.colon_ideal(Ideal(ring, [y])).krull_dimension() == 0
    assert misses == []


def test_membership_is_safe_under_concurrent_widening():
    """Threads share one ideal's cached divisors while some reductions
    outgrow 32-bit fields (x^2 leaves y^(2^31) modulo x - y^(2^30) under
    lex) and cache a 64-bit packing: every answer matches the serial one,
    and the cache ends 64-bit.  The degree cap sits at that largest
    remainder's degree, so a remainder packed in 32-bit fields but read in
    64-bit ones, as with the packing another thread cached, fails:
    y^(2^30+1) (of x*y) reads as x^(2^30+1)*y^(2^30+1)."""
    ring = PolyRing(3, ["x", "y"], LEX)
    x, y = ring.gens()
    d = 2**30
    cases = [
        (x**2, False), (x**2 - y ** (2 * d), True), (x * y - y ** (d + 1), True), (x + y, False), (x * y, False),
    ]
    n = len(cases)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    set_degree_cap(2 * d)
    try:
        for _ in range(10):
            I = Ideal(ring, [x - y**d])
            I.groebner_basis()
            barrier = threading.Barrier(6)
            wrong = []

            def check(k):
                try:
                    barrier.wait(timeout=10)
                    for f, member in cases[k % n:] + cases[:k % n]:
                        if I.contains(f) != member:
                            wrong.append(f)
                except Exception as exc:  # reported by the assertion below
                    wrong.append(exc)

            threads = [threading.Thread(target=check, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert wrong == []
            assert I._divs.width == 64
    finally:
        set_degree_cap(None)
        sys.setswitchinterval(interval)


def test_division_reads_its_remainder_in_its_own_width(monkeypatch):
    """A membership test reads its remainder with the packing it divided
    on, even when another thread caches a wider packing on the ideal in
    the meantime: the degree cap sits at y^4's degree, and y^4, packed in
    32-bit fields but read in 64-bit ones, reads as x^4*y^4 under lex and
    would raise.  The narrow test leaves the wider cache in place.  Then
    x^4 modulo x - y^(2^29) leaves y^(2^31), so the ideal caches a
    packing in 64-bit fields: the packing a reader took before keeps its
    32-bit width, its entries and its remainders."""
    ring = PolyRing(3, ["x", "y"], LEX)
    x, y = ring.gens()
    g = x - y**3
    I = Ideal(ring, [g])
    assert I.contains(g)  # builds the ideal's divisors in 32-bit fields
    held = I._divs
    wide = _Divisors(ring, held.polys, 64)
    divide = groebner._divide_packed

    def divide_then_rebind(*args):
        out = divide(*args)
        I._divs = wide  # as a membership test that needed wider fields does
        return out

    monkeypatch.setattr(groebner, "_divide_packed", divide_then_rebind)
    set_degree_cap(4)
    try:
        assert not I.contains(x * y)
    finally:
        set_degree_cap(None)
    assert I._divs is wide and held.width == 32
    monkeypatch.undo()
    d = 2**29
    g = x - y**d
    I = Ideal(ring, [g])
    assert I.contains(g)
    held = I._divs
    entries = list(held.entries)
    assert held.width == 32
    assert not I.contains(x**4)
    assert I._divs.width == 64
    assert held.width == 32 and held.entries == entries
    out, divs = groebner._reduce_terms((x * y).terms, held)
    assert divs is held
    assert {held.unpack(t): c for t, c in out.items()} == (y ** (d + 1)).terms


def test_pickles_carry_no_pack_caches():
    """An ideal pickles as its generators and basis, its basis elements as
    ring and terms: after membership tests, a dimension and a colon it
    pickles to the same bytes as before them, and unpickles with empty
    caches."""
    ring = PolyRing(3, ["x", "y", "z"])
    x, y, z = ring.gens()
    I = Ideal(ring, [x**2 + y * z, y**3, z**2 - x * y])
    gb = I.groebner_basis()
    cold = pickle.dumps(I)
    assert I.contains(x**2 * z + y * z**2)
    assert not I.contains(x * y)
    I.krull_dimension()
    I.colon_ideal(Ideal(ring, [x]))
    assert I._divs is not None and all(g._pk is not None for g in gb)
    assert pickle.dumps(I) == cold
    J = pickle.loads(cold)
    assert (J._dim, J._divs) == (None, None)
    assert all(g._pk is None and g._lm is None for g in J.groebner_basis())
    assert J.groebner_basis() == gb
    assert J.contains(x**2 * z + y * z**2) and not J.contains(x * y)


def test_lex_vs_grevlex():
    for order in (LEX, GREVLEX, block_order(1)):
        ring = PolyRing(7, ["x", "y"], order)
        x, y = ring.gens()
        assert_spolys_reduce_to_zero(Ideal(ring, [x**2 + y, x * y + 1]).groebner_basis())
