"""Shared fixtures-ish helpers: standard rings, seeded random polynomials,
and brute-force enumerations used as independent oracles."""

from __future__ import annotations

import itertools
import random

from charp import Ideal, PolyRing, QuotientRing, normal_form, s_polynomial


def fermat_ring(p: int) -> QuotientRing:
    S = PolyRing(p, ["x", "y", "z"])
    x, y, z = S.gens()
    return QuotientRing(S, [x**3 + y**3 + z**3])


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
