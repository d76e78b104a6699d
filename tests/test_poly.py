import copy
import multiprocessing
import pickle
import random
import re
from concurrent.futures import ProcessPoolExecutor

import pytest

from charp import (
    GREVLEX,
    LEX,
    DegreeCapExceeded,
    PolyRing,
    block_order,
    divide_exact,
    frobenius_power,
    frobenius_root,
    frobenius_substitute,
    set_degree_cap,
)
from support import oracle_divide, random_monomial, random_poly


@pytest.fixture
def f2xyz():
    return PolyRing(2, ["x", "y", "z"])


def test_characteristic_two_addition(f2xyz):
    x, y, _ = f2xyz.gens()
    assert ((x + y) + (x + y)).is_zero


def test_freshmans_dream(f2xyz):
    x, y, _ = f2xyz.gens()
    assert (x + y) * (x + y) == x**2 + y**2


def test_multiplication_by_zero(f2xyz):
    x, y, z = f2xyz.gens()
    f = x * y + z**3 + 1
    assert (f * f2xyz.zero()).is_zero


def test_frobenius_power_examples(f2xyz):
    x, y, _ = f2xyz.gens()
    assert frobenius_power(x + y, 1) == x**2 + y**2
    assert frobenius_power(x + y, 0) == x + y
    S3 = PolyRing(3, ["x", "y"])
    a, b = S3.gens()
    assert frobenius_power(a + b, 1) == a**3 + b**3


def test_frobenius_substitute_examples(f2xyz):
    x, y, _ = f2xyz.gens()
    assert frobenius_substitute(x + y, 1) == x**2 + y**2
    S3 = PolyRing(3, ["x", "y"])
    a, b = S3.gens()
    assert frobenius_substitute(a * b + 1, 1) == a**3 * b**3 + 1
    assert frobenius_substitute(a * b + 1, 0) == a * b + 1


@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_identities_random(p):
    ring = PolyRing(p, ["x", "y", "z"])
    rng = random.Random(101 + p)
    for _ in range(25):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        for e in range(4):
            assert frobenius_power(f + g, e) == frobenius_power(f, e) + frobenius_power(g, e)
            assert frobenius_power(f * g, e) == frobenius_power(f, e) * frobenius_power(g, e)
            assert frobenius_substitute(f, e) == frobenius_power(f, e)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_power_of_a_term_is_repeated_multiplication(p):
    ring = PolyRing(p, ["x", "y", "z"])
    rng = random.Random(16)
    for _ in range(12):
        term = ring.poly({random_monomial(rng, 3, 3): rng.randint(1, p - 1)})
        product = ring.one()
        for n in range(10):
            assert term**n == product
            product = product * term


@pytest.mark.parametrize("p", [2, 3, 5])
def test_power_through_frobenius_matches_repeated_multiplication(p):
    # h**(m * p**k) is taken as the Frobenius power of h**m; n = p**3 + 1
    # has no factor p and takes repeated squaring alone
    ring = PolyRing(p, ["x", "y"])

    def product(h, n):
        out = ring.one()
        for _ in range(n):
            out = out * h
        return out

    rng = random.Random(20 + p)
    for n in (p, p**2, 3 * p**2, p**3 + 1):
        h = ring.zero()
        while len(h.terms) < 2:
            h = random_poly(rng, ring, max_degree=2, max_terms=3)
        assert h**n == product(h, n)
    # the termwise Frobenius map is the p**e-th power
    rng = random.Random(7)
    for _ in range(10):
        f = random_poly(rng, ring, max_degree=2, max_terms=3)
        for e in (1, 2):
            assert frobenius_power(f, e) == product(f, p**e)


@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_root_random(p):
    ring = PolyRing(p, ["x", "y", "z"])
    rng = random.Random(131 + p)
    for _ in range(15):
        f = random_poly(rng, ring, max_degree=12, max_terms=6)
        s = random_poly(rng, ring, max_degree=2)
        for e in range(3):
            q = p**e
            roots = frobenius_root(f, e)
            assert all(0 <= a < q for alpha in roots for a in alpha)
            # f = sum h_alpha**q * x**alpha
            rebuilt = ring.zero()
            for alpha, h in roots.items():
                rebuilt = rebuilt + frobenius_power(h, e) * ring.monomial(alpha)
            assert rebuilt == f
            # I_e(s**q * f) = s * I_e(f), term by term
            scaled = frobenius_root(frobenius_power(s, e) * f, e)
            assert scaled == {alpha: s * h for alpha, h in roots.items()}


def test_frobenius_root_examples(f2xyz):
    x, y, z = f2xyz.gens()
    f = x**3 * y + x * z**2 + 1
    assert frobenius_root(f, 0) == {(0, 0, 0): f}
    assert frobenius_root(f, 1) == {(0, 0, 0): f2xyz.one(), (1, 0, 0): z, (1, 1, 0): x}
    assert frobenius_root(f2xyz.zero(), 1) == {}
    with pytest.raises(ValueError):
        frobenius_root(f, -1)


def test_order_key_examples():
    assert LEX.key((1, 0)) > LEX.key((0, 5))
    assert GREVLEX.key((2, 1)) > GREVLEX.key((1, 2))
    assert GREVLEX.key((3, 1)) == GREVLEX.key((3, 1))


@pytest.mark.parametrize("order", [LEX, GREVLEX, block_order(1), block_order(2)])
def test_order_axioms_random(order):
    def cmp(m1, m2):
        k1, k2 = order.key(m1), order.key(m2)
        return (k1 > k2) - (k1 < k2)

    rng = random.Random(500)
    for _ in range(300):
        a = random_monomial(rng, 3, 5)
        b = random_monomial(rng, 3, 5)
        c = random_monomial(rng, 3, 5)
        ab = cmp(a, b)
        # totality and antisymmetry
        assert ab == -cmp(b, a)
        assert (ab == 0) == (a == b)
        # multiplicativity
        am = tuple(u + v for u, v in zip(a, c))
        bm = tuple(u + v for u, v in zip(b, c))
        assert cmp(am, bm) == ab
        # 1 is minimal
        assert cmp(a, (0, 0, 0)) >= 0


def test_sorted_terms_descending(f2xyz):
    x, y, z = f2xyz.gens()
    f = z + x * y + x**2
    monos = [m for m, _ in f.sorted_terms()]
    assert monos == sorted(monos, key=GREVLEX.key, reverse=True)


def test_str_parse_roundtrip():
    for p in (2, 5):
        ring = PolyRing(p, ["x", "y", "z"])
        rng = random.Random(p * 11)
        for _ in range(25):
            f = random_poly(rng, ring, max_degree=4, max_terms=4)
            assert ring.parse(str(f)) == f
    assert str(PolyRing(3, ["x"]).zero()) == "0"


def test_divide_exact():
    ring = PolyRing(5, ["x", "y"])
    x, y = ring.gens()
    f = (x + 2 * y) * (x**2 + y)
    assert divide_exact(f, x + 2 * y) == x**2 + y
    with pytest.raises(ValueError):
        divide_exact(x**2 + y, x + 1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
def test_divide_exact_matches_the_division_oracle(order, p):
    """On seeded q and g, divide_exact(q*g, g) is q, with the terms in
    the order of the tuple kernel's quotient table, and the oracle leaves
    no remainder; q*g + h with a nonzero oracle remainder raises the
    ValueError, and division by zero raises ZeroDivisionError."""
    rng = random.Random(f"divide exact {order} {p}")
    ring = PolyRing(p, ["x", "y", "z"], order)
    non_multiples = 0
    for _ in range(30):
        q = random_poly(rng, ring, max_degree=3, max_terms=4)
        g = random_poly(rng, ring, max_degree=3, max_terms=4)
        if g.is_zero:
            continue
        (quot,), rem = oracle_divide(q * g, [g])
        assert not rem
        quotient = divide_exact(q * g, g)
        assert quotient == q and list(quotient.terms.items()) == list(quot.items())
        f = q * g + random_poly(rng, ring, max_degree=3, max_terms=2)
        if oracle_divide(f, [g])[1]:
            non_multiples += 1
            with pytest.raises(ValueError, match=re.escape(f"{g} does not divide {f} exactly")):
                divide_exact(f, g)
    with pytest.raises(ZeroDivisionError, match="division by the zero polynomial"):
        divide_exact(ring.one(), ring.zero())
    assert non_multiples


def test_ring_mismatch():
    a = PolyRing(2, ["x"]).var("x")
    b = PolyRing(3, ["x"]).var("x")
    with pytest.raises(ValueError):
        a + b


def test_non_integer_coefficients_rejected(f2xyz):
    for bad in (1.5, "1", None):
        with pytest.raises(ValueError, match=re.escape(f"coefficient {bad!r}")):
            f2xyz.poly({(1, 0, 0): bad})
        with pytest.raises(ValueError, match=re.escape(f"coefficient {bad!r}")):
            f2xyz.const(bad)


def test_non_integer_exponents_rejected(f2xyz):
    for bad in (1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="bad monomial"):
            f2xyz.poly({(bad, 0, 0): 1})
        with pytest.raises(ValueError, match="bad monomial"):
            f2xyz.monomial((1, bad, 1))
    with pytest.raises(ValueError, match="bad monomial"):
        f2xyz.monomial((1, -1, 0))
    assert str(f2xyz.monomial((2, 1, 0))) == "x^2*y"


def test_reserved_variable_names():
    with pytest.raises(ValueError):
        PolyRing(2, ["_x"])
    with pytest.raises(ValueError):
        PolyRing(2, ["x", "x"])


def test_degree_cap_guard(f2xyz):
    x, y, _ = f2xyz.gens()
    set_degree_cap(4)
    try:
        with pytest.raises(DegreeCapExceeded):
            (x**2 + y) * (x**3 + y)
        assert (x + y) * (x + y) == x**2 + y**2  # under the cap
    finally:
        set_degree_cap(None)


# -- interned rings ------------------------------------------------------------

def test_a_ring_is_one_object_per_characteristic_variables_and_order():
    S = PolyRing(5, ["x", "y"], block_order(1))
    assert PolyRing(5, ("x", "y"), block_order(1)) is S
    assert pickle.loads(pickle.dumps(S)) is S
    assert copy.copy(S) is S and copy.deepcopy(S) is S
    assert PolyRing(5, ["x", "y"]) is not S
    f = S.var("x") + 2
    assert pickle.loads(pickle.dumps(f)).ring is S


def test_a_pickled_polynomial_carries_no_caches():
    from charp import normal_form

    x, y = PolyRing(3, ["x", "y"]).gens()
    f = x**2 * y + 2 * y + 1
    cold = pickle.dumps(f)
    hash(f)
    f.leading_monomial()
    normal_form(x**3 * y**2, [f])  # packs f as a divisor
    assert f._pk is not None
    assert pickle.dumps(f) == cold
    g = pickle.loads(cold)
    assert g == f
    assert (g._lm, g._hash, g._pk) == (None, None, None)
    assert g.leading_monomial() == f.leading_monomial()


def test_ring_arguments_are_validated_before_the_lookup():
    with pytest.raises(ValueError, match="characteristic"):
        PolyRing(2.0, ["x"])
    PolyRing(2, ["x", "_t0"], internal=True)
    with pytest.raises(ValueError, match="reserved"):
        PolyRing(2, ["x", "_t0"])


def _square_plus_y():
    x, y = PolyRing(3, ["x", "y"]).gens()
    f = x**2 + y
    hash(f)  # cached in the worker, then shipped back with the polynomial
    return f


def test_a_hash_cached_in_a_spawned_worker_agrees_with_the_parent():
    x, y = PolyRing(3, ["x", "y"]).gens()
    f = x**2 + y
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        g = pool.submit(_square_plus_y).result()
    assert g == f
    assert hash(g) == hash(f)
    assert {f: 1}.get(g) == 1
    assert g.ring is f.ring
