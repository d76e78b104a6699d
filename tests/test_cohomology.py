import itertools
import pickle
import random

import pytest

from charp import (
    Ideal,
    InvalidSequenceError,
    NotStabilizedError,
    Polynomial,
    PolyRing,
    QuotientRing,
    cech_class,
    cech_equal,
    cech_is_zero,
    closure_step,
    eta_estimate,
    f_injective_flag,
    parameter_ideal_check,
    scale,
    torsion_order,
    x_act,
)
from charp import cohomology, groebner
from charp.frobenius import frobenius_target
from charp.groebner import normal_form
from charp.ringfile import parse_ring_file
from support import (
    fermat_cubic_torsion_order,
    fermat_ring,
    monomials_of_degree_at_most,
    random_form,
    random_poly,
)


@pytest.fixture(scope="module")
def R2():
    return fermat_ring(2)


def test_cech_zero_examples(R2):
    x, y, z = R2.ambient.gens()
    assert cech_is_zero(cech_class(R2, [x, y], x))
    assert not cech_is_zero(cech_class(R2, [x, y], z**2))
    assert cech_is_zero(cech_class(R2, [x, y], x + y))


def test_cech_class_validation(R2):
    x, y, z = R2.ambient.gens()
    with pytest.raises(InvalidSequenceError):
        cech_class(R2, [x], z)  # too short for dimension 2
    with pytest.raises(InvalidSequenceError):
        cech_class(R2, [x, x], z)  # not a system of parameters
    with pytest.raises(ValueError):
        cech_class(R2, [x, y], z, level=0)
    S = PolyRing(2, ["t"])
    R0 = QuotientRing(S, [S.var("t")])
    with pytest.raises(InvalidSequenceError):
        cech_class(R0, [S.var("t")], S.one())  # dimension 0 ring


def test_x_action_examples(R2):
    x, y, z = R2.ambient.gens()
    zc = cech_class(R2, [x, y], z**2)
    moved = x_act(zc, 1)
    assert moved.numerator == z**4
    assert moved.level == 2
    assert cech_is_zero(moved)
    zero = cech_class(R2, [x, y], x)
    assert cech_is_zero(x_act(zero, 1))
    assert x_act(zc, 0) is zc


def test_x_action_semilinearity(R2):
    x, y, z = R2.ambient.gens()
    rng = random.Random(21)
    base = cech_class(R2, [x, y], R2.ambient.one())
    for _ in range(8):
        s = random_poly(rng, R2.ambient, max_degree=2)
        zc = cech_class(R2, [x, y], random_poly(rng, R2.ambient, max_degree=2))
        lhs = x_act(scale(zc, s), 1)
        rhs = scale(x_act(zc, 1), s * s)  # s^p with p = 2
        assert cech_equal(lhs, rhs)
    # the concrete instance: both sides are [z^2/(x^2 y^2)]
    lhs = x_act(scale(base, z), 1)
    rhs = scale(x_act(base, 1), z**2)
    assert lhs == rhs


def test_cech_equal_cross_level(R2):
    x, y, z = R2.ambient.gens()
    a = cech_class(R2, [x, y], z**2, level=1)
    b = cech_class(R2, [x, y], z**2 * (x * y), level=2)  # scale by b = xy
    assert cech_equal(a, b)
    assert not cech_equal(a, cech_class(R2, [x, y], z**2, level=2))
    with pytest.raises(ValueError):
        cech_equal(a, cech_class(R2, [y, x], z**2))


def test_torsion_order_examples(R2):
    x, y, z = R2.ambient.gens()
    assert torsion_order(cech_class(R2, [x, y], z**2), 4) == 1
    assert torsion_order(cech_class(R2, [x, y], x), 4) == 0
    assert torsion_order(cech_class(R2, [x, y], R2.ambient.one()), 4) is None


def test_torsion_orders_match_the_fermat_cubic_closed_form():
    """Seeded classes [r / (xy)^n], n <= 4, over F_2[x,y,z]/(x^3 + y^3 +
    z^3), with the torsion scan's j_max = 6: the orders equal the closed
    form in ``support``, which reduces r^(2^j) modulo (x^N, y^N) + J with
    z^3 as the cubic's lead.  Half the numerators are drawn from degree
    >= 2n, where classes of degree 0 have order 1, so the draws hold orders
    0, 1 and None, and the membership tests answer both ways."""
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    rng = random.Random(2025)
    orders = set()
    for n in range(1, 5):
        monos = [(a, b, c) for a in range(n + 1) for b in range(n + 1) for c in range(3)]
        for _ in range(30):
            pool = monos if rng.random() < 0.5 else [m for m in monos if sum(m) >= 2 * n]
            terms = {m: 1 for m in rng.sample(pool, rng.randint(1, 4))}
            order = torsion_order(cech_class(R, [x, y], R.ambient.poly(terms), n), 6)
            assert order == fermat_cubic_torsion_order(terms, n, 2, 6)
            orders.add(order)
    assert orders == {0, 1, None}


@pytest.mark.parametrize("p,d,j_max", [(2, 3, 6), (3, 3, 3), (2, 4, 6), (5, 3, 2)])
def test_torsion_orders_match_the_x_act_route(p, d, j_max):
    """``torsion_order`` tests r^(p^j) in (b^(n p^j)) + J by a membership
    of the unformed power, on the ring's level table for b; the oracle
    forms x^j z with ``x_act`` and tests it with ``cech_is_zero`` on plain
    lifts.  Seeded classes [r / b^n] over the Fermat cubic at p = 2, 3 and
    5 (coefficients up to p - 1) and the Fermat quartic at p = 2, whose
    classes have finite nonzero orders: together the orders 0, 1, 2 and
    None, with j_max past s(R).  The classes run in shuffled order over
    three sequences of one ring, (x, y), (y, x) and (y, z), so a table
    read at the wrong sequence, level or j shows."""
    R = fermat_ring(p, d)
    x, y, z = R.ambient.gens()
    rng = random.Random(f"x_act {p} {d}")
    classes = []
    for sequence in ((x, y), (y, x), (y, z)):
        for n in range(1, 4):
            monos = [(a, b, c) for a in range(n + 1) for b in range(n + 1) for c in range(d)]
            for _ in range(8):
                terms = {m: rng.randint(1, p - 1) for m in rng.sample(monos, rng.randint(1, 3))}
                classes.append(cech_class(R, sequence, R.ambient.poly(terms), n))
    rng.shuffle(classes)
    orders = set()
    for c in classes:
        order = torsion_order(c, j_max)
        assert order == _x_act_order(c, j_max), c
        orders.add(order)
    assert {0, None} <= orders and orders - {0, None}
    if d == 4:
        assert 2 in orders
    assert {key[1] for key in R._cache if key[0] == "cech"} == {(x, y), (y, x), (y, z)}


def _x_act_order(z, j_max):
    """The oracle of ``torsion_order``: x^j z formed by ``x_act`` and tested
    by ``cech_is_zero``."""
    return next((j for j in range(j_max + 1) if cech_is_zero(x_act(z, j))), None)


def test_torsion_orders_depend_only_on_the_class():
    """torsion_order([r / b^n]) = torsion_order([(r + g) / b^n]) for seeded
    g in (b^n) + J, over the Fermat cubic at p = 2 and 3 and the Fermat
    quartic at p = 2: the numerator is divided by that ideal's basis, so
    every representative reduces to the same remainder.  The draws hold
    the orders 0, 1, 2 and None."""
    orders = set()
    for p, d, j_max in ((2, 3, 6), (3, 3, 3), (2, 4, 6)):
        R = fermat_ring(p, d)
        x, y, _ = R.ambient.gens()
        rng = random.Random(f"class {p} {d}")
        for n in range(1, 4):
            level = R.lift([x**n, y**n])
            monos = [(a, b, c) for a in range(n + 1) for b in range(n + 1) for c in range(d)]
            for _ in range(15):
                terms = {m: rng.randint(1, p - 1) for m in rng.sample(monos, rng.randint(1, 3))}
                r = R.ambient.poly(terms)
                g = sum((random_poly(rng, R.ambient, 2, 2) * b for b in level.gens), R.ambient.zero())
                order = torsion_order(cech_class(R, [x, y], r, n), j_max)
                assert torsion_order(cech_class(R, [x, y], r + g, n), j_max) == order
                orders.add(order)
    assert orders == {0, 1, 2, None}


@pytest.mark.parametrize("p", [3, 5])
def test_reduced_numerators_match_the_x_act_route(p):
    """Numerators with a term in the initial ideal of B = (x^n, y^n) + J
    (such as x^n, or x^3, the cubic's lead), so the division by B's basis
    changes them, with coefficients from 2 to p - 1, where -c != c: the
    orders equal the ``x_act`` route's over the Fermat cubic.  Reducing
    modulo the larger ideal (x^(n-1), y^(n-1)) + J instead changes the
    order of some class, so these draws tell the two divisions apart."""
    R = fermat_ring(p)
    x, y, _ = R.ambient.gens()
    rng = random.Random(f"initial ideal {p}")
    orders, moved = set(), 0
    for n in range(2, 5):
        basis = R.lift([x**n, y**n]).groebner_basis()
        larger = R.lift([x ** (n - 1), y ** (n - 1)]).groebner_basis()
        monos = [R.ambient.monomial((a, b, c)) for a in range(max(n, 3) + 1) for b in range(n + 1) for c in range(3)]
        leads = [m for m in monos if normal_form(m, basis) != m]
        assert x**n in leads and x**3 in leads
        for _ in range(12):
            r = sum((rng.randint(2, p - 1) * m for m in rng.sample(leads, 1) + rng.sample(monos, rng.randint(0, 2))),
                    R.ambient.zero())
            order = _x_act_order(cech_class(R, [x, y], r, n), 2)
            assert torsion_order(cech_class(R, [x, y], r, n), 2) == order
            moved += _x_act_order(cech_class(R, [x, y], normal_form(r, larger), n), 2) != order
            orders.add(order)
    assert {0, None} <= orders
    assert moved


def test_torsion_matches_closure_chain(R2):
    # torsion_order <= j  <=>  numerator in C_j, exhaustively in degree <= 3
    x, y, _ = R2.ambient.gens()
    lift = R2.lift([x, y])
    chain = [lift] + [closure_step(R2, lift, e) for e in (1, 2, 3)]
    for m in monomials_of_degree_at_most(R2.ambient, 3):
        zc = cech_class(R2, [x, y], m)
        t = torsion_order(zc, 3)
        for j, Cj in enumerate(chain):
            expected = t is not None and t <= j
            assert Cj.contains(m) == expected


def test_eta_estimate_fermat(R2):
    x, y, _ = R2.ambient.gens()
    report = eta_estimate(R2, [x, y], n_max=2)
    assert report.per_n == ((0, 1), (1, 1), (2, 1))
    assert report.eta_hat == 1
    assert report.complete
    assert not f_injective_flag(report)
    assert "n ≤ 2" in report.label


def test_eta_estimate_regular_ring():
    S = PolyRing(2, ["x", "y"])
    R = QuotientRing(S, [])
    report = eta_estimate(R, list(S.gens()), n_max=1)
    assert report.eta_hat == 0
    assert f_injective_flag(report)


def test_eta_estimate_fermat_p7():
    R7 = fermat_ring(7)
    x, y, _ = R7.ambient.gens()
    report = eta_estimate(R7, [x, y], n_max=1)
    assert report.eta_hat == 0
    assert report.complete
    assert f_injective_flag(report)


def test_eta_rejects_non_sop(R2):
    x, _, _ = R2.ambient.gens()
    with pytest.raises(InvalidSequenceError):
        eta_estimate(R2, [x, x], n_max=1)


def _quartic():
    """The rational quartic F_2[s^4, s^3 t, s t^3, t^4]: dimension 2, depth 1."""
    S = PolyRing(2, ["a", "b", "c", "d"])
    a, b, c, d = S.gens()
    return QuotientRing(S, [a * d - b * c, b**3 - a**2 * c, c**3 - b * d**2, a * c**2 - b**2 * d])


def _non_cm_scans():
    """(ring, sop, failing index): sops of rings that are not Cohen-Macaulay,
    so no sop of theirs is a regular sequence; both have HSL number 0."""
    T = PolyRing(2, ["x", "y"])
    x, y = T.gens()
    Q = _quartic()
    a, _, _, d = Q.ambient.gens()
    return [(QuotientRing(T, [x**2, x * y]), [y], 0), (Q, [a, d], 1)]


def test_eta_rejects_a_sop_that_is_not_regular():
    for R, sop, index in _non_cm_scans():
        assert R.is_system_of_parameters(sop)
        with pytest.raises(InvalidSequenceError, match=f"not regular \\(fails at index {index}\\)"):
            eta_estimate(R, sop, n_max=1)


def test_eta_on_a_dimension_zero_ring_scans_the_empty_sop():
    S = PolyRing(2, ["x", "y"])
    x, y = S.gens()
    report = eta_estimate(QuotientRing(S, [x**2, y**3]), [], n_max=1)
    assert report.per_n == ((0, 2), (1, 2))
    assert report.eta_hat == 2 and report.complete


def _validator_rings():
    """(ring, Cohen-Macaulay?) for the differential check of the sop test."""
    S2 = PolyRing(2, ["x", "y", "z"])
    x, y, z = S2.gens()
    S3 = PolyRing(3, ["x", "y", "z", "w"])
    u, v, s, t = S3.gens()
    return [
        (QuotientRing(PolyRing(3, ["x", "y", "z"]), []), True),
        (fermat_ring(2), True),
        (QuotientRing(S3, [u * v - s * t, u**2 + v**2 + s**2 + t**2]), True),
        (QuotientRing(S2, [x * y, x * z]), False),
        (QuotientRing(S2, [x**2, x * y]), False),
        (_quartic(), False),
    ]


def test_cech_and_eta_accept_exactly_the_regular_sops():
    # one check guards both: a homogeneous sequence passes iff it is a
    # system of parameters and a poor regular sequence
    rng = random.Random(16)
    for R, cohen_macaulay in _validator_rings():
        verdicts = []
        for trial in range(12):
            length = R.dimension + (0 if trial % 4 else rng.choice([-1, 1]))
            seq = [random_form(rng, R.ambient, rng.choice([1, 1, 2])) for _ in range(max(length, 1))]
            is_sop = R.is_system_of_parameters(seq)
            expected = is_sop and R.is_poor_regular_sequence(seq).ok
            for build in (
                lambda: cech_class(R, seq, R.ambient.one()),
                lambda: eta_estimate(R, seq, n_max=0, e_max=1),
            ):
                try:
                    build()
                    accepted = True
                except InvalidSequenceError:
                    accepted = False
                assert accepted == expected, (R, seq)
            verdicts.append((is_sop, expected))
        # every ring drew a sop; on a Cohen-Macaulay ring each sop is regular,
        # on the others none is, so the regularity test is what rejects it
        assert any(is_sop for is_sop, _ in verdicts), R
        assert all(ok == (is_sop and cohen_macaulay) for is_sop, ok in verdicts), R


def test_cech_ideals_are_plain_lifts(monkeypatch):
    """A torsion order divides the numerator once by the cached basis of
    its own level's lift, then reads the cached targets of that lift for
    j >= 1, from the ring's level table for the sequence: the first class
    of a level builds its lifts and packings, a second class of that level
    builds none, and no ``normal_form`` runs.  The table is the one cache
    family the classes add."""
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    divided, read, built = [], [], []
    original_remainder, original_contains = Ideal.remainder, Ideal.contains
    original_lift, original_divisors = QuotientRing.lift, groebner._Divisors.__init__

    def dividing(ideal, f):
        divided.append(ideal)
        return original_remainder(ideal, f)

    def recording(ideal, f, e=0):
        read.append((ideal, e))
        return original_contains(ideal, f, e)

    def lifting(ring, gens):
        built.append("lift")
        return original_lift(ring, gens)

    def packing(divs, *args, **kwargs):
        built.append("packing")
        original_divisors(divs, *args, **kwargs)

    def no_normal_form(f, reducers):
        raise AssertionError("normal_form called")

    assert not hasattr(cohomology, "normal_form")
    for n in (1, 2):
        base = R.lift([x**n, y**n])
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "normal_form", no_normal_form)
            patch.setattr(Ideal, "remainder", dividing)
            patch.setattr(Ideal, "contains", recording)
            assert torsion_order(cech_class(R, [x, y], R.ambient.one(), n), 3) is None
            # the j = 0 test is the division, and level n * p^j reads the
            # target of (b^n) at e = j
            assert len(divided) == 1 and divided[0] is base
            assert base._divs is not None
            assert [e for _, e in read] == [1, 2, 3]
            for ideal, j in read:
                assert ideal is frobenius_target(R, base, j)
            first = read[:]
            divided.clear()
            read.clear()
            patch.setattr(QuotientRing, "lift", lifting)
            patch.setattr(groebner._Divisors, "__init__", packing)
            assert torsion_order(cech_class(R, [x, y], z, n), 3) is None
            assert built == []
            assert len(divided) == 1 and divided[0] is base and read == first
            divided.clear()
            read.clear()
    eta_estimate(R, [x, y], n_max=1)
    assert {key[0] for key in R._cache} == {"lift", "frob_root", "root_colon", "cech"}


def test_sequence_checks_are_cached_only_on_success():
    """A sequence that fails the sop or regularity check raises on every
    call and leaves no entry, also in a ring that holds a valid one; two
    rings read from one ring file keep their own entries; and a ring
    whose cache holds level tables pickles, as a warm ring sent to a
    worker process does, and answers as before."""
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    assert torsion_order(cech_class(R, [x, y], z**2), 3) == 1
    for _ in range(2):
        with pytest.raises(InvalidSequenceError, match="system of parameters"):
            cech_class(R, [x, x], z)
        with pytest.raises(InvalidSequenceError, match="system of parameters"):
            eta_estimate(R, [x, x], n_max=0)
    Q, sop, index = _non_cm_scans()[1]
    for _ in range(2):
        with pytest.raises(InvalidSequenceError, match=f"not regular \\(fails at index {index}\\)"):
            cech_class(Q, sop, Q.ambient.one())
    assert not any(key[0] == "cech" for key in Q._cache)
    assert [key[1] for key in R._cache if key[0] == "cech"] == [(x, y)]

    text = "char 2;\nvars x y z;\nquotient x^3 + y^3 + z^3;\n"
    R1, R2 = parse_ring_file(text).quotient_ring(), parse_ring_file(text).quotient_ring()
    a, b, _ = R1.ambient.gens()
    assert torsion_order(cech_class(R1, [a, b], R1.ambient.one(), 2), 2) is None
    assert not any(key[0] == "cech" for key in R2._cache)
    assert R2.lift([a**2, b**2]) is not R1.lift([a**2, b**2])

    warm = pickle.loads(pickle.dumps(R))
    (key, (sequence, table)), = [(k, v) for k, v in warm._cache.items() if k[0] == "cech"]
    assert sequence == (x, y) and sorted(table) == [1]
    assert [ideal.gens for ideal in table[1]] == [ideal.gens for ideal in R._cache[key][1][1]]
    for n in (1, 2, 3):
        for r in (z, z**2, x * z + y):
            assert (torsion_order(cech_class(warm, [x, y], r, n), 3)
                    == torsion_order(cech_class(R, [x, y], r, n), 3))


def test_eta_rejects_negative_scan_bound(R2):
    # an empty scan must not read as a complete one with eta_hat unknown
    x, y, _ = R2.ambient.gens()
    with pytest.raises(ValueError, match="n_max"):
        eta_estimate(R2, [x, y], n_max=-1)


def test_eta_incomplete_scan(R2):
    x, y, _ = R2.ambient.gens()
    report = eta_estimate(R2, [x, y], n_max=0, e_max=1, window=2)
    assert not report.complete
    assert "lower bound" in report.label
    with pytest.raises(NotStabilizedError):
        f_injective_flag(report)


def test_parameter_ideal_check_examples(R2):
    x, y, _ = R2.ambient.gens()
    assert parameter_ideal_check(R2, [x], [y], 1)
    assert not parameter_ideal_check(R2, [x, y], [], 0)
    assert parameter_ideal_check(R2, [x, y], [], 1)
    with pytest.raises(InvalidSequenceError):
        parameter_ideal_check(R2, [x], [x], 1)
    with pytest.raises(InvalidSequenceError):
        parameter_ideal_check(R2, [x], [], 1)  # extension missing


def test_torsion_of_certified_closure_generators(R2):
    # generators of the stabilized closure have torsion order at most E
    from charp import frobenius_closure

    x, y, _ = R2.ambient.gens()
    rep = frobenius_closure(R2, [x, y])
    E = rep.stabilization_index
    for g in rep.chain[-1][1]:
        t = torsion_order(cech_class(R2, [x, y], g), E)
        assert t is not None and t <= E


def _fedder_f_injective(f: Polynomial) -> bool:
    """Fedder's criterion for the Gorenstein ring S/(f): F-injective (here
    the same as F-pure) exactly when f^(p-1) has a monomial with every
    exponent below p."""
    p = f.ring.p
    return any(all(e < p for e in m) for m in (f ** (p - 1)).terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_eta_scan_matches_fedders_criterion_on_plane_cubics(p):
    rng = random.Random(1000 + p)
    S = PolyRing(p, ["x", "y", "z"])
    x, y, _ = S.gens()
    cubics = [m for m in itertools.product(range(4), repeat=3) if sum(m) == 3]
    verdicts = []
    while len(verdicts) < 8:
        f = S.poly({m: rng.randrange(p) for m in cubics})
        if f.is_zero:
            continue
        try:
            report = eta_estimate(QuotientRing(S, [f]), [x, y], n_max=1)
        except InvalidSequenceError:  # (x, y) is no sop: f has no z^3 term
            continue
        assert report.complete
        assert f_injective_flag(report) == _fedder_f_injective(f), f
        verdicts.append(_fedder_f_injective(f))
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_eta_scan_of_the_fermat_cubic_vanishes_exactly_when_p_is_1_mod_3(p):
    R = fermat_ring(p)
    x, y, _ = R.ambient.gens()
    report = eta_estimate(R, [x, y], n_max=1)
    assert report.complete
    assert (report.eta_hat == 0) == (p % 3 == 1)
    assert f_injective_flag(report) == _fedder_f_injective(R.defining.gens[0])
