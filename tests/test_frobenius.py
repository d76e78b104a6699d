import itertools
import math
import random

import pytest

from charp import (
    Ideal,
    NotStabilizedError,
    PolyRing,
    QuotientRing,
    STATUS_NOT_STABILIZED,
    STATUS_STABLE,
    bracket_power,
    cech_class,
    cech_is_zero,
    closure_step,
    eta_estimate,
    frobenius_closure,
    frobenius_power,
    frobenius_power_family,
    frobenius_preimage,
    frobenius_root,
    instantiate_template,
    normal_form,
    q_number,
    run_census,
    uniform_census,
)
from charp.cohomology import parameter_ideal_check
from charp.frobenius import bracket_powers_agree, frobenius_root_ideal, frobenius_target
from support import (
    all_f2_combinations,
    count_buchberger_runs,
    fermat_ring,
    monomials_of_degree_at_most,
    random_form,
    random_ideal,
    random_poly,
)


# -- bracket powers ---------------------------------------------------------------

def test_bracket_power_examples():
    S = PolyRing(2, ["x", "y"])
    x, y = S.gens()
    I = Ideal(S, [x, y])
    assert set(bracket_power(I, 2).gens) == {x**4, y**4}
    assert bracket_power(I, 0).gens == I.gens
    assert bracket_power(Ideal(S, [x + y]), 1).gens == (x**2 + y**2,)


def test_bracket_power_algebra():
    S = PolyRing(3, ["x", "y"])
    rng = random.Random(5)
    for _ in range(10):
        I = random_ideal(rng, S, max_gens=2)
        K = random_ideal(rng, S, max_gens=2)
        for a in (1, 2):
            assert bracket_power(I + K, a).equals(bracket_power(I, a) + bracket_power(K, a))
            assert bracket_power(bracket_power(I, a), 1).equals(bracket_power(I, a + 1))


# -- preimages ----------------------------------------------------------------------

def test_preimage_univariate_examples():
    S = PolyRing(2, ["x"])
    (x,) = S.gens()
    assert frobenius_preimage(Ideal(S, [x**2]), 1).groebner_basis() == (x,)
    assert frobenius_preimage(Ideal(S, [x**3]), 1).groebner_basis() == (x**2,)
    with pytest.raises(ValueError):
        frobenius_preimage(Ideal(S, [x]), 0)


def test_preimage_fermat_golden_value():
    # U_1((x^2, y^2, x^3+y^3+z^3)) = (x, y, z^2); completeness certified by
    # enumerating every homogeneous F_2 combination of degree <= 2 below
    S = PolyRing(2, ["x", "y", "z"])
    x, y, z = S.gens()
    g = x**3 + y**3 + z**3
    K = Ideal(S, [x**2, y**2, g])
    U = frobenius_preimage(K, 1)
    assert U.groebner_basis() == (z**2, x, y)

    gb_K = K.groebner_basis()
    found = []
    for r in all_f2_combinations(monomials_of_degree_at_most(S, 2)):
        if r.is_zero:
            continue
        if normal_form(frobenius_power(r, 1), gb_K).is_zero:
            found.append(r)
            assert r in U
    # the oracle-found members generate the whole preimage
    assert Ideal(S, found).equals(U)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1)])
def test_preimage_direct_check_oracle(p, e):
    # r in U_e(K)  <=>  NF(r^(p^e), GB(K)) = 0, on a spanning sample
    ring = PolyRing(p, ["x", "y"])
    rng = random.Random(60 + p + e)
    for _ in range(6):
        K = random_ideal(rng, ring, max_gens=2, max_degree=3)
        if not K.gens:
            continue
        U = frobenius_preimage(K, e)
        gb_K = K.groebner_basis()
        sample = monomials_of_degree_at_most(ring, 3)
        sample += [random_poly(rng, ring, max_degree=4) for _ in range(10)]
        for r in sample:
            direct = normal_form(frobenius_power(r, e), gb_K).is_zero if gb_K else r.is_zero
            assert (r in U) == direct
        # adjunction: U^[p^e] is contained in K
        assert bracket_power(U, e).is_subset_of(K)


def test_elimination_variables_avoid_the_ring_own_names():
    # the adjoined variable is the first unused _t<i> or _u<i>, so a ring
    # that already has _t0 and _u still intersects and takes preimages
    ring = PolyRing(2, ["x", "_t0", "_u"], internal=True)
    rng = random.Random(71)
    sample = monomials_of_degree_at_most(ring, 2)
    sample += [random_poly(rng, ring, max_degree=3) for _ in range(8)]
    for _ in range(3):
        I = random_ideal(rng, ring, max_gens=2, max_degree=2)
        K = random_ideal(rng, ring, max_gens=2, max_degree=2)
        meet = I.intersect(K)
        U = frobenius_preimage(K, 1)
        gb_K = K.groebner_basis()
        for r in sample:
            assert (r in meet) == (r in I and r in K)
            direct = normal_form(frobenius_power(r, 1), gb_K).is_zero if gb_K else r.is_zero
            assert (r in U) == direct


# -- single closure steps -------------------------------------------------------------

def test_closure_step_examples():
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    C1 = closure_step(R, R.lift([x, y]), 1)
    assert C1.groebner_basis() == (z**2, x, y)
    with pytest.raises(ValueError):
        closure_step(R, R.lift([x, y]), 0)

    S = PolyRing(2, ["x", "y"])
    u, v = S.gens()
    Rfree = QuotientRing(S, [])
    C = closure_step(Rfree, Rfree.lift([u, v]), 1)
    assert C.equals(Rfree.lift([u, v]))

    unit = Rfree.lift([S.one()])
    assert closure_step(Rfree, unit, 1).equals(unit)


def _count_preimages(monkeypatch):
    """Route closure_step's preimage through a counter; returns the
    original function (the oracle) and the list of recorded calls."""
    import charp.frobenius

    oracle = charp.frobenius.frobenius_preimage
    calls = []

    def counting(K, e):
        calls.append(e)
        return oracle(K, e)

    monkeypatch.setattr(charp.frobenius, "frobenius_preimage", counting)
    return oracle, calls


@pytest.mark.parametrize("p,max_degree", [(2, 3), (3, 3), (5, 2)])
def test_closure_step_matches_preimage_oracle(p, max_degree, monkeypatch):
    # seeded random J with c = 0, 1 or 2 generators (zero, principal or two
    # elements), homogeneous or not, and J = h*(l_1, l_2), which is never a
    # complete intersection: the root colon (and the fallback where the
    # height test fails) against the preimage
    oracle, calls = _count_preimages(monkeypatch)
    rng = random.Random(92 + p)
    colon_runs = []  # (c, J homogeneous, J passes the height test, C_e > I)

    def check(R, I):
        J = R.defining.gens
        for e in (1, 2):
            expected = R.lift(oracle(frobenius_target(R, I, e), e))
            before = len(calls)
            C = closure_step(R, I, e)
            assert C.equals(expected)
            if len(calls) == before:
                homogeneous = all(f.is_homogeneous() for f in J)
                ci = R._height_test(())
                colon_runs.append((len(J), homogeneous, ci, not C.equals(I)))

    for variables in (["x", "y"], ["x", "y", "z"]):
        S = PolyRing(p, variables)
        for c in range(S.nvars):
            for _ in range(6 if c == 1 else 3):
                J = [random_poly(rng, S, max_degree=max_degree) for _ in range(c)]
                if any(f.total_degree() < 1 for f in J):
                    continue
                R = QuotientRing(S, J)
                check(R, R.lift(random_ideal(rng, S, max_gens=S.nvars - c, max_degree=2)))
    # with I = (g) and h = g + a for a constant a != 0, (g, h) is the unit
    # ideal, so the height test asks only for dim S/(g, l_1, l_2) = 0
    for _ in range(6):
        g, l1, l2 = [random_poly(rng, S, max_degree=d) for d in (2, 1, 1)]
        if any(f.total_degree() < 1 for f in (g, l1, l2)):
            continue
        h = g + rng.randint(1, p - 1)
        R = QuotientRing(S, [h * l1, h * l2])
        check(R, R.lift([g]))
    assert {c for c, _, _, _ in colon_runs} == {0, 1, 2}
    assert {homogeneous for c, homogeneous, _, _ in colon_runs if c} == {True, False}
    assert not all(ci for _, _, ci, _ in colon_runs)
    assert any(grew for _, _, _, grew in colon_runs)


def test_closure_step_falls_back_where_the_colon_is_wrong(monkeypatch):
    # f is a zerodivisor modulo I's other generator, so the height test
    # fails; the colon alone would give a strictly larger ideal
    oracle, calls = _count_preimages(monkeypatch)
    S = PolyRing(2, ["x", "y", "z"])
    x, y, z = S.gens()
    cases = [
        (x**2 * y, [x * z], [x * y, z], [x * y, x * z]),
        (x**2, [x * y], [x, y], [x]),
    ]
    for f, gens, colon, truth in cases:
        R = QuotientRing(S, [f])
        I = R.lift(gens)
        assert I.colon_ideal(frobenius_root_ideal(R, 1)).equals(R.lift(colon))
        calls.clear()
        C = closure_step(R, I, 1)
        assert calls == [1]
        assert C.equals(R.lift(truth))
        assert C.equals(R.lift(oracle(frobenius_target(R, I, 1), 1)))

    # J = (xy, xz) (not a complete intersection: xz is a zerodivisor
    # modulo xy) with I = (y + z) and (x + y, z): both fail the height test,
    # dim 1 != 3 - 1 - 2 and dim 0 != 3 - 2 - 2, so the preimage runs; the
    # colon by I_1(x^2yz) = (x) would again be too large
    R = QuotientRing(S, [x * y, x * z])
    for gens, dim in (([y + z], 1), ([x + y, z], 0)):
        I = R.lift(gens)
        assert I.krull_dimension() == dim != 3 - len(gens) - 2
        calls.clear()
        C = closure_step(R, I, 1)
        assert calls == [1]
        assert C.equals(R.lift(oracle(frobenius_target(R, I, 1), 1)))
        assert not I.colon_ideal(frobenius_root_ideal(R, 1)).is_subset_of(C)


@pytest.mark.parametrize("p", [2, 3])
def test_closure_step_takes_the_colon_where_the_height_test_passes(p, monkeypatch):
    # J = (xy, xz) fails the height test, but with I = (x + 1) the step's
    # test passes, dim S/(x + 1, xy, xz) = 0 = 3 - 1 - 2, and with I = (1)
    # the lift is the unit ideal, which passes it too: the colon is (1)
    oracle, calls = _count_preimages(monkeypatch)
    S = PolyRing(p, ["x", "y", "z"])
    x, y, z = S.gens()
    R = QuotientRing(S, [x * y, x * z])
    assert not R._height_test(())
    for gens, dim in (([x + 1], 0), ([S.one()], -1)):
        I = R.lift(gens)
        assert I.krull_dimension() == dim
        for e in (1, 2):
            C = closure_step(R, I, e)
            assert calls == []
            assert C.equals(R.lift(oracle(frobenius_target(R, I, e), e)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closure_step_over_a_polynomial_ring_is_the_identity(p, monkeypatch):
    # Frobenius is flat on S (Kunz), so C_e = I for every I, also for ideals
    # not generated by a regular sequence: no height test, no preimage and
    # no elimination (every elimination, of Ideal.eliminate, an intersection
    # or a preimage, goes through charp.groebner._eliminate, which
    # charp.frobenius imports by name)
    import charp.frobenius
    import charp.groebner

    _, calls = _count_preimages(monkeypatch)
    eliminations = []
    eliminate = charp.groebner._eliminate

    def counting(ring, variables, k, tables, back):
        eliminations.append(variables[:k])
        return eliminate(ring, variables, k, tables, back)

    for module in (charp.groebner, charp.frobenius):
        monkeypatch.setattr(module, "_eliminate", counting)
    S = PolyRing(p, ["x", "y", "z"])
    x, y, z = S.gens()
    R = QuotientRing(S, [])
    for gens in ([x**2, x * y], [x * y, x * z, y * z]):
        I = R.lift(gens)
        for e in (1, 2):
            assert closure_step(R, I, e).equals(I)
    assert calls == []
    assert eliminations == []


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("variables,faces", [
    ("xyz", ["xy", "yz", "xz"]),
    ("xyzw", ["xy", "yz", "zw"]),
    ("xyzw", ["xyz", "zw"]),
])
def test_closure_on_a_stanley_reisner_ring_is_the_lift(p, variables, faces, monkeypatch):
    # Stanley-Reisner rings are F-pure, so every ideal is Frobenius closed:
    # the chain stays at I's lift and Q = p^0.  None of these J is a
    # complete intersection and the ideals are homogeneous, so every step's
    # height test fails and the elimination preimage runs
    _, calls = _count_preimages(monkeypatch)
    S = PolyRing(p, list(variables))
    R = QuotientRing(S, [S.parse("*".join(face)) for face in faces])
    rng = random.Random(1000 * p + len(faces))
    for _ in range(10):
        gens = [random_form(rng, S, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        calls.clear()
        report = frobenius_closure(R, gens)
        assert report.chain[-1][1] == R.lift(gens).groebner_basis()
        assert report.q_exponent == 0
        assert calls


@pytest.mark.parametrize("p,defining,route", [
    (2, ["x^3 + y^3 + z^3"], "colon"),
    (3, ["x^4 + y^4 + z^4"], "colon"),
    (2, ["x*y", "y*z", "x*z"], "preimage"),
])
def test_adjoining_a_variable_commutes_with_closure(p, defining, route, monkeypatch):
    """R[t] is free over R, so C_e(I*R[t]) = C_e(I)*R[t] for every e: the
    closure chain of I over R[t] is the chain over R with t adjoined, and
    the Q-exponent is the same.  Each draw takes the same route over both
    rings, and over each ring the named route runs."""
    _, calls = _count_preimages(monkeypatch)
    S = PolyRing(p, ["x", "y", "z"])
    R = QuotientRing(S, [S.parse(f) for f in defining])
    St = PolyRing(p, ["x", "y", "z", "t"])

    def with_t(g):
        return St.poly({m + (0,): c for m, c in g.terms.items()})

    Rt = QuotientRing(St, [with_t(f) for f in R.defining.gens])
    rng = random.Random(14 + p)
    colon_draws = 0
    for _ in range(4):
        gens = [random_form(rng, S, rng.randint(1, 2)) for _ in range(2)]
        calls.clear()
        report = frobenius_closure(R, gens)
        preimages = len(calls)
        calls.clear()
        extended = frobenius_closure(Rt, [with_t(g) for g in gens])
        assert extended.chain == tuple((e, tuple(map(with_t, gb))) for e, gb in report.chain)
        assert extended.q_exponent == report.q_exponent
        assert len(calls) == preimages
        colon_draws += not preimages
    assert colon_draws > 0 if route == "colon" else colon_draws == 0


@pytest.mark.parametrize("p,defining", [
    (2, ["x^3 + y^3 + z^3"]),
    (3, ["x^4 + y^4 + z^4"]),
    (2, ["x*y", "y*z", "x*z"]),
])
def test_permuting_the_variables_commutes_with_closure(p, defining):
    """A permutation s of the variables is a ring isomorphism S/J -> S/s(J),
    so C_e(s(I)) = s(C_e(I)) for every e: the closure chain of s(I) over
    S/s(J) is the chain of I with s applied, compared as reduced bases of
    the images, with the same Q-exponent.  The order is not permuted, so
    the images' bases may have other leads; some draw must show that, and
    over the colon rings some closure must grow."""
    S = PolyRing(p, ["x", "y", "z"])
    R = QuotientRing(S, [S.parse(f) for f in defining])
    rng = random.Random(23 + p)
    moved_leads = grown = 0
    for _ in range(4):
        perm = rng.choice(list(itertools.permutations(range(3)))[1:])

        def image(g):
            return S.poly({tuple(m[perm[k]] for k in range(3)): c for m, c in g.terms.items()})

        gens = [random_form(rng, S, rng.randint(1, 2)) for _ in range(2)]
        report = frobenius_closure(R, gens)
        permuted = frobenius_closure(QuotientRing(S, [image(f) for f in R.defining.gens]),
                                     [image(g) for g in gens])
        assert permuted.chain == tuple((e, Ideal(S, [image(g) for g in gb]).groebner_basis())
                                       for e, gb in report.chain)
        assert permuted.q_exponent == report.q_exponent
        assert permuted.stabilization_index == report.stabilization_index
        leads = {image(g).leading_monomial() for g in report.chain[-1][1]}
        moved_leads += leads != {g.leading_monomial() for g in permuted.chain[-1][1]}
        grown += report.chain[-1][1] != report.chain[0][1]
    assert moved_leads > 0
    assert grown > 0 if len(defining) == 1 else grown == 0


@pytest.mark.parametrize("defining", [["x^4 + y^4 + z^4"], ["x*y", "y*z", "x*z"]])
def test_scaling_the_variables_by_units_commutes_with_closure(defining):
    """Over F_3, x_i -> c_i*x_i with units c_i maps J to itself (c^4 = 1
    for the Fermat quartic, and a monomial ideal to itself), so it is an
    automorphism of S/J and C_e(s(I)) = s(C_e(I)) for every e: the chain of
    s(I) is the chain of I with s applied, compared as reduced bases of the
    images, with the same Q-exponent and stabilization index.  The leads
    stay, the coefficients move: some closure must grow on the quartic,
    and each draw scales some variable by 2."""
    p = 3
    S = PolyRing(p, ["x", "y", "z"])
    R = QuotientRing(S, [S.parse(f) for f in defining])
    rng = random.Random(len(defining))
    grown = 0
    for _ in range(4):
        scales = rng.choice([c for c in itertools.product((1, 2), repeat=3) if 2 in c])

        def image(g):
            return S.poly({m: c * math.prod(map(pow, scales, m)) % p for m, c in g.terms.items()})

        assert Ideal(S, [image(f) for f in R.defining.gens]).groebner_basis() == R.defining.groebner_basis()
        gens = [random_form(rng, S, rng.randint(1, 2)) for _ in range(2)]
        report = frobenius_closure(R, gens)
        scaled = frobenius_closure(R, [image(g) for g in gens])
        assert scaled.chain == tuple((e, Ideal(S, [image(g) for g in gb]).groebner_basis())
                                     for e, gb in report.chain)
        assert scaled.q_exponent == report.q_exponent
        assert scaled.stabilization_index == report.stabilization_index
        grown += report.chain[-1][1] != report.chain[0][1]
    assert grown > 0 if len(defining) == 1 else grown == 0


@pytest.mark.parametrize("p", [5, 7])
def test_census_and_eta_ignore_generator_order_and_unit_multiples(p):
    """Reordering generators and scaling them by units keeps the ideal, so
    over the Fermat cubic a census of x^a, y^b and one of 2y^b, 3x^a give
    the same rows (parameters, closure digest, Q-exponent, regular-sequence
    flag, stabilization), uniform_e and recheck; an eta scan of the sop
    (y, 2x) gives the per-n Q-exponents of (x, y)."""
    R = fermat_ring(p)
    ranges = {"a": range(1, 4), "b": range(1, 4)}
    plain = uniform_census(R, "x^{a}, y^{b}", ranges)
    moved = uniform_census(R, "2*y^{b}, 3*x^{a}", ranges)
    assert moved.rows == plain.rows
    assert (moved.uniform_e, moved.recheck_ok) == (plain.uniform_e, plain.recheck_ok)
    x, y, _ = R.ambient.gens()
    assert eta_estimate(R, [y, 2 * x]).per_n == eta_estimate(R, [x, y]).per_n


@pytest.mark.parametrize("p", [2, 5, 7])
def test_root_ideal_recursion_matches_direct_root(p):
    # A_e by Katzman's recursion against I_e(f**(p**e - 1)) formed directly
    R = fermat_ring(p)
    (f,) = R.defining.gens
    for e in (1, 2, 3):
        A = frobenius_root_ideal(R, e)
        assert frobenius_root_ideal(R, e) is A
        direct = Ideal(R.ambient, list(frobenius_root(f ** (p**e - 1), e).values()))
        assert A.gens == direct.groebner_basis()


def test_root_ideal_of_a_plane_cubic_follows_its_hasse_invariant():
    """Fedder's criterion for a plane cubic f: A_1 = I_1(f^(p-1)) is the
    unit ideal exactly when f^(p-1) lies outside m^[p], that is when the
    Hasse invariant, the coefficient of (xyz)^(p-1) in f^(p-1), is nonzero
    (every other monomial of degree 3(p-1) has an exponent >= p).  Checked
    on seeded random cubics; the Fermat cubic's is nonzero exactly at
    p = 1 mod 3."""
    rng = random.Random(2300)
    pure = 0
    for p in (2, 3, 5, 7, 11, 13):
        S = PolyRing(p, ["x", "y", "z"])
        for _ in range(8):
            f = random_form(rng, S, 3, max_terms=rng.randint(2, 10))
            hasse = (f ** (p - 1)).terms.get((p - 1,) * 3, 0)
            unit = frobenius_root_ideal(QuotientRing(S, [f]), 1).gens == (S.one(),)
            assert unit == (hasse != 0), (p, f)
            pure += unit
        R = fermat_ring(p)
        assert (frobenius_root_ideal(R, 1).gens == (R.ambient.one(),)) == (p % 3 == 1), p
    assert 8 <= pure <= 40  # both outcomes among the 48 cubics


def _count_colons(monkeypatch):
    """Route Ideal.colon_ideal through a counter; returns the call list."""
    original = Ideal.colon_ideal
    calls = []

    def counting(self, other):
        calls.append(other.gens)
        return original(self, other)

    monkeypatch.setattr(Ideal, "colon_ideal", counting)
    return calls


def test_closure_step_caches_its_colon_per_root_ideal(monkeypatch):
    calls = _count_colons(monkeypatch)
    # Fermat cubic at p=2: A_1 = A_2 = (x, y, z), so the chain C_0, C_1, C_2
    # takes one colon and C_2 is C_1
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    report = frobenius_closure(R, [x, y])
    assert [e for e, _ in report.chain] == [0, 1, 2]
    assert frobenius_root_ideal(R, 1).gens == frobenius_root_ideal(R, 2).gens
    assert len(calls) == 1
    lift = R.lift([x, y])
    assert closure_step(R, lift, 2) is closure_step(R, lift, 1)
    assert len(calls) == 1

    # x^4 + y^4 + z^4 at p=2: A_1 != A_2 = A_3, so steps 1 and 2 take one
    # colon each and step 3 reuses step 2's
    S = PolyRing(2, ["x", "y", "z"])
    x, y, z = S.gens()
    R = QuotientRing(S, [x**4 + y**4 + z**4])
    assert frobenius_root_ideal(R, 1).gens != frobenius_root_ideal(R, 2).gens
    assert frobenius_root_ideal(R, 2).gens == frobenius_root_ideal(R, 3).gens
    calls.clear()
    lift = R.lift([x, y])
    steps = []
    for e in (1, 2, 3):
        steps.append(closure_step(R, lift, e))
        assert calls[-1] == frobenius_root_ideal(R, min(e, 2)).gens
        assert len(calls) == min(e, 2)
    assert steps[2] is steps[1]
    assert not steps[1].equals(steps[0])


@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_target_cached_per_ring(p):
    S = PolyRing(p, ["x", "y"])
    x, y = S.gens()
    R = QuotientRing(S, [x**2 * y + y**3])
    rng = random.Random(70 + p)
    for _ in range(4):
        I = R.lift(random_ideal(rng, S, max_gens=2, max_degree=2))
        for e in (0, 1, 2):
            target = frobenius_target(R, I, e)
            # keyed by generators, so an equal lift built elsewhere hits too
            assert frobenius_target(R, Ideal(S, I.gens), e) is target
            expected = bracket_power(I, e) + R.defining
            assert target.groebner_basis() == expected.groebner_basis()
        assert frobenius_target(R, I, 0) is I
    # the exponent is checked even when I has no generators of its own
    with pytest.raises(ValueError):
        frobenius_target(R, R.lift(()), -1)
    run_census(R, [((), [x]), ((), [x, y**2])])
    assert not any(key[0] == "frob_target" for key in R._cache)


def test_frobenius_target_is_the_lift_of_the_powers():
    """A target is the ring's lift of the p^e-th powers of I's own
    generators: the same object as that lift, with no power of J's
    generator."""
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    target = frobenius_target(R, R.lift([x, y]), 1)
    assert target is R.lift([x**2, y**2])
    assert target.gens == (x**2, y**2, x**3 + y**3 + z**3)


def test_cech_zero_test_reads_the_closure_target(monkeypatch):
    """The certificate of the closure of (x, y) builds the basis of the
    target (x^2, y^2) + J, which is the zero test's power ideal at level 2,
    so the zero test after it runs no Buchberger run."""
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    assert frobenius_closure(R, [x, y]).stabilization_index == 1
    zs = [cech_class(R, [x, y], h, level=2) for h in (x**2 * z, x * z)]
    runs = count_buchberger_runs(monkeypatch)
    assert [cech_is_zero(c) for c in zs] == [True, False]
    assert runs[0] == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bracket_powers_agree_matches_target_equality(p):
    """The containment predicate against the old route, equality of both
    sides' targets, for I generated by two random linear forms over the
    Fermat cubic: K adds a multiple of a generator of I (always equal), a
    random element (mostly not), or K is the closure of I (equal from its
    Q-exponent on)."""
    R = fermat_ring(p)
    S = R.ambient
    rng = random.Random(90 + p)

    def linear_form():
        return sum((rng.randrange(p) * v for v in S.gens()), S.zero())

    seen = set()
    for _ in range(4):
        I = R.lift([linear_form(), linear_form()])
        closure = R.lift(frobenius_closure(R, I, e_max=4).chain[-1][1])
        extras = [random_poly(rng, S, 1) * rng.choice(I.gens), random_poly(rng, S, 2)]
        for K in [R.lift(I.gens + (h,)) for h in extras] + [closure]:
            for e in (0, 1, 2):
                expected = frobenius_target(R, K, e).equals(frobenius_target(R, I, e))
                assert bracket_powers_agree(R, I, K.groebner_basis(), e) == expected
                seen.add((expected, K.equals(I)))
    assert (True, False) in seen  # K larger than I, the targets still equal
    assert (False, False) in seen


def test_bracket_power_equalities_build_no_closure_basis(monkeypatch):
    """The certificate, the census recheck and the parameter-ideal check
    never compare two bases."""
    def refuse(self, other):
        raise AssertionError("Ideal.equals called")

    monkeypatch.setattr(Ideal, "equals", refuse)
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    assert frobenius_closure(R, [x, y]).q_exponent == 1
    report = uniform_census(R, "x^{a}, y^{b}", {"a": [1, 2], "b": [1, 2]}, jobs=1)
    assert report.uniform_e == 1 and report.recheck_ok
    assert parameter_ideal_check(R, [x], [y], 1) is True
    assert parameter_ideal_check(R, [x, y], [], 0) is False


# -- closure chains -------------------------------------------------------------------

def test_fermat_closure_chain_report():
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    rep = frobenius_closure(R, [x, y], e_max=6, window=2)
    assert rep.status == STATUS_STABLE
    assert rep.stabilization_index == 1
    assert rep.certificate_ok
    assert rep.q_exponent == 1
    assert len(rep.chain) == 3
    assert rep.chain[0][1] == (z**3, x, y)  # the lift's basis includes z^3
    assert rep.chain[1][1] == (z**2, x, y)
    assert rep.chain[2][1] == rep.chain[1][1]
    assert q_number(rep) == (1, 2)


def test_regular_ring_closure_trivial():
    S = PolyRing(3, ["x", "y"])
    x, y = S.gens()
    R = QuotientRing(S, [])
    rep = frobenius_closure(R, [x, y**2])
    assert rep.status == STATUS_STABLE
    assert rep.q_exponent == 0
    chain_bases = {gb for _, gb in rep.chain}
    assert len(chain_bases) == 1


def test_window_cannot_fit():
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    rep = frobenius_closure(R, [x, y], e_max=1, window=2)
    assert rep.status == STATUS_NOT_STABILIZED
    assert len(rep.chain) == 2
    assert rep.q_exponent is None
    with pytest.raises(NotStabilizedError):
        q_number(rep)


def test_closure_accepts_unit_and_zero_ideals():
    R = fermat_ring(2)
    S = R.ambient
    unit = frobenius_closure(R, [S.one()])
    assert unit.q_exponent == 0
    assert unit.chain[-1][1] == (S.one(),)
    zero = frobenius_closure(R, [])
    assert zero.status == STATUS_STABLE
    # the chain of the zero ideal of R is the preimage chain of J
    assert zero.chain[0][1] == R.defining.groebner_basis()


def test_chain_is_monotone():
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    rng = random.Random(11)
    for _ in range(5):
        I = random_ideal(rng, R.ambient, max_gens=2, max_degree=2)
        rep = frobenius_closure(R, I, e_max=4, window=2)
        ideals = [R.lift(gb) for _, gb in rep.chain]
        for a, b in zip(ideals, ideals[1:]):
            assert a.is_subset_of(b)
        for e, gb in rep.chain:
            assert all(R.defining.is_subset_of(R.lift(gb)) for _ in [0])


def test_ascent_test_skips_only_the_previous_member_itself(monkeypatch):
    """X ⊆ X needs no test: a closure step that hands back the previous
    chain member itself runs no ascent test, while one that returns a new,
    smaller ideal still fails it."""
    import charp.frobenius

    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    tested = []
    subset = Ideal.is_subset_of
    monkeypatch.setattr(Ideal, "is_subset_of", lambda I, K: tested.append(K) or subset(I, K))
    monkeypatch.setattr(charp.frobenius, "closure_step", lambda R, I, e: I)
    assert frobenius_closure(R, [x, y]).stabilization_index == 0
    assert tested == []
    monkeypatch.setattr(charp.frobenius, "closure_step", lambda R, I, e: R.lift([x**2, y]))
    with pytest.raises(RuntimeError, match="failed to ascend"):
        frobenius_closure(R, [x, y])
    assert len(tested) == 1


def test_certificate_is_checked_on_every_run():
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    rep = frobenius_closure(R, [x, y])
    E = rep.stabilization_index
    target = bracket_power(rep.input_ideal, E) + R.defining
    for g in rep.chain[E][1]:
        assert frobenius_power(g, E) in target


def test_invalid_bounds_rejected():
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    with pytest.raises(ValueError):
        frobenius_closure(R, [x, y], e_max=0)
    with pytest.raises(ValueError):
        frobenius_closure(R, [x, y], window=0)


# -- q numbers ---------------------------------------------------------------------

def test_q_number_examples():
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    assert q_number(frobenius_closure(R, [x, y])) == (1, 2)

    R7 = fermat_ring(7)
    x7, y7, _ = R7.ambient.gens()
    rep7 = frobenius_closure(R7, [x7, y7])
    assert q_number(rep7) == (0, 1)
    # verified against the raw chain: every step equals the lift itself
    for e in (1, 2):
        assert closure_step(R7, rep7.input_ideal, e).equals(rep7.input_ideal)


def test_q_number_p7_chain_constant_through_e3():
    R7 = fermat_ring(7)
    x7, y7, _ = R7.ambient.gens()
    lift = R7.lift([x7, y7])
    assert closure_step(R7, lift, 3).equals(lift)


@pytest.mark.parametrize("p, degree, top", [
    (2, 3, 6), (3, 3, 5), (5, 3, 4),
    (2, 4, 5),  # x^4 + y^4 + z^4: these chains stabilize at e = 2
])
def test_q_exponent_equals_the_searched_minimum(p, degree, top):
    """q_exponent is the smallest e' with C^[p^e'] + J = I^[p^e'] + J, as
    a search over e' finds it, on every (x^a, y^b) chain over the Fermat
    hypersurface of the given degree, for windows 2 and 3."""
    stabs = set()
    for window in (2, 3):
        S = PolyRing(p, ["x", "y", "z"])
        x, y, z = S.gens()
        R = QuotientRing(S, [x**degree + y**degree + z**degree])
        for a in range(1, top + 1):
            for b in range(1, top + 1):
                report = frobenius_closure(R, [x**a, y**b], window=window)
                assert report.stabilized
                lift = R.lift([x**a, y**b])
                closure_gb = report.chain[-1][1]
                searched = next(
                    e for e in range(report.stabilization_index + 1)
                    if bracket_powers_agree(R, lift, closure_gb, e)
                )
                assert report.q_exponent == searched
                stabs.add(report.stabilization_index)
    assert min(stabs) >= 1  # every search had an e' < stab to reject


# -- census -----------------------------------------------------------------------

def test_template_instantiation():
    S = PolyRing(2, ["x", "y"])
    rows = instantiate_template(S, "x^{a}, y^{b}", {"a": [1, 2], "b": [1]})
    assert [params for params, _ in rows] == [
        (("a", 1), ("b", 1)),
        (("a", 2), ("b", 1)),
    ]
    x, y = S.gens()
    assert rows[1][1] == [x**2, y]
    # a placeholder stands for its decimal text anywhere, not only in exponents
    S5 = PolyRing(5, ["x", "y"])
    x, y = S5.gens()
    assert instantiate_template(S5, "{a}*x^{b}, y", {"a": [2], "b": [1]}) == [
        ((("a", 2), ("b", 1)), [2 * x, y]),
    ]
    with pytest.raises(ValueError):
        instantiate_template(S, "x^{a}", {"a": [1], "c": [2]})
    with pytest.raises(ValueError):
        instantiate_template(S, "x^{a}, y^{c}", {"a": [1]})


def test_census_fermat_two_by_two():
    R = fermat_ring(2)
    report = uniform_census(R, "x^{a}, y^{b}", {"a": [1, 2], "b": [1, 2]})
    assert len(report.rows) == 4
    assert all(r.regular_sequence_ok for r in report.rows)
    assert all(r.stabilized for r in report.rows)
    assert report.uniform_e == 1
    assert not report.uniform_e_is_lower_bound
    assert report.recheck_ok
    assert report.uniform_e == max(r.q_exponent for r in report.rows)


def test_census_regular_ring_trivial():
    S = PolyRing(3, ["x", "y"])
    R = QuotientRing(S, [])
    report = uniform_census(R, "x^{a}, y^{b}", {"a": [1, 2, 3], "b": [1, 2, 3]})
    assert len(report.rows) == 9
    assert report.uniform_e == 0
    assert all(r.q_exponent == 0 for r in report.rows)


def test_census_frobenius_family():
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    rows = frobenius_power_family(R, Ideal(R.ambient, [x, y]), 2)
    assert [params for params, _ in rows] == [(("n", 0),), (("n", 1),), (("n", 2),)]
    report = run_census(R, rows)
    assert all(r.q_exponent <= 1 for r in report.rows)
    assert report.uniform_e == 1
    assert report.recheck_ok


def test_census_flags_non_regular_rows():
    S = PolyRing(2, ["x", "y"])
    R = QuotientRing(S, [])
    x, y = S.gens()
    report = run_census(R, [((("k", 0),), [x, x])])
    assert not report.rows[0].regular_sequence_ok
    assert report.rows[0].stabilized  # the closure itself still runs


@pytest.mark.parametrize("p", [2, 3])
def test_census_on_the_rational_quartic(p):
    # k[s^4, s^3t, st^3, t^4] is not Cohen-Macaulay, so (a^i, d^j) is a
    # system of parameters but not a regular sequence.  s^2t^2 is the one
    # hole of the semigroup, and b^2 = s^4 * s^2t^2, c^2 = t^4 * s^2t^2, so
    # the closure is (a^i, d^j, a^(i-1)*b^2, c^2*d^(j-1))
    S = PolyRing(p, ["a", "b", "c", "d"])
    R = QuotientRing(S, [S.parse(f) for f in
                         ("a*d - b*c", "b^3 - a^2*c", "c^3 - b*d^2", "a*c^2 - b^2*d")])
    report = uniform_census(R, "a^{i}, d^{j}", {"i": [1, 2], "j": [1, 2]})
    assert report.uniform_e == 1 and report.recheck_ok is True
    for row in report.rows:
        i, j = (value for _, value in row.parameters)
        assert not row.regular_sequence_ok
        closed = [f"a^{i}", f"d^{j}", f"a^{i - 1}*b^2", f"c^2*d^{j - 1}"]
        expected = R.lift([S.parse(f) for f in closed]).groebner_basis()
        assert row.ideal_digest == tuple(str(g) for g in expected)


def test_census_not_stabilized_row_is_lower_bound():
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    report = run_census(R, [((("k", 0),), [x, y])], e_max=1, window=2)
    assert not report.rows[0].stabilized
    assert report.uniform_e is None
    assert report.uniform_e_is_lower_bound


def test_census_rows_parallel_matches_serial():
    R = fermat_ring(2)
    rows = instantiate_template(R.ambient, "x^{a}, y^{b}", {"a": [1, 2], "b": [1]})
    serial = run_census(R, rows, jobs=1)
    parallel = run_census(R, rows, jobs=2)
    assert serial == parallel


def test_parallel_census_rebuilds_no_target_in_the_calling_process(monkeypatch):
    """Every row of the 2x2 Fermat census at p = 2 has Q-exponent
    uniform_e, so no row is rechecked and the calling process runs no
    Buchberger run: the rows' bases stay in the workers."""
    R = fermat_ring(2)
    rows = instantiate_template(R.ambient, "x^{a}, y^{b}", {"a": [1, 2], "b": [1, 2]})
    runs = count_buchberger_runs(monkeypatch)
    parallel = run_census(R, rows, jobs=2)
    assert runs[0] == 0
    assert parallel == run_census(fermat_ring(2), rows, jobs=1)
    assert parallel.recheck_ok is True


def test_census_rechecks_the_rows_below_uniform_e(monkeypatch):
    """(x, y, z) has Q-exponent 0 and (x, y) has 1 over the Fermat cubic at
    p = 2: each row's certificate runs at its own Q-exponent, and only the
    first row is rechecked at uniform_e = 1, which decides recheck_ok."""
    import charp.frobenius

    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    agree = charp.frobenius.bracket_powers_agree
    calls, refuse = [], []

    def recording(R, I, gens, e):
        calls.append((I.gens, e))
        return (I.gens, e) not in refuse and agree(R, I, gens, e)

    monkeypatch.setattr(charp.frobenius, "bracket_powers_agree", recording)
    rows = [((("k", 0),), [x, y, z]), ((("k", 1),), [x, y])]
    report = run_census(R, rows)
    assert [row.q_exponent for row in report.rows] == [0, 1]
    assert report.uniform_e == 1 and report.recheck_ok is True
    m, c = R.lift([x, y, z]).gens, R.lift([x, y]).gens
    assert calls == [(m, 0), (c, 1), (m, 1)]
    refuse.append((m, 1))  # a failed recheck of the row below shows
    assert run_census(fermat_ring(2), rows).recheck_ok is False


def test_worker_pool_capped_at_row_count(monkeypatch):
    # a stand-in executor records the pool size, runs the worker
    # initializer and maps the rows in this process, so no worker process
    # is started
    import concurrent.futures

    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    rows = instantiate_template(R.ambient, "x^{a}, y^{b}", {"a": [1, 2], "b": [1]})
    assert run_census(R, rows, jobs=64) == run_census(R, rows, jobs=1)
    assert eta_estimate(R, [x, y], n_max=2, jobs=8) == eta_estimate(R, [x, y], n_max=2)
    run_census(R, rows[:1], jobs=8)  # a single row opens no pool
    assert sizes == [2, 3]


def test_census_recheck_reuses_row_bases(monkeypatch):
    runs = count_buchberger_runs(monkeypatch)
    ranges = {"a": [1, 2], "b": [1, 2]}
    report = uniform_census(fermat_ring(2), "x^{a}, y^{b}", ranges)
    census_runs, runs[0] = runs[0], 0
    R = fermat_ring(2)
    for _, gens in instantiate_template(R.ambient, "x^{a}, y^{b}", ranges):
        R.is_poor_regular_sequence(gens)
        frobenius_closure(R, gens)
    assert report.recheck_ok
    assert census_runs <= runs[0]


def test_census_sweep_shares_lifted_bases(monkeypatch):
    """The 64-row Fermat census at p = 2 builds each lifted ideal's basis
    once: the regular-sequence height test, the closure and the recheck
    read the same lifts (514 Buchberger runs before lifts were shared and
    the height test replaced the colon route)."""
    runs = count_buchberger_runs(monkeypatch)
    span = list(range(1, 9))
    report = uniform_census(fermat_ring(2), "x^{a}, y^{b}", {"a": span, "b": span})
    assert len(report.rows) == 64 and report.recheck_ok
    assert all(row.regular_sequence_ok for row in report.rows)
    assert runs[0] <= 220


def test_closure_stable_at_zero_reuses_the_lift(monkeypatch):
    """A chain that stabilizes at e = 0 certifies against the lift itself:
    the e = 0 target is I, so (x^2, xy) over F_2[x,y,z] builds two bases,
    the lift's and the root ideal A_1 = (1)'s (three when the certificate
    built I + J anew)."""
    runs = count_buchberger_runs(monkeypatch)
    S = PolyRing(2, ["x", "y", "z"])
    x, y, _ = S.gens()
    R = QuotientRing(S, [])
    report = frobenius_closure(R, [x**2, x * y])
    assert report.stabilization_index == 0
    assert frobenius_target(R, R.lift([x**2, x * y]), 0) is R.lift([x**2, x * y])
    assert runs[0] == 2


def test_parallel_census_recheck_builds_only_input_targets(monkeypatch):
    """With jobs > 1 the rows run in workers, so the recheck in the calling
    process builds the four rows' input targets and nothing else."""
    runs = count_buchberger_runs(monkeypatch)
    report = uniform_census(fermat_ring(2), "x^{a}, y^{b}", {"a": [1, 2], "b": [1, 2]}, jobs=2)
    assert report.recheck_ok
    assert runs[0] <= 4


def test_census_recheck_flags_a_wrong_closure(monkeypatch):
    """The recheck tests each row's reported closure against its input, so
    a closure too large for the uniform exponent fails it."""
    import charp.frobenius

    original = charp.frobenius._census_row

    def inflated(R, params, gens, e_max, window):
        row, _, gens = original(R, params, gens, e_max, window)
        return row, (R.ambient.one(),), gens

    monkeypatch.setattr(charp.frobenius, "_census_row", inflated)
    report = uniform_census(fermat_ring(2), "x^{a}, y^{b}", {"a": [1], "b": [1]})
    assert report.uniform_e == 1
    assert report.recheck_ok is False
