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
    closure_step,
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
    fermat_ring,
    monomials_of_degree_at_most,
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
    # seeded random hypersurfaces, homogeneous or not: the root colon (and
    # the fallback where its height test fails) against the preimage
    oracle, calls = _count_preimages(monkeypatch)
    rng = random.Random(92 + p)
    colon_runs = []  # (f homogeneous, C_e larger than I) for each colon step
    for variables in (["x", "y"], ["x", "y", "z"]):
        S = PolyRing(p, variables)
        for _ in range(6):
            f = random_poly(rng, S, max_degree=max_degree)
            if f.total_degree() < 1:
                continue
            R = QuotientRing(S, [f])
            I = R.lift(random_ideal(rng, S, max_gens=S.nvars - 1, max_degree=2))
            for e in (1, 2):
                expected = R.lift(oracle(frobenius_target(R, I, e), e))
                before = len(calls)
                C = closure_step(R, I, e)
                assert C.equals(expected)
                if len(calls) == before:
                    colon_runs.append((f.is_homogeneous(), not C.equals(I)))
    assert {homogeneous for homogeneous, _ in colon_runs} == {True, False}
    assert any(grew for _, grew in colon_runs)


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
    """The certificate, the Q-search, the census recheck and the
    parameter-ideal check never compare two bases."""
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


def test_census_recheck_reuses_row_bases(monkeypatch):
    import charp.frobenius
    import charp.groebner

    runs = [0]
    original = charp.groebner.buchberger

    def counting(*args, **kwargs):
        runs[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(charp.groebner, "buchberger", counting)
    monkeypatch.setattr(charp.frobenius, "buchberger", counting)
    ranges = {"a": [1, 2], "b": [1, 2]}
    report = uniform_census(fermat_ring(2), "x^{a}, y^{b}", ranges)
    census_runs, runs[0] = runs[0], 0
    R = fermat_ring(2)
    for _, gens in instantiate_template(R.ambient, "x^{a}, y^{b}", ranges):
        R.is_poor_regular_sequence(gens)
        frobenius_closure(R, gens)
    assert report.recheck_ok
    assert census_runs <= runs[0]


def test_parallel_census_recheck_builds_only_input_targets(monkeypatch):
    """With jobs > 1 the rows run in workers, so the recheck in the calling
    process builds the four rows' input targets and nothing else."""
    import charp.frobenius
    import charp.groebner

    runs = [0]
    original = charp.groebner.buchberger

    def counting(*args, **kwargs):
        runs[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(charp.groebner, "buchberger", counting)
    monkeypatch.setattr(charp.frobenius, "buchberger", counting)
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
