import itertools
import random

import pytest

from charp import Ideal, MonomialOrder, PolyRing, QuotientRing, RingMismatchError
from support import count_buchberger_runs, fermat_ring, random_form, random_poly


def test_lift_includes_defining_ideal():
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    g = x**3 + y**3 + z**3
    L = R.lift([x, y])
    assert set(L.gens) == {x, y, g}


def test_poor_regular_sequence_examples():
    S = PolyRing(2, ["x", "y"])
    x, y = S.gens()
    R = QuotientRing(S, [])
    assert R.is_poor_regular_sequence([x, y]).ok
    bad = R.is_poor_regular_sequence([x, x])
    assert not bad.ok and bad.failure_index == 1
    fermat = fermat_ring(2)
    fx, fy, _ = fermat.ambient.gens()
    assert fermat.is_poor_regular_sequence([fx, fy]).ok


def test_poor_regular_sequence_zero_element():
    S = PolyRing(2, ["x", "y"])
    x, _ = S.gens()
    R = QuotientRing(S, [])
    check = R.is_poor_regular_sequence([x, S.zero()])
    assert not check.ok and check.failure_index == 1
    # 0 is a nonzerodivisor on the zero module: (1, 0) passes
    assert R.is_poor_regular_sequence([S.one(), S.zero()]).ok
    with pytest.raises(ValueError):
        R.is_poor_regular_sequence([])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_poor_regular_sequence_permutation_invariance(p):
    R = fermat_ring(p)
    x, y, z = R.ambient.gens()
    seqs = [[x, y], [x + y, y], [x**2, y**2]]
    for seq in seqs:
        results = {R.is_poor_regular_sequence(list(perm)).ok
                   for perm in itertools.permutations(seq)}
        assert len(results) == 1


def test_system_of_parameters_examples():
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    assert R.dimension == 2
    assert R.is_system_of_parameters([x, y])
    assert not R.is_system_of_parameters([x])
    assert not R.is_system_of_parameters([x, y, z])
    assert not R.is_system_of_parameters([x, x])  # wrong dimension after cut


def test_system_of_parameters_rejects_bad_input():
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    with pytest.raises(ValueError):
        R.is_system_of_parameters([x + x**2, y])  # not homogeneous
    with pytest.raises(ValueError):
        R.is_system_of_parameters([R.ambient.one(), y])  # degree 0
    with pytest.raises(ValueError):
        R.is_system_of_parameters([R.ambient.zero(), y])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cm_link_sops_are_regular_sequences(p):
    # hypersurface quotients are Cohen-Macaulay, so systems of parameters
    # must pass the regular-sequence check; exercised on the Fermat family
    R = fermat_ring(p)
    x, y, z = R.ambient.gens()
    assert R._height_test(())
    rng = random.Random(p)
    candidates = [[x, y], [y, z], [x + y, z], [x + z, y]]
    for _ in range(4):
        f = random_poly(rng, R.ambient, max_degree=1, max_terms=2)
        h = random_poly(rng, R.ambient, max_degree=1, max_terms=2)
        if not f.is_zero and not h.is_zero and f.is_homogeneous() and h.is_homogeneous():
            candidates.append([f, h])
    for seq in candidates:
        try:
            is_sop = R.is_system_of_parameters(seq)
        except ValueError:
            continue
        if is_sop:
            assert R.is_poor_regular_sequence(seq).ok


def test_cm_hint_rules():
    S = PolyRing(2, ["x", "y", "z"])
    x, y, z = S.gens()
    assert QuotientRing(S, [])._height_test(())  # polynomial ring
    assert QuotientRing(S, [x * y])._height_test(())  # principal
    assert QuotientRing(S, [x, y])._height_test(())  # complete intersection
    assert not QuotientRing(S, [x * y, x * z])._height_test(())  # not a regular sequence


def test_colon_route_catches_a_zerodivisor_the_height_drop_misses():
    """x*y = 0 in S/(xy, xz), so y is a zerodivisor although dim S/J = 2
    drops to dim S/(J + y) = 1: a height test would pass it.  J is not a
    complete intersection, so the colon route must decide."""
    S = PolyRing(2, ["x", "y", "z"])
    x, y, z = S.gens()
    R = QuotientRing(S, [x * y, x * z])
    assert not R._height_test(())
    assert R.dimension == 2 and R.lift([y]).krull_dimension() == 1
    check = R.is_poor_regular_sequence([y])
    assert not check.ok and check.failure_index == 0


def _random_element(rng, ring, homogeneous):
    if homogeneous:
        return random_form(rng, ring, rng.randint(1, 2))
    return random_poly(rng, ring, max_degree=2, max_terms=3)


def _random_defining_ideal(rng, S, kind, homogeneous):
    """([], None), ([f], None), a 2-generator complete intersection, or
    (a*(v - 1), b*(v - 1), v), which has height 3 = c although its second
    generator is a zerodivisor modulo its first; principal f is sometimes
    a product g*h, returned as g to be tested."""
    if kind == 0:
        return [], None
    if kind == 1:
        g = _random_element(rng, S, homogeneous)
        if rng.random() < 0.4:
            h = _random_element(rng, S, homogeneous)
            return [g * h], g
        return [g], None
    free = QuotientRing(S, [])
    while True:
        if kind == 2:
            gens = [_random_element(rng, S, homogeneous) for _ in range(2)]
            if free._regular_sequence_by_colons(gens).ok:
                return gens, None
        else:
            a, b, v = [_random_element(rng, S, homogeneous) for _ in range(3)]
            gens = [a * (v - 1), b * (v - 1), v]
            if (QuotientRing(S, gens).dimension <= 0
                    and not free._regular_sequence_by_colons(gens).ok):
                return gens, None


def _random_sequence(rng, S, homogeneous, factor):
    seq = []
    for k in range(rng.randint(1, 3)):
        roll = rng.random()
        if k == 0 and factor is not None and roll < 0.5:
            seq.append(factor)  # a zerodivisor of S/(factor * h)
        elif roll < 0.08:
            seq.append(S.zero())
        elif roll < 0.16:
            seq.append(S.one() * rng.randint(1, S.p - 1))
        elif k > 0 and roll < 0.4:
            seq.append(seq[0] * _random_element(rng, S, homogeneous))  # in the prefix
        else:
            seq.append(_random_element(rng, S, homogeneous))
    return seq


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_height_test_matches_colon_route(p, monkeypatch):
    """On zero, principal and complete-intersection J, and on J of height
    c whose generators are not a regular sequence in their given order,
    the height test gives the colon route's verdict and failure index on
    seeded random sequences, and takes no colon or intersection; both
    verdicts occur for each kind of J."""
    rng = random.Random(1000 + p)
    S = PolyRing(p, ["x", "y", "z"])

    def no_colons(*args, **kwargs):
        raise AssertionError("the height test took a colon")

    verdicts = set()
    for trial in range(128):
        homogeneous = trial // 4 % 2 == 0
        kind = trial % 4
        J, factor = _random_defining_ideal(rng, S, kind, homogeneous)
        seq = _random_sequence(rng, S, homogeneous, factor)
        R = QuotientRing(S, J)
        with monkeypatch.context() as m:
            m.setattr(Ideal, "intersect", no_colons)
            m.setattr(Ideal, "colon_ideal", no_colons)
            fast = R.is_poor_regular_sequence(seq)
        oracle = QuotientRing(S, J)._regular_sequence_by_colons(seq)
        assert (fast.ok, fast.failure_index) == (oracle.ok, oracle.failure_index), (J, seq)
        verdicts.add((kind, fast.ok))
    assert verdicts == {(kind, ok) for kind in range(4) for ok in (True, False)}


@pytest.mark.parametrize("p", [2, 3])
def test_height_of_j_not_the_order_of_its_generators_decides(p, monkeypatch):
    """J = (x(y - 1), z(y - 1), y) has height 3 = c, so R = F_p[w] is
    Cohen-Macaulay although z(y - 1) is a zerodivisor modulo x(y - 1):
    J passes the height test and the regular-sequence check takes the
    height route, with the colon route's verdicts; the closure step of (w)
    is the preimage's."""
    from charp.frobenius import closure_step, frobenius_preimage, frobenius_target

    S = PolyRing(p, ["x", "y", "z", "w"])
    x, y, z, w = S.gens()
    J = [x * (y - 1), z * (y - 1), y]
    assert not QuotientRing(S, [])._regular_sequence_by_colons(J).ok
    R = QuotientRing(S, J)
    assert R._height_test(())

    def no_colons(*args, **kwargs):
        raise AssertionError("the height test took a colon")

    cases = [([w], None), ([w + 1], None), ([x], 0), ([w, x], 1)]
    for seq, failure_index in cases:
        with monkeypatch.context() as m:
            m.setattr(Ideal, "intersect", no_colons)
            m.setattr(Ideal, "colon_ideal", no_colons)
            fast = R.is_poor_regular_sequence(seq)
        oracle = R._regular_sequence_by_colons(seq)
        assert (fast.ok, fast.failure_index) == (failure_index is None, failure_index)
        assert (oracle.ok, oracle.failure_index) == (fast.ok, fast.failure_index)
    I = R.lift([w])
    for e in (1, 2):
        expected = R.lift(frobenius_preimage(frobenius_target(R, I, e), e))
        assert closure_step(R, I, e).equals(expected)


def test_lift_is_shared_per_ring(monkeypatch):
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    L = R.lift([x, y])
    assert R.lift([x, y]) is L
    assert R.lift(Ideal(R.ambient, [x, y])) is L
    assert R.lift([y, x]) is not L and R.lift([y, x]).equals(L)
    assert fermat_ring(2).lift([x, y]) is not L  # one cache per ring
    basis = L.groebner_basis()
    assert R.dimension == 2
    runs = count_buchberger_runs(monkeypatch)
    assert R.lift([x, y]).groebner_basis() is basis
    assert R.is_poor_regular_sequence([x, y]).ok
    assert runs[0] == 1  # only the prefix (x) + J; (x, y) + J is L


def test_dimension_cache_consistency():
    R = fermat_ring(3)
    assert R.dimension == R.defining.krull_dimension()


def test_dimension_and_leading_monomial_are_computed_once(monkeypatch):
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    runs = count_buchberger_runs(monkeypatch)
    assert R.dimension == 2 and R._height_test(())
    assert runs[0] == 1  # J's basis, shared by all three
    assert R.lift(()) is R.defining
    I = R.lift([x])
    assert I.krull_dimension() == 1
    f = x**2 * y + z**3 + y
    assert f.leading_monomial() == (2, 1, 0)

    def no_work(*args):
        raise AssertionError("recomputed")

    monkeypatch.setattr(Ideal, "groebner_basis", no_work)
    monkeypatch.setattr(MonomialOrder, "key", no_work)
    assert I.krull_dimension() == 1 and R.dimension == 2 and R._height_test(())
    assert f.leading_monomial() == (2, 1, 0)


def test_lift_rejects_a_generator_of_another_ring():
    R = fermat_ring(2)
    x, y, _ = R.ambient.gens()
    R.lift([x, y])
    (u,) = PolyRing(2, ["u"]).gens()
    for gens in ([u], [x, u]):
        with pytest.raises(RingMismatchError, match=r"generator u does not live in F_2\[x, y, z"):
            R.lift(gens)
