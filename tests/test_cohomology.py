import random

import pytest

from charp import (
    InvalidSequenceError,
    NotStabilizedError,
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
from support import fermat_ring, monomials_of_degree_at_most, random_poly


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
