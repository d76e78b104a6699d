"""Top local cohomology in Cech form and the Frobenius skew action on it.

A class [r / (b_1 ... b_d)^n] over a validated parameter sequence supports
an exact zero test (numerator membership in the n-th powers of the
sequence, valid because the sequence is a regular sequence), the
semilinear action that raises numerators to p-th powers while scaling the
level, torsion orders (which divide the numerator r once by the basis of
its level ideal B = (b^n) + J and test the zero of each x^j z without
forming it: a membership of the unformed power r0^(p^j) of the remainder
r0, exact since B^[q] lies in (b^(n q)) + J for q = p^j), and a finite scan
estimating the HSL number of the top local cohomology module through its
ideal-theoretic characterization.

Classes and scans share one check, :func:`_regular_sop`: the sequence must
be a homogeneous system of parameters that is a poor regular sequence.
Such a sequence exists exactly when R is Cohen-Macaulay at the irrelevant
ideal, which is what both the zero test and the scan's lower bound need;
nothing declares it.  A sequence that passes gets one entry in the ring's
cache, which holds it and its level table: for each level n, the ideals
(b^(n p^j)) + J, j = 0, 1, ..., that torsion orders read, each the
ring's cached Frobenius target of (b^n) + J.  So a sequence is checked on
its first use in a ring only, and torsion orders of many classes form no
power of b and build no lift or packing after the first class of a level.
The zero test and the x-action keep plain lifts and formed powers, which
makes them the torsion order's independent oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .frobenius import (
    NotStabilizedError,
    _map_rows,
    bracket_powers_agree,
    frobenius_closure,
    frobenius_target,
)
from .poly import Polynomial, frobenius_power
from .quotient import QuotientRing


class InvalidSequenceError(ValueError):
    pass


def _regular_sop(R: QuotientRing, sequence) -> tuple:
    """R's entry for the sequence b: (b as a tuple, b's level table),
    after checking that b is a homogeneous system of parameters of R and
    a poor regular sequence; the empty system of parameters of a
    dimension-0 ring counts as regular.

    The entry is ``R._cache[("cech", b)]``, written once b passes, so b
    is checked on its first use in R only; a sequence that fails is never
    cached and fails every time.  The level table maps a level n to the
    tuple of ideals (b^(n p^j)) + J for j = 0, 1, ..., the j-th being
    ``frobenius_target(R, (b^n) + J, j)``, the ring's cached lift, as far
    as :func:`torsion_order` has needed them.  A level's tuple only grows,
    by a new tuple that replaces the old one, so concurrent writers never
    misalign its levels."""
    key = ("cech", tuple(sequence))
    entry = R._cache.get(key)
    if entry is None:
        sequence = key[1]
        if not R.is_system_of_parameters(sequence):
            raise InvalidSequenceError("sequence is not a system of parameters")
        if sequence and not (check := R.is_poor_regular_sequence(sequence)):
            raise InvalidSequenceError(
                f"sequence is not regular (fails at index {check.failure_index})"
            )
        entry = R._cache[key] = (sequence, {})
    return entry


class CechClass(NamedTuple):
    """[numerator / (b_1 ... b_d)^level] in the top local cohomology of R."""

    ring: QuotientRing
    sequence: tuple
    numerator: Polynomial
    level: int

    def __str__(self):
        den = "*".join(map(str, self.sequence))
        return f"[({self.numerator}) / ({den})^{self.level}]"


def cech_class(R: QuotientRing, sequence, numerator: Polynomial, level: int = 1) -> CechClass:
    """Build a class after validating the sequence (a regular system of
    parameters of a ring of positive dimension) and the level (>= 1)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if R.dimension <= 0:
        raise InvalidSequenceError(
            f"quotient ring has dimension {R.dimension}; need dimension > 0"
        )
    return CechClass(R, _regular_sop(R, sequence)[0], numerator, level)


def cech_is_zero(z: CechClass) -> bool:
    """Zero iff the numerator lies in (b_1^n, ..., b_d^n) + J; exact for
    regular sequences."""
    return z.ring.lift([b ** z.level for b in z.sequence]).contains(z.numerator)


def x_act(z: CechClass, k: int = 1) -> CechClass:
    """Apply the Frobenius skew action k times:
    [r/b^n] -> [r**(p**k) / b^(n*p**k)]."""
    if k < 0:
        raise ValueError(f"action exponent must be non-negative, got {k}")
    if k == 0:
        return z
    return CechClass(z.ring, z.sequence, frobenius_power(z.numerator, k),
                     z.level * z.ring.p ** k)


def scale(z: CechClass, s: Polynomial) -> CechClass:
    """Multiply the class by a ring element: s * [r/b^n] = [s*r / b^n]."""
    return CechClass(z.ring, z.sequence, s * z.numerator, z.level)


def cech_equal(z1: CechClass, z2: CechClass) -> bool:
    """Class equality by cross-scaling to the common level max(n1, n2);
    checking at that single level is exact for regular sequences."""
    if z1.ring != z2.ring or z1.sequence != z2.sequence:
        raise ValueError("classes over different rings or sequences")
    k = max(z1.level, z2.level)
    u = math.prod(z1.sequence, start=z1.ring.ambient.one())
    lhs = (u ** (k - z1.level)) * z1.numerator - (u ** (k - z2.level)) * z2.numerator
    return z1.ring.lift([b ** k for b in z1.sequence]).contains(lhs)


def torsion_order(z: CechClass, j_max: int) -> int | None:
    """Smallest j <= j_max with x^j z = 0 (j = 0 when z is already zero);
    None when every power up to j_max leaves the class nonzero.

    x^j [r / b^n] = [r^(p^j) / b^(n p^j)] is zero exactly when r^(p^j)
    lies in (b^(n p^j)) + J, the j-th ideal of level n in the ring's table
    for b (see :func:`_regular_sop`), which each call extends only as far as
    its loop reaches; so a class forms no power of b, builds no lift and
    packs no divisors that an earlier class of its ring, sequence and
    level has, and never re-checks the sequence.  The numerator is divided
    once by the cached basis of its own level ideal B = (b^n) + J
    (:meth:`Ideal.remainder`): that division is the j = 0 zero test, and
    its remainder r0 stands for r at every level, since r - r0 lies in B
    and Frobenius is additive, so r^q - r0^q lies in B^[q], which is
    contained in (b^(n q)) + J for q = p^j.  For j >= 1
    :meth:`Ideal.contains` with exponent j tests r0^(p^j) in the level's
    ideal: neither the power nor the class x^j z is formed.  Every class
    still divides, and every level up to its order is tested to its full
    remainder: the chain that would reduce each level's remainder before
    the next power, the cut of the levels at s(R) and an exit at the
    first remainder term would shorten this walk, and wait until the
    benchmark stops keeping one record per task run, whose memory grows
    with throughput.  Under a degree cap, a level's generators count
    against it when the level is built, and the test at level j checks
    q deg r0.  ``cech_is_zero(x_act(z, j))`` is the oracle."""
    if j_max < 0:
        raise ValueError(f"j_max must be non-negative, got {j_max}")
    R, n = z.ring, z.level
    table = _regular_sop(R, z.sequence)[1]
    levels = table.get(n)
    if levels is None:
        levels = table[n] = (R.lift([b ** n for b in z.sequence]),)
    r = levels[0].remainder(z.numerator)
    if r.is_zero:
        return 0
    for j in range(1, j_max + 1):
        if j == len(levels):
            levels = table[n] = levels + (frobenius_target(R, levels[0], j),)
        if levels[j].contains(r, j):
            return j
    return None


# ---------------------------------------------------------------------------
# HSL-number scan

class EtaReport(NamedTuple):
    """Finite scan of Q-exponents of the bracket powers of one parameter
    ideal.  The scanned sop is checked to be a regular sequence, so R is
    Cohen-Macaulay and R/q embeds in the top local cohomology module for
    each scanned q; that makes ``eta_hat`` a certified lower bound for the
    module's HSL number, and the best finite-scan estimate.  ``complete``
    is False when some row failed to stabilize, which forces lower-bound
    labeling."""

    sop: tuple
    n_max: int
    e_max: int
    window: int
    per_n: tuple  # ((n, q_exponent | None), ...)
    eta_hat: int | None
    complete: bool

    @property
    def label(self) -> str:
        value = "?" if self.eta_hat is None else self.eta_hat
        mark = "" if self.complete else ", lower bound"
        return f"η̂ (scan n ≤ {self.n_max}{mark}) = {value}"


def _eta_row(R, gens, e_max, window):
    report = frobenius_closure(R, gens, e_max=e_max, window=window)
    return report.q_exponent, report.stabilized


def eta_estimate(R: QuotientRing, sop, n_max: int = 1, e_max: int = 8,
                 window: int = 2, jobs: int = 1) -> EtaReport:
    """Q-exponents of s^[p^n] for n = 0..n_max, where s is generated by the
    given system of parameters, which must also be a regular sequence
    (:class:`InvalidSequenceError` otherwise); eta_hat is their maximum.
    Rows are independent and fan out to a process pool when jobs > 1; the
    report order is by n either way."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    sop = _regular_sop(R, sop)[0]
    tasks = [
        (R, [frobenius_power(b, n) for b in sop], e_max, window)
        for n in range(n_max + 1)
    ]
    outcomes = _map_rows(_eta_row, tasks, jobs)
    per_n = tuple((n, q) for n, (q, _) in enumerate(outcomes))
    complete = all(stabilized for _, stabilized in outcomes)
    eta_hat = max((q for _, q in per_n if q is not None), default=None)
    return EtaReport(
        sop=sop, n_max=n_max, e_max=e_max, window=window,
        per_n=per_n, eta_hat=eta_hat, complete=complete,
    )


def f_injective_flag(report: EtaReport) -> bool:
    """True iff the scan certifies trivial closure for parameter ideals
    (eta_hat = 0).  Since the scanned sop is a regular sequence, R is
    Cohen-Macaulay, so one system of parameters with trivial closure
    suffices for the positive direction, and eta_hat > 0 is a lower bound
    that rules it out."""
    if not report.complete:
        raise NotStabilizedError("F-injectivity flag needs a complete eta scan")
    return report.eta_hat == 0


def parameter_ideal_check(R: QuotientRing, partial, extension, e: int,
                          e_max: int = 8, window: int = 2) -> bool:
    """For an ideal generated by part of a system of parameters, test
    whether (closure)^[p^e] + J = (ideal)^[p^e] + J.

    ``extension`` must complete ``partial`` to a full system of parameters
    (checked); the closure chain must stabilize within the bounds."""
    partial = tuple(partial)
    extension = tuple(extension)
    if not R.is_system_of_parameters(partial + extension):
        raise InvalidSequenceError(
            "the extension does not complete the generators to a system of parameters"
        )
    report = frobenius_closure(R, partial, e_max=e_max, window=window)
    if not report.stabilized:
        raise NotStabilizedError(
            "closure of the parameter ideal did not stabilize within bounds", report
        )
    return bracket_powers_agree(R, R.lift(partial), report.chain[-1][1], e)
