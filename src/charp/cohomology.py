"""Top local cohomology in Cech form and the Frobenius skew action on it.

A class [r / (b_1 ... b_d)^n] over a validated parameter sequence supports
an exact zero test (numerator membership in the n-th powers of the
sequence, valid because the sequence is a regular sequence), the
semilinear action that raises numerators to p-th powers while scaling the
level, torsion orders, and a finite scan estimating the HSL number of the
top local cohomology module through its ideal-theoretic characterization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frobenius import (
    Ideal,
    NotStabilizedError,
    _map_rows,
    bracket_powers_agree,
    frobenius_closure,
)
from .poly import Polynomial, frobenius_power
from .quotient import QuotientRing


class InvalidSequenceError(ValueError):
    pass


def _validated_sequence(R: QuotientRing, sequence) -> tuple:
    sequence = tuple(sequence)
    cached = R._cache.get(("cech_seq", sequence))
    if cached is None:
        if R.dimension <= 0:
            cached = f"quotient ring has dimension {R.dimension}; need dimension > 0"
        elif not R.is_system_of_parameters(sequence):
            cached = "sequence is not a system of parameters"
        else:
            check = R.is_poor_regular_sequence(sequence)
            if not check:
                cached = f"sequence is not regular (fails at index {check.failure_index})"
            else:
                cached = True
        R._cache[("cech_seq", sequence)] = cached
    if cached is not True:
        raise InvalidSequenceError(cached)
    return sequence


def _power_ideal(R: QuotientRing, sequence, level: int) -> Ideal:
    key = ("cech_pow", sequence, level)
    ideal = R._cache.get(key)
    if ideal is None:
        ideal = R.lift([b ** level for b in sequence])
        R._cache[key] = ideal
    return ideal


@dataclass(frozen=True)
class CechClass:
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
    parameters) and the level (>= 1)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    sequence = _validated_sequence(R, sequence)
    return CechClass(R, sequence, numerator, level)


def cech_is_zero(z: CechClass) -> bool:
    """Zero iff the numerator lies in (b_1^n, ..., b_d^n) + J; exact for
    regular sequences."""
    return _power_ideal(z.ring, z.sequence, z.level).contains(z.numerator)


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
    b = z1.sequence[0].ring.one()
    for f in z1.sequence:
        b = b * f
    lhs = (b ** (k - z1.level)) * z1.numerator - (b ** (k - z2.level)) * z2.numerator
    return _power_ideal(z1.ring, z1.sequence, k).contains(lhs)


def torsion_order(z: CechClass, j_max: int) -> int | None:
    """Smallest j <= j_max with x^j z = 0 (j = 0 when z is already zero);
    None when every power up to j_max leaves the class nonzero."""
    if j_max < 0:
        raise ValueError(f"j_max must be non-negative, got {j_max}")
    current = z
    for j in range(j_max + 1):
        if cech_is_zero(current):
            return j
        if j < j_max:
            current = x_act(current, 1)
    return None


# ---------------------------------------------------------------------------
# HSL-number scan

@dataclass
class EtaReport:
    """Finite scan of Q-exponents of the bracket powers of one parameter
    ideal.  ``eta_hat`` is a certified lower bound for the HSL number of
    the top local cohomology module and the best finite-scan estimate;
    ``complete`` is False when some row failed to stabilize, which forces
    lower-bound labeling."""

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
    given system of parameters; eta_hat is their maximum.  Rows are
    independent and fan out to a process pool when jobs > 1; the report
    order is by n either way."""
    sop = tuple(sop)
    if not R.is_system_of_parameters(sop):
        raise InvalidSequenceError("the given elements are not a system of parameters")
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
    (eta_hat = 0); one system of parameters with trivial closure suffices
    for the positive direction."""
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
