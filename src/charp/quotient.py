"""Quotient presentations R = S/J and their hypothesis checks.

Locality is modelled by positive gradings: the irrelevant ideal generated
by all the variables plays the role of the maximal ideal, which keeps
every membership question decidable by Groebner bases.  Ideals of R are
always handled through lifted ideals of S that contain J; a ring hands out
one lifted ideal per generator tuple, so every caller shares its basis.

The regular-sequence check runs a height test (one dimension per prefix)
when J is zero, principal or generated by a regular sequence of S, as
worked out from J's own generators; for any other J it takes the colon
(prefix : a) of every element, which the tests also use as the height
test's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Ideal
from .poly import PolyRing, RingMismatchError


@dataclass(frozen=True)
class RegularSequenceCheck:
    """Outcome of a poor-regular-sequence test; ``failure_index`` is the
    0-based position of the first element that is a zerodivisor modulo its
    predecessors (None when the sequence passes)."""

    ok: bool
    failure_index: int | None = None

    def __bool__(self):
        return self.ok


class QuotientRing:
    """R = S/J for a polynomial ring S and ideal J (with cached data).

    ``cm_hint`` marks R as Cohen-Macaulay; it is derived automatically for
    principal J and for J generated by a poor regular sequence (complete
    intersections), and can be overridden by the caller.  The override
    only changes what ``cm_hint`` reports: no computation relies on it.
    """

    __slots__ = ("ambient", "defining", "_dimension", "_cm_override", "_ci", "_cache")

    def __init__(self, ambient: PolyRing, defining, cm_hint: bool | None = None):
        if isinstance(defining, Ideal):
            if defining.ring != ambient:
                raise RingMismatchError("defining ideal lives in a different ring")
        else:
            defining = Ideal(ambient, list(defining))
        self.ambient = ambient
        self.defining = defining
        self._dimension = None
        self._cm_override = cm_hint
        self._ci = None
        self._cache: dict = {}

    def __repr__(self):
        J = ", ".join(map(str, self.defining.gens)) or "0"
        return f"{self.ambient!r} / ({J})"

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.ambient == other.ambient
            and self.defining.gens == other.defining.gens
        )

    def __hash__(self):
        return hash((self.ambient, self.defining.gens))

    @property
    def p(self) -> int:
        return self.ambient.p

    @property
    def dimension(self) -> int:
        if self._dimension is None:
            self._dimension = self.defining.krull_dimension()
        return self._dimension

    @property
    def cm_hint(self) -> bool:
        if self._cm_override is not None:
            return self._cm_override
        return self._complete_intersection

    @property
    def _complete_intersection(self) -> bool:
        """Whether J's generators form a poor regular sequence of S (always
        so for zero or principal J), decided from J alone."""
        if self._ci is None:
            gens = self.defining.gens
            if len(gens) <= 1:
                self._ci = True
            else:
                ambient_ring = QuotientRing(self.ambient, Ideal(self.ambient, ()))
                self._ci = bool(ambient_ring.is_poor_regular_sequence(gens))
        return self._ci

    # -- lifted-ideal plumbing -------------------------------------------------

    def lift(self, gens) -> Ideal:
        """The ideal of S generated by ``gens`` together with J.

        Cached on R by generator tuple, so equal lifts are one object for
        the ring's lifetime and share one Groebner basis."""
        if isinstance(gens, Ideal):
            gens = gens.gens
        gens = tuple(gens)
        for g in gens:
            if g.ring != self.ambient:
                raise RingMismatchError(f"{g} does not live in the ambient ring")
        key = ("lift", gens)
        lifted = self._cache.get(key)
        if lifted is None:
            lifted = self._cache[key] = Ideal(self.ambient, gens + self.defining.gens)
        return lifted

    def project_equal(self, I: Ideal, K: Ideal) -> bool:
        """Whether I and K have the same image in R."""
        return self.lift(I).equals(self.lift(K))

    # -- hypothesis checks -------------------------------------------------------

    def is_poor_regular_sequence(self, elems) -> RegularSequenceCheck:
        """Check that each element is a nonzerodivisor on R modulo its
        predecessors (properness is not required).

        When J is zero, principal or generated by a regular sequence of S
        (decided from J's generators, never from a ``cm_hint`` override),
        a_i passes exactly when dim S/(J + a_1..a_i) = dim S/(J +
        a_1..a_{i-1}) - 1, or when J + a_1..a_i is the unit ideal.  Proof:
        while the prefix P = J + a_1..a_{i-1} is proper it is generated by
        a regular sequence of S of length m, so ht P = m, and an ideal of
        the Cohen-Macaulay ring S generated by ht P elements is unmixed
        (Bruns-Herzog, Thm 2.1.6): every associated prime of S/P has height
        m.  a_i is a zerodivisor modulo P exactly when it lies in one of
        them, i.e. when ht(P + a_i) <= m; otherwise ht(P + a_i) = m + 1.
        Over S, dim S/K = n - ht K for every proper K.  A unit a_i modulo P
        and any a_i after a unit prefix are nonzerodivisors (the latter on
        the zero module).  For any other J, each colon (prefix : a_i) is
        tested for containment in the prefix (see
        :meth:`_regular_sequence_by_colons`)."""
        elems = list(elems)
        if not elems:
            raise ValueError("empty sequence")
        if not self._complete_intersection:
            return self._regular_sequence_by_colons(elems)
        dim = self.dimension
        for i in range(len(elems)):
            new_dim = self.lift(elems[:i + 1]).krull_dimension()
            if new_dim != -1 and new_dim != dim - 1:
                return RegularSequenceCheck(False, i)
            dim = new_dim
        return RegularSequenceCheck(True)

    def _regular_sequence_by_colons(self, elems) -> RegularSequenceCheck:
        """The regular-sequence check for any J: a_i is a nonzerodivisor
        modulo the prefix P exactly when (P : a_i) lies in P (the reverse
        inclusion always holds)."""
        for i, a in enumerate(elems):
            prefix = self.lift(elems[:i])
            if not prefix.colon_ideal(Ideal(self.ambient, [a])).is_subset_of(prefix):
                return RegularSequenceCheck(False, i)
        return RegularSequenceCheck(True)

    def is_system_of_parameters(self, elems) -> bool:
        """d = dim R homogeneous elements of positive degree cutting R down
        to dimension zero."""
        elems = list(elems)
        for a in elems:
            if a.is_zero or not a.is_homogeneous() or a.total_degree() < 1:
                raise ValueError(
                    f"system-of-parameters check needs homogeneous elements of "
                    f"positive degree, got {a}"
                )
        if len(elems) != self.dimension:
            return False
        return self.lift(elems).krull_dimension() == 0
