"""Quotient presentations R = S/J and their hypothesis checks.

Locality is modelled by positive gradings: the irrelevant ideal generated
by all the variables plays the role of the maximal ideal, which keeps
every membership question decidable by Groebner bases.  Ideals of R are
always handled through lifted ideals of S that contain J.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Ideal
from .poly import Polynomial, PolyRing, RingMismatchError


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
    intersections), and can be overridden by the caller.
    """

    __slots__ = ("ambient", "defining", "_dimension", "_cm_override", "_cm_hint", "_cache")

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
        self._cm_hint = None
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
        if self._cm_hint is None:
            gens = self.defining.gens
            if len(gens) <= 1:
                self._cm_hint = True
            else:
                ambient_ring = QuotientRing(self.ambient, Ideal(self.ambient, ()))
                self._cm_hint = bool(ambient_ring.is_poor_regular_sequence(gens))
        return self._cm_hint

    # -- lifted-ideal plumbing -------------------------------------------------

    def lift(self, gens) -> Ideal:
        """The ideal of S generated by ``gens`` together with J."""
        if isinstance(gens, Ideal):
            gens = gens.gens
        gens = list(gens)
        for g in gens:
            if g.ring != self.ambient:
                raise RingMismatchError(f"{g} does not live in the ambient ring")
        return Ideal(self.ambient, gens + list(self.defining.gens))

    def project_equal(self, I: Ideal, K: Ideal) -> bool:
        """Whether I and K have the same image in R."""
        return self.lift(I).equals(self.lift(K))

    def contains(self, I: Ideal, f: Polynomial) -> bool:
        """Membership of f's image in the image of I."""
        return self.lift(I).contains(f)

    # -- hypothesis checks -------------------------------------------------------

    def is_poor_regular_sequence(self, elems) -> RegularSequenceCheck:
        """Check that each element is a nonzerodivisor on R modulo its
        predecessors (properness is not required)."""
        elems = list(elems)
        if not elems:
            raise ValueError("empty sequence")
        for i, a in enumerate(elems):
            prefix = self.lift(elems[:i])
            quotient = prefix.colon_ideal(Ideal(self.ambient, [a]))
            if not quotient.is_subset_of(prefix):  # prefix <= quotient always
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
