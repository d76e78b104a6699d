"""Quotient presentations R = S/J and their hypothesis checks.

Locality is modelled by positive gradings: the irrelevant ideal generated
by all the variables plays the role of the maximal ideal, which keeps
every membership question decidable by Groebner bases.  Ideals of R are
always handled through lifted ideals of S that contain J; a ring hands out
one lifted ideal per generator tuple, so every caller shares its basis.

Every regular-sequence hypothesis is decided by one height test,
:meth:`QuotientRing._height_test`: J + (gens) is the unit ideal or its
height is the number of its generators.  The regular-sequence check runs
it on each prefix when J itself passes it; for any other J it takes the
colon (prefix : a) of every element, which the tests also use as the
height test's oracle.

No flag declares R Cohen-Macaulay.  When J itself passes the height test
(``_height_test(())``), R is the zero ring or J is locally a complete
intersection, so R is Cohen-Macaulay; a failed test decides nothing.
Where Cohen-Macaulayness at the irrelevant ideal matters (Cech classes,
eta scans) it is checked: a homogeneous system of parameters that is a
regular sequence exists exactly when R is Cohen-Macaulay there.
"""

from __future__ import annotations

from typing import NamedTuple

from .groebner import Ideal
from .poly import PolyRing, _check_ring


def _check_homogeneous(elems) -> None:
    """Raise ValueError unless every element is homogeneous of positive
    degree, as a system of parameters must be."""
    for a in elems:
        if a.is_zero or not a.is_homogeneous() or a.total_degree() < 1:
            raise ValueError(
                f"system-of-parameters check needs homogeneous elements of "
                f"positive degree, got {a}"
            )


class RegularSequenceCheck(NamedTuple):
    """Outcome of a poor-regular-sequence test; ``failure_index`` is the
    0-based position of the first element that is a zerodivisor modulo its
    predecessors (None when the sequence passes)."""

    ok: bool
    failure_index: int | None = None

    def __bool__(self):
        return self.ok


class QuotientRing:
    """R = S/J for a polynomial ring S and ideal J (with cached data)."""

    __slots__ = ("ambient", "defining", "_cache")

    def __init__(self, ambient: PolyRing, defining):
        if isinstance(defining, Ideal):
            _check_ring(ambient, defining)
        else:
            defining = Ideal(ambient, list(defining))
        self.ambient = ambient
        self.defining = defining
        self._cache: dict = {}

    def __repr__(self):
        J = ", ".join(map(str, self.defining.gens)) or "0"
        return f"{self.ambient!r} / ({J})"

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.ambient is other.ambient
            and self.defining.gens == other.defining.gens
        )

    def __hash__(self):
        return hash((self.ambient, self.defining.gens))

    @property
    def p(self) -> int:
        return self.ambient.p

    @property
    def dimension(self) -> int:
        """dim R = dim S/J, cached on J (see :meth:`Ideal.krull_dimension`)."""
        return self.defining.krull_dimension()

    def _height_test(self, gens) -> bool:
        """Whether K = J + (gens) is the unit ideal or has height k + c,
        for the k elements ``gens`` and the c generators of J: whether
        dim S/K = n - k - c, since dim S/K = n - ht K over S.  K is the
        lift of ``gens``, so its dimension is cached on it, and for
        ``gens = ()`` it is J and its dimension is :attr:`dimension`.

        When it holds for a proper K, K is generated by ht K elements of
        the Cohen-Macaulay ring S, so it is unmixed (Macaulay; Bruns-Herzog,
        Thm 2.1.6): every associated prime of S/K is minimal of height
        k + c.  So in the local ring S_m at each maximal ideal m containing
        K, its k + c generators form a regular sequence in any order."""
        dim = self.lift(gens).krull_dimension()
        return dim == -1 or dim == self.ambient.nvars - len(gens) - len(self.defining.gens)

    # -- lifted-ideal plumbing -------------------------------------------------

    def lift(self, gens) -> Ideal:
        """The ideal of S generated by ``gens`` together with J.

        Cached on R by generator tuple, so equal lifts are one object for
        the ring's lifetime and share one Groebner basis; the empty tuple
        lifts to J itself.  A generator of another ring raises
        RingMismatchError: :class:`Ideal` checks it on a cache miss, and a
        cached key holds only S's polynomials, whose equality compares
        rings."""
        if isinstance(gens, Ideal):
            gens = gens.gens
        gens = tuple(gens)
        if not gens:
            return self.defining
        key = ("lift", gens)
        lifted = self._cache.get(key)
        if lifted is None:
            lifted = self._cache[key] = Ideal(self.ambient, gens + self.defining.gens)
        return lifted

    # -- hypothesis checks -------------------------------------------------------

    def is_poor_regular_sequence(self, elems) -> RegularSequenceCheck:
        """Check that each element is a nonzerodivisor on R modulo its
        predecessors (properness is not required).

        When J passes :meth:`_height_test`, a_i passes exactly when
        J + a_1..a_i does.  By induction the prefix P = J + a_1..a_{i-1}
        passes.  If P is the unit ideal, a_i is a nonzerodivisor on the
        zero module.  Otherwise every associated prime of S/P is minimal of
        height m = c + i - 1, so a_i is a zerodivisor modulo P exactly when
        it lies in one of them, i.e. when dim S/(P + a_i) >= n - m; if it
        lies in none, every minimal prime over P + a_i has height m + 1.
        For any other J, each colon (prefix : a_i) is tested for
        containment in the prefix (see :meth:`_regular_sequence_by_colons`)."""
        elems = list(elems)
        if not elems:
            raise ValueError("empty sequence")
        if not self._height_test(()):
            return self._regular_sequence_by_colons(elems)
        for i in range(len(elems)):
            if not self._height_test(elems[:i + 1]):
                return RegularSequenceCheck(False, i)
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
        _check_homogeneous(elems)
        if len(elems) != self.dimension:
            return False
        return self.lift(elems).krull_dimension() == 0
