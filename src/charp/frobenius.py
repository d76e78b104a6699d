"""Bracket powers, exact Frobenius preimages, closure chains and the
uniform-bound census.

The closure of an ideal I of R = S/J is approximated by the ascending
chain C_e = {r : r**(p**e) in I^[p^e]}, computed exactly.  Over
R = S/(f_1, ..., f_c), when J = 0 or a height test shows J's generators
to stay a regular sequence modulo I's other generators, each step is a
colon by the Frobenius root I_e(u**(p**e - 1)) of u = f_1 * ... * f_c
(Fedder's lemma); otherwise it is the elimination-based preimage of
I^[p^e] + J, which is also the oracle the colon is tested against.  Window
stabilization of the chain is a heuristic stopping rule: every element
of the returned ideal is certified to lie in the closure (the
certificate is re-verified on every run), but equality with the full
closure is not proved and reports say so explicitly.

Every bracket-power equality (C)^[p^e] = I^[p^e] in R -- the certificate,
the census recheck and the parameter-ideal check -- is decided by
:func:`bracket_powers_agree`: I lies in C, so one membership test per
generator g of C against the input's target I^[p^e] + J suffices (of
g**(p**e), which :meth:`Ideal.contains` tests without forming it), and
no target of a closure is ever built.  A target is the ring's cached lift of
the p^e-th powers of I's own generators, so it shares its Groebner basis
with every equal lift.  The Q-exponent needs no test
of its own: it is the chain's stabilization index.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple

from .groebner import Ideal, _eliminate, _fresh_variable
from .parse import parse_polynomials
from .poly import PolyRing, degree_cap, frobenius_power, frobenius_root, set_degree_cap
from .quotient import QuotientRing

STATUS_STABLE = "certified_subset_window_stable"
STATUS_NOT_STABILIZED = "not_stabilized"


class NotStabilizedError(RuntimeError):
    """The closure chain did not window-stabilize within the given bounds."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def bracket_power(I: Ideal, e: int) -> Ideal:
    """I^[p^e], generated by the p^e-th powers of I's generators (a valid
    generating set because Frobenius is a ring endomorphism)."""
    if e < 0:
        raise ValueError(f"bracket-power exponent must be non-negative, got {e}")
    return Ideal(I.ring, [frobenius_power(g, e) for g in I.gens])


def _own_gens(R: QuotientRing, I: Ideal) -> tuple:
    """The generators of a lifted ideal I of R = S/J that are not
    generators of J."""
    return tuple(g for g in I.gens if g not in R.defining.gens)


def frobenius_target(R: QuotientRing, I: Ideal, e: int) -> Ideal:
    """I^[p^e] + J for a lifted ideal I of R = S/J: the lift of the
    p^e-th powers of I's own generators (J's generators need no power,
    since f**(p**e) already lies in J).

    So a target is the ring's cached lift, one object with one Groebner
    basis for the ring's lifetime, shared with any equal lift: the e = 0
    target is I itself, and the target of (x**a, y**b) is the lift of
    (x**(a*p**e), y**(b*p**e)).  Only input-side targets are built: the
    preimage fallback of the closure step reads one, and
    :func:`bracket_powers_agree` (the certificate, the census recheck and
    the parameter-ideal check) tests membership in one."""
    return R.lift(bracket_power(Ideal(R.ambient, _own_gens(R, I)), e))


def bracket_powers_agree(R: QuotientRing, I: Ideal, gens, e: int) -> bool:
    """Whether (gens)^[p^e] + J = I^[p^e] + J for a lifted ideal I of
    R = S/J, when I lies in the ideal generated by ``gens`` and J.

    That containment makes I^[p^e] + J the smaller side, so only the other
    inclusion is tested, by membership of each g**(p**e) in the cached
    target of I (:meth:`Ideal.contains` with exponent e, which never forms
    the power); no basis of the gens side is built."""
    target = frobenius_target(R, I, e)
    return all(target.contains(g, e) for g in gens)


def frobenius_preimage(K: Ideal, e: int) -> Ideal:
    """U_e(K) = {r : r**(p**e) in K}, the largest ideal whose e-th bracket
    power is contained in K.

    Computed exactly by elimination: adjoin a fresh variable linked to the
    p-th power of a ring variable, eliminate that ring variable and read
    the contraction back through the substitution.  The contraction equals
    the preimage because raising to the p-th power and substituting
    x_i -> x_i**p agree over F_p.  The substitutions for different
    variables commute, so the full contraction composes one variable at a
    time, and higher exponents compose one Frobenius step at a time
    (U_{a+b} = U_a o U_b); both factorizations keep every elimination small.

    This is the general closure step, taken wherever the Frobenius-root
    colon of :func:`closure_step` does not apply, and the oracle that colon
    is tested against.
    """
    if e < 1:
        raise ValueError("preimage exponent must be positive (e = 0 is the identity)")
    result = K
    for _ in range(e):
        for i in range(K.ring.nvars):
            result = _contract_one_variable(result, i)
    return result


def _contract_one_variable(K: Ideal, i: int) -> Ideal:
    """phi^{-1}(K) for the substitution phi fixing every variable except
    x_i, which maps to x_i**p: eliminate x_i from K + (u - x_i**p) and
    read u back as x_i.  K and u - x_i**p are written straight into the
    block ring of x_i, the other variables and a fresh u, in that order
    (see :func:`charp.groebner._eliminate`)."""
    ring, p, n = K.ring, K.ring.p, K.ring.nvars
    tables = [{(m[i],) + m[:i] + m[i + 1:] + (0,): c for m, c in g.terms.items()} for g in K.gens]
    tables.append({(0,) * n + (1,): 1, (p,) + (0,) * n: p - 1})
    names = ring.variables
    variables = (names[i],) + names[:i] + names[i + 1:] + (_fresh_variable(ring, "_u"),)
    return _eliminate(ring, variables, 1, tables, lambda m: m[1:i + 1] + m[-1:] + m[i + 1:-1])


def frobenius_root_ideal(R: QuotientRing, e: int) -> Ideal:
    """A_e = I_e(u**(p**e - 1)) for u = f_1 * ... * f_c, the product of the
    generators of J (u = 1 when J = 0), generated by its reduced Groebner
    basis.

    Built by Katzman's recursion A_0 = (1), A_e = I_1(u**(p-1) * A_{e-1}),
    so u**(p**e - 1) itself is never formed; cached on R per e."""
    key = ("frob_root", e)
    A = R._cache.get(key)
    if A is None:
        S = R.ambient
        if e == 0:
            A = Ideal(S, [S.one()])
        else:
            up = math.prod(R.defining.gens, start=S.one()) ** (R.p - 1)
            roots = [
                h
                for a in frobenius_root_ideal(R, e - 1).gens
                for h in frobenius_root(up * a, 1).values()
            ]
            A = Ideal(S, Ideal(S, roots).groebner_basis())
        R._cache[key] = A
    return A


def _root_colon_base(R: QuotientRing, I: Ideal) -> Ideal | None:
    """(g) + J for the generators g of I that are not generators of
    J = (f_1, ..., f_c), when c = 0 or (g) + J passes
    :meth:`QuotientRing._height_test`; None otherwise.

    Either way ((g**q) + J^[q]) : u**(q-1) = (g**q) + J for
    u = f_1 * ... * f_c and every q = p**e.  For c = 0 this is
    (g**q) : 1 = (g**q).  For c >= 1 the equality can be checked at each
    maximal ideal m of S.  When m does not contain (g) + J, neither
    contains (g**q) + J, which has the same radical, so both sides are the
    unit ideal.  Otherwise, by the height test, the generators of
    (g) + J form a regular sequence of S_m in any order, and so do their
    powers g**q, f_1, ..., f_c: J's generators stay regular modulo
    (g**q), and for a regular sequence f_1, ..., f_c on a module M,
    (f_1**q, ..., f_c**q)M :_M u**(q-1) = (f_1, ..., f_c)M."""
    g = _own_gens(R, I)
    if R.defining.gens and not R._height_test(g):
        return None
    return R.lift(g)


def closure_step(R: QuotientRing, I: Ideal, e: int) -> Ideal:
    """The lift of C_e(I) = {r in R : r**(p**e) in I^[p^e]}, for e >= 1.

    Over R = S/J, J = (f_1, ..., f_c), with J = 0 or I = (g) + J passing
    the ring's height test (see :func:`_root_colon_base`), Fedder's lemma
    gives the colon C_e = ((g) + J : I_e(u**(q-1))) for u = f_1 * ... * f_c
    and q = p**e: r**q lies in (g**q) + J = ((g) + J)^[q] : u**(q-1) exactly
    when I_e(r**q * u**(q-1)) = r * I_e(u**(q-1)) lies in (g) + J.  Otherwise
    the elimination preimage of I^[p^e] + J is taken; it is also the
    oracle the colon is tested against.

    The colon is cached on R, keyed by (g) + J and the basis of the root
    ideal, so a step whose root ideal equals an earlier step's (Katzman's
    recursion is often stationary) returns that step's ideal."""
    if e < 1:
        raise ValueError(f"closure-step exponent must be positive, got {e}")
    base = _root_colon_base(R, I)
    if base is None:
        return R.lift(frobenius_preimage(frobenius_target(R, I, e), e))
    root = frobenius_root_ideal(R, e)
    key = ("root_colon", base.gens, root.gens)
    C = R._cache.get(key)
    if C is None:
        C = R._cache[key] = base.colon_ideal(root)
    return C


class ClosureChainReport(NamedTuple):
    """Result of a closure-chain run.

    ``chain`` lists (e, reduced Groebner basis of the lifted C_e); the
    certificate re-verifies g**(p**E) in I^[p^E] + J for every generator g
    of the final chain member, so the returned ideal is contained in the
    closure unconditionally.  Window stabilization does not prove equality
    with the closure (``completeness``)."""

    ring: QuotientRing
    input_ideal: Ideal
    chain: tuple
    status: str
    stabilization_index: int | None
    certificate_ok: bool
    e_max: int
    window: int
    completeness: str = (
        "heuristic: window stabilization certifies containment in the closure, "
        "not equality with it"
    )

    @property
    def stabilized(self) -> bool:
        return self.status == STATUS_STABLE

    @property
    def q_exponent(self) -> int | None:
        """The smallest e' with C^[p^e'] + J = I^[p^e'] + J for the closure
        C, which is the stabilization index s.  The certificate shows the
        equality at e' = s.  No smaller e' can pass: that equality puts
        every r in C into C_e' (r^(p^e') lies in I^[p^e'] + J), and C_e'
        lies in C as the chain ascends, so C_e' = C and the chain would
        have reached its final member by e' < s."""
        return self.stabilization_index

    @property
    def q_value(self) -> int | None:
        return None if self.q_exponent is None else self.ring.p ** self.q_exponent


def frobenius_closure(R: QuotientRing, I, e_max: int = 8, window: int = 2) -> ClosureChainReport:
    """Run the closure chain C_0 = I, C_1, ... until the last ``window``
    chain members coincide or ``e_max`` is reached.

    A window of w asks for w consecutive equal members, i.e. w - 1
    consecutive equalities C_e = C_{e+1} (w = 1 is treated as 2: at least
    one equality is always required)."""
    if e_max < 1:
        raise ValueError(f"e_max must be >= 1, got {e_max}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    needed = max(window - 1, 1)
    lift = R.lift(I)
    chain_ideals = [lift]
    run = 0
    stab = None
    for e in range(1, e_max + 1):
        C = closure_step(R, lift, e)
        prev = chain_ideals[-1]
        # a step that hands back the previous member itself needs no test
        if C is not prev and not prev.is_subset_of(C):
            raise RuntimeError("closure chain failed to ascend; closure-step bug")
        equal = C is prev or C.groebner_basis() == prev.groebner_basis()
        chain_ideals.append(C)
        run = run + 1 if equal else 0
        if run == needed:
            stab = e - needed
            break
    status = STATUS_STABLE if stab is not None else STATUS_NOT_STABILIZED
    cert_e = stab if stab is not None else len(chain_ideals) - 1
    closure_gb = chain_ideals[cert_e].groebner_basis()
    if not bracket_powers_agree(R, lift, closure_gb, cert_e):
        raise RuntimeError("closure soundness certificate failed; closure-step bug")
    return ClosureChainReport(
        ring=R,
        input_ideal=lift,
        chain=tuple((e, C.groebner_basis()) for e, C in enumerate(chain_ideals)),
        status=status,
        stabilization_index=stab,
        certificate_ok=True,
        e_max=e_max,
        window=window,
    )


def q_number(report: ClosureChainReport) -> tuple[int, int]:
    """(e', p**e') for the smallest e' with (C)^[p^e'] = I^[p^e'] in R."""
    if not report.stabilized:
        raise NotStabilizedError(
            "Q-number requires a window-stabilized closure chain", report
        )
    return report.q_exponent, report.q_value


# ---------------------------------------------------------------------------
# census of Q-exponents over parameter families

class CensusRow(NamedTuple):
    """Per-ideal census record."""

    parameters: tuple  # ((name, value), ...)
    ideal_digest: tuple  # closure basis, as canonical strings
    q_exponent: int | None
    regular_sequence_ok: bool
    stabilized: bool


class CensusReport(NamedTuple):
    rows: tuple
    uniform_e: int | None
    uniform_e_is_lower_bound: bool
    recheck_ok: bool | None
    e_max: int
    window: int


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def instantiate_template(ring: PolyRing, template: str, ranges) -> list:
    """Expand a generator template like ``x^{a}, y^{b}`` over integer ranges.

    ``ranges`` maps parameter names to iterables of integers; rows are
    emitted in row-major order of the ranges as given.  Each placeholder
    ``{a}`` is replaced by its value's decimal text wherever it stands, as
    an exponent or not: ``{a}*x^{b}, y`` with a = 2, b = 1 reads
    ``2*x, y``.  A parse error's line:col counts in the instantiated row
    text, such as ``x^1, y^1, w``.
    """
    names = list(ranges)
    used = set(_PLACEHOLDER_RE.findall(template))
    unknown = used - set(names)
    if unknown:
        raise ValueError(f"template parameter(s) {sorted(unknown)} have no range")
    unused = set(names) - used
    if unused:
        raise ValueError(f"range parameter(s) {sorted(unused)} do not appear in the template")
    rows = []
    for values in itertools.product(*(list(ranges[n]) for n in names)):
        assignment = dict(zip(names, values))
        text = _PLACEHOLDER_RE.sub(lambda m: str(assignment[m.group(1)]), template)
        gens = parse_polynomials(ring, text)
        rows.append((tuple(zip(names, values)), gens))
    return rows


def frobenius_power_family(R: QuotientRing, I: Ideal, n_max: int) -> list:
    """The family I^[p^n] for n = 0..n_max, as labeled census rows."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    return [((("n", n),), bracket_power(I, n).gens) for n in range(n_max + 1)]


def _census_row(R, params, gens, e_max, window):
    regseq = bool(R.is_poor_regular_sequence(gens)) if gens else False
    report = frobenius_closure(R, gens, e_max=e_max, window=window)
    closure_gb = report.chain[-1][1]
    row = CensusRow(
        parameters=tuple(params),
        ideal_digest=tuple(str(g) for g in closure_gb),
        q_exponent=report.q_exponent,
        regular_sequence_ok=regseq,
        stabilized=report.stabilized,
    )
    return row, closure_gb, list(gens)


def _map_rows(fn, rows, jobs: int) -> list:
    """[fn(*row) for row in rows], on a pool of min(jobs, len(rows)) worker
    processes when jobs > 1 and there is more than one row (no idle worker
    is started); results keep row order.  Each worker starts with the
    calling process's degree cap, whatever the start method."""
    if jobs > 1 and len(rows) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(rows)), initializer=set_degree_cap,
                                 initargs=(degree_cap(),)) as pool:
            return list(pool.map(fn, *zip(*rows)))
    return [fn(*row) for row in rows]


def run_census(R: QuotientRing, labeled_rows, e_max: int = 8, window: int = 2,
               jobs: int = 1) -> CensusReport:
    """Closure/Q-exponent census over explicit labeled rows
    [(params, generators), ...].  Rows are independent; with jobs > 1 they
    are dispatched to a process pool, and output order follows input order
    either way.

    ``recheck_ok`` tells whether every stabilized row's closure has the
    bracket powers of its input at ``uniform_e``.  That is tested for the
    rows whose Q-exponent is below ``uniform_e``.  For a row at
    ``uniform_e`` the test would be the row's own certificate (the same
    target, the same basis and the same e), which passed, so it only
    checks that the basis handed back is the certified one its digest
    records; a census whose rows share one Q-exponent therefore rebuilds
    no target in the calling process."""
    outcomes = _map_rows(
        _census_row,
        [(R, params, gens, e_max, window) for params, gens in labeled_rows],
        jobs,
    )
    rows = tuple(row for row, _, _ in outcomes)
    stabilized_q = [row.q_exponent for row in rows if row.stabilized]
    all_stabilized = all(row.stabilized for row in rows) and bool(rows)
    uniform_e = max(stabilized_q, default=None)
    recheck_ok = None
    if uniform_e is not None:
        recheck_ok = all(
            bracket_powers_agree(R, R.lift(gens), closure_gb, uniform_e)
            if row.q_exponent < uniform_e
            else tuple(map(str, closure_gb)) == row.ideal_digest
            for row, closure_gb, gens in outcomes
            if row.stabilized
        )
    return CensusReport(
        rows=rows,
        uniform_e=uniform_e,
        uniform_e_is_lower_bound=not all_stabilized,
        recheck_ok=recheck_ok,
        e_max=e_max,
        window=window,
    )


def uniform_census(R: QuotientRing, template: str, ranges, e_max: int = 8,
                   window: int = 2, jobs: int = 1) -> CensusReport:
    """Census over a generator template with integer parameters; see
    :func:`instantiate_template` and :func:`run_census`."""
    rows = instantiate_template(R.ambient, template, ranges)
    if not rows:
        raise ValueError("template instantiates to no rows")
    return run_census(R, rows, e_max=e_max, window=window, jobs=jobs)
