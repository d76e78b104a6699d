"""Bracket powers, exact Frobenius preimages, closure chains and the
uniform-bound census.

The closure of an ideal I of R = S/J is approximated by the ascending
chain C_e = {r : r**(p**e) in I^[p^e]}, computed exactly.  Over a
hypersurface R = S/(f), when a height test shows f to be a nonzerodivisor
modulo I's other generators, each step is a colon by the Frobenius root
I_e(f**(p**e - 1)) (Fedder's lemma); otherwise it is the elimination-based
preimage of I^[p^e] + J, which is also the oracle the colon is tested
against.  Window stabilization of the chain is
a heuristic stopping rule: every element of the returned ideal is
certified to lie in the closure (the certificate is re-verified on every
run), but equality with the full closure is not proved and reports say so
explicitly.

Every bracket-power equality (C)^[p^e] = I^[p^e] in R -- the certificate,
the Q-exponent search, the census recheck and the parameter-ideal check --
is decided by :func:`bracket_powers_agree`: I lies in C, so one membership
test per generator of C against the input's cached target I^[p^e] + J
suffices, and no target of a closure is ever built.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .groebner import Ideal, buchberger
from .poly import Polynomial, PolyRing, block_order, frobenius_power, frobenius_root
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
    if e == 0:
        return Ideal(I.ring, I.gens)
    return Ideal(I.ring, [frobenius_power(g, e) for g in I.gens])


def frobenius_target(R: QuotientRing, I: Ideal, e: int) -> Ideal:
    """I^[p^e] + J for a lifted ideal I of R = S/J.

    Cached on R, keyed by I's generators and e, for the ring's lifetime
    (the reduced basis is unique, so sharing the ideal shares its basis).
    Only input-side targets are built: the preimage fallback of the closure
    step reads one, and :func:`bracket_powers_agree` (the certificate, the
    Q-search, the census recheck and the parameter-ideal check) tests
    membership in one."""
    key = ("frob_target", I.gens, e)
    target = R._cache.get(key)
    if target is None:
        target = bracket_power(I, e) + R.defining
        R._cache[key] = target
    return target


def bracket_powers_agree(R: QuotientRing, I: Ideal, gens, e: int) -> bool:
    """Whether (gens)^[p^e] + J = I^[p^e] + J for a lifted ideal I of
    R = S/J, when I lies in the ideal generated by ``gens`` and J.

    That containment makes I^[p^e] + J the smaller side, so only the other
    inclusion is tested, by membership of each g**(p**e) in the cached
    target of I; no basis of the gens side is built."""
    target = frobenius_target(R, I, e)
    return all(target.contains(frobenius_power(g, e)) for g in gens)


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
    x_i, which maps to x_i**p."""
    ring = K.ring
    p = ring.p
    n = ring.nvars
    if "_u" in ring._index:
        raise ValueError("ring already contains the reserved variable '_u'")
    others = [j for j in range(n) if j != i]
    tvars = (ring.variables[i],) + tuple(ring.variables[j] for j in others) + ("_u",)
    ext = PolyRing(p, tvars, block_order(1), internal=True)

    def fwd(g):
        return Polynomial(
            ext,
            {
                (m[i],) + tuple(m[j] for j in others) + (0,): c
                for m, c in g.terms.items()
            },
            _canonical=True,
        )

    u_mono = (0,) * n + (1,)
    xp_mono = (p,) + (0,) * n
    relation = Polynomial(ext, {u_mono: 1, xp_mono: p - 1}, _canonical=True)
    gens = [fwd(g) for g in K.gens] + [relation]
    kept = [h for h in buchberger(gens, ext.order) if all(m[0] == 0 for m in h.terms)]

    def back(h):
        table = {}
        for m, c in h.terms.items():
            mm = [0] * n
            mm[i] = m[-1]
            for pos, j in enumerate(others):
                mm[j] = m[1 + pos]
            table[tuple(mm)] = c
        return Polynomial(ring, table, _canonical=True)

    return Ideal(ring, [back(h) for h in kept])


def frobenius_root_ideal(R: QuotientRing, e: int) -> Ideal:
    """A_e = I_e(f**(p**e - 1)) for a hypersurface R = S/(f), generated by
    its reduced Groebner basis.

    Built by Katzman's recursion A_0 = (1), A_e = I_1(f**(p-1) * A_{e-1}),
    so f**(p**e - 1) itself is never formed; cached on R per e."""
    key = ("frob_root", e)
    A = R._cache.get(key)
    if A is None:
        S = R.ambient
        if e == 0:
            A = Ideal(S, [S.one()])
        else:
            (f,) = R.defining.gens
            fp = f ** (R.p - 1)
            roots = [
                h
                for a in frobenius_root_ideal(R, e - 1).gens
                for h in frobenius_root(fp * a, 1).values()
            ]
            A = Ideal(S, Ideal(S, roots).groebner_basis())
        R._cache[key] = A
    return A


def _root_colon_base(R: QuotientRing, I: Ideal) -> Ideal | None:
    """(g, f) for the generators g of I other than f, when J = (f) and f
    is a nonzerodivisor on S/(g); None when that cannot be shown.

    The test is ht(g, f) = k + 1 for the k generators g.  Then no
    associated prime P of (g) contains f: such a P would contain a minimal
    prime of (g, f), so ht P > k, while in the Cohen-Macaulay ring S_P the
    k generators of (g) have height k (a lower one would bring ht(g, f)
    down to k) and so generate an unmixed ideal of height k."""
    if len(R.defining.gens) != 1:
        return None
    (f,) = R.defining.gens
    g = tuple(h for h in I.gens if h != f)
    base = I if I.gens == g + (f,) else R.lift(g)
    if base.krull_dimension() != R.ambient.nvars - len(g) - 1:
        return None
    return base


def closure_step(R: QuotientRing, I: Ideal, e: int) -> Ideal:
    """The lift of C_e(I) = {r in R : r**(p**e) in I^[p^e]}, for e >= 1.

    Over a hypersurface R = S/(f) with I = (g) + (f) and f a nonzerodivisor
    on S/(g) (checked by :func:`_root_colon_base`), Fedder's lemma gives
    the colon C_e = ((g, f) : I_e(f**(p**e - 1))): r**q lies in
    (g**q) + (f) = (g, f)^[q] : f**(q-1) (f stays a nonzerodivisor modulo
    (g**q), Frobenius being flat on S) exactly when I_e(r**q * f**(q-1))
    = r * I_e(f**(q-1)) lies in (g, f).  Otherwise the elimination
    preimage of I^[p^e] + J is taken; it is also the oracle the colon is
    tested against.

    The colon is cached on R, keyed by (g, f) and the basis of the root
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


@dataclass
class ClosureChainReport:
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
    q_exponent: int | None
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
    def closure(self) -> Ideal:
        """The last chain member (the certified closure approximation), lifted."""
        return self.ring.lift(self.chain[-1][1])

    @property
    def q_value(self) -> int | None:
        if self.q_exponent is None:
            return None
        return self.ring.p ** self.q_exponent


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
    if isinstance(I, Ideal):
        I = I.gens
    lift = R.lift(I)
    chain_ideals = [lift]
    run = 0
    stab = None
    for e in range(1, e_max + 1):
        C = closure_step(R, lift, e)
        prev = chain_ideals[-1]
        if not prev.is_subset_of(C):
            raise RuntimeError("closure chain failed to ascend; closure-step bug")
        equal = C.groebner_basis() == prev.groebner_basis()
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
    q_exponent = None
    if stab is not None:
        # the smallest e' with (C)^[p^e'] + J = I^[p^e'] + J; the certificate
        # is that equality at e' = stab
        q_exponent = next(
            (e for e in range(stab) if bracket_powers_agree(R, lift, closure_gb, e)), stab
        )
    return ClosureChainReport(
        ring=R,
        input_ideal=lift,
        chain=tuple((e, C.groebner_basis()) for e, C in enumerate(chain_ideals)),
        status=status,
        stabilization_index=stab,
        q_exponent=q_exponent,
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
    return report.q_exponent, report.ring.p ** report.q_exponent


# ---------------------------------------------------------------------------
# census of Q-exponents over parameter families

@dataclass(frozen=True)
class CensusRow:
    """Per-ideal census record."""

    parameters: tuple  # ((name, value), ...)
    ideal_digest: tuple  # closure basis, as canonical strings
    q_exponent: int | None
    regular_sequence_ok: bool
    stabilized: bool


@dataclass
class CensusReport:
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
    emitted in row-major order of the ranges as given.  Placeholders are
    substituted as integer exponents only.
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
        gens = [ring.parse(part) for part in text.split(",")]
        rows.append((tuple(zip(names, values)), gens))
    return rows


def frobenius_power_family(R: QuotientRing, I: Ideal, n_max: int) -> list:
    """The family I^[p^n] for n = 0..n_max, as labeled census rows."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    return [
        ((("n", n),), list(bracket_power(Ideal(R.ambient, I.gens), n).gens))
        for n in range(n_max + 1)
    ]


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
    """[fn(*row) for row in rows], on a pool of ``jobs`` worker processes
    when jobs > 1 and there is more than one row; results keep row order."""
    if jobs > 1 and len(rows) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*rows)))
    return [fn(*row) for row in rows]


def run_census(R: QuotientRing, labeled_rows, e_max: int = 8, window: int = 2,
               jobs: int = 1) -> CensusReport:
    """Closure/Q-exponent census over explicit labeled rows
    [(params, generators), ...].  Rows are independent; with jobs > 1 they
    are dispatched to a process pool, and output order follows input order
    either way."""
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
