"""Output checks for the benchmark, independent of charp's Groebner path.

Every workload lives over the Fermat cubic f = x^3 + y^3 + z^3 and only
ever asks about ideals of the form (x^A, y^B) + (f).  For an order in
which z^3 leads f, the generators {f, x^A, y^B} have pairwise coprime
leading terms, so they already form a Groebner basis: the normal form of
any polynomial is obtained by rewriting z^3 -> -(x^3 + y^3) and dropping
every term divisible by x^A or y^B.  ``fermat_nf`` implements exactly that
closed form; together with charp's dense linear-algebra oracle
(``charp.linalg``) it confirms the stored expected results without running
a single Buchberger completion.

The stored table (``expected.json``) covers every census row and every
closure ideal the workloads can draw.  Per-run checks compare task
outputs with it ("stored" checks) and always re-test the invariants that
hold for any input ("invariant" checks); a row missing from the table gets
the invariant checks only.  Torsion orders are computed from the closed
form for every class ("closed-form" checks).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
J_MAX = 6


def load_expected(path=EXPECTED_PATH) -> dict:
    """{(p, a, b): {"closure": [str, ...], "q": int, "stab": int}}."""
    raw = json.loads(Path(path).read_text())
    return {tuple(int(v) for v in key.split(",")): entry for key, entry in raw.items()}


# ---------------------------------------------------------------------------
# closed-form normal form modulo (x^A, y^B) + (x^3 + y^3 + z^3)

def fermat_nf(terms: dict, A: int, B: int, p: int) -> dict:
    """Normal form of {(i, j, k): c} modulo (x^A, y^B, x^3 + y^3 + z^3).

    z^k = z^r * (-(x^3 + y^3))^s for k = 3s + r, expanded binomially;
    terms reaching x^A or y^B vanish.  The result is empty iff the input
    lies in the ideal."""
    out: dict = {}
    for (i, j, k), c in terms.items():
        s, r = divmod(k, 3)
        sign = -1 if s % 2 else 1
        for t in range(s + 1):
            ii, jj = i + 3 * t, j + 3 * (s - t)
            if ii >= A or jj >= B:
                continue
            coeff = sign * c * math.comb(s, t) % p
            if coeff:
                m = (ii, jj, r)
                v = (out.get(m, 0) + coeff) % p
                if v:
                    out[m] = v
                else:
                    del out[m]
    return out


def frobenius_terms(terms: dict, q: int) -> dict:
    """r**q for q a power of p: exponents scale, coefficients stay."""
    return {tuple(e * q for e in m): c for m, c in terms.items()}


def closed_form_torsion(terms: dict, n: int, p: int, j_max: int = J_MAX):
    """Torsion order of [r / (xy)^n] in H^2 of F_p[x,y,z]/(f): the least
    j <= j_max with r^(p^j) in (x^(n p^j), y^(n p^j)) + (f), else None."""
    for j in range(j_max + 1):
        q = p ** j
        if not fermat_nf(frobenius_terms(terms, q), n * q, n * q, p):
            return j
    return None


# ---------------------------------------------------------------------------
# one-time confirmation of the stored table

def _standard_monomials(A: int, B: int, degree: int):
    return [
        (i, j, degree - i - j)
        for i in range(min(A, degree + 1))
        for j in range(min(B, degree - i + 1))
        if degree - i - j < 3
    ]


def _monomials_of_degree(d: int):
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]


def _chain_member_dims(a: int, b: int, p: int, e: int, top: int, GFRowSpace) -> int:
    """Sum over degrees d <= top of dim_F_p of C_e in degree d, where
    C_e = {r : r^(p^e) in (x^(a p^e), y^(b p^e)) + (f)}.  r -> r^(p^e) is
    F_p-linear, so C_e in degree d is the kernel of a matrix whose columns
    are indexed by the standard monomials of degree d p^e."""
    q = p ** e
    A, B = a * q, b * q
    total = 0
    for d in range(top + 1):
        monos = _monomials_of_degree(d)
        columns = {m: i for i, m in enumerate(_standard_monomials(A, B, d * q))}
        space = GFRowSpace(max(len(columns), 1), p)
        for m in monos:
            vec = [0] * max(len(columns), 1)
            for mm, c in fermat_nf(frobenius_terms({m: 1}, q), A, B, p).items():
                vec[columns[mm]] = c
            space.insert(vec)
        total += len(monos) - space.rank()
    return total


def confirm_entry(charp, ring, a: int, b: int, entry: dict) -> list:
    """Problems with one stored entry (empty when it is confirmed).

    With B the stored basis, I = (x^a, y^b), J = (f), E the stabilization
    index and q the stored Q-exponent, it checks: I + J is contained in B
    (dense oracle, exact for homogeneous ideals at this degree); B lies in
    C_E and B^[p^q] + J = I^[p^q] + J, but not at q - 1 (closed form);
    B contains all of C_E (dimension count in every degree up to a + b,
    above which I + J already contains every monomial)."""
    from charp.linalg import GFRowSpace

    p = ring.p
    basis = [charp.parse_polynomial(ring, s) for s in entry["closure"]]
    q_exp, stab = entry["q"], entry["stab"]
    x, y, z = ring.gens()
    problems = []
    low = charp.DenseMembershipOracle(ring, basis, max(a, b, 3))
    for g in (x**a, y**b, x**3 + y**3 + z**3):
        if not low.contains(g):
            problems.append(f"input generator {g} not in the stored closure")

    def bracket_holds(e):
        Q = p ** e
        return all(not fermat_nf(frobenius_terms(g.terms, Q), a * Q, b * Q, p) for g in basis)

    if not bracket_holds(stab):
        problems.append(f"stored closure not contained in C_{stab}")
    if not bracket_holds(q_exp):
        problems.append(f"bracket equality fails at the stored q = {q_exp}")
    if q_exp > 0 and bracket_holds(q_exp - 1):
        problems.append(f"bracket equality already holds at q - 1 = {q_exp - 1}")
    top = a + b
    have = charp.DenseMembershipOracle(ring, basis, top).space.rank()
    want = _chain_member_dims(a, b, p, stab, top, GFRowSpace)
    if have != want:
        problems.append(f"stored closure has dimension {have} up to degree {top}, C_{stab} has {want}")
    return problems


def confirm_table(charp, expected: dict) -> dict:
    """Confirm every stored entry once; {(p, a, b): [problems]} for failures.

    Also checks the closed forms the workloads rest on: (x, y)* = (x, y, z^2)
    with Q = 2 at p = 2, and q = 1 for every ideal at p = 5 (the cubic is
    supersingular there)."""
    rings = {}
    failures = {}
    for (p, a, b), entry in sorted(expected.items()):
        if p not in rings:
            rings[p] = charp.parse_ring_file(fermat_ring_text(p)).ring
        problems = confirm_entry(charp, rings[p], a, b, entry)
        if p == 5 and entry["q"] != 1:
            problems.append("q must be 1 at p = 5")
        if (p, a, b) == (2, 1, 1) and (sorted(entry["closure"]) != ["x", "y", "z^2"]
                                       or p ** entry["q"] != 2):
            problems.append("(x, y)* must be (x, y, z^2) with Q = 2")
        if problems:
            failures[(p, a, b)] = problems
    return failures


def fermat_ring_text(p: int) -> str:
    return f"# Fermat cubic\nchar {p};\nvars x y z;\nquotient x^3 + y^3 + z^3;\n"


# ---------------------------------------------------------------------------
# per-run checks of task outcomes

class Checker:
    """Checks task outcomes after the timed phase and tallies check kinds."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.kinds = Counter()
        self._contains_memo: dict = {}

    def census(self, charp, ring, outcome) -> list:
        """outcome: (rows, uniform_e, lower_bound, recheck_ok), rows as
        ((a, b), digest, q, regseq_ok, stabilized)."""
        rows, uniform_e, lower_bound, recheck_ok = outcome
        problems = []
        if lower_bound or not recheck_ok:
            problems.append("census recheck failed or uniform bound is only a lower bound")
        if uniform_e != max((q for _, _, q, _, _ in rows if q is not None), default=None):
            problems.append("uniform_e is not the largest row exponent")
        for (a, b), digest, q, regseq_ok, stabilized in rows:
            if not (regseq_ok and stabilized):
                problems.append(f"row {(a, b)}: not regular or not stabilized")
            if not self._contains_input(charp, ring, digest, a, b):
                problems.append(f"row {(a, b)}: closure does not contain the input")
            entry = self.expected.get((ring.p, a, b))
            if entry is None:
                self.kinds["invariant"] += 1
                continue
            self.kinds["stored"] += 1
            if list(digest) != entry["closure"] or q != entry["q"]:
                problems.append(f"row {(a, b)}: closure or q differs from the stored entry")
        return problems

    def closure(self, charp, ring, ab, outcome) -> list:
        """outcome: (digest, q_exponent, stab, certificate_ok, stabilized, (e, Q))."""
        a, b = ab
        digest, q, stab, certificate_ok, stabilized, qnum = outcome
        problems = []
        if not (certificate_ok and stabilized):
            problems.append("certificate failed or chain did not stabilize")
        if q is None or stab is None or q > stab:
            problems.append("q exceeds the stabilization index")
        if qnum != (q, ring.p ** q if q is not None else None):
            problems.append("q_number disagrees with the report")
        if not self._contains_input(charp, ring, digest, a, b):
            problems.append("closure does not contain the input")
        entry = self.expected.get((ring.p, a, b))
        if entry is None:
            self.kinds["invariant"] += 1
        else:
            self.kinds["stored"] += 1
            if list(digest) != entry["closure"] or (q, stab) != (entry["q"], entry["stab"]):
                problems.append("closure, q or stabilization index differs from the stored entry")
        return problems

    def torsion(self, p: int, terms: dict, n: int, order) -> list:
        self.kinds["closed-form"] += 1
        want = closed_form_torsion(terms, n, p)
        return [] if order == want else [f"torsion order {order}, closed form gives {want}"]

    def _contains_input(self, charp, ring, digest, a, b) -> bool:
        """(x^a, y^b) + (f) inside the ideal the digest generates; memoized
        because passes repeat the same rows."""
        key = (ring.p, a, b, tuple(digest))
        if key not in self._contains_memo:
            basis = [charp.parse_polynomial(ring, s) for s in digest]
            x, y, z = ring.gens()
            oracle = charp.DenseMembershipOracle(ring, basis, max(a, b, 3))
            self._contains_memo[key] = all(
                oracle.contains(g) for g in (x**a, y**b, x**3 + y**3 + z**3)
            )
        return self._contains_memo[key]
