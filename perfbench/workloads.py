"""The benchmark's workloads.

Each workload turns a seed into one *round*: a list of passes, each a
list of tasks, where a task is one top-level library call a user would
make.  Census and closure passes each start from a freshly built
QuotientRing, so the library's Groebner caches start cold, as they do in
every CLI call; the torsion scan builds its ring once per run, so its
classes read cached bases, as a scan over many classes of one ring does.
Rounds are stratified so that every seed costs about the same: a census
round covers the whole parameter grid three times, a closure round runs
every grid ideal once, and a torsion round holds a fixed number of
classes of each size.  The library only ever sees generated
ring-file text and polynomials.
"""

from __future__ import annotations

from checks import J_MAX, fermat_ring_text


def _monomial_text(m) -> str:
    factors = [f"{v}^{e}" for v, e in zip("xyz", m) if e]
    return "*".join(factors) or "1"


class Census:
    """``uniform_census`` sweeps of x^{a}, y^{b} over F_2[x,y,z]/(x^3+y^3+z^3).

    A pass splits the a-values and the b-values into seeded pairs and runs
    one 2 x 2 sweep per pair of pairs, so every (a, b) of the grid appears
    once per pass while the sweeps differ from seed to seed.  Three passes
    per round keep the seed's effect on the latency quantiles small."""

    name = "census-p2"
    p = 2
    template = "x^{a}, y^{b}"
    nominal_round_s = 5.5  # on a 2-core x86 container; sizes traced runs
    ring_per_pass = True

    def __init__(self, small=False):
        self.values = [1, 2] if small else list(range(1, 9))
        self.passes = 1 if small else 3

    def generate(self, rng):
        return fermat_ring_text(self.p), [self.draw_pass(rng) for _ in range(self.passes)]

    def draw_pass(self, rng):
        a_vals, b_vals = list(self.values), list(self.values)
        rng.shuffle(a_vals)
        rng.shuffle(b_vals)
        sweeps = [
            (sorted(a_vals[i:i + 2]), sorted(b_vals[j:j + 2]))
            for i in range(0, len(a_vals), 2)
            for j in range(0, len(b_vals), 2)
        ]
        rng.shuffle(sweeps)
        return sweeps

    def prepare(self, charp, rf, sweep):
        return sweep

    def start_pass(self, charp, R):
        return None

    def run(self, charp, R, ctx, sweep):
        a_vals, b_vals = sweep
        return charp.uniform_census(R, self.template, {"a": a_vals, "b": b_vals}, jobs=1)

    @staticmethod
    def outcome(report):
        rows = tuple(
            (
                (dict(row.parameters)["a"], dict(row.parameters)["b"]),
                row.ideal_digest,
                row.q_exponent,
                row.regular_sequence_ok,
                row.stabilized,
            )
            for row in report.rows
        )
        return rows, report.uniform_e, report.uniform_e_is_lower_bound, report.recheck_ok

    def check(self, checker, charp, ring, sweep, outcome):
        return checker.census(charp, ring, outcome)


class Closure:
    """``frobenius_closure`` plus ``q_number`` on (x^a, y^b), 1 <= a <= b <= 6,
    over F_5[x,y,z]/(x^3+y^3+z^3).

    A round is one pass over all 21 ideals, in seeded order, each with
    seeded unit multiples of its generators in seeded order; the ideals
    come from ``ideal`` statements of the generated ring file."""

    name = "closure-p5"
    p = 5
    nominal_round_s = 16.5
    ring_per_pass = True

    def __init__(self, small=False):
        top = 2 if small else 6
        self.grid = [(a, b) for a in range(1, top + 1) for b in range(a, top + 1)]

    def generate(self, rng):
        order = list(self.grid)
        rng.shuffle(order)
        lines = [fermat_ring_text(self.p)]
        for a, b in order:
            gens = [f"{rng.randint(1, self.p - 1)}*x^{a}", f"{rng.randint(1, self.p - 1)}*y^{b}"]
            rng.shuffle(gens)
            lines.append(f"ideal I_{a}_{b} = {', '.join(gens)};\n")
        return "".join(lines), [[((a, b), f"I_{a}_{b}") for a, b in order]]

    def prepare(self, charp, rf, task):
        ab, name = task
        return ab, rf.ideals[name]

    def start_pass(self, charp, R):
        return None

    def run(self, charp, R, ctx, task):
        report = charp.frobenius_closure(R, list(task[1]))
        return report, charp.q_number(report)

    @staticmethod
    def outcome(result):
        report, qnum = result
        digest = tuple(str(g) for g in report.chain[-1][1])
        return (digest, report.q_exponent, report.stabilization_index,
                report.certificate_ok, report.stabilized, qnum)

    def check(self, checker, charp, ring, task, outcome):
        return checker.closure(charp, ring, task[0], outcome)


class Torsion:
    """``torsion_order`` with j_max = 6 of Cech classes [r / (xy)^n] over
    F_2[x,y,z]/(x^3+y^3+z^3): r a sum of k distinct monomials x^a y^b z^c
    with a, b < n and c <= 2.  A round is one pass of 1728 classes; all
    rounds of a run share one fresh ring, so the bases of (x^N, y^N) + J
    are built by the first classes that need them and read by every class
    after that.

    The cost of a class grows steeply with n and k, so the round holds a
    fixed number of classes per (n, k): n = 1..4 in equal shares, and for
    each n, k = 2..5 in equal shares, capped at the monomials available.
    The seed draws the monomials and the order."""

    name = "torsion-scan"
    p = 2
    nominal_round_s = 15.0
    ring_per_pass = False

    def __init__(self, small=False):
        self.per_share = 1 if small else 108
        self.n_max = 2 if small else 4

    def generate(self, rng):
        return fermat_ring_text(self.p), [self.draw_pass(rng)]

    def draw_pass(self, rng):
        tasks = []
        for n in range(1, self.n_max + 1):
            monos = [(a, b, c) for a in range(n) for b in range(n) for c in range(3)]
            for k in range(2, 6):
                for _ in range(self.per_share):
                    picked = rng.sample(monos, min(k, len(monos)))
                    text = " + ".join(map(_monomial_text, picked))
                    tasks.append((n, {m: 1 for m in picked}, text))
        rng.shuffle(tasks)
        return tasks

    def prepare(self, charp, rf, task):
        n, terms, text = task
        return n, terms, charp.parse_polynomial(rf.ring, text)

    def start_pass(self, charp, R):
        x, y, _ = R.ambient.gens()
        return (x, y)

    def run(self, charp, R, sequence, task):
        n, _, numerator = task
        return charp.torsion_order(charp.cech_class(R, sequence, numerator, n), J_MAX)

    @staticmethod
    def outcome(order):
        return order

    def check(self, checker, charp, ring, task, outcome):
        n, terms, _ = task
        return checker.torsion(ring.p, terms, n, outcome)


WORKLOADS = {w.name: w for w in (Census, Closure, Torsion)}
