"""Self-test of the benchmark on the smallest inputs.

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric is printed by name with
the unit BENCHMARK.json gives it, that traced counts repeat exactly, that
a wrong expected value injected here (not in charp) makes error_rate
positive, that the closed-form normal form agrees with charp's dense
oracle, and confirms every stored expected entry once.  Exits 1 if any
check failed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import sys

import checks
import run

FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def quiet_run(*args, **kwargs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(*args, **kwargs)
    return result, out.getvalue()


def test_metric_names(spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(units == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py's metrics")
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = {}
    for name in run.WORKLOADS:
        result, text = quiet_run(name, 1, 0.001, False, small=True)
        printed = set(re.findall(r"^(\w+) = \S+ (\S+)", text, re.M))
        for metric, unit in units.items():
            expect((metric, unit) in printed and result["metrics"][metric]["unit"] == unit,
                   f"{name}: {metric} printed with unit {unit}")
        expect(re.search(r"^error_rate = 0 ratio", text, re.M) is not None,
               f"{name}: error_rate printed and 0")
        expect(result["failed"] == 0 and result["correct"], f"{name}: no task failed")
        traced = [quiet_run(name, 1, 0.001, True, small=True)[0] for _ in range(2)]
        got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
        expect(got == layer_units, f"{name}: traced run reports exactly the per_layer metrics")
        counts[name] = [
            {k: v["value"] for k, v in t["metrics"].items() if v["unit"] != "s"} for t in traced
        ]
        expect(counts[name][0] == counts[name][1], f"{name}: traced counts repeat exactly")


def test_wrong_expected_value_is_caught():
    expected = checks.load_expected()
    wrong = copy.deepcopy(expected)
    wrong[(2, 1, 1)]["q"] = 2
    wrong[(5, 1, 2)]["closure"] = wrong[(5, 1, 2)]["closure"][1:]
    for name in ("census-p2", "closure-p5"):
        result, text = quiet_run(name, 1, 0.001, False, small=True, expected=wrong)
        rate = float(re.search(r"^error_rate = (\S+)", text, re.M).group(1))
        expect(rate > 0 and result["failed"] > 0 and not result["correct"],
               f"{name}: injected wrong expected value gives error_rate {rate} > 0")


def test_missing_entry_uses_invariants():
    expected = checks.load_expected()
    del expected[(2, 1, 1)]
    _, text = quiet_run("census-p2", 1, 0.001, False, small=True, expected=expected)
    expect("invariant" in text and "error_rate = 0 " in text,
           "census row without a stored entry gets invariant checks and passes")


def test_closed_form_matches_oracle(charp):
    """Every monomial numerator with n <= 2, and the small torsion pool,
    at j <= 1: the closed-form zero test equals dense-oracle membership
    (exact here: the ideal is homogeneous and the bound is deg f)."""
    import random

    from workloads import Torsion

    ring = charp.parse_ring_file(checks.fermat_ring_text(2)).ring
    x, y, z = ring.gens()
    numerators = [(n, {(a, b, c): 1}) for n in (1, 2)
                  for a in range(n) for b in range(n) for c in range(3)]
    numerators += [(n, terms) for n, terms, _ in Torsion(small=True).draw_pass(random.Random(1))]
    checked = mismatched = 0
    for n, terms in numerators:
        for j in (0, 1):
            N = n * 2 ** j
            f = ring.poly(checks.frobenius_terms(terms, 2 ** j))
            oracle = charp.DenseMembershipOracle(ring, [x**N, y**N, x**3 + y**3 + z**3],
                                                 f.total_degree())
            checked += 1
            mismatched += (not checks.fermat_nf(f.terms, N, N, 2)) != oracle.contains(f)
    expect(checked and not mismatched,
           f"closed form agrees with the dense oracle on {checked} classes")


def test_confirm_table(charp):
    expected = checks.load_expected()
    failures = checks.confirm_table(charp, expected)
    expect(not failures, f"all {len(expected)} stored entries confirmed without Groebner bases"
           + (f": {failures}" if failures else ""))
    bad = {(2, 1, 1): dict(expected[(2, 1, 1)], closure=["x", "y"]),
           (2, 1, 2): dict(expected[(2, 1, 2)], q=2),
           (5, 2, 2): dict(expected[(5, 2, 2)], q=0)}
    caught = checks.confirm_table(charp, bad)
    expect(set(caught) == set(bad), "confirmation rejects corrupted entries")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    charp = run.import_charp()
    test_closed_form_matches_oracle(charp)
    test_confirm_table(charp)
    test_metric_names(spec)
    test_wrong_expected_value_is_caught()
    test_missing_entry_uses_invariants()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
