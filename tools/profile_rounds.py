"""Profile untraced rounds of a perfbench workload under cProfile.

    python tools/profile_rounds.py --workload closure-p5 --rounds 20

Run it from the root of a source checkout: charp is imported from ./src
and the workloads from ./perfbench, which this script only reads.  The
benchmark's seed 1 (the seed of its traced runs) is fixed, with the
string-hash layout it sets, so repeated profiles run the same tasks.
Set-up (parsing the ring file, generating the seed's inputs) runs outside
the profile; then N rounds of the seed's tasks run under cProfile with no
span recorder, as the benchmark's untraced runs do, and their outputs are
checked against perfbench's stored results.  It prints the 25 functions
with the most self time, the call counts of Buchberger's three stages
and those of the division kernel, of ``normal_form`` and of
``Ideal.contains`` (each membership test, which divides without
``normal_form``; on torsion-scan, the tests of the levels j >= 1 show
under ``contains``, and the one division of each class's numerator by
its level's basis, through ``Ideal.remainder``, under the division
kernel alone), so a change to the Groebner kernel or to the division can
be explained by the same work done in less time: a traced benchmark run
measures closure-p5 on one round, too few to resolve
``groebner.buchberger.self_s``.  For each packed computation that starts
over in wider fields when its terms outgrow them (a division, a
Buchberger run, a kernel colon) it prints the calls, the attempts and
their difference, the restarts.  Last it prints the calls of
``QuotientRing.lift``, ``Polynomial.__pow__`` and ``_Divisors.__init__``
(the lifted ideals, powers and packings a round builds or looks up),
each found by its code's file, first line and name, so no other
function of the same name counts.  Exits 1 when a task fails or its
check does.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TOP = 25
COUNTED = ("buchberger", "_s_remainder", "_reduced_basis", "_divide_packed", "normal_form", "contains")
# each packed computation that starts over whole, and its attempt
ATTEMPTS = {"_reduce_terms": "_reduce_attempt", "buchberger": "_buchberger_attempt",
            "_colon_by_kernel": "_colon_attempt"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    # the benchmark sets the string-hash layout to its seed
    if argv is None and os.environ.get("PYTHONHASHSEED") != str(SEED):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": str(SEED)})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # perfbench/ is only read
    from checks import Checker, load_expected
    from run import count_failures, setup, timed_phase
    from workloads import WORKLOADS

    from charp.groebner import _Divisors
    from charp.poly import Polynomial
    from charp.quotient import QuotientRing

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    workload = WORKLOADS[args.workload]()
    env = setup(workload, SEED)
    profile = cProfile.Profile()
    start = perf_counter()
    phase = profile.runcall(timed_phase, workload, env, rounds=args.rounds)
    wall = perf_counter() - start
    print(f"workload {workload.name}, seed {SEED}: {args.rounds} rounds, "
          f"{phase.task_runs} task runs, {wall:.3f} s under the profiler")
    failed = count_failures(workload, env, Checker(load_expected()), phase)
    stats = pstats.Stats(profile)
    stats.sort_stats("tottime").print_stats(TOP)
    calls = dict.fromkeys([*COUNTED, *ATTEMPTS, *ATTEMPTS.values()], 0)
    for (path, _, name), (_, ncalls, *_) in stats.stats.items():
        if name in calls and path.endswith(os.path.join("charp", "groebner.py")):
            calls[name] += ncalls
    for name in COUNTED:
        print(f"groebner.{name} calls = {calls[name]}")
    for name, attempt in ATTEMPTS.items():
        print(f"groebner.{name} calls = {calls[name]}, attempts = {calls[attempt]}, "
              f"restarts = {calls[attempt] - calls[name]}")
    for label, function in (("quotient.QuotientRing.lift", QuotientRing.lift),
                            ("poly.Polynomial.__pow__", Polynomial.__pow__),
                            ("groebner._Divisors.__init__", _Divisors.__init__)):
        code = function.__code__  # a profile entry is keyed by its code's file, line and name
        entry = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        print(f"{label} calls = {entry[1] if entry else 0}")
    print(f"failed = {failed} of {phase.task_runs} task runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
