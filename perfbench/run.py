"""Benchmark runner for charp.

    python3 perfbench/run.py --workload census-p2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Runs one workload from the root of a source checkout (charp is imported
from ./src), in one process, serially, as a closed loop with one client
and jobs=1.  Set-up (importing charp, parsing the ring file, generating
the inputs from the seed) is repeated and timed on its own; the timed
phase then repeats the seed's round of tasks until --seconds have
elapsed (at least twice), while calibrate.py samples the host's speed;
latency quantiles are Harrell-Davis estimates over the tasks, each task's
latency being its median over the rounds, scaled to the reference
machine; the outputs of every round are checked after the phase.  The last line of standard output is a JSON object: with
--trace 0 it carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run of a fixed number of rounds, which
also prints the tracing overhead against an untraced run of the same
rounds.  Exit status 0 means the run completed, whether or not checks
failed; 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Sampler
from checks import Checker, load_expected
from spans import LAYERS, TASK, SpanRecorder
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 11
MIN_ROUNDS = 2

# name -> unit, in print order; error_rate is printed but not in the JSON
# result because it is 0 on a correct build (the result carries `failed`)
END_TO_END = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics in the JSON result of a traced run; self times are
# listed only for spans every workload enters, the rest are printed
PER_LAYER_CALLS = (
    "groebner.buchberger", "groebner.normal_form", "groebner.equals",
    "frobenius.preimage", "frobenius.closure", "frobenius.closure_step",
    "quotient.regseq", "cohomology.cech_is_zero", "poly.frobenius_power",
)
PER_LAYER_SELF = (
    "groebner.buchberger", "groebner.normal_form", "poly.frobenius_power",
    "ringfile.parse", "parse.parse_polynomial",
)


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_charp():
    """A fresh import of charp from this checkout's src directory."""
    if not (SRC / "charp" / "__init__.py").is_file():
        raise BenchError(f"no charp sources under {SRC}")
    for name in [n for n in sys.modules if n == "charp" or n.startswith("charp.")]:
        del sys.modules[name]
    charp = importlib.import_module("charp")
    if Path(charp.__file__).resolve().parent != SRC / "charp":
        raise BenchError(f"charp imported from {charp.__file__}, not from {SRC}")
    return charp


class Env:
    """Everything set-up produces: the library, the ring file, the inputs."""

    def __init__(self, charp, rf, passes):
        self.charp, self.rf, self.passes = charp, rf, passes


def setup(workload, seed, recorder=None) -> Env:
    """Import charp, parse the ring file, build the inputs."""
    charp = import_charp()
    if recorder is not None:
        recorder.install()
    rng = random.Random(f"{workload.name}/{seed}")
    ring_text, raw_passes = workload.generate(rng)
    rf = charp.parse_ring_file(ring_text)
    passes = [[workload.prepare(charp, rf, task) for task in tasks] for tasks in raw_passes]
    return Env(charp, rf, passes)


class Stopwatch:
    """Times calls, leaving out the calibration kernel's time; with no
    sampler, times are as measured and every factor is 1."""

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.laps: list = []  # (start, end, seconds without the kernel)

    def __call__(self, fn, *args):
        """fn(*args), or the exception it raised; the lap is recorded
        either way."""
        spent = self.sampler.spent if self.sampler else 0.0
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed call is timed and returned
            result = exc
        end = perf_counter()
        kernel = self.sampler.spent - spent if self.sampler else 0.0
        self.laps.append((start, end, end - start - kernel))
        return result

    @property
    def factors(self):
        if self.sampler is None:
            return [1.0] * len(self.laps)
        return [self.sampler.factor(start, end) for start, end, _ in self.laps]

    @property
    def scaled(self):
        """Each lap in reference-machine seconds."""
        return [t / f for (_, _, t), f in zip(self.laps, self.factors)]


class Phase:
    """Result of one timed phase."""

    def __init__(self, ntasks, sampler=None):
        self.ntasks = ntasks
        self.watch = Stopwatch(sampler)
        self.indices: list = []  # task index of each run, in run order
        self.results: list = []  # (task, outcome or exception)
        self.rounds = 0
        self.wall = 0.0  # timed phase without the calibration kernel

    @property
    def task_runs(self):
        return len(self.indices)

    @property
    def factors(self):
        return self.watch.factors

    @property
    def scaled(self):
        """Each run's latency in reference-machine seconds."""
        return self.watch.scaled

    @property
    def tasks_per_s(self):
        """Task runs per reference-machine second."""
        return self.task_runs / sum(self.scaled)

    @property
    def per_task_ms(self):
        """Each task's median scaled latency over the rounds, in ms.  The
        quantiles are taken over tasks, so that the ten samples beyond the
        tail are ten different tasks, not one heavy task seen in ten
        rounds."""
        samples = [[] for _ in range(self.ntasks)]
        for index, t in zip(self.indices, self.scaled):
            samples[index].append(t * 1000)
        return [statistics.median(s) for s in samples]


def timed_phase(workload, env, sampler=None, seconds=None, rounds=None,
                recorder=None) -> Phase:
    """Rounds of the seed's tasks until ``seconds`` have elapsed and at
    least MIN_ROUNDS ran, or exactly ``rounds``."""
    charp = env.charp
    phase = Phase(sum(len(tasks) for tasks in env.passes), sampler)
    spent = sampler.spent if sampler else 0.0
    start = perf_counter()
    R = None
    while True:
        index = 0
        for tasks in env.passes:
            if R is None or workload.ring_per_pass:
                R = env.rf.quotient_ring()
                ctx = workload.start_pass(charp, R)
            for task in tasks:
                if recorder is None:
                    result = phase.watch(workload.run, charp, R, ctx, task)
                else:
                    result = phase.watch(recorder.span, TASK, workload.run, charp, R, ctx, task)
                phase.indices.append(index)
                index += 1
                if not isinstance(result, Exception):
                    try:
                        result = workload.outcome(result)
                    except Exception as exc:  # a malformed result fails its check
                        result = exc
                phase.results.append((task, result))
        phase.rounds += 1
        if rounds is not None:
            if phase.rounds >= rounds:
                break
        elif phase.rounds >= MIN_ROUNDS and perf_counter() - start >= seconds:
            break
    phase.wall = perf_counter() - start - ((sampler.spent - spent) if sampler else 0.0)
    return phase


def count_failures(workload, env, checker, phase) -> int:
    failed = 0
    ring = env.rf.ring
    for task, result in phase.results:
        if isinstance(result, Exception):
            print(f"task failed: {type(result).__name__}: {result}")
            failed += 1
            continue
        try:
            problems = workload.check(checker, env.charp, ring, task, result)
        except Exception as exc:  # a malformed outcome fails its check
            problems = [f"{type(exc).__name__} while checking: {exc}"]
        if problems:
            print(f"check failed: {problems[0]}")
            failed += 1
    return failed


def quantile(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density, so that the
    estimate leans on the samples around the p-quantile, not on one."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    weights = []
    for i in range(n):  # Simpson's rule over [i/n, (i+1)/n]
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(density(lo) + inner + density(lo + steps * h))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(latencies):
    """(value, percentile, beyond): the quantile at the order statistic
    with 10 samples above it."""
    n = len(latencies)
    rank = max(n - 10, 1)  # 1-based
    p = rank / (n + 1)
    return quantile(latencies, p), 100.0 * p, n - rank


def run(workload_name, seed, seconds, trace, small=False, expected=None):
    """Run one workload; returns the result dict printed as the last line."""
    workload = WORKLOADS[workload_name](small=small)
    checker = Checker(load_expected() if expected is None else expected)
    print(f"workload {workload.name}, seed {seed}: closed loop, 1 client, jobs=1")
    if trace:
        return _traced(workload, seed, seconds, checker)

    with Sampler() as sampler:
        setups = Stopwatch(sampler)
        for _ in range(SETUP_REPEATS):
            env = setups(setup, workload, seed)
            if isinstance(env, Exception):
                raise env
        phase = timed_phase(workload, env, sampler, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = count_failures(workload, env, checker, phase)
    per_task_ms = phase.per_task_ms
    n = len(per_task_ms)
    tail_value, tail_pct, beyond = tail(per_task_ms)
    factor = statistics.median(phase.factors)
    metrics = {
        "tasks_per_s": phase.tasks_per_s,
        "task_p50_ms": quantile(per_task_ms, 0.5),
        "task_tail_ms": tail_value,
        "setup_s": statistics.median(setups.scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "tasks_per_s": f"{phase.task_runs} task runs in {phase.rounds} rounds",
        "task_p50_ms": f"Harrell-Davis median of n={n} tasks, each the median of "
                       f"{phase.rounds} rounds",
        "task_tail_ms": f"Harrell-Davis p{tail_pct:.1f}, n={n}, {beyond} beyond",
        "setup_s": f"median of {SETUP_REPEATS}",
        "peak_rss_mb": "after the timed phase, before checks",
    }
    print(f"slowdown factor: median {factor:.4f} over {phase.task_runs} task runs; "
          f"measured {phase.task_runs / phase.wall:.6g} task runs/s (wall clock); "
          f"times below are in reference-machine units")
    for name, unit in END_TO_END.items():
        print(f"{name} = {metrics[name]:.6g} {unit} ({notes[name]})")
    attempted = phase.task_runs
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} task runs failed)")
    print(_check_kinds(checker))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def _check_kinds(checker) -> str:
    kinds = ", ".join(f"{count} {kind}" for kind, count in sorted(checker.kinds.items()))
    return f"checks: {kinds or 'none'} (outside the timed phase)"


def _traced(workload, seed, seconds, checker):
    """Untraced then traced run of the same fixed rounds; per-layer metrics."""
    rounds = max(1, round(seconds / (2 * workload.nominal_round_s)))
    env = setup(workload, seed)
    plain = timed_phase(workload, env, rounds=rounds)
    failed = count_failures(workload, env, checker, plain)
    recorder = SpanRecorder()
    env = setup(workload, seed, recorder)
    traced = timed_phase(workload, env, rounds=rounds, recorder=recorder)
    recorder.uninstall()
    failed += count_failures(workload, env, checker, traced)
    attempted = plain.task_runs + traced.task_runs

    summary = recorder.summary()
    calls, self_s = summary["calls"], summary["self_s"]
    total = sum(self_s.values())
    print(f"traced {rounds} rounds, {traced.task_runs} task runs; "
          f"{len(recorder.spans)} spans, {total:.3f} s covered")
    total_s = summary["total_s"]
    print(f"{'span':34} {'calls':>9} {'self_s':>10} {'share':>7} {'total_s':>10} {'share':>7}")
    for name in sorted(calls, key=lambda k: -self_s[k]):
        print(f"{name:34} {calls[name]:9d} {self_s[name]:10.4f} {self_s[name] / total:7.1%} "
              f"{total_s[name]:10.4f} {total_s[name] / total:7.1%}")
    print(f"tracing overhead: traced tasks_per_s {traced.tasks_per_s:.6g} 1/s vs "
          f"untraced {plain.tasks_per_s:.6g} 1/s "
          f"(ratio {traced.tasks_per_s / plain.tasks_per_s:.3f}, {rounds} rounds each)")
    print(_check_kinds(checker))
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    recorder.write(span_file)
    print(f"spans written to {span_file.relative_to(ROOT)}")

    metrics = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["groebner.basis_terms"] = (recorder.basis_terms, "count")
    gb_calls = summary["gb_calls"]
    metrics["groebner.gb_cache_hit_ratio"] = (
        summary["gb_hits"] / gb_calls if gb_calls else 0.0, "ratio")
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (recorder.errors[layer], "count")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after the other; the last
    line maps each workload to its result."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # charp's speed depends on the string-hash layout, so the seed fixes it
    # too: the same seed then repeats the same run, and ten seeds sample ten
    # layouts
    hash_seed = str(args.seed % 2**32)
    if argv is None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    sys.path.insert(0, str(SRC))
    try:
        import_charp()
        if args.workload == "all":
            return run_all(args)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
