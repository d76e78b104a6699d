"""Command-line front end: ring-file loading, subcommand dispatch and
machine-readable reports.

Exit codes: 0 success, 1 input error, usage errors included (every message
names the offending flag or file position), 2 computation did not
stabilize within the given bounds or tripped the FROB_MAX_DEGREE guard.
A closure, qnumber, census or eta report that did not stabilize is still
written as JSON; a run stopped by an error (the guard, or a
parameter-ideal closure that did not stabilize) writes none.  Output is
deterministic byte for byte for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager

from . import __version__
from .cohomology import eta_estimate, f_injective_flag, parameter_ideal_check
from .frobenius import (
    NotStabilizedError,
    frobenius_closure,
    frobenius_power_family,
    q_number,
    run_census,
    uniform_census,
)
from .parse import parse_polynomials
from .poly import DegreeCapExceeded, degree_cap, set_degree_cap
from .quotient import _check_homogeneous
from .ringfile import RingFileError, parse_ring_file

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSTABLE = 2

SCHEMA = 1


class CliInputError(Exception):
    pass


@contextmanager
def _input_error(prefix):
    """An OSError (read as its strerror) or ValueError in the block becomes
    a CliInputError after ``prefix``; a ring-file position follows the path."""
    try:
        yield
    except OSError as err:
        raise CliInputError(f"{prefix}: {err.strerror or err}") from None
    except ValueError as err:
        sep = "" if isinstance(err, RingFileError) else " "
        raise CliInputError(f"{prefix}:{sep}{err}") from None


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, as every other input error does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _load_ring_file(path: str):
    with _input_error(f"--ring {path}"), open(path, encoding="utf-8") as fh:
        return parse_ring_file(fh.read())


def _named_ideal(rf, name, path):
    try:
        return rf.ideal(name)
    except KeyError as err:
        raise CliInputError(f"--ideal: {err.args[0]} in {path}") from None


def _parse_polys(rf, text):
    """The comma list ``text``, a blank one empty; an error's line:col counts
    in the whole flag value."""
    return parse_polynomials(rf.ring, text) if text.strip() else []


def _ring_info(rf):
    return {
        "characteristic": rf.ring.p,
        "variables": list(rf.ring.variables),
        "order": str(rf.ring.order),
        "quotient": [str(g) for g in rf.quotient],
    }


def _write_report(args, rf, fields):
    """The --json report: the subcommand's fields in the common envelope."""
    if not args.json:
        return
    payload = {"schema": SCHEMA, "command": args.command, "ring": _ring_info(rf), **fields}
    with _input_error(f"--json {args.json}"), open(args.json, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- subcommand handlers: (args, ring file, quotient ring) -> (exit code, report fields)

def _cmd_gb(args, rf, R):
    ideal = _named_ideal(rf, args.ideal, args.ring)
    basis = R.lift(ideal).groebner_basis()
    print(f"reduced Groebner basis of the lift of {args.ideal} ({rf.ring.order}):")
    for g in basis:
        print(f"  {g}")
    return EXIT_OK, {
        "ideal": args.ideal,
        "generators": [str(g) for g in ideal.gens],
        "basis": [str(g) for g in basis],
    }


def _cmd_member(args, rf, R):
    ideal = _named_ideal(rf, args.ideal, args.ring)
    with _input_error("--poly"):
        polys = _parse_polys(rf, args.poly)
        if len(polys) != 1:
            raise ValueError("expected one polynomial")
    f = polys[0]
    member = R.lift(ideal).contains(f)
    print(f"{f} in {args.ideal}: {'true' if member else 'false'}")
    return EXIT_OK, {"ideal": args.ideal, "poly": str(f), "member": member}


def _cmd_regseq(args, rf, R):
    with _input_error("--elems"):
        elems = _parse_polys(rf, args.elems)
        check = R.is_poor_regular_sequence(elems)
    if check.ok:
        print("poor regular sequence: true")
    else:
        print(f"poor regular sequence: false (fails at index {check.failure_index})")
    return EXIT_OK, {
        "elems": [str(a) for a in elems],
        "ok": check.ok,
        "failure_index": check.failure_index,
    }


def _print_closure(report):
    print(f"status: {report.status}")
    if report.stabilized:
        print(f"stabilization index: {report.stabilization_index}")
    closure = ", ".join(str(g) for g in report.chain[-1][1])
    print(f"closure basis (lift): {closure}")
    if report.q_exponent is not None:
        print(f"q_exponent: {report.q_exponent} (Q = {report.q_value})")
    print(f"certificate_ok: {'true' if report.certificate_ok else 'false'}")
    print(f"completeness: {report.completeness}")


def _cmd_closure(args, rf, R):
    """closure and qnumber: one chain, two printouts, one report."""
    ideal = _named_ideal(rf, args.ideal, args.ring)
    report = frobenius_closure(R, ideal, e_max=args.emax, window=args.window)
    if args.command == "qnumber" and report.stabilized:
        exponent, q = q_number(report)
        print(f"q_exponent: {exponent}")
        print(f"Q: {q} (= {rf.ring.p}^{exponent})")
    else:
        _print_closure(report)
    return EXIT_OK if report.stabilized else EXIT_UNSTABLE, {
        "ideal": args.ideal,
        "status": report.status,
        "stabilization_index": report.stabilization_index,
        "chain": [{"e": e, "basis": [str(g) for g in gb]} for e, gb in report.chain],
        "closure": [str(g) for g in report.chain[-1][1]],
        "q_exponent": report.q_exponent,
        "q": report.q_value,
        "certificate_ok": report.certificate_ok,
        "completeness": report.completeness,
        "e_max": report.e_max,
        "window": report.window,
    }


def _parse_range(spec):
    # "a=1..3" -> ("a", [1, 2, 3])
    if "=" not in spec:
        raise CliInputError(f"--range: expected name=lo..hi, got {spec!r}")
    name, _, bounds = spec.partition("=")
    name = name.strip()
    if ".." not in bounds:
        raise CliInputError(f"--range: {name}: expected lo..hi, got {bounds!r}")
    lo, _, hi = bounds.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise CliInputError(f"--range: {name}: bounds must be integers, got {bounds!r}") from None
    if hi < lo:
        raise CliInputError(f"--range: {name}: empty range {bounds!r}")
    return name, list(range(lo, hi + 1))


def _params_str(parameters):
    return ";".join(f"{k}={v}" for k, v in parameters)


def _write_census_csv(path, report):
    if not path:
        return
    with _input_error(f"--csv {path}"), open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["params", "regseq_ok", "stabilized", "q_exponent", "closure_gens"])
        for row in report.rows:
            writer.writerow([
                _params_str(row.parameters),
                "true" if row.regular_sequence_ok else "false",
                "true" if row.stabilized else "false",
                "" if row.q_exponent is None else row.q_exponent,
                "; ".join(row.ideal_digest),
            ])


def _cmd_census(args, rf, R):
    if args.frobenius_family:
        if not args.ideal:
            raise CliInputError("--frobenius-family: requires --ideal")
        if args.template:
            raise CliInputError("--template: cannot be combined with --frobenius-family")
        if args.range:
            raise CliInputError("--range: cannot be combined with --frobenius-family")
        ideal = _named_ideal(rf, args.ideal, args.ring)
        rows = frobenius_power_family(R, ideal, args.nmax)
        report = run_census(R, rows, e_max=args.emax, window=args.window, jobs=args.jobs)
        family = {"kind": "frobenius_power_family", "ideal": args.ideal, "n_max": args.nmax}
    else:
        if not args.template:
            raise CliInputError("--template: census needs a template with --range, or --frobenius-family")
        if not args.range:
            raise CliInputError("--template: requires at least one --range name=lo..hi")
        if args.ideal:
            raise CliInputError("--ideal: needs --frobenius-family; a template names its own generators")
        ranges = {}
        for spec in args.range:
            name, values = _parse_range(spec)
            if name in ranges:
                raise CliInputError(f"--range: duplicate parameter {name!r}")
            ranges[name] = values
        with _input_error("--template"):  # a parse error or a template/range mismatch
            report = uniform_census(R, args.template, ranges,
                                    e_max=args.emax, window=args.window, jobs=args.jobs)
        family = {
            "kind": "template",
            "template": args.template,
            "ranges": {k: [v[0], v[-1]] for k, v in ranges.items()},
        }

    bad = sum(1 for row in report.rows if not row.regular_sequence_ok)
    if bad:
        print(f"warning: {bad} row(s) are not generated by a poor regular sequence")
    for row in report.rows:
        q = "-" if row.q_exponent is None else row.q_exponent
        flag = "" if row.stabilized else "  [not stabilized]"
        print(f"  {_params_str(row.parameters)}: q_exponent={q}{flag}")
    if report.uniform_e is None:
        print("uniform_e: undetermined (no row stabilized)")
    elif report.uniform_e_is_lower_bound:
        print(f"uniform_e: >= {report.uniform_e} (lower bound; some rows did not stabilize)")
    else:
        print(f"uniform_e: {report.uniform_e}")
        print(f"bracket-power recheck at uniform_e: {'ok' if report.recheck_ok else 'FAILED'}")
    _write_census_csv(args.csv, report)
    return EXIT_OK if not report.uniform_e_is_lower_bound else EXIT_UNSTABLE, {
        "family": family,
        "rows": [
            {
                "params": dict(row.parameters),
                "regseq_ok": row.regular_sequence_ok,
                "stabilized": row.stabilized,
                "q_exponent": row.q_exponent,
                "closure": list(row.ideal_digest),
            }
            for row in report.rows
        ],
        "uniform_e": report.uniform_e,
        "uniform_e_is_lower_bound": report.uniform_e_is_lower_bound,
        "recheck_ok": report.recheck_ok,
        "e_max": report.e_max,
        "window": report.window,
    }


def _cmd_eta(args, rf, R):
    with _input_error("--sop"):  # a parse error, not a regular sop, or not homogeneous
        sop = _parse_polys(rf, args.sop)
        report = eta_estimate(R, sop, n_max=args.nmax, e_max=args.emax,
                              window=args.window, jobs=args.jobs)
    for n, q in report.per_n:
        q_text = "-" if q is None else q
        print(f"  n={n}: q_exponent={q_text}")
    print(report.label)
    flag = None
    if report.complete:
        flag = f_injective_flag(report)
        print(f"f_injective: {'true' if flag else 'false'}")
    else:
        print("f_injective: undetermined (scan incomplete)")
    return EXIT_OK if report.complete else EXIT_UNSTABLE, {
        "sop": [str(b) for b in report.sop],
        "rows": [{"n": n, "q_exponent": q} for n, q in report.per_n],
        "eta_hat": report.eta_hat,
        "label": report.label,
        "complete": report.complete,
        "f_injective": flag,
        "n_max": report.n_max,
        "e_max": report.e_max,
        "window": report.window,
    }


def _cmd_paramcheck(args, rf, R):
    ideal = _named_ideal(rf, args.ideal, args.ring)
    with _input_error("--ideal"):
        _check_homogeneous(ideal.gens)
    with _input_error("--extend"):  # a parse error, not homogeneous, or not completing a sop
        extension = _parse_polys(rf, args.extend)
        holds = parameter_ideal_check(R, ideal.gens, extension, args.e,
                                      e_max=args.emax, window=args.window)
    print(f"(closure)^[p^{args.e}] = (ideal)^[p^{args.e}] in R: {'true' if holds else 'false'}")
    return EXIT_OK, {
        "ideal": args.ideal,
        "extension": [str(a) for a in extension],
        "e": args.e,
        "holds": holds,
    }


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="charp",
        description="Frobenius closures, Q-numbers and HSL-number scans over F_p.",
    )
    parser.add_argument("--version", action="version", version=f"charp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, bounds=False, ideal=True):
        """A subcommand with the flags it shares: --ring, --json, the chain
        bounds, a required --ideal."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--ring", required=True, help="ring file path")
        sp.add_argument("--json", help="write a JSON report to this path")
        if bounds:
            sp.add_argument("--emax", type=int, default=8, help="chain bound (default 8)")
            sp.add_argument("--window", type=int, default=2,
                            help="consecutive equal chain members required, i.e. "
                                 "window - 1 equalities; 1 acts as 2 (default 2)")
        if ideal:
            sp.add_argument("--ideal", required=True, help="name of an ideal in the ring file")
        sp.set_defaults(func=func)
        return sp

    jobs = {"type": int, "default": 1, "help": "worker processes (default 1)"}
    command("gb", "reduced Groebner basis of a named ideal's lift", _cmd_gb)
    command("member", "ideal membership in the quotient ring", _cmd_member).add_argument(
        "--poly", required=True, help="polynomial to test for membership")
    command("regseq", "poor-regular-sequence check", _cmd_regseq, ideal=False).add_argument(
        "--elems", required=True, help="comma-separated elements")
    command("closure", "Frobenius-closure chain with certificate", _cmd_closure, bounds=True)
    command("qnumber", "Q-number of a named ideal", _cmd_closure, bounds=True)

    sp = command("census", "Q-exponent census over a family of ideals", _cmd_census,
                 bounds=True, ideal=False)
    sp.add_argument("--template", help="generator template, e.g. 'x^{a}, y^{b}'")
    sp.add_argument("--range", action="append", default=[],
                    help="parameter range name=lo..hi (repeatable)")
    sp.add_argument("--ideal", help="base ideal for --frobenius-family")
    sp.add_argument("--frobenius-family", action="store_true",
                    help="census over the bracket powers of --ideal")
    sp.add_argument("--nmax", type=int, default=3, help="family bound (default 3)")
    sp.add_argument("--csv", help="write census rows as CSV to this path")
    sp.add_argument("--jobs", **jobs)

    sp = command("eta", "HSL-number scan via parameter-ideal closures", _cmd_eta,
                 bounds=True, ideal=False)
    sp.add_argument("--sop", required=True, help="comma-separated regular system of parameters")
    sp.add_argument("--nmax", type=int, default=1, help="scan bound (default 1)")
    sp.add_argument("--jobs", **jobs)

    sp = command("paramcheck", "bracket-power equality for a partial parameter ideal",
                 _cmd_paramcheck, bounds=True)
    sp.add_argument("--extend", default="", help="elements completing the system of parameters")
    sp.add_argument("--e", type=int, required=True, help="bracket-power exponent to test")
    return parser


# (flag, argparse destination, smallest accepted value)
_BOUNDS = (
    ("--emax", "emax", 1),
    ("--window", "window", 1),
    ("--nmax", "nmax", 0),
    ("--e", "e", 0),
    ("--jobs", "jobs", 1),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    previous_cap = degree_cap()
    env_cap = os.environ.get("FROB_MAX_DEGREE")
    if env_cap:
        try:
            set_degree_cap(int(env_cap))
        except ValueError:
            print(f"error: FROB_MAX_DEGREE: invalid degree cap {env_cap!r}", file=sys.stderr)
            return EXIT_INPUT
    try:
        rf = _load_ring_file(args.ring)
        for flag, dest, low in _BOUNDS:
            value = getattr(args, dest, low)
            if value < low:
                raise CliInputError(f"{flag}: must be >= {low}, got {value}")
        code, fields = args.func(args, rf, rf.quotient_ring())
        _write_report(args, rf, fields)
        return code
    except (CliInputError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (DegreeCapExceeded, NotStabilizedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNSTABLE
    finally:
        set_degree_cap(previous_cap)


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
