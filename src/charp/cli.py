"""Command-line front end: ring-file loading, subcommand dispatch and
machine-readable reports.

Exit codes: 0 success, 1 input error (every message names the offending
flag or file position), 2 computation did not stabilize within the given
bounds or tripped the FROB_MAX_DEGREE guard (partial JSON is still
written).  Output is deterministic byte for byte for fixed inputs and
flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .cohomology import (
    InvalidSequenceError,
    eta_estimate,
    f_injective_flag,
    parameter_ideal_check,
)
from .frobenius import (
    NotStabilizedError,
    frobenius_closure,
    frobenius_power_family,
    q_number,
    run_census,
    uniform_census,
)
from .groebner import Ideal, normal_form
from .parse import PolyParseError, parse_polynomial
from .poly import DegreeCapExceeded, degree_cap, set_degree_cap
from .ringfile import RingFileError, parse_ring_file

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSTABLE = 2

SCHEMA = 1


class CliInputError(Exception):
    pass


def _load_ring_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise CliInputError(f"--ring {path}: {err.strerror or err}") from None
    try:
        return parse_ring_file(text)
    except RingFileError as err:
        raise CliInputError(f"--ring {path}:{err}") from None


def _named_ideal(rf, name, path):
    try:
        return rf.ideal(name)
    except KeyError as err:
        raise CliInputError(f"--ideal: {err.args[0]} in {path}") from None


def _parse_polys(rf, text, flag):
    polys = []
    for segment in text.split(","):
        try:
            polys.append(parse_polynomial(rf.ring, segment))
        except PolyParseError as err:
            raise CliInputError(f"{flag}: {err}") from None
    return polys


def _ring_info(rf):
    return {
        "characteristic": rf.ring.p,
        "variables": list(rf.ring.variables),
        "order": str(rf.ring.order),
        "quotient": [str(g) for g in rf.quotient],
    }


def _write_json(path, payload):
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _write_closure_json(args, rf, report):
    _write_json(args.json, {
        "schema": SCHEMA,
        "command": args.command,
        "ring": _ring_info(rf),
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
    })


# -- subcommand handlers ------------------------------------------------------

def _cmd_gb(args):
    rf = _load_ring_file(args.ring)
    ideal = _named_ideal(rf, args.ideal, args.ring)
    R = rf.quotient_ring()
    basis = R.lift(ideal).groebner_basis()
    print(f"reduced Groebner basis of the lift of {args.ideal} ({rf.ring.order}):")
    for g in basis:
        print(f"  {g}")
    _write_json(args.json, {
        "schema": SCHEMA,
        "command": "gb",
        "ring": _ring_info(rf),
        "ideal": args.ideal,
        "generators": [str(g) for g in ideal.gens],
        "basis": [str(g) for g in basis],
    })
    return EXIT_OK


def _cmd_member(args):
    rf = _load_ring_file(args.ring)
    ideal = _named_ideal(rf, args.ideal, args.ring)
    f = _parse_polys(rf, args.poly, "--poly")[0]
    R = rf.quotient_ring()
    member = R.lift(ideal).contains(f)
    print(f"{f} in {args.ideal}: {'true' if member else 'false'}")
    _write_json(args.json, {
        "schema": SCHEMA,
        "command": "member",
        "ring": _ring_info(rf),
        "ideal": args.ideal,
        "poly": str(f),
        "member": member,
    })
    return EXIT_OK


def _cmd_regseq(args):
    rf = _load_ring_file(args.ring)
    elems = _parse_polys(rf, args.elems, "--elems")
    R = rf.quotient_ring()
    check = R.is_poor_regular_sequence(elems)
    if check.ok:
        print("poor regular sequence: true")
    else:
        print(f"poor regular sequence: false (fails at index {check.failure_index})")
    _write_json(args.json, {
        "schema": SCHEMA,
        "command": "regseq",
        "ring": _ring_info(rf),
        "elems": [str(a) for a in elems],
        "ok": check.ok,
        "failure_index": check.failure_index,
    })
    return EXIT_OK


def _run_closure(args):
    rf = _load_ring_file(args.ring)
    ideal = _named_ideal(rf, args.ideal, args.ring)
    R = rf.quotient_ring()
    report = frobenius_closure(R, ideal, e_max=args.emax, window=args.window)
    return rf, report


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


def _cmd_closure(args):
    rf, report = _run_closure(args)
    _print_closure(report)
    _write_closure_json(args, rf, report)
    return EXIT_OK if report.stabilized else EXIT_UNSTABLE


def _cmd_qnumber(args):
    rf, report = _run_closure(args)
    if report.stabilized:
        exponent, q = q_number(report)
        print(f"q_exponent: {exponent}")
        print(f"Q: {q} (= {rf.ring.p}^{exponent})")
    else:
        _print_closure(report)
    _write_closure_json(args, rf, report)
    return EXIT_OK if report.stabilized else EXIT_UNSTABLE


def _parse_range(spec):
    # "a=1..3" -> ("a", [1, 2, 3])
    if "=" not in spec:
        raise CliInputError(f"--range: expected name=lo..hi, got {spec!r}")
    name, _, bounds = spec.partition("=")
    name = name.strip()
    if ".." not in bounds:
        raise CliInputError(f"--range {name}: expected lo..hi, got {bounds!r}")
    lo, _, hi = bounds.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise CliInputError(f"--range {name}: bounds must be integers, got {bounds!r}") from None
    if hi < lo:
        raise CliInputError(f"--range {name}: empty range {bounds!r}")
    return name, list(range(lo, hi + 1))


def _params_str(parameters):
    return ";".join(f"{k}={v}" for k, v in parameters)


def _write_census_csv(path, report):
    if not path:
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
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


def _cmd_census(args):
    rf = _load_ring_file(args.ring)
    R = rf.quotient_ring()
    if args.frobenius_family:
        if not args.ideal:
            raise CliInputError("--frobenius-family requires --ideal")
        if args.template:
            raise CliInputError("--template cannot be combined with --frobenius-family")
        ideal = _named_ideal(rf, args.ideal, args.ring)
        rows = frobenius_power_family(R, ideal, args.nmax)
        report = run_census(R, rows, e_max=args.emax, window=args.window, jobs=args.jobs)
        family = {"kind": "frobenius_power_family", "ideal": args.ideal, "n_max": args.nmax}
    else:
        if not args.template:
            raise CliInputError("census needs --template with --range, or --frobenius-family")
        if not args.range:
            raise CliInputError("--template requires at least one --range name=lo..hi")
        ranges = {}
        for spec in args.range:
            name, values = _parse_range(spec)
            if name in ranges:
                raise CliInputError(f"--range: duplicate parameter {name!r}")
            ranges[name] = values
        try:
            report = uniform_census(R, args.template, ranges,
                                    e_max=args.emax, window=args.window, jobs=args.jobs)
        except (ValueError, PolyParseError) as err:
            raise CliInputError(f"--template: {err}") from None
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
    payload = {
        "schema": SCHEMA,
        "command": "census",
        "ring": _ring_info(rf),
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
    _write_json(args.json, payload)
    _write_census_csv(args.csv, report)
    return EXIT_OK if not report.uniform_e_is_lower_bound else EXIT_UNSTABLE


def _cmd_eta(args):
    rf = _load_ring_file(args.ring)
    R = rf.quotient_ring()
    sop = _parse_polys(rf, args.sop, "--sop")
    try:
        report = eta_estimate(R, sop, n_max=args.nmax, e_max=args.emax,
                              window=args.window, jobs=args.jobs)
    except InvalidSequenceError as err:
        raise CliInputError(f"--sop: {err}") from None
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
    payload = {
        "schema": SCHEMA,
        "command": "eta",
        "ring": _ring_info(rf),
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
    _write_json(args.json, payload)
    return EXIT_OK if report.complete else EXIT_UNSTABLE


def _cmd_paramcheck(args):
    rf = _load_ring_file(args.ring)
    R = rf.quotient_ring()
    ideal = _named_ideal(rf, args.ideal, args.ring)
    extension = _parse_polys(rf, args.extend, "--extend") if args.extend else []
    try:
        holds = parameter_ideal_check(R, ideal.gens, extension, args.e,
                                      e_max=args.emax, window=args.window)
    except InvalidSequenceError as err:
        raise CliInputError(f"--extend: {err}") from None
    print(f"(closure)^[p^{args.e}] = (ideal)^[p^{args.e}] in R: {'true' if holds else 'false'}")
    _write_json(args.json, {
        "schema": SCHEMA,
        "command": "paramcheck",
        "ring": _ring_info(rf),
        "ideal": args.ideal,
        "extension": [str(a) for a in extension],
        "e": args.e,
        "holds": holds,
    })
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charp",
        description="Frobenius closures, Q-numbers and HSL-number scans over F_p.",
    )
    parser.add_argument("--version", action="version", version=f"charp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, bounds=False):
        sp.add_argument("--ring", required=True, help="ring file path")
        sp.add_argument("--json", help="write a JSON report to this path")
        if bounds:
            sp.add_argument("--emax", type=int, default=8, help="chain bound (default 8)")
            sp.add_argument("--window", type=int, default=2,
                            help="consecutive equalities required (default 2)")

    sp = sub.add_parser("gb", help="reduced Groebner basis of a named ideal's lift")
    common(sp)
    sp.add_argument("--ideal", required=True)
    sp.set_defaults(func=_cmd_gb)

    sp = sub.add_parser("member", help="ideal membership in the quotient ring")
    common(sp)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--poly", required=True)
    sp.set_defaults(func=_cmd_member)

    sp = sub.add_parser("regseq", help="poor-regular-sequence check")
    common(sp)
    sp.add_argument("--elems", required=True, help="comma-separated elements")
    sp.set_defaults(func=_cmd_regseq)

    sp = sub.add_parser("closure", help="Frobenius-closure chain with certificate")
    common(sp, bounds=True)
    sp.add_argument("--ideal", required=True)
    sp.set_defaults(func=_cmd_closure)

    sp = sub.add_parser("qnumber", help="Q-number of a named ideal")
    common(sp, bounds=True)
    sp.add_argument("--ideal", required=True)
    sp.set_defaults(func=_cmd_qnumber)

    sp = sub.add_parser("census", help="Q-exponent census over a family of ideals")
    common(sp, bounds=True)
    sp.add_argument("--template", help="generator template, e.g. 'x^{a}, y^{b}'")
    sp.add_argument("--range", action="append", default=[],
                    help="parameter range name=lo..hi (repeatable)")
    sp.add_argument("--ideal", help="base ideal for --frobenius-family")
    sp.add_argument("--frobenius-family", action="store_true",
                    help="census over the bracket powers of --ideal")
    sp.add_argument("--nmax", type=int, default=3, help="family bound (default 3)")
    sp.add_argument("--csv", help="write census rows as CSV to this path")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("eta", help="HSL-number scan via parameter-ideal closures")
    common(sp, bounds=True)
    sp.add_argument("--sop", required=True, help="comma-separated system of parameters")
    sp.add_argument("--nmax", type=int, default=1, help="scan bound (default 1)")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sp.set_defaults(func=_cmd_eta)

    sp = sub.add_parser("paramcheck", help="bracket-power equality for a partial parameter ideal")
    common(sp, bounds=True)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--extend", default="", help="elements completing the system of parameters")
    sp.add_argument("--e", type=int, required=True, help="bracket-power exponent to test")
    sp.set_defaults(func=_cmd_paramcheck)

    return parser


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
        return args.func(args)
    except CliInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except PolyParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except DegreeCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNSTABLE
    except NotStabilizedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNSTABLE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        set_degree_cap(previous_cap)


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
