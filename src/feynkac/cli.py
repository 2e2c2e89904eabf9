"""Batch command-line front end.

Subcommands:

  density   evaluate a catalog kernel on a point or y-grid, with the boundary
            atoms reported in a trailer block and an optional mass check
  expect    evaluate expectations over lambda- or functional-strength grids
  verify    run named verification suites and stream the report

Grids use start:stop:step syntax. Output is CSV (15 significant digits) or
JSON (native binary64). Exit codes: 0 success, 1 verification failure,
2 usage/validity error, 3 numerical error. Identical invocations (including
seed) produce byte-identical output. FEYNKAC_TOL overrides suite tolerances.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import catalog, verify
from .errors import (
    CapabilityError,
    ConditioningError,
    ConstructionError,
    ConvergenceError,
    DomainError,
    EvalOverflowError,
    FeynkacError,
    InstabilityError,
    PoleError,
    SchemeError,
    SingularDriftError,
    ValidityError,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_USAGE_ERRORS = (ValidityError, DomainError, CapabilityError)
_NUMERICAL_ERRORS = (ConvergenceError, InstabilityError, SchemeError,
                     EvalOverflowError, ConditioningError, SingularDriftError,
                     ConstructionError, PoleError)


def _fmt(v: Optional[float]) -> str:
    if v is None:
        return ""
    return format(v, ".15g")


def _parse_grid(text: str) -> List[float]:
    """start:stop:step, inclusive of endpoints up to rounding."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidityError(f"grid {text!r}: expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidityError(f"grid {text!r}: entries must be numbers")
    if step <= 0 or stop < start:
        raise ValidityError(f"grid {text!r}: needs step > 0 and stop >= start")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def _collect_params(pairs: Sequence[str], entry: str) -> Dict[str, float]:
    """Parse trailing --name value pairs into entry parameters, rejecting
    anything the entry does not take."""
    if entry not in catalog.ENTRY_NAMES:
        raise ValidityError(f"unknown entry {entry!r} "
                            f"(known: {', '.join(catalog.ENTRY_NAMES)})")
    allowed = next(e["parameters"] for e in catalog.manifest()["entries"]
                   if e["name"] == entry)
    params: Dict[str, float] = {}
    i = 0
    while i < len(pairs):
        token = pairs[i]
        if not token.startswith("--"):
            raise ValidityError(f"unexpected argument {token!r}")
        name = token[2:]
        if name not in allowed:
            raise ValidityError(
                f"entry {entry!r} does not take parameter --{name} "
                f"(takes: {', '.join('--' + p for p in allowed)})")
        if i + 1 >= len(pairs):
            raise ValidityError(f"--{name} expects a value")
        try:
            params[name] = float(pairs[i + 1])
        except ValueError:
            raise ValidityError(f"--{name} expects a number, got {pairs[i + 1]!r}")
        i += 2
    return params


def _emit_csv(stream, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: argparse would otherwise read --mu (an
    # entry parameter) as an abbreviation of --mu-grid
    parser = argparse.ArgumentParser(
        prog="feynkac", allow_abbrev=False,
        description="Transition densities, fundamental solutions, and "
                    "exponential-functional expectations for a catalog of "
                    "one-dimensional diffusions.")
    parser.add_argument("--manifest", action="store_true",
                        help="dump the catalog manifest as JSON and exit")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p):
        p.add_argument("--entry", required=True, help="catalog entry name")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    pd = sub.add_parser("density", help="evaluate a kernel", allow_abbrev=False)
    common(pd)
    pd.add_argument("--t", type=float, required=True)
    pd.add_argument("--x", type=float, required=True)
    pd.add_argument("--y", type=float)
    pd.add_argument("--y-grid", dest="y_grid")
    pd.add_argument("--check-mass", dest="check_mass", action="store_true",
                    help="verify that continuous part + Dirac masses integrate to 1")

    pe = sub.add_parser("expect", help="evaluate expectations",
                        allow_abbrev=False)
    common(pe)
    pe.add_argument("--t", type=float, required=True)
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--lambda", dest="lam", type=float)
    pe.add_argument("--lambda-grid", dest="lam_grid")
    pe.add_argument("--mu-grid", dest="mu_grid",
                    help="tabulate over the entry's functional strength")
    pe.add_argument("--method", choices=("auto", "closed", "quadrature"),
                    default="auto")

    pv = sub.add_parser("verify", help="run verification suites",
                        allow_abbrev=False)
    pv.add_argument("--suite", required=True,
                    choices=tuple(sorted(verify.SUITES)) + ("all",))
    pv.add_argument("--entry", help="restrict report rows to one entry")
    pv.add_argument("--format", choices=("csv", "json"), default="csv")
    pv.add_argument("--tol", type=float,
                    help="override the suite tolerance "
                         "(default from FEYNKAC_TOL when set)")
    pv.add_argument("--paths", type=int, help="Monte Carlo paths")
    pv.add_argument("--steps", type=int, help="Monte Carlo time steps")
    pv.add_argument("--seed", type=int, help="Monte Carlo seed")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process (parsing does not
    change it)."""
    return build_parser()


def _cmd_density(args, extra: Sequence[str], out) -> int:
    params = _collect_params(extra, args.entry)
    entry = catalog.make_entry(args.entry, **params)
    if (args.y is None) == (args.y_grid is None):
        raise ValidityError("density: give exactly one of --y and --y-grid")
    ys = [args.y] if args.y is not None else _parse_grid(args.y_grid)
    t, x = args.t, args.x

    rows = []
    for y in ys:
        if y <= 0:
            continue  # the y=0 boundary carries the atoms, listed below
        dens = entry.kernel.continuous(t, x, y)
        log_dens = (entry.kernel.log_continuous(t, x, y)
                    if entry.kernel.log_continuous is not None else None)
        rows.append((t, x, y, dens, log_dens))
    atoms = [(a.location, a.order, a.weight(t, x)) for a in entry.kernel.atoms]
    mass_row = None
    if args.check_mass:
        mass_row = verify.check_mass(entry, t, x)

    if args.format == "csv":
        _emit_csv(out, ("t", "x", "y", "density", "log_density"),
                  [tuple(_fmt(v) for v in r) for r in rows])
        out.write("\n")
        _emit_csv(out, ("atom_location", "atom_order", "atom_weight"),
                  [(_fmt(l), str(o), _fmt(w)) for l, o, w in atoms])
        if mass_row is not None:
            out.write("\n")
            _emit_csv(out, ("mass", "expected", "abs_err", "status"),
                      [(_fmt(mass_row.computed), _fmt(mass_row.reference),
                        _fmt(mass_row.abs_err),
                        "pass" if mass_row.passed else "fail")])
    else:
        doc = {
            "entry": args.entry, "params": params,
            "rows": [{"t": r[0], "x": r[1], "y": r[2], "density": r[3],
                      "log_density": r[4]} for r in rows],
            "atoms": [{"location": l, "order": o, "weight": w}
                      for l, o, w in atoms],
        }
        if mass_row is not None:
            doc["mass_check"] = {"mass": mass_row.computed,
                                 "expected": mass_row.reference,
                                 "abs_err": mass_row.abs_err,
                                 "passed": mass_row.passed}
        json.dump(doc, out, indent=2)
        out.write("\n")
    if mass_row is not None and not mass_row.passed:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _cmd_expect(args, extra: Sequence[str], out) -> int:
    params = _collect_params(extra, args.entry)
    t, x = args.t, args.x
    modes = sum(v is not None for v in (args.lam, args.lam_grid))
    if args.mu_grid is not None:
        lam = args.lam if args.lam is not None else 0.0
        rows = catalog.joint_laplace_in_mu(args.entry, params, lam, t, x,
                                           _parse_grid(args.mu_grid))
        header = ("mu", "lambda", "t", "x", "expectation")
        table = [(m, lam, t, x, v) for m, v in rows]
    else:
        if modes != 1:
            raise ValidityError("expect: give --lambda or --lambda-grid "
                                "(or --mu-grid)")
        lams = [args.lam] if args.lam is not None else _parse_grid(args.lam_grid)
        entry = catalog.make_entry(args.entry, **params)
        header = ("lambda", "t", "x", "expectation")
        table = [(lam, t, x,
                  catalog.expectation(entry, None, lam, t, x, method=args.method))
                 for lam in lams]

    if args.format == "csv":
        _emit_csv(out, header, [tuple(_fmt(v) for v in r) for r in table])
    else:
        json.dump({"entry": args.entry, "params": params,
                   "rows": [dict(zip(header, r)) for r in table]},
                  out, indent=2)
        out.write("\n")
    return EXIT_OK


def _cmd_verify(args, extra: Sequence[str], out) -> int:
    if extra:
        raise ValidityError(f"verify: unexpected arguments {extra!r}")
    mc_spec = None
    if args.paths or args.steps or args.seed is not None:
        base = verify.McSpec()
        mc_spec = verify.McSpec(
            n_paths=args.paths or base.n_paths,
            n_steps=args.steps or base.n_steps,
            seed=base.seed if args.seed is None else args.seed)
    tol = args.tol
    env_tol = os.environ.get("FEYNKAC_TOL")
    if tol is None and env_tol:
        try:
            tol = float(env_tol)
        except ValueError:
            raise ValidityError(f"FEYNKAC_TOL expects a number, got {env_tol!r}")
    report = verify.run_suite(args.suite, tol=tol, mc_spec=mc_spec,
                              entry_filter=args.entry)
    if args.format == "csv":
        report.to_csv(out)
        out.write(f"# suite={args.suite} checks={len(report.rows)} "
                  f"failed={report.n_failed} "
                  f"status={'pass' if report.passed else 'fail'}\n")
    else:
        # the summary lives inside the JSON object so the output stays parseable
        report.to_json(out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = _parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.manifest:
            json.dump(catalog.manifest(), out, indent=2)
            out.write("\n")
            return EXIT_OK
        if args.subcommand == "density":
            return _cmd_density(args, extra, out)
        if args.subcommand == "expect":
            return _cmd_expect(args, extra, out)
        if args.subcommand == "verify":
            return _cmd_verify(args, extra, out)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"feynkac: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _USAGE_ERRORS as exc:
        print(f"feynkac: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FeynkacError as exc:
        print(f"feynkac: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
