"""Batch command-line front end.

Subcommands:

  density   evaluate a catalog kernel on a point or y-grid, with the boundary
            atoms reported in a trailer block and an optional mass check
  expect    evaluate expectations over lambda- or functional-strength grids
            (a lambda grid, or one --lambda, is one library call)
  verify    run named verification suites and stream the report

Options are --name value or --name=value (the last of a repeated option
wins); density and expect read every other --name value as an entry
parameter, and `feynkac [SUBCOMMAND] --help` prints the option tables. Grids
use start:stop:step syntax. Output is CSV ('%.15g' cells) or JSON
(json.dumps(doc, indent=2) byte for byte). Exit codes: 0 success, 1
verification failure, 2 usage/validity error (one `feynkac: ...` line on
stderr), 3 numerical error. Identical invocations (including seed) produce
byte-identical output. FEYNKAC_TOL overrides suite tolerances.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import chain
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import catalog, verify
from ._jsonout import dumps
from .errors import CapabilityError, DomainError, EvalOverflowError, FeynkacError, ValidityError

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_USAGE_ERRORS = (ValidityError, DomainError, CapabilityError)  # every other FeynkacError is numerical

MAX_GRID_POINTS = 10 ** 6  # a start:stop:step grid with more points is a usage error


def _parse_grid(text: str) -> List[float]:
    """start:stop:step, inclusive of endpoints up to rounding, at most
    MAX_GRID_POINTS points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidityError(f"grid {text!r}: expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidityError(f"grid {text!r}: entries must be numbers")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidityError(f"grid {text!r}: entries must be finite")
    if step <= 0 or stop < start:
        raise ValidityError(f"grid {text!r}: needs step > 0 and stop >= start")
    steps = (stop - start) / step + 1e-9  # inf where the quotient overflows
    if not steps < MAX_GRID_POINTS:
        raise ValidityError(f"grid {text!r}: more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(steps) + 1)]


def _collect_params(raw: Dict[str, str], entry: str) -> Dict[str, float]:
    """The --name value pairs that are no option of the subcommand, as entry
    parameters, rejecting anything the entry does not take."""
    if entry not in catalog.ENTRY_NAMES:
        raise ValidityError(f"unknown entry {entry!r} "
                            f"(known: {', '.join(catalog.ENTRY_NAMES)})")
    allowed = catalog.ENTRY_PARAMETERS[entry]
    params: Dict[str, float] = {}
    for name, value in raw.items():
        if name not in allowed:
            raise ValidityError(
                f"entry {entry!r} does not take parameter --{name} "
                f"(takes: {', '.join('--' + p for p in allowed)})")
        try:
            params[name] = float(value)
        except ValueError:
            raise ValidityError(f"--{name} expects a number, got {value!r}")
    return params


def _csv(header: str, row: str, rows: Sequence[tuple]) -> str:
    """The header line, then the %-template row (newline included) filled
    from each tuple of rows; a column the same on every row is fixed text."""
    return header + (row * len(rows)) % tuple(chain.from_iterable(rows))


def _cmd_density(opts, raw, out) -> int:
    params = _collect_params(raw, opts["entry"])
    entry = catalog.make_entry(opts["entry"], **params)
    if (opts["y"] is None) == (opts["y-grid"] is None):
        raise ValidityError("density: give exactly one of --y and --y-grid")
    ys = [opts["y"]] if opts["y"] is not None else _parse_grid(opts["y-grid"])
    t, x = opts["t"], opts["x"]

    # the y=0 boundary carries the atoms, listed below; the rest of the grid
    # is one kernel call, of the log kernel where there is one
    ys = np.array([y for y in ys if y > 0])
    log_dens = None
    if not len(ys):
        dens = []
    elif entry.kernel.log_continuous is None:
        dens = catalog.density(entry, None, t, x, ys).tolist()
    else:
        log_dens = catalog.density(entry, None, t, x, ys, log=True)
        with np.errstate(over="ignore"):
            dens = np.exp(log_dens)  # what the kernel's continuous part returns
        if np.isinf(dens).any():
            raise EvalOverflowError(f"density: entry {entry.name} overflows at "
                                    f"y = {float(ys[np.isinf(dens)][0])!r}")
        dens, log_dens = dens.tolist(), log_dens.tolist()
    ys = ys.tolist()
    atoms = catalog.atom_weights(entry, None, t, x)
    mass_row = verify.check_mass(entry, t, x) if opts["check-mass"] else None

    if opts["format"] == "csv":
        # t and x are fixed text, as is a log_density column with no log form
        row = "%.15g,%.15g,%%.15g,%%.15g,%s\n" % (t, x, "" if log_dens is None else "%.15g")
        columns = (ys, dens) if log_dens is None else (ys, dens, log_dens)
        text = _csv("t,x,y,density,log_density\n", row, list(zip(*columns)))
        text += _csv("\natom_location,atom_order,atom_weight\n", "%.15g,%s,%.15g\n", atoms)
        if mass_row is not None:
            text += "\nmass,expected,abs_err,status\n%.15g,%.15g,%.15g,%s\n" % (
                mass_row.computed, mass_row.reference, mass_row.abs_err,
                "pass" if mass_row.passed else "fail")
        out.write(text)
    else:
        doc = {
            "entry": opts["entry"], "params": params,
            "rows": [{"t": t, "x": x, "y": y, "density": d, "log_density": ld}
                     for y, d, ld in zip(ys, dens, log_dens or [None] * len(ys))],
            "atoms": [{"location": l, "order": o, "weight": w}
                      for l, o, w in atoms],
        }
        if mass_row is not None:
            doc["mass_check"] = {"mass": mass_row.computed,
                                 "expected": mass_row.reference,
                                 "abs_err": mass_row.abs_err,
                                 "passed": mass_row.passed}
        out.write(dumps(doc) + "\n")
    if mass_row is not None and not mass_row.passed:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _cmd_expect(opts, raw, out) -> int:
    params = _collect_params(raw, opts["entry"])
    t, x, lam = opts["t"], opts["x"], opts["lambda"]
    # a row is a grid value and its expectation; fixed, the columns between
    if opts["mu-grid"] is not None:
        if opts["lambda-grid"] is not None:
            raise ValidityError("expect: give --lambda, not --lambda-grid, with --mu-grid")
        lam = lam if lam is not None else 0.0
        rows = catalog.joint_laplace_in_mu(opts["entry"], params, lam, t, x,
                                           _parse_grid(opts["mu-grid"]),
                                           method=opts["method"])
        header, fixed = ("mu", "lambda", "t", "x", "expectation"), (lam, t, x)
    else:
        if (lam is None) == (opts["lambda-grid"] is None):
            raise ValidityError("expect: give --lambda or --lambda-grid "
                                "(or --mu-grid)")
        lams = [lam] if lam is not None else _parse_grid(opts["lambda-grid"])
        entry = catalog.make_entry(opts["entry"], **params)
        values = catalog.expectation(entry, None, np.array(lams), t, x,
                                     method=opts["method"]).tolist()
        rows = list(zip(lams, values))
        header, fixed = ("lambda", "t", "x", "expectation"), (t, x)

    if opts["format"] == "csv":
        row = "%.15g," + "%.15g," * len(fixed) % fixed + "%.15g\n"
        out.write(_csv(",".join(header) + "\n", row, rows))
    else:
        out.write(dumps({"entry": opts["entry"], "params": params,
                         "rows": [dict(zip(header, (g, *fixed, v))) for g, v in rows]})
                  + "\n")
    return EXIT_OK


def _cmd_verify(opts, raw, out) -> int:
    if raw:
        raise ValidityError(f"verify: unexpected option --{next(iter(raw))} "
                            "(verify takes no entry parameters)")
    mc_spec = None
    if any(opts[k] is not None for k in ("paths", "steps", "seed")):
        base = verify.MC_SUITE_SPEC
        mc_spec = verify.McSpec(
            n_paths=base.n_paths if opts["paths"] is None else opts["paths"],
            n_steps=base.n_steps if opts["steps"] is None else opts["steps"],
            seed=base.seed if opts["seed"] is None else opts["seed"])
    tol = opts["tol"]
    env_tol = os.environ.get("FEYNKAC_TOL")
    if tol is None and env_tol:
        try:
            tol = float(env_tol)
        except ValueError:
            raise ValidityError(f"FEYNKAC_TOL expects a number, got {env_tol!r}")
    if tol is not None and not (tol >= 0 and math.isfinite(tol)):
        raise ValidityError(f"verify: the tolerance must be finite and >= 0 (got {tol})")
    report = verify.run_suite(opts["suite"], tol=tol, mc_spec=mc_spec,
                              entry_filter=opts["entry"])
    if opts["format"] == "csv":
        report.to_csv(out)
        out.write(f"# suite={opts['suite']} checks={len(report.rows)} "
                  f"failed={report.n_failed} "
                  f"status={'pass' if report.passed else 'fail'}\n")
    else:
        # the summary lives inside the JSON object so the output stays parseable
        report.to_json(out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_manifest(opts, raw, out) -> int:
    if raw:
        raise ValidityError(f"--manifest: unexpected option --{next(iter(raw))}")
    out.write(dumps(catalog.manifest()) + "\n")
    return EXIT_OK


# subcommand -> (handler, summary, options); an option is name -> (converter,
# required, choices, help), and a converter of None marks a flag. An optional
# option with choices defaults to its first choice, any other to None (a flag
# to False). No option shares its name with an entry parameter.
_ENTRY = (str, True, None, "catalog entry name")
_FORMAT = (str, False, ("csv", "json"), "output format")
_T, _X = (float, True, None, "time"), (float, True, None, "starting point")
_COMMANDS = {
    "density": (_cmd_density, "evaluate a kernel", {
        "entry": _ENTRY, "format": _FORMAT, "t": _T, "x": _X,
        "y": (float, False, None, "one end point"),
        "y-grid": (str, False, None, "end points, start:stop:step"),
        "check-mass": (None, False, None, "check that the kernel and its atoms integrate to 1")}),
    "expect": (_cmd_expect, "evaluate expectations", {
        "entry": _ENTRY, "format": _FORMAT, "t": _T, "x": _X,
        "lambda": (float, False, None, "one lambda"),
        "lambda-grid": (str, False, None, "lambdas, start:stop:step"),
        "mu-grid": (str, False, None, "strengths of the entry's killing term, start:stop:step"),
        "method": (str, False, ("auto", "closed", "quadrature"), "evaluation route")}),
    "verify": (_cmd_verify, "run verification suites", {
        "suite": (str, True, tuple(sorted(verify.SUITES)) + ("all",), "suite to run"),
        "entry": (str, False, None, "restrict report rows to one entry"),
        "format": _FORMAT,
        "tol": (float, False, None, "override the suite tolerance (and FEYNKAC_TOL)"),
        "paths": (int, False, None, "Monte Carlo paths"),
        "steps": (int, False, None, "Monte Carlo time steps"),
        "seed": (int, False, None, "Monte Carlo seed")}),
    "--manifest": (_cmd_manifest, "dump the catalog manifest as JSON", {}),
}
_HELP = ("-h", "--help")
_EXPECTS = {float: "a number", int: "an integer"}
# each command's option values before its arguments, and its required options
_DEFAULTS = {command: {name: False if convert is None else choices[0] if choices and not required
                       else None for name, (convert, required, choices, _) in table.items()}
             for command, (_, _, table) in _COMMANDS.items()}
_REQUIRED = {command: [name for name, spec in table.items() if spec[1]]
             for command, (_, _, table) in _COMMANDS.items()}


def _scan(command: str, args: Sequence[str]):
    """Walk args once: the subcommand's options into a dict of converted
    values, every other --name value pair into a dict of raw strings (the
    entry parameters). None where -h/--help stands in an option's place."""
    table, opts = _COMMANDS[command][2], dict(_DEFAULTS[command])
    raw: Dict[str, str] = {}
    tokens = iter(args)
    for token in tokens:
        if token in _HELP:
            return None
        if token in _COMMANDS:
            raise ValidityError(f"{token!r} must be the first argument")
        if not token.startswith("--"):
            raise ValidityError(f"unexpected argument {token!r}")
        name, eq, value = token[2:].partition("=")
        convert, _, choices, _ = table.get(name, (None, None, None, None))
        if name in table and convert is None:
            if eq:
                raise ValidityError(f"--{name} takes no value")
            opts[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ValidityError(f"--{name} expects a value")
        if convert is None:
            raw[name] = value
        elif choices and value not in choices:
            raise ValidityError(f"--{name}: invalid choice {value!r} "
                                f"(choose from {', '.join(choices)})")
        else:
            try:
                opts[name] = convert(value)
            except ValueError:
                raise ValidityError(f"--{name} expects {_EXPECTS[convert]}, got {value!r}")
    missing = [f"--{name}" for name in _REQUIRED[command] if opts[name] is None]
    if missing:
        raise ValidityError(f"{command}: the following options are required: "
                            f"{', '.join(missing)}")
    return opts, raw


def _help(commands: Sequence[str]) -> str:
    """The usage lines and the option table of each of the commands."""
    lines = [f"usage: feynkac {{{','.join(_COMMANDS)}}} [--OPTION VALUE ...] [--help]",
             "Options are --NAME VALUE or --NAME=VALUE; density and expect read every other",
             "--NAME VALUE as an entry parameter (feynkac --manifest lists each entry's)."]
    for command in commands:
        _, summary, table = _COMMANDS[command]
        lines += ["", f"{command}: {summary}"]
        for name, (convert, required, choices, text) in table.items():
            value = "" if convert is None else " " + name.upper().replace("-", "_")
            note = [", ".join(choices)] if choices else []
            note += ["required"] if required else [f"default {choices[0]}"] if choices else []
            lines.append(f"  --{name + value:<25} {text}" + (f" ({'; '.join(note)})" if note else ""))
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = sys.argv[1:] if argv is None else argv
    command = args[0] if args else None
    try:
        if command in _HELP:
            out.write(_help(_COMMANDS))
            return EXIT_OK
        if command not in _COMMANDS:
            what = "no subcommand" if command is None else f"unknown subcommand {command!r}"
            raise ValidityError(f"{what}: expected one of {', '.join(_COMMANDS)} "
                                "(see feynkac --help)")
        scanned = _scan(command, args[1:])
        if scanned is None:
            out.write(_help([command]))
            return EXIT_OK
        return _COMMANDS[command][0](*scanned, out)
    except _USAGE_ERRORS as exc:
        print(f"feynkac: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FeynkacError as exc:
        print(f"feynkac: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
