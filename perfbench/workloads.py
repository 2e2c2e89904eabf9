"""Seeded inputs, operations and output checks of the three workloads.

A workload is a fixed list of operations (one "cycle") built from the seed.
Runs repeat whole cycles, so every run attempts the same operations in the
same proportions, and the known-fault operations (F1-F3, fixed inputs that do
not depend on the seed) are the same share of every run.

Checks: every output of the first cycle gets the property checks; a seeded
subset of outputs is turned into reference requests, which the parent process
evaluates with the mpmath formulas of references.py. Later cycles must
reproduce the first cycle's outputs exactly.
"""

from __future__ import annotations

import functools
import io
import json
import math
import random
import zlib

# Fixed parameter pool: three sets per entry, inside each validity region.
POOL = {
    "besq": [{"n": 3.0}, {"n": 2.5, "nu": 0.4}, {"n": 4.5, "mu": 0.3}],
    "bessel": [{"a": 1.2}, {"a": 0.8, "mu": 0.6}, {"a": 2.0}],
    "bessel_drift": [{"a": 0.5, "b": 1.3}, {"a": 0.5, "b": 1.3, "mu": 0.7},
                     {"a": -0.3, "b": 0.8}],
    "cir": [{"a": 1.1, "b": 0.8, "sigma": 0.6}, {"a": 1.0, "b": 1.0, "sigma": 1.0},
            {"a": 0.9, "b": 1.4, "sigma": 0.6, "mu": 0.5}],
    "generic_linear": [{"sigma": 1.0, "A": 1.0, "B": -0.3},
                       {"sigma": 1.0, "A": 1.0, "B": -0.3, "mu": 0.05},
                       {"sigma": 0.8, "A": 1.5, "B": -0.2}],
    "generic_quadratic": [{"sigma": 1.0, "a": 1.0, "b": 1.0},
                          {"sigma": 0.6, "a": 1.1, "b": 0.8, "mu": 0.5},
                          {"sigma": 0.8, "a": 1.5, "b": 0.5}],
    "radial_ou": [{"a": 1.0, "b": -0.8}, {"a": 0.9, "b": -0.5, "mu": 0.7},
                  {"a": 1.5, "b": 0.6}],
    "rational_drift": [{"a": 2.0}, {"a": 2.0, "mu": 1.0}, {"a": 0.7, "mu": 0.3}],
    "rational_showcase": [{"a": 1.0, "b": 1.0}, {"a": 0.5, "b": 2.0},
                          {"a": 2.0, "b": 0.7}],
    "sqrt_drift": [{"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6},
                   {"a": 1.2, "b": 0.5, "A": 1.0, "B": 0.8},
                   {"a": 1.8, "b": 0.3, "A": 0.8, "B": 0.4}],
    "tanh_drift": [{}, {"mu": 0.5}, {"mu": 0.9}],
}
MEMBERS = [(name, i) for name in sorted(POOL) for i in range(len(POOL[name]))]

CLOSED_FORM = {"besq", "bessel", "cir", "rational_drift", "tanh_drift",
               "radial_ou", "rational_showcase", "sqrt_drift"}
WITH_TRANSFORM = {"besq", "bessel", "bessel_drift", "rational_drift",
                  "tanh_drift", "rational_showcase", "sqrt_drift", "generic_linear"}
NO_LOG_FORM = {"generic_linear"}
# no probabilistic meaning: expectations are not confined to [0, 1]
STRUCTURAL = {"rational_showcase"}

# point-evaluation ranges in which every call of the pool succeeds
T_RANGE, X_RANGE, Y_RANGE, LAM_RANGE = (0.2, 2.0), (0.3, 3.0), (0.1, 4.0), (0.0, 3.0)

DENSITY_RTOL = 1e-10
CLOSED_RTOL = 1e-10
QUAD_RTOL = 1e-7
LOG_RTOL = 1e-12
MAX_PROBLEMS = 20


def params_of(name: str, i: int) -> dict:
    return dict(POOL[name][i])


def _strata(rng, count, lo, hi, log=True):
    """One draw in each of `count` equal strata of [lo, hi], shuffled, so that
    every seed covers the range evenly."""
    us = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(us)
    if log:
        return [lo * (hi / lo) ** u for u in us]
    return [lo + (hi - lo) * u for u in us]


def _close(value, ref, rtol, atol=0.0) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def density_reference(name: str, p: dict, t, x, y):
    """(reference name, args) of the kernel at (t, x, y), or None."""
    if name == "besq":
        return "besq_density", dict(n=p["n"], nu=p.get("nu", 0.0),
                                    mu=p.get("mu", 0.0), t=t, x=x, y=y)
    if name == "bessel":
        return "bessel_density", dict(a=p["a"], mu=p.get("mu", 0.0), t=t, x=x, y=y)
    if name == "cir" and not p.get("mu") and p["a"] >= p["sigma"]:
        return "cir_density", dict(a=p["a"], b=p["b"], sigma=p["sigma"],
                                   t=t, x=x, y=y)
    if name == "radial_ou" and not p.get("mu"):
        return "radial_ou_density", dict(a=p["a"], b=p["b"], t=t, x=x, y=y)
    return None


def laplace_reference(name: str, p: dict, lam, t, x):
    """(reference name, args) of E_x[exp(-lam X_t^m - killing)], or None."""
    if name == "besq" and not p.get("nu"):
        return "besq_laplace", dict(n=p["n"], mu=p.get("mu", 0.0), lam=lam, t=t, x=x)
    if name == "bessel" and not p.get("mu"):
        return "bessel_laplace", dict(a=p["a"], lam=lam, t=t, x=x)
    if name == "cir" and not p.get("mu") and p["a"] >= p["sigma"]:
        return "cir_laplace", dict(a=p["a"], b=p["b"], sigma=p["sigma"],
                                   lam=lam, t=t, x=x)
    if name == "radial_ou" and not p.get("mu"):
        return "radial_ou_laplace", dict(a=p["a"], b=p["b"], lam=lam, t=t, x=x)
    return None


def transform_reference(name: str, p: dict, lam, t, x):
    """Where the stationary weight u0 is 1 the transform is the plain
    Laplace transform of the kernel."""
    if name == "besq" and not p.get("nu") and not p.get("mu") and p["n"] >= 2:
        return laplace_reference(name, p, lam, t, x)
    if name == "bessel" and not p.get("mu"):
        return laplace_reference(name, p, lam, t, x)
    return None


class Op:
    __slots__ = ("call", "kind", "fault", "meta")

    def __init__(self, call, kind, meta, fault=""):
        self.call, self.kind, self.meta, self.fault = call, kind, meta, fault


def cli_op(cli, kind, argv, meta, fault="") -> Op:
    """An operation that runs `feynkac.cli.main(argv)` in process and returns
    (exit code, standard output). cli.main is looked up at call time, so the
    tracer's wrapper is seen."""

    def call():
        buf = io.StringIO()
        rc = cli.main(argv, out=buf)
        return rc, buf.getvalue()

    meta["argv"] = argv
    return Op(call, kind, meta, fault)


class Workload:
    """ops: the cycle. Subclasses define failure, digests and checks."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list = []
        self.problems: list = []
        self.n_problems = 0
        self.refs: list = []

    def problem(self, text: str) -> None:
        self.n_problems += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def request(self, what, ref, args, value, rtol, atol=0.0, log=False):
        self.refs.append({"what": what, "ref": ref, "args": args, "log": log,
                          "value": value, "rtol": rtol, "atol": atol})

    def failed(self, op, out) -> bool:
        raise NotImplementedError

    def digest(self, out):
        raise NotImplementedError

    def check(self, op, out) -> None:
        """Property checks and reference requests for one first-cycle output."""

    def finish_checks(self) -> None:
        """Checks that need the whole first cycle."""


# ---------------------------------------------------------------------------
# points: scalar library calls
# ---------------------------------------------------------------------------

class Points(Workload):
    """One operation is one call of catalog.density (linear or log),
    catalog.expectation or catalog.transform_rhs. Each (pool member, call
    kind) pair gets BY_NAME calls by entry name and PREBUILT calls through a
    CatalogEntry built during set-up, at stratified seeded (t, x, y, lam)."""

    name = "points"
    BY_NAME = 12
    PREBUILT = 4
    REFERENCE_SAMPLE = 200
    # F3: closed forms whose true value (1: no killing, lam = 0) is in [0, 1]
    # but which raise today
    FAULTS = (("besq", {"n": 3.0}, 1e-4, 1.0),
              ("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}, 1e-4, 1.0),
              ("bessel", {"a": 1.2}, 0.05, 10.0),
              ("tanh_drift", {}, 1e-4, 1.0))

    def __init__(self, seed: int):
        super().__init__(seed)
        from feynkac import catalog
        rng = random.Random(f"points:{seed}")
        entries = {m: catalog.make_entry(m[0], **params_of(*m)) for m in MEMBERS}
        ops = []
        for member in MEMBERS:
            name, _ = member
            p = params_of(*member)
            for route, count in (("name", self.BY_NAME), ("prebuilt", self.PREBUILT)):
                target = (name, p) if route == "name" else (entries[member], None)
                ts = _strata(rng, count, *T_RANGE)
                xs = _strata(rng, count, *X_RANGE)
                ys = _strata(rng, count, *Y_RANGE)
                lams = _strata(rng, count, *LAM_RANGE, log=False)
                for k in range(count):
                    t, x, y, lam = ts[k], xs[k], ys[k], lams[k]
                    meta = dict(entry=name, params=p, route=route, t=t, x=x, y=y,
                                lam=lam, pair=(member, route, k))
                    ops.append(Op(functools.partial(catalog.density, *target, t, x, y),
                                  "density", meta))
                    if name not in NO_LOG_FORM:
                        ops.append(Op(functools.partial(catalog.density, *target,
                                                        t, x, y, log=True),
                                      "density_log", meta))
                    if name in CLOSED_FORM:
                        ops.append(Op(functools.partial(catalog.expectation, *target,
                                                        lam, t, x),
                                      "expectation", meta))
                    if name in WITH_TRANSFORM and not (name == "besq" and p.get("mu")):
                        ops.append(Op(functools.partial(catalog.transform_rhs, *target,
                                                        lam, t, x),
                                      "transform", meta))
        for name, p, t, x in self.FAULTS:
            meta = dict(entry=name, params=p, route="name", t=t, x=x, lam=0.0)
            ops.append(Op(functools.partial(catalog.expectation, name, p, 0.0, t, x),
                          "expectation", meta, fault="F3"))
        rng.shuffle(ops)
        self.ops = ops
        self._first = {}

    def failed(self, op, out) -> bool:
        if isinstance(out, BaseException):
            return True
        # a known fault is mended only when the true value comes back
        return bool(op.fault) and not _close(out, 1.0, 1e-9)

    def digest(self, out):
        return type(out).__name__ if isinstance(out, BaseException) else out

    def check(self, op, out) -> None:
        if isinstance(out, BaseException):
            if not op.fault:
                self.problem(f"points: {op.kind} {op.meta['entry']} raised {out!r}")
            return
        m = op.meta
        what = f"points {op.kind} {m['entry']} {m['params']} t={m['t']:.6g} x={m['x']:.6g}"
        if not math.isfinite(out):
            self.problem(f"{what}: non-finite {out!r}")
            return
        if op.kind == "density" and out < 0:
            self.problem(f"{what}: negative density {out!r}")
        elif op.kind == "expectation" and m["entry"] not in STRUCTURAL \
                and not 0.0 <= out <= 1.0 + 1e-12:
            self.problem(f"{what}: expectation {out!r} outside [0, 1]")
        elif op.kind == "transform" and not out > 0:
            self.problem(f"{what}: transform {out!r} not positive")
        if "pair" in m:
            self._first[(m["pair"], op.kind)] = (op, out)

    def finish_checks(self) -> None:
        candidates = []
        for (pair, kind), (op, out) in self._first.items():
            if kind == "density_log":
                lin = self._first.get((pair, "density"))
                if lin is not None and lin[1] > 1e-300 \
                        and abs(out - math.log(lin[1])) > LOG_RTOL * max(1.0, abs(out)):
                    self.problem(f"points log_density {op.meta['entry']}: {out!r} "
                                 f"vs log(density) {math.log(lin[1])!r}")
            m = op.meta
            if kind in ("density", "density_log"):
                ref = density_reference(m["entry"], m["params"], m["t"], m["x"], m["y"])
            elif kind == "expectation":
                ref = laplace_reference(m["entry"], m["params"], m["lam"], m["t"], m["x"])
            else:
                ref = transform_reference(m["entry"], m["params"], m["lam"], m["t"], m["x"])
            if ref is not None:
                candidates.append((kind, m, out, ref))
        rng = random.Random(f"points-refs:{self.seed}")
        for kind, m, out, (ref, args) in rng.sample(
                candidates, min(self.REFERENCE_SAMPLE, len(candidates))):
            what = f"points {kind} {m['entry']} {m['params']} route={m['route']}"
            if kind == "density_log":
                self.request(what, ref, args, out, 0.0,
                             atol=LOG_RTOL * 100 * max(1.0, abs(out)), log=True)
            else:
                self.request(what, ref, args, out,
                             DENSITY_RTOL if kind == "density" else CLOSED_RTOL,
                             atol=1e-300)
        self._first = {}


# ---------------------------------------------------------------------------
# tabulate: CLI batch work, in process
# ---------------------------------------------------------------------------

def _argv_params(p: dict) -> list:
    out = []
    for k, v in p.items():
        out += [f"--{k}", repr(v)]
    return out


def _num(v: float) -> str:
    return format(v, ".4g")


def _grid(start: float, step: float, count: int) -> str:
    """start:stop:step with exactly `count` points."""
    return f"{start!r}:{start + (count - 1) * step!r}:{step!r}"


def _csv_rows(text: str):
    """Blocks of a CLI CSV document: list of (header, rows)."""
    blocks = []
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        blocks.append((lines[0].split(","), [l.split(",") for l in lines[1:] if l]))
    return blocks


# (member, mu-grid top) of entries whose expectation has a closed form, and of
# those that fall back to quadrature at every grid point
MU_GRID_CLOSED = [(("besq", 0), 1.0), (("besq", 1), 1.0), (("bessel", 0), 2.0),
                  (("bessel", 2), 2.0), (("cir", 0), 1.5), (("cir", 1), 1.5),
                  (("rational_drift", 0), 1.5), (("tanh_drift", 0), 1.5),
                  (("radial_ou", 0), 1.5), (("radial_ou", 2), 1.5)]
MU_GRID_QUAD = [(("bessel_drift", 0), 1.5), (("bessel_drift", 2), 1.5),
                (("generic_quadratic", 0), 0.5), (("generic_quadratic", 2), 0.5)]
# conservative members: continuous mass plus atoms is 1 (generic_linear is
# conservative too, but its mass check overflows or misses for some (t, x);
# see CHANGES.md)
CONSERVATIVE = [("besq", 0), ("bessel", 0), ("bessel", 2), ("bessel_drift", 0),
                ("cir", 0), ("cir", 1), ("generic_quadratic", 0), ("generic_quadratic", 2),
                ("radial_ou", 0), ("radial_ou", 2), ("rational_drift", 0),
                ("rational_showcase", 0), ("rational_showcase", 1),
                ("rational_showcase", 2), ("tanh_drift", 0)]
# Rough cost of one unit of work per entry on the reference machine (see
# README): microseconds per CSV density grid point, milliseconds per
# quadrature expectation. Grid sizes are divided by these so that operations
# of one kind cost about the same whatever the entry.
DENSITY_US = {"besq": 17.0, "bessel": 17.5, "bessel_drift": 24.0, "cir": 11.5,
              "generic_linear": 14.0, "generic_quadratic": 15.0, "radial_ou": 12.0,
              "rational_drift": 10.5, "rational_showcase": 10.0, "sqrt_drift": 10.0,
              "tanh_drift": 10.7}
JSON_FACTOR = 1.8
QUAD_MS = {"bessel_drift": 1.8, "generic_quadratic": 1.0}
# Quadrature over a lambda grid: the slowest operations, which hold op_p99_us.
# Fixed members, lambda counts that make each cost about the same (~9 ms on
# the reference machine) and a narrow (t, x) range keep that class's cost the
# same for every seed.
LAMBDA_QUAD = [(("besq", 0), 6), (("cir", 1), 15), (("generic_quadratic", 0), 15),
               (("rational_drift", 0), 15)]
LAMBDA_QUAD_TX = (0.8, 1.25)
# (t, x) ranges of each kind. Quadrature over [0, inf) stays where the
# linear-domain generic_* kernels do not overflow in the tail (see CHANGES.md).
TX_RANGES = {"lgrid_quad": (LAMBDA_QUAD_TX, LAMBDA_QUAD_TX),
             "mugrid_quad": ((0.8, 2.0), (0.3, 1.5)),
             "density_mass": ((0.8, 2.0), (0.3, 1.5))}
TX_DEFAULT = ((0.3, 2.0), (0.3, 3.0))


class Tabulate(Workload):
    """One operation is one in-process `feynkac.cli.main(argv, out=buffer)`
    invocation. PLAN gives the operations per cycle of each kind."""

    name = "tabulate"
    PLAN = (("lgrid_closed", 480), ("mugrid_closed", 449), ("F2", 1),
            ("density_csv", 15), ("density_mass", 10), ("density_json", 10),
            ("mugrid_quad", 10), ("lgrid_quad", 25))
    # target cost ranges (ms on the reference machine) that set grid sizes
    DENSITY_MS = (2.0, 5.0)
    MU_QUAD_MS = (2.5, 5.0)
    REF_ROWS = 6
    REFERENCE_SAMPLE = 300
    # F2: no killing and lam = 0, so the expectation is the total mass 1
    F2_ARGV = ("expect --entry besq --n 3 --t 0.01 --x 1000 --lambda 0 "
               "--method quadrature").split()

    def __init__(self, seed: int):
        super().__init__(seed)
        from feynkac import cli
        self._cli = cli
        rng = random.Random(f"tabulate:{seed}")
        self._rng_refs = random.Random(f"tabulate-refs:{seed}")
        ops = []
        for kind, count in self.PLAN:
            if kind == "F2":
                ops.append(cli_op(cli, kind, list(self.F2_ARGV), {}, fault="F2"))
                continue
            t_range, x_range = TX_RANGES.get(kind, TX_DEFAULT)
            ts = _strata(rng, count, *t_range)
            xs = _strata(rng, count, *x_range)
            us = _strata(rng, count, 0.0, 1.0, log=False)
            pool = self._pool(kind)
            members = [pool[k % len(pool)] for k in range(count)]
            if kind != "lgrid_quad":
                rng.shuffle(members)
            for k in range(count):
                ops.append(self._make(kind, members[k], ts[k], xs[k], us[k], rng))
        rng.shuffle(ops)
        self.ops = ops
        self._candidates = []

    def request(self, *args, **kwargs):
        # collected over the first cycle; finish_checks keeps a seeded sample
        self._candidates.append((args, kwargs))

    def finish_checks(self) -> None:
        picked = self._rng_refs.sample(self._candidates,
                                       min(self.REFERENCE_SAMPLE, len(self._candidates)))
        for args, kwargs in picked:
            Workload.request(self, *args, **kwargs)
        self._candidates = []

    @staticmethod
    def _pool(kind):
        if kind == "lgrid_closed":
            return [m for m in MEMBERS
                    if m[0] in CLOSED_FORM and "mu" not in POOL[m[0]][m[1]]]
        if kind == "mugrid_closed":
            return MU_GRID_CLOSED
        if kind == "mugrid_quad":
            return MU_GRID_QUAD
        if kind == "lgrid_quad":
            return LAMBDA_QUAD
        if kind == "density_mass":
            return CONSERVATIVE
        return MEMBERS

    def _make(self, kind, member, t, x, u, rng):
        t, x = float(_num(t)), float(_num(x))

        def scaled(span, unit_cost):
            return span[0] + u * (span[1] - span[0]), unit_cost

        if kind in ("mugrid_closed", "mugrid_quad"):
            (name, i), top = member
            p = params_of(name, i)
            if kind == "mugrid_quad":
                ms, cost = scaled(self.MU_QUAD_MS, QUAD_MS[name])
                count = max(3, round(ms / cost))
            else:
                count = 6 + int(u * 10)
            lam = float(_num(rng.uniform(*LAM_RANGE)))
            argv = (["expect", "--entry", name] + _argv_params(p)
                    + ["--t", repr(t), "--x", repr(x), "--lambda", repr(lam),
                       "--mu-grid", _grid(0.0, top / (count - 1), count)])
            return cli_op(self._cli, kind, argv,
                          dict(entry=name, params=p, t=t, x=x, lam=lam))
        if kind in ("lgrid_closed", "lgrid_quad"):
            if kind == "lgrid_quad":
                (name, i), count = member
            else:
                (name, i), count = member, 8 + int(u * 13)
            p = params_of(name, i)
            top = 1.0 + 2.0 * rng.random()
            argv = (["expect", "--entry", name] + _argv_params(p)
                    + ["--t", repr(t), "--x", repr(x),
                       "--lambda-grid", _grid(0.0, float(_num(top / (count - 1))), count)])
            if kind == "lgrid_quad":
                argv += ["--method", "quadrature"]
            elif rng.random() < 0.3:
                argv += ["--format", "json"]
            return cli_op(self._cli, kind, argv, dict(entry=name, params=p, t=t, x=x))
        # densities: grid sizes scaled down for costlier kernels
        name, i = member
        p = params_of(name, i)
        ms, cost = scaled(self.DENSITY_MS, DENSITY_US[name] / 1e3)
        if kind == "density_json":
            cost *= JSON_FACTOR
        count = round(ms / cost)
        top = 4.0 + 6.0 * rng.random()
        step = float(format(top / count, ".3g"))
        argv = (["density", "--entry", name] + _argv_params(p)
                + ["--t", repr(t), "--x", repr(x), "--y-grid", _grid(step, step, count)])
        if kind == "density_json":
            argv += ["--format", "json"]
        if kind == "density_mass":
            argv += ["--check-mass"]
        return cli_op(self._cli, kind, argv,
                      dict(entry=name, params=p, t=t, x=x, count=count))

    def failed(self, op, out) -> bool:
        if isinstance(out, BaseException) or out[0] != 0:
            return True
        if op.fault == "F2":
            try:
                value = float(out[1].strip().split("\n")[-1].split(",")[-1])
            except ValueError:
                return True
            return not _close(value, 1.0, 1e-7)
        return False

    def digest(self, out):
        if isinstance(out, BaseException):
            return type(out).__name__
        return out[0], zlib.crc32(out[1].encode())

    def check(self, op, out) -> None:
        if op.fault:
            return
        what = f"tabulate {' '.join(op.meta['argv'])}"
        if isinstance(out, BaseException) or out[0] != 0:
            code = out if isinstance(out, BaseException) else out[0]
            self.problem(f"{what}: failed with {code!r}")
            return
        try:
            if op.kind.startswith("density"):
                self._check_density(op, out[1], what)
            else:
                self._check_expect(op, out[1], what)
        except (ValueError, KeyError, IndexError) as exc:
            self.problem(f"{what}: unreadable output ({exc!r})")

    def _check_density(self, op, text, what):
        m = op.meta
        if op.kind == "density_json":
            doc = json.loads(text)
            rows = [(r["y"], r["density"], r["log_density"]) for r in doc["rows"]]
            atoms = [(a["order"], a["weight"]) for a in doc["atoms"]]
            mass = None
        else:
            blocks = _csv_rows(text)
            rows = [(float(r[2]), float(r[3]), float(r[4]) if r[4] else None)
                    for r in blocks[0][1]]
            atoms = [(int(r[1]), float(r[2])) for r in blocks[1][1]]
            mass = blocks[2][1][0] if len(blocks) > 2 else None
        if len(rows) != m["count"]:
            self.problem(f"{what}: {len(rows)} rows")
        for y, d, ld in rows:
            if not (math.isfinite(d) and d >= 0):
                self.problem(f"{what}: density {d!r} at y={y!r}")
                return
            if ld is not None and d > 1e-300 and \
                    abs(ld - math.log(d)) > LOG_RTOL * max(1.0, abs(ld)):
                self.problem(f"{what}: log_density {ld!r} vs log(density) at y={y!r}")
                return
        for order, w in atoms:
            if order == 0 and m["entry"] not in STRUCTURAL and not 0.0 <= w <= 1.0:
                self.problem(f"{what}: atom weight {w!r} outside [0, 1]")
        if op.kind == "density_mass":
            if mass is None or not (_close(float(mass[0]), 1.0, 1e-7) and mass[3] == "pass"):
                self.problem(f"{what}: mass row {mass!r}, expected 1")
        for y, d, ld in self._rng_refs.sample(rows, min(self.REF_ROWS, len(rows))):
            ref = density_reference(m["entry"], m["params"], m["t"], m["x"], y)
            if ref is None:
                break
            self.request(f"{what} y={y!r}", ref[0], ref[1], d, DENSITY_RTOL, atol=1e-300)

    def _check_expect(self, op, text, what):
        m = op.meta
        if "--format" in m["argv"]:
            doc = json.loads(text)
            rows = [(r.get("mu"), r["lambda"], r["expectation"]) for r in doc["rows"]]
        else:
            (header, body), = _csv_rows(text)
            col = {h: j for j, h in enumerate(header)}
            rows = [(float(r[col["mu"]]) if "mu" in col else None,
                     float(r[col["lambda"]]), float(r[col["expectation"]]))
                    for r in body]
        quad = op.kind in ("lgrid_quad", "mugrid_quad")
        rtol = QUAD_RTOL if quad else CLOSED_RTOL
        prev = math.inf
        for mu, lam, v in rows:
            if not math.isfinite(v):
                self.problem(f"{what}: non-finite expectation {v!r}")
                return
            if m["entry"] in STRUCTURAL:
                continue
            if not 0.0 <= v <= 1.0 + 1e-12:
                self.problem(f"{what}: expectation {v!r} outside [0, 1]")
            # more weight or more killing never raises the expectation
            if v > prev * (1.0 + rtol):
                self.problem(f"{what}: expectation rises along the grid ({prev!r} -> {v!r})")
            prev = v
        for mu, lam, v in rows:
            p = m["params"] if mu is None else {**m["params"], **self._functional(m, mu)}
            ref = laplace_reference(m["entry"], p, lam, m["t"], m["x"])
            if ref is None:
                break
            self.request(f"{what} lambda={lam!r} mu={mu!r}", ref[0], ref[1], v, rtol,
                         atol=1e-12 if quad else 1e-300)

    @staticmethod
    def _functional(m, mu):
        # the grid runs over nu for besq with nu killing, over mu otherwise
        return {"nu": mu} if m["entry"] == "besq" and m["params"].get("nu") else {"mu": mu}


# ---------------------------------------------------------------------------
# verify: the verification harness through the CLI
# ---------------------------------------------------------------------------

class Verify(Workload):
    """One operation is one `feynkac verify --suite S --format json` call; a
    cycle runs the suites other than LEFT_OUT in sorted order, starting at a
    seeded suite, with the Monte Carlo suite at MC_ARGS."""

    name = "verify"
    # rows each suite reports today; fewer rows means checks were dropped
    MIN_ROWS = {"altrep": 8, "chapman": 10, "closed_form": 66, "hartman": 6,
                "laplace": 8, "limits": 25, "mass": 35, "mc": 4, "pde": 11,
                "riccati": 11, "whittaker": 5}
    # F1: the radial OU drift-equation residual is above its bound
    F1_ROW = "riccati[radial_ou"
    # the suite's own 300 steps on a fortieth of its 20 000 paths, so that no
    # operation is longer than about 0.1 s
    MC_ARGS = ["--paths", "500", "--steps", "300"]
    # one 0.4 s operation, too long to time steadily on a host whose fast
    # stretches are often shorter (see README)
    LEFT_OUT = ("transform",)

    def __init__(self, seed: int):
        super().__init__(seed)
        from feynkac import cli, verify
        suites = sorted(s for s in verify.SUITES if s not in self.LEFT_OUT)
        start = seed % len(suites)
        self.ops = [cli_op(cli, "verify", ["verify", "--suite", s, "--format", "json"]
                           + (self.MC_ARGS if s == "mc" else []),
                           {"suite": s}, fault="F1" if s == "riccati" else "")
                    for s in suites[start:] + suites[:start]]

    def failed(self, op, out) -> bool:
        return isinstance(out, BaseException) or out[0] != 0

    def digest(self, out):
        if isinstance(out, BaseException):
            return type(out).__name__
        return out[0], zlib.crc32(out[1].encode())

    def check(self, op, out) -> None:
        suite = op.meta["suite"]
        what = f"verify --suite {suite}"
        if isinstance(out, BaseException):
            self.problem(f"{what}: raised {out!r}")
            return
        try:
            doc = json.loads(out[1])
        except ValueError as exc:
            self.problem(f"{what}: unreadable JSON ({exc!r})")
            return
        rows = doc["rows"]
        if doc["suite"] != suite or doc["checks"] != len(rows) \
                or len(rows) < self.MIN_ROWS[suite]:
            self.problem(f"{what}: {len(rows)} rows (at least {self.MIN_ROWS[suite]})")
        for r in rows:
            known = op.fault == "F1" and r["identity"].startswith(self.F1_ROW)
            if not r["passed"] and not known:
                self.problem(f"{what}: row {r['identity']} {r['grid_point']} fails")
        if (out[0] == 0) != all(r["passed"] for r in rows):
            self.problem(f"{what}: exit code {out[0]} disagrees with the rows")
        for r in rows:
            ref = self._row_reference(r)
            if ref is None:
                continue
            name, args, tol = ref
            self.request(f"{what} {r['identity']} {r['grid_point']} reference",
                         name, args, r["reference"], 1e-12)
            self.request(f"{what} {r['identity']} {r['grid_point']} computed",
                         name, args, r["computed"], 0.0,
                         atol=tol * max(1.0, abs(r["reference"])))

    @staticmethod
    def _row_reference(row):
        identity = row["identity"]
        if not identity.startswith(("laplace_inversion[besq,n=3]", "hartman[besq:")):
            return None
        point = dict(kv.split("=") for kv in row["grid_point"].split(","))
        t, x, y = (float(point[k]) for k in ("t", "x", "y"))
        if identity == "laplace_inversion[besq,n=3]":
            return "besq_density", dict(n=3.0, t=t, x=x, y=y), 1e-4
        if row["identity"].startswith("hartman[besq:"):
            spec = dict(kv.split("=")
                        for kv in identity[len("hartman[besq:"):-1].split(","))
            return ("hartman_ratio", dict(n=float(spec["n"]), nu=float(spec["nu"]),
                                          t=t, x=x, y=y), 1e-10)
        return None


def build(name: str, seed: int) -> Workload:
    return {"points": Points, "tabulate": Tabulate, "verify": Verify}[name](seed)
