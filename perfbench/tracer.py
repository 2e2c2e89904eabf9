"""In-memory span tracer for the traced run.

Spans are recorded from the benchmark's side only: `Tracer.install` replaces
module attributes of feynkac (and `scipy.integrate.quad`) with timing
wrappers, and `make_entry` additionally wraps the kernel, closed-form
expectation and transform callables of the entries it returns. Nothing in
feynkac is edited. `uninstall` puts every original back.

Each span has a name, start and end (perf_counter_ns), the span that caused
it and the operation it belongs to. Per-name aggregates (calls, total time,
self time = duration minus the time covered by child spans, FeynkacErrors
raised) are updated as each span ends, so the metrics cover every span even
when the stored span list is capped. The stored spans are written out when
the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import time
import warnings
from array import array

SPECFUN_FUNCTIONS = ("bessel_i", "log_bessel_i", "bessel_k", "hypergeom_1f1",
                     "tricomi_u", "whittaker_m", "whittaker_w", "gamma_ln",
                     "erf", "laplace_bessel_moment")
SYMMETRY_FUNCTIONS = ("stationary_solution", "laplace_scaling_symmetry",
                      "log_scaling_symmetry", "exp_scaling_symmetry",
                      "exp_kummer_symmetry", "atom_weight", "pde_residual")
RICCATI_FUNCTIONS = ("fit_riccati", "riccati_residual")

_SPAN_FIELDS = ("span", "parent", "op", "name", "start_ns", "end_ns")
SPAN_CAP = 100_000   # spans kept for the span file; aggregates cover all


class Tracer:
    def __init__(self):
        self.recording = False
        self.op = -1                      # index of the operation in flight
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.total_ns: list = []
        self.self_ns: list = []
        self.raised: list = []
        self.quad_evals = 0
        self.mc_path_steps = 0            # Euler paths x steps
        self.mc_euler_ns = 0
        self.n_spans = 0
        self._stack: list = []            # frames [span index, child ns]
        self._spans = array("q")
        self._patches: list = []          # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self.raised.append(0)
        return nid

    def wrap(self, name: str, fn, on_end=None):
        """A wrapper of fn that records one span named `name` per call.
        on_end(args, kwargs, duration_ns) runs after the span closes."""
        nid = self.name_id(name)
        stack, now = self._stack, time.perf_counter_ns
        calls, total, selft, raised = (self.calls, self.total_ns,
                                       self.self_ns, self.raised)
        from feynkac.errors import FeynkacError

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.n_spans
            self.n_spans = idx + 1
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            except FeynkacError:
                raised[nid] += 1
                raise
            finally:
                end = now()
                stack.pop()
                dur = end - start
                calls[nid] += 1
                total[nid] += dur
                selft[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx < SPAN_CAP:
                    self._spans.extend((idx, parent, self.op, nid, start, end))
                if on_end is not None:
                    on_end(args, kwargs, dur)

        return wrapper

    def exclude(self, start_ns: int) -> None:
        """Count tracer bookkeeping since start_ns as child time of the
        enclosing span, so it does not inflate that span's self time."""
        if self.recording and self._stack:
            self._stack[-1][1] += time.perf_counter_ns() - start_ns

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        """Replace `original` in every module namespace that binds it, so that
        `from .x import f` imports are traced too."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def prepare(self) -> None:
        """Build every wrapper (once); install() and uninstall() swap them."""
        import scipy.integrate
        import feynkac
        from feynkac import catalog, cli, riccati, specfun, symmetry, verify
        modules = (feynkac, catalog, cli, riccati, specfun, symmetry, verify)

        for fn_name in SPECFUN_FUNCTIONS:
            orig = getattr(specfun, fn_name)
            self._patch_everywhere(modules, orig,
                                   self.wrap(f"specfun.{fn_name}", orig))
        for fn_name in SYMMETRY_FUNCTIONS:
            orig = getattr(symmetry, fn_name)
            self._patch_everywhere(modules, orig,
                                   self.wrap(f"symmetry.{fn_name}", orig))
        call = symmetry.SymmetrySolution.__call__
        self._patch(symmetry.SymmetrySolution, "__call__",
                    self.wrap("symmetry.SymmetrySolution.__call__", call))
        for fn_name in RICCATI_FUNCTIONS:
            orig = getattr(riccati, fn_name)
            self._patch_everywhere(modules, orig,
                                   self.wrap(f"riccati.{fn_name}", orig))
        init = riccati.DiffusionSpec.__init__
        self._patch(riccati.DiffusionSpec, "__init__",
                    self.wrap("riccati.DiffusionSpec", init))

        orig = verify.integrate_semi_infinite
        self._patch_everywhere(modules, orig,
                               self.wrap("verify.integrate_semi_infinite", orig))
        orig = verify.mc_expectation
        self._patch_everywhere(modules, orig,
                               self.wrap("verify.mc_expectation", orig,
                                         on_end=self._mc_steps(verify)))
        for suite, fn in list(verify.SUITES.items()):
            wrapper = self.wrap(f"verify.suite.{suite}", fn)
            self._patch_everywhere((verify,), fn, wrapper)
            self._patches.append((verify.SUITES, suite, fn, wrapper))

        orig = catalog._quadrature_expectation
        self._patch(catalog, "_quadrature_expectation",
                    self.wrap("catalog.expectation_quadrature", orig))
        orig = catalog.make_entry
        self._patch_everywhere(modules, orig,
                               self._traced_make_entry(catalog, orig))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))
        self._patch(scipy.integrate, "quad", self._traced_quad(scipy.integrate.quad))

    def install(self) -> None:
        if not self._patches:
            self.prepare()
        for owner, attr, _, wrapper in self._patches:
            _set(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            _set(owner, attr, original)

    # -- special wrappers --------------------------------------------------

    def _traced_make_entry(self, catalog, make_entry):
        timed = self.wrap("catalog.make_entry", make_entry)
        kernel_name = "catalog.kernel"
        closed_name, rhs_name = "catalog.expectation_closed", "catalog.transform_rhs"

        def traced_make_entry(*args, **kwargs):
            entry = timed(*args, **kwargs)
            start = time.perf_counter_ns()
            k = entry.kernel
            kernel = catalog.Kernel(
                continuous=self.wrap(kernel_name, k.continuous),
                log_continuous=(None if k.log_continuous is None
                                else self.wrap(kernel_name, k.log_continuous)),
                atoms=k.atoms)
            changes = {"kernel": kernel}
            if entry.expectation_closed is not None:
                changes["expectation_closed"] = self.wrap(
                    closed_name, entry.expectation_closed)
            if entry.transform_rhs is not None:
                changes["transform_rhs"] = self.wrap(rhs_name, entry.transform_rhs)
            traced = dataclasses.replace(entry, **changes)
            self.exclude(start)
            return traced

        return traced_make_entry

    def _traced_quad(self, quad):
        from scipy.integrate import IntegrationWarning

        def counting_quad(func, a, b, *args, **kwargs):
            # QUADPACK reports its evaluation count in the full output
            if kwargs.get("full_output"):
                res = quad(func, a, b, *args, **kwargs)
                self.quad_evals += res[2]["neval"]
                return res
            res = quad(func, a, b, *args, full_output=1, **kwargs)
            self.quad_evals += res[2]["neval"]
            if len(res) > 3:
                warnings.warn(res[3], IntegrationWarning, stacklevel=2)
            return res[0], res[1]

        return self.wrap("quad", counting_quad)

    def _mc_steps(self, verify):
        def on_end(args, kwargs, dur):
            entry = args[0] if args else kwargs["entry"]
            spec = kwargs.get("spec", args[4] if len(args) > 4 else verify.McSpec())
            exact = kwargs.get("exact", args[6] if len(args) > 6 else None)
            if exact is None:
                exact = entry.name == "besq" and entry.potential.form == "zero"
            if not exact:
                self.mc_path_steps += spec.n_paths * spec.n_steps
                self.mc_euler_ns += dur
        return on_end

    # -- output ------------------------------------------------------------

    def totals(self, prefix: str):
        """(calls, total_ns, self_ns, raised) summed over names with prefix."""
        out = [0, 0, 0, 0]
        for nid, name in enumerate(self.names):
            if name == prefix or name.startswith(prefix + "."):
                out[0] += self.calls[nid]
                out[1] += self.total_ns[nid]
                out[2] += self.self_ns[nid]
                out[3] += self.raised[nid]
        return tuple(out)

    def write_spans(self, path, meta: dict) -> None:
        """One JSON header line, then one JSON array per stored span, in span
        order (fields as named in the header)."""
        rec = self._spans
        rows = sorted(tuple(rec[i:i + 6]) for i in range(0, len(rec), 6))
        with open(path, "w") as fh:
            json.dump({**meta, "fields": _SPAN_FIELDS, "names": self.names,
                       "spans_total": self.n_spans, "spans_stored": len(rows),
                       "span_cap": SPAN_CAP}, fh)
            fh.write("\n")
            for row in rows:
                fh.write(json.dumps(row) + "\n")


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


LAYER_SPECFUN = ("log_bessel_i", "bessel_i", "bessel_k", "hypergeom_1f1",
                 "tricomi_u", "whittaker_m", "whittaker_w",
                 "laplace_bessel_moment", "gamma_ln")
# the verify workload's suites (transform is left out of it; see workloads.py)
SUITE_NAMES = ("altrep", "chapman", "closed_form", "hartman", "laplace", "limits",
               "mass", "mc", "pde", "riccati", "whittaker")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass. Counts are totals over the
    pass; times are per call unless the name says otherwise. A layer the
    workload never reaches reads 0."""
    out = {}

    def per_call(ns, calls, unit_ns):
        return ns / calls / unit_ns if calls else 0.0

    def calls_self_us(prefix):
        calls, _, self_ns, _ = tr.totals(prefix)
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.self_us_per_call"] = per_call(self_ns, calls, 1e3)

    calls_self_us("cli.main")
    calls_self_us("catalog.make_entry")
    calls_self_us("catalog.kernel")
    calls_self_us("catalog.expectation_closed")
    calls, total, _, _ = tr.totals("catalog.expectation_quadrature")
    out["catalog.expectation_quadrature.calls"] = calls
    out["catalog.expectation_quadrature.us_per_call"] = per_call(total, calls, 1e3)
    calls_self_us("catalog.transform_rhs")

    calls, _, self_ns, _ = tr.totals("quad")
    out["quad.calls"] = calls
    out["quad.integrand_evals_per_call"] = tr.quad_evals / calls if calls else 0.0
    out["quad.self_ms"] = self_ns / 1e6

    calls, _, self_ns, raised = tr.totals("specfun")
    out["specfun.calls"] = calls
    out["specfun.self_us_per_call"] = per_call(self_ns, calls, 1e3)
    out["specfun.raised"] = raised
    for fn in LAYER_SPECFUN:
        calls_self_us(f"specfun.{fn}")

    calls_self_us("riccati.DiffusionSpec")
    calls, total, _, _ = tr.totals("riccati.fit_riccati")
    out["riccati.fit_riccati.calls"] = calls
    out["riccati.fit_riccati.ms_per_call"] = per_call(total, calls, 1e6)
    calls_self_us("riccati.riccati_residual")

    calls, _, self_ns, _ = tr.totals("symmetry")
    out["symmetry.calls"] = calls
    out["symmetry.self_ms"] = self_ns / 1e6
    out["symmetry.pde_residual.calls"] = tr.totals("symmetry.pde_residual")[0]

    for suite in SUITE_NAMES:
        calls, total, _, _ = tr.totals(f"verify.suite.{suite}")
        out[f"verify.suite.{suite}.ms"] = per_call(total, calls, 1e6)
    out["verify.mc_expectation.calls"] = tr.totals("verify.mc_expectation")[0]
    out["verify.mc_expectation.path_steps_per_s"] = (
        tr.mc_path_steps / (tr.mc_euler_ns / 1e9) if tr.mc_euler_ns else 0.0)
    calls, total, _, _ = tr.totals("verify.integrate_semi_infinite")
    out["verify.integrate_semi_infinite.calls"] = calls
    out["verify.integrate_semi_infinite.ms_per_call"] = per_call(total, calls, 1e6)
    return out
