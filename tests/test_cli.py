"""Command-line interface: subcommands, exit codes, output formats, and
determinism. Numeric expectations come from elementary closed forms, frozen
independently of the library."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import feynkac
from feynkac import catalog, cli, errors
from feynkac.cli import main


def run(*args, env=None, monkeypatch=None):
    buf = io.StringIO()
    code = main(list(args), out=buf)
    return code, buf.getvalue()


def run_python(*args, timeout=120):
    """Run a fresh interpreter that imports this checkout of feynkac."""
    src = os.path.dirname(os.path.dirname(feynkac.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_single_point():
    code, out = run("density", "--entry", "besq", "--n", "3",
                    "--t", "1", "--x", "1", "--y", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x,y,density,log_density"
    t, x, y, dens, logd = lines[1].split(",")
    ref = 0.5 * math.exp(-1.0) * math.sqrt(2.0 / math.pi) * math.sinh(1.0)
    assert float(dens) == pytest.approx(ref, rel=1e-12)
    assert float(logd) == pytest.approx(math.log(ref), rel=1e-12)


def test_density_grid_and_mass_check():
    code, out = run("density", "--entry", "besq", "--n", "3", "--t", "1",
                    "--x", "1", "--y-grid", "0.5:2:0.5", "--check-mass")
    assert code == 0
    lines = out.splitlines()
    # inclusive grid start:stop:step
    ys = [line.split(",")[2] for line in lines[1:5]]
    assert ys == ["0.5", "1", "1.5", "2"]
    assert "mass,expected,abs_err,status" in out
    assert out.rstrip().endswith("pass")


def test_generic_linear_mass_check_passes():
    # the kernel's Bessel factors reach I(870) inside the mass integral
    code, out = run("density", "--entry", "generic_linear", "--sigma", "0.8",
                    "--A", "1.5", "--B", "-0.2", "--t", "0.559", "--x", "2.541",
                    "--y", "1", "--check-mass")
    assert code == 0
    assert out.rstrip().endswith("pass")


def test_density_atoms_reported():
    code, out = run("density", "--entry", "rational_showcase", "--a", "1",
                    "--b", "1", "--t", "1", "--x", "1", "--y", "1")
    assert code == 0
    assert "atom_location,atom_order,atom_weight" in out
    atom_lines = out.split("atom_location,atom_order,atom_weight\n")[1]
    assert len(atom_lines.strip().splitlines()) == 2  # orders 0 and 1


def test_density_unknown_entry_is_usage_error():
    code, out = run("density", "--entry", "foo", "--t", "1", "--x", "1",
                    "--y", "1")
    assert code == 2
    assert out == ""


def test_density_bad_grid_is_usage_error():
    code, _ = run("density", "--entry", "besq", "--n", "3", "--t", "1",
                  "--x", "1", "--y-grid", "bad")
    assert code == 2


def test_density_unknown_parameter_is_usage_error():
    code, _ = run("density", "--entry", "besq", "--n", "3", "--zz", "1",
                  "--t", "1", "--x", "1", "--y", "1")
    assert code == 2


@pytest.mark.parametrize("t,x", [("0", "1"), ("1", "0")])
def test_density_outside_the_domain_is_usage_error(t, x):
    # a usage error, not a traceback with exit 1, the code of a failed
    # verification
    code, out = run("density", "--entry", "besq", "--n", "3", "--t", t,
                    "--x", x, "--y", "1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("grid", ["0:1:nan", "nan:1:0.5", "0:inf:1", "inf:inf:1"])
def test_non_finite_grid_is_usage_error(grid):
    code, out = run("density", "--entry", "besq", "--n", "3", "--t", "1",
                    "--x", "1", "--y-grid", grid)
    assert (code, out) == (2, "")
    code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "1",
                    "--x", "1", "--lambda-grid", grid)
    assert (code, out) == (2, "")


def test_density_mass_check_refuses_a_finite_part_kernel():
    # the mu_inv kernel is not integrable near y = 0: no mass to compare
    code, out = run("density", "--entry", "rational_drift", "--a", "1",
                    "--mu_inv", "0.6", "--t", "1", "--x", "1", "--y", "1",
                    "--check-mass")
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# expect
# ---------------------------------------------------------------------------

def test_expect_killed_squared_bessel_value():
    code, out = run("expect", "--entry", "besq", "--n", "2", "--b", "1",
                    "--t", "1", "--x", "1", "--lambda", "0")
    assert code == 0
    val = float(out.splitlines()[1].split(",")[-1])
    assert val == pytest.approx(math.exp(-0.5 * math.tanh(1.0)) / math.cosh(1.0),
                                rel=1e-12)


def test_expect_lambda_grid():
    code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "1",
                    "--x", "1", "--lambda-grid", "0:1:0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,t,x,expectation"
    vals = [float(line.split(",")[-1]) for line in lines[1:]]
    assert len(vals) == 3
    assert vals[0] == pytest.approx(1.0, rel=1e-10)
    assert vals[0] > vals[1] > vals[2]


def test_expect_mu_grid():
    code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "1",
                    "--x", "1", "--lambda", "0.3", "--mu-grid", "0:1:0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,lambda,t,x,expectation"
    vals = [float(line.split(",")[-1]) for line in lines[1:]]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_expect_mu_grid_takes_the_method(monkeypatch):
    # --method quadrature on an entry with a closed form integrates at every
    # grid point; an entry parameter naming the functional parameter is fine
    calls = []
    quad = catalog._quadrature_expectation

    def record(*args):
        calls.append(args)
        return quad(*args)

    monkeypatch.setattr(catalog, "_quadrature_expectation", record)
    args = ("expect", "--entry", "cir", "--a", "1", "--b", "1", "--sigma", "1",
            "--t", "1", "--x", "1", "--lambda", "0.5", "--mu-grid", "0:1:0.5")
    code, closed = run(*args)
    assert code == 0 and not calls
    code, quadrature = run(*args, "--method", "quadrature")
    assert code == 0 and len(calls) == 3
    for c, q in zip(closed.splitlines()[1:], quadrature.splitlines()[1:]):
        assert float(q.split(",")[-1]) == pytest.approx(float(c.split(",")[-1]), rel=1e-8)
    code, out = run("expect", "--entry", "besq", "--n", "2.5", "--nu", "0.4", "--t", "1",
                    "--x", "1", "--lambda", "0.5", "--mu-grid", "0:1:0.5")
    assert code == 0 and len(out.splitlines()) == 4


def test_expect_json_format():
    code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "1",
                    "--x", "1", "--lambda", "0.3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["entry"] == "besq"
    assert obj["params"] == {"n": 3.0}
    (row,) = obj["rows"]
    assert row["expectation"] == pytest.approx(0.4096281656329643, rel=1e-12)


def test_expect_numerical_failure_exit_code():
    # the alternating series (or its moments) blow past double precision for
    # large b: a numerical error, not a usage error
    code, _ = run("expect", "--entry", "sqrt_drift", "--a", "0.8", "--b", "25",
                  "--A", "1.2", "--B", "0.9", "--t", "1", "--x", "1",
                  "--lambda", "0.5", "--method", "closed")
    assert code == 3


def test_expect_cir_with_linear_killing_matches_quadrature():
    # the closed form covers the linear killing mu_lin*x too
    args = ("expect", "--entry", "cir", "--a", "1", "--b", "1", "--sigma", "1",
            "--mu_lin", "0.3", "--t", "1", "--x", "1", "--lambda", "0.5")
    code, out = run(*args)
    assert code == 0
    code_q, out_q = run(*args, "--method", "quadrature")
    assert code_q == 0
    value = float(out.splitlines()[1].split(",")[-1])
    assert value == pytest.approx(float(out_q.splitlines()[1].split(",")[-1]), rel=1e-8)


def test_expect_passes_mu_parameter():
    # --mu is an entry parameter, not an abbreviation of --mu-grid
    code, out = run("expect", "--entry", "cir", "--a", "1", "--b", "1",
                    "--sigma", "1", "--mu", "0.5", "--t", "1", "--x", "1",
                    "--lambda", "1")
    assert code == 0
    ref = catalog.expectation("cir", {"a": 1.0, "b": 1.0, "sigma": 1.0,
                                      "mu": 0.5}, 1.0, 1.0, 1.0)
    assert out.splitlines()[1] == f"1,1,1,{ref:.15g}"


def test_expect_closed_form_overflow_is_numerical_error():
    # x^2 overflows in the radial_ou closed form (state power 2) at
    # x = 1e160: exit 3, no traceback
    code, out = run("expect", "--entry", "radial_ou", "--a", "1.5", "--b", "0.6",
                    "--t", "1", "--x", "1e160", "--lambda", "0.5")
    assert code == 3
    assert out == ""


def test_expect_closed_form_where_e_minus_2t_underflows():
    # tanh_drift at t = 400, lambda = 0: the mass, 1
    code, out = run("expect", "--entry", "tanh_drift", "--t", "400",
                    "--x", "1", "--lambda", "0")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[-1]) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("entry", [
    ("besq", "--n", "2.5", "--nu", "0.4", "--x", "1e200"),
    ("cir", "--a", "0.9", "--b", "1.4", "--sigma", "0.6", "--mu", "0.5", "--x", "1e200"),
    ("sqrt_drift", "--a", "1.5", "--b", "0.8", "--A", "1.2", "--B", "0.6", "--x", "1e200"),
    ("rational_showcase", "--a", "1", "--b", "1", "--x", "1e200"),
    ("bessel", "--a", "0.8", "--mu", "0.6", "--t", "2.56e294", "--x", "8.86e-296"),
    ("sqrt_drift", "--a", "1.5", "--b", "0.8", "--A", "1.2", "--B", "0.6",
     "--t", "2.56e294", "--x", "8.86e-296")], ids=lambda e: e[0])
def test_expect_returns_where_1f1_took_a_huge_argument(entry):
    # the moments' 1F1 at z of -1e200 (scipy: NaN or 0; Kummer's transform
    # then ran without end, killed after 15 s): a value (exit 0) or exit 3
    name, *params = entry
    t = () if "--t" in params else ("--t", "1")
    proc = run_python("-m", "feynkac", "expect", "--entry", name, *params, *t,
                      "--lambda", "0", timeout=15)
    assert proc.returncode in (0, 3), proc.stderr


def test_expect_where_the_1f1_argument_overflows_prints_the_value():
    # the moments' 1F1 argument (K sx)^2/s = e^714 overflows at t = 1e-300,
    # x = 1e10: it exited 2 ("non-finite argument -inf"); the value is
    # e^(-5e9) = 0
    code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "1e-300",
                    "--x", "1e10", "--lambda", "0.5")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[-1]) == 0.0


def test_expect_sqrt_drift_terms_that_overflow_exit_3_with_their_own_message():
    # at x = 1e200 the series' terms pass e^709 units: it printed "gave nan
    # at lam=0.0"; a RuntimeWarning on the way would end the run (-W error)
    proc = run_python("-W", "error", "-m", "feynkac", "expect", "--entry", "sqrt_drift",
                      "--a", "1.5", "--b", "0.8", "--A", "1.2", "--B", "0.6", "--t", "1",
                      "--x", "1e200", "--lambda", "0", timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "sqrt_drift expectation: a term overflows" in proc.stderr


def test_expect_closed_form_where_x_squared_underflows():
    # X = x^2 underflows to 0 at x = 1e-300: the mass, 1, not a traceback
    code, out = run("expect", "--entry", "radial_ou", "--a", "1.5", "--b", "0.6",
                    "--t", "1", "--x", "1e-300", "--lambda", "0")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[-1]) == pytest.approx(1.0, rel=1e-13)


def test_state_whose_square_overflows_is_numerical_error():
    # x = 1e160 at state power 2: x^2 and the kernel's Bessel argument
    # overflow; exit 3 (it was exit 2, "non-finite argument")
    common = ("--entry", "radial_ou", "--a", "1.5", "--b", "0.6", "--t", "1", "--x", "1e160")
    for args in (("expect", *common, "--lambda", "0"), ("density", *common, "--y", "1e160")):
        code, out = run(*args)
        assert code == 3
        assert out == ""


def test_density_where_the_bessel_argument_underflows():
    # a negative-index kernel exited 2 ("I_nu(0) undefined for nu < 0") where
    # its Bessel argument underflowed; mpmath's log density is -401.99538249160414
    code, out = run("density", "--entry", "radial_ou", "--a", "0.9", "--b", "-0.5",
                    "--t", "1e-6", "--x", "1e-200", "--y", "1e-200")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[-1]) == pytest.approx(-401.99538249160414,
                                                                      rel=1e-14)


@pytest.mark.parametrize("args", [("radial_ou", "--a", "1.5", "--b", "0.6", "--t", "100",
                                   "--x", "1", "--y", "1e10"),
                                  ("cir", "--a", "1.1", "--b", "0.8", "--sigma", "0.6",
                                   "--t", "100", "--x", "1e12", "--y", "1")])
def test_density_where_the_h_ratio_and_the_core_cancel_is_numerical_error(args):
    # the first printed a log density of 0.0 (mpmath: -116.47477059351497)
    code, out = run("density", "--entry", *args)
    assert (code, out) == (3, "")


def test_expect_quadrature_non_finite_is_numerical_error():
    # E_x[exp(X_t/2)] diverges for the squared Bessel process at t = 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "1",
                        "--x", "1", "--lambda", "-0.5", "--method", "quadrature")
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_expect_nan_lambda_is_usage_error(method):
    code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "1",
                    "--x", "1", "--lambda", "nan", "--method", method)
    assert (code, out) == (2, "")


def test_expect_quadrature_where_the_bulk_over_its_width_underflows():
    # log(x/s) of the quadrature's bulk x over its width s raised a raw
    # ValueError (a traceback, exit 1)
    code, out = run("expect", "--entry", "radial_ou", "--a", "0.9", "--b", "-0.5",
                    "--t", "1e300", "--x", "1e-300", "--lambda", "0.5",
                    "--method", "quadrature")
    assert (code, out) == (3, "")


def test_expect_quadrature_of_a_narrow_kernel():
    # no killing and lambda = 0: the mass, 1, of a peak of width 6 at y = 1000
    code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "0.01",
                    "--x", "1000", "--lambda", "0", "--method", "quadrature")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[-1]) == pytest.approx(1.0, abs=1e-10)


def test_density_grid_is_one_array_call(monkeypatch):
    calls = []
    entry = catalog.make_entry("cir", a=1.1, b=0.8, sigma=0.6)
    log_k = entry.kernel.log_continuous

    def counted(t, x, y):
        calls.append(type(y))
        return log_k(t, x, y)
    traced = dataclasses.replace(entry, kernel=dataclasses.replace(
        entry.kernel, log_continuous=counted))
    monkeypatch.setattr(catalog, "make_entry", lambda name, **params: traced)
    code, out = run("density", "--entry", "cir", "--a", "1.1", "--b", "0.8",
                    "--sigma", "0.6", "--t", "0.7", "--x", "1.3", "--y-grid", "0:4:0.25")
    monkeypatch.undo()
    assert code == 0 and calls == [np.ndarray]
    rows = [line.split(",") for line in out.split("\n\n")[0].splitlines()[1:]]
    assert len(rows) == 16  # y = 0 is the atoms' row block
    for _, _, y, dens, log_dens in rows:
        want = catalog.density(entry, None, 0.7, 1.3, float(y))
        assert float(dens) == pytest.approx(want, rel=1e-14)
        assert float(log_dens) == pytest.approx(math.log(want), rel=1e-14, abs=1e-14)


def test_lambda_grid_is_one_closed_form_call(monkeypatch):
    calls = []
    entry = catalog.make_entry("sqrt_drift", a=1.5, b=0.8, A=1.2, B=0.6)
    closed = entry.expectation_closed

    def counted(lam, t, x):
        calls.append(type(lam))
        return closed(lam, t, x)
    traced = dataclasses.replace(entry, expectation_closed=counted)
    monkeypatch.setattr(catalog, "make_entry", lambda name, **params: traced)
    code, out = run("expect", "--entry", "sqrt_drift", "--a", "1.5", "--b", "0.8",
                    "--A", "1.2", "--B", "0.6", "--t", "0.7", "--x", "1.3",
                    "--lambda-grid", "0:3:0.25")
    monkeypatch.undo()
    assert code == 0 and calls == [np.ndarray]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 13
    for lam, _, _, value in rows:
        want = catalog.expectation(entry, None, float(lam), 0.7, 1.3)
        assert float(value) == pytest.approx(want, rel=1e-14)


def test_negative_lambda_in_a_grid_is_a_usage_error():
    code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "1", "--x", "1",
                    "--lambda-grid", "-1:1:0.5", "--method", "closed")
    assert (code, out) == (2, "")


def test_expect_numerical_failure_exit_code_on_a_grid():
    # the b = 25 input of test_expect_numerical_failure_exit_code, in a grid
    code, out = run("expect", "--entry", "sqrt_drift", "--a", "0.8", "--b", "25",
                    "--A", "1.2", "--B", "0.9", "--t", "1", "--x", "1",
                    "--lambda-grid", "0:1:0.25", "--method", "closed")
    assert (code, out) == (3, "")


_ERRORS = [c for c in vars(errors).values()
           if isinstance(c, type) and issubclass(c, errors.FeynkacError)
           and c is not errors.FeynkacError]


@pytest.mark.parametrize("error", _ERRORS, ids=lambda c: c.__name__)
def test_each_error_class_maps_to_its_exit_code(error, monkeypatch, capsys):
    # usage and validity errors exit 2, every other FeynkacError exits 3
    def fail(name, **params):
        raise error("boom")
    monkeypatch.setattr(catalog, "make_entry", fail)
    code, out = run("density", "--entry", "besq", "--n", "3",
                    "--t", "1", "--x", "1", "--y", "1")
    usage = error in (errors.ValidityError, errors.DomainError, errors.CapabilityError)
    assert (code, out) == ((2, "") if usage else (3, ""))
    assert capsys.readouterr().err == ("feynkac: boom\n" if usage
                                       else "feynkac: numerical error: boom\n")


def test_expect_capability_gap_is_usage_error():
    code, _ = run("expect", "--entry", "rational_drift", "--a", "1",
                  "--mu_inv", "0.6", "--t", "1", "--x", "1", "--lambda", "1")
    assert code == 2


def test_expect_quadrature_on_finite_part_kernel_is_usage_error():
    # the mu_inv/x kernel is not integrable near y = 0
    code, out = run("expect", "--entry", "rational_drift", "--a", "1",
                    "--mu_inv", "0.6", "--t", "1", "--x", "1", "--lambda", "0",
                    "--method", "quadrature")
    assert code == 2
    assert out == ""


def test_expect_quadrature_with_negative_lambda():
    # E_1[exp(0.4 X_1)] = (1 - 0.8)^(-3/2) exp(0.4/(1 - 0.8)) for n = 3
    code, out = run("expect", "--entry", "besq", "--n", "3", "--t", "1",
                    "--x", "1", "--lambda", "-0.4", "--method", "quadrature")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,t,x,expectation"
    assert float(lines[1].split(",")[3]) == pytest.approx(0.2 ** -1.5 * math.exp(2.0),
                                                          rel=1e-9)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_suite_passes():
    code, out = run("verify", "--suite", "hartman")
    assert code == 0
    assert "status=pass" in out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].startswith("identity,grid_point,")


def test_verify_failing_tolerance_exit_code():
    code, out = run("verify", "--suite", "hartman", "--tol", "1e-30")
    assert code == 1
    assert "status=fail" in out


def test_verify_tolerance_from_environment(monkeypatch):
    monkeypatch.setenv("FEYNKAC_TOL", "1e-30")
    code, _ = run("verify", "--suite", "hartman")
    assert code == 1


def test_verify_tolerance_from_environment_read_at_call_time(monkeypatch):
    # the option tables are built once per process; FEYNKAC_TOL set after the first
    # main() call must still be honoured
    assert run("verify", "--suite", "hartman")[0] == 0
    monkeypatch.setenv("FEYNKAC_TOL", "1e-30")
    assert run("verify", "--suite", "hartman")[0] == 1


def test_verify_tolerance_from_environment_must_be_a_number(monkeypatch):
    monkeypatch.setenv("FEYNKAC_TOL", "tight")
    assert run("verify", "--suite", "hartman")[0] == 2


def test_verify_unknown_suite_is_usage_error():
    code, _ = run("verify", "--suite", "nosuch")
    assert code == 2


def test_verify_entry_filter_that_names_no_entry_is_usage_error():
    # it printed checks=0 ... status=pass and exited 0
    code, out = run("verify", "--suite", "hartman", "--entry", "nosuch")
    assert (code, out) == (2, "")


def test_verify_entry_filter():
    code, out = run("verify", "--suite", "mass", "--entry", "besq")
    assert code == 0
    rows = [l for l in out.splitlines()
            if l and not l.startswith(("#", "identity"))]
    assert rows
    assert all("besq" in r for r in rows)


def test_verify_monte_carlo_defaults_are_the_suite_settings():
    # a flag left out takes the mc suite's own value, so naming the default
    # seed, or the default path count, changes nothing
    suite = run("verify", "--suite", "mc")
    assert suite[0] == 0
    assert run("verify", "--suite", "mc", "--seed", "20260826") == suite
    assert run("verify", "--suite", "mc", "--paths", "500") == \
        run("verify", "--suite", "mc", "--paths", "500", "--steps", "300")


@pytest.mark.parametrize("flags", [("--paths", "-5"), ("--paths", "1"),
                                   ("--steps", "-1"), ("--steps", "0"),
                                   ("--paths", "0", "--steps", "0")])
def test_verify_unusable_monte_carlo_sizes_are_usage_errors(flags):
    # one path has no standard error; zero is refused, not read as the default
    code, out = run("verify", "--suite", "mc", *flags)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("flags", [("--seed", "-1"), ("--tol", "nan"),
                                   ("--tol", "inf"), ("--tol", "-1e-8")])
def test_verify_unusable_seed_or_tolerance_is_usage_error(flags):
    # numpy seeds are nonnegative; no error is within a NaN tolerance
    code, out = run("verify", "--suite", "hartman", *flags)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_unusable_feynkac_tol_is_usage_error(monkeypatch, value):
    monkeypatch.setenv("FEYNKAC_TOL", value)
    assert run("verify", "--suite", "hartman") == (2, "")


def test_verify_json_format():
    code, out = run("verify", "--suite", "hartman", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "hartman"
    assert all(r["passed"] for r in obj["rows"])


_DENSITY = ["density", "--entry", "besq", "--n", "3", "--t", "1", "--x", "1",
            "--y", "1"]
_EXPECT_CLOSED = ["expect", "--entry", "cir", "--a", "1.1", "--b", "0.8",
                  "--sigma", "0.6", "--t", "1", "--x", "1",
                  "--lambda-grid", "0.5:2:0.5"]
_EXPECT_QUADRATURE = _EXPECT_CLOSED + ["--method", "quadrature"]
_VERIFY_MASS = ["verify", "--suite", "mass"]


# ---------------------------------------------------------------------------
# argument scanner
# ---------------------------------------------------------------------------

_CIR = ["--entry", "cir", "--a", "1.1", "--b", "0.8", "--sigma", "0.6"]
_CIR_LAMBDA = ["expect", *_CIR, "--t", "1", "--x", "1", "--lambda"]

# usage errors: each exits 2 with one line on stderr and nothing on stdout
_USAGE_ERRORS = {
    "no arguments": [],
    "unknown subcommand": ["nosuch", "--suite", "mass"],
    "missing --entry": ["density", "--n", "3", "--t", "1", "--x", "1", "--y", "1"],
    "missing --t": ["density", "--entry", "besq", "--n", "3", "--x", "1", "--y", "1"],
    "missing --x": ["expect", "--entry", "besq", "--n", "3", "--t", "1", "--lambda", "1"],
    "missing --suite": ["verify", "--format", "json"],
    "bad --format": ["verify", "--suite", "hartman", "--format", "xml"],
    "bad --method": _CIR_LAMBDA + ["1", "--method", "fast"],
    "bad --suite": ["verify", "--suite", "nosuch"],
    "--t not a number": ["expect", *_CIR, "--t", "one", "--x", "1", "--lambda", "1"],
    "--paths not an integer": ["verify", "--suite", "mc", "--paths", "2.5"],
    "--seed not an integer": ["verify", "--suite", "mc", "--seed", "x"],
    "no value at the end": _CIR_LAMBDA,
    "no entry parameter value at the end": _CIR_LAMBDA + ["1", "--a"],
    "stray positional": _CIR_LAMBDA + ["1", "stray"],
    "entry parameter to verify": ["verify", "--suite", "hartman", "--a", "1"],
    "a missing entry parameter": ["density", "--entry", "cir", "--a", "1", "--t", "1",
                                  "--x", "1", "--y", "1"],
    "--manifest after a subcommand": ["density", "--manifest"],
    "--manifest after a whole density call": _DENSITY + ["--manifest"],
    "an argument to --manifest": ["--manifest", "--x", "1"],
    "a value to a flag": _DENSITY + ["--check-mass=yes"],
    "an entry parameter that is not a number": _CIR_LAMBDA + ["1", "--a=one"],
    "--lambda-grid with --mu-grid": ["expect", *_CIR, "--t", "1", "--x", "1",
                                     "--lambda-grid", "0:1:0.5", "--mu-grid", "0:1:0.5"],
    "--method closed on a --mu-grid without a closed form": [
        "expect", "--entry", "bessel_drift", "--a", "0.5", "--b", "1.3", "--t", "1",
        "--x", "1", "--lambda", "0.5", "--mu-grid", "0:1:0.5", "--method", "closed"],
}


@pytest.mark.parametrize("args", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS.keys())
def test_usage_error_exits_2_with_one_line(args, capsys):
    assert run(*args) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("feynkac: ") and err.count("\n") == 1, err


# stdout recorded from the earlier argparse front end, which the scanner must match
_CIR_CSV = "lambda,t,x,expectation\n0.5,1,1,0.588384910221967\n"
_BESQ_CSV = ("t,x,y,density,log_density\n1,1,1,0.172475656944122,-1.75749917163348\n"
             "\natom_location,atom_order,atom_weight\n")


@pytest.mark.parametrize("args,want", [
    (_CIR_LAMBDA[:-5] + ["--t=1", "--x=1", "--lambda=0.5"], _CIR_CSV),
    # the last of a repeated option or entry parameter wins
    (["expect", "--entry", "cir", "--a", "2", "--b", "0.8", "--sigma", "0.6", "--t", "5",
      "--x", "1", "--lambda", "0.5", "--a", "1.1", "--t", "1"], _CIR_CSV),
    (_DENSITY + ["--format=json", "--format=csv"], _BESQ_CSV),
    # entry parameters as --name=value give the bytes of --name value
    (["expect", "--entry=cir", "--a=1.1", "--b=0.8", "--sigma=0.6", "--t=1", "--x=1",
      "--lambda=0.5", "--method=auto"], _CIR_CSV),
])
def test_name_equals_value_and_repeated_options(args, want):
    assert run(*args) == (0, want)


def test_a_missing_entry_parameter_is_named(capsys):
    assert run(*_USAGE_ERRORS["a missing entry parameter"]) == (2, "")
    assert capsys.readouterr().err == ("feynkac: make_entry: cir needs parameters "
                                       "['b', 'sigma'] (takes ['a', 'b', 'sigma', "
                                       "'mu', 'mu_lin'])\n")


def test_generic_linear_index_past_1_exits_2(capsys):
    params = {"sigma": 9.991775177046996e-148, "A": 1.1569726915264474e252,
              "B": 3.048851905278742e-291, "mu": 4.260403382412975e-45,
              "c1": 9.295883837466685e-40}
    args = [a for k, val in params.items() for a in (f"--{k}", repr(val))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("density", "--entry", "generic_linear", *args,
                   "--t", "1", "--x", "1", "--y", "1")
    assert code == (2, "")
    assert capsys.readouterr().err == (
        "feynkac: generic_linear: requires index < 1 (got 4.12985e+51); the inverse "
        "transform is otherwise distribution-valued\n")


def test_mc_paths_that_cannot_be_allocated_exit_2(capsys):
    # 10^15 paths are 8 PB per array: the allocation fails without touching memory
    assert run("verify", "--suite", "mc", "--paths", str(10 ** 15)) == (2, "")
    assert capsys.readouterr().err == ("feynkac: mc_expectations: cannot allocate "
                                       "arrays of 1000000000000000 paths\n")


def test_the_token_after_an_option_is_its_value(capsys):
    # --x -1 is the value -1, which the domain check refuses
    assert run(*_CIR_LAMBDA[:-3], "--x", "-1", "--lambda", "0.5") == (2, "")
    assert capsys.readouterr().err == "feynkac: expectation: requires t > 0, x > 0\n"
    assert run("density", "--entry", "--help", "--t", "1", "--x", "1", "--y", "1") == (2, "")
    assert capsys.readouterr().err.startswith("feynkac: unknown entry '--help'")


@pytest.mark.parametrize("args", [["--help"], ["-h"], ["density", "--help"],
                                  ["expect", "--entry", "cir", "-h"], ["verify", "--help"],
                                  ["--manifest", "--help"]], ids=" ".join)
def test_help_names_every_option(args, capsys):
    code, out = run(*args)
    assert code == 0 and capsys.readouterr().err == ""
    assert out.startswith("usage: feynkac ")
    commands = cli._COMMANDS if args[0] in ("-h", "--help") else [args[0]]
    for command in commands:
        assert f"\n{command}: " in out
        for name in cli._COMMANDS[command][2]:
            assert f"\n  --{name} " in out


def test_no_option_shares_its_name_with_an_entry_parameter():
    # the scanner reads a name in the table as the option, never as a parameter
    options = {name for _, _, table in cli._COMMANDS.values() for name in table}
    assert not options & {p for ps in catalog.ENTRY_PARAMETERS.values() for p in ps}


@pytest.mark.parametrize("grid", ["0:1e300:1e-300", "0:1e9:1e-3", "0:1e6:1",
                                  "-1e308:1e308:1"])
def test_grid_with_too_many_points_is_usage_error(grid, capsys):
    # the first raised OverflowError, the second would build 10^12 floats
    for args in (_CIR_LAMBDA[:-1] + ["--lambda-grid", grid],
                 _DENSITY[:-2] + ["--y-grid", grid]):
        assert run(*args) == (2, "")
        assert capsys.readouterr().err == (f"feynkac: grid {grid!r}: more than "
                                           f"{cli.MAX_GRID_POINTS} points\n")


def test_grid_of_max_points():
    grid = cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")
    assert len(grid) == cli.MAX_GRID_POINTS and grid[-1] == cli.MAX_GRID_POINTS - 1


class _CountedWrites(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("args", [_CIR_LAMBDA + ["0.5", "--format", "json"],
                                  _DENSITY + ["--format", "json", "--check-mass"],
                                  ["--manifest"],
                                  ["verify", "--suite", "hartman", "--format", "json"]])
def test_a_json_document_is_one_write(args):
    buf = _CountedWrites()
    assert main(args, out=buf) == 0
    assert buf.writes == 1
    json.loads(buf.getvalue())


_JSON_ROUTES = {
    "density with a log form": _DENSITY[:-2] + ["--y-grid", "0.5:3:0.5"],
    "density without a log form": ["density", "--entry", "generic_linear", "--sigma", "1",
                                   "--A", "1", "--B", "-0.3", "--t", "0.7", "--x", "1.2",
                                   "--y-grid", "0.25:2:0.25"],
    "density with atoms and a mass check": ["density", "--entry", "tanh_drift",
                                            "--t", "0.7", "--x", "1.2", "--y-grid",
                                            "0.5:2:0.5", "--check-mass"],
    "density with two atoms": ["density", "--entry", "rational_showcase", "--a", "1",
                               "--b", "1", "--t", "1", "--x", "1", "--y", "1"],
    "expect on a lambda grid": _EXPECT_CLOSED,
    "expect on a mu grid": _CIR_LAMBDA + ["0.5", "--mu-grid", "0:1:0.25"],
    "verify": ["verify", "--suite", "hartman"],
    "manifest": ["--manifest"],
}


@pytest.mark.parametrize("args", _JSON_ROUTES.values(), ids=_JSON_ROUTES.keys())
def test_json_output_is_json_dumps_with_indent_2(args):
    if args[0] != "--manifest":
        args = args + ["--format", "json"]
    code, out = run(*args)
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_manifest_flag():
    code, out = run("--manifest")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 2
    assert len(obj["entries"]) == 11
    assert set(obj["entries"][0]) == {"name", "parameters", "required", "defaults", "validity"}


def test_output_is_byte_identical_across_invocations():
    args = ("density", "--entry", "cir", "--a", "1.1", "--b", "0.8",
            "--sigma", "0.6", "--t", "0.7", "--x", "1.2",
            "--y-grid", "0.2:3:0.2", "--check-mass")
    out1 = run(*args)
    out2 = run(*args)
    assert out1 == out2
    assert out1[0] == 0


def test_reused_parser_gives_the_same_output():
    density = ("density", "--entry", "besq", "--n", "3", "--t", "1",
               "--x", "1", "--y-grid", "0.5:2:0.5")
    check = ("verify", "--suite", "hartman", "--format", "json")
    first = [run(*density), run(*check)]
    for _ in range(2):
        assert [run(*density), run(*check)] == first
    assert [code for code, _ in first] == [0, 0]


def test_no_arguments_is_usage_error():
    assert run()[0] == 2


_IMPORT_BUDGET_SCRIPT = """
import io, json, sys
import feynkac, feynkac.cli as cli

def run(args):
    buf = io.StringIO()
    return [cli.main(args, out=buf), buf.getvalue()]

density, closed, quadrature, mass = json.loads(sys.argv[1])
results = [run(density), run(closed)]
loaded = [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]
results += [run(quadrature), run(mass)]
print(json.dumps({"loaded": loaded, "results": results}))
"""


def test_closed_form_routes_do_not_load_quadrature():
    # a fresh interpreter, so that what the test session imported does not
    # mask what feynkac itself loads
    cases = [_DENSITY, _EXPECT_CLOSED, _EXPECT_QUADRATURE, _VERIFY_MASS]
    proc = run_python("-c", _IMPORT_BUDGET_SCRIPT, json.dumps(cases))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == []
    # each route prints in a fresh interpreter what it prints here
    assert [tuple(r) for r in got["results"]] == [run(*c) for c in cases]
    assert [code for code, _ in got["results"]] == [0, 0, 0, 0]


_MASS_CHECK_SCRIPT = """
import io, json, sys
import feynkac.cli as cli

codes = [cli.main(args, out=io.StringIO()) for args in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "integrate": "scipy.integrate" in sys.modules}))
"""


def test_mass_checks_do_not_load_scipy_integrate():
    # verify's reference quadrature is its own Gauss-Kronrod rule: importing
    # scipy.integrate took 0.3 s and about 20 MB
    proc = run_python("-c", _MASS_CHECK_SCRIPT,
                      json.dumps([_VERIFY_MASS, _DENSITY + ["--check-mass"]]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "integrate": False}


@pytest.mark.parametrize("args", [_DENSITY, ["density", "--entry", "foo"]])
def test_python_dash_m_matches_main(args):
    proc = run_python("-m", "feynkac", *args)
    assert (proc.returncode, proc.stdout) == run(*args)
