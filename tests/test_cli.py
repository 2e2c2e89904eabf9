"""Command-line interface: subcommands, exit codes, output formats, and
determinism. Numeric expectations come from elementary closed forms, frozen
independently of the library."""

import io
import json
import math

import pytest

from feynkac import catalog
from feynkac.cli import main


def run(*args, env=None, monkeypatch=None):
    buf = io.StringIO()
    code = main(list(args), out=buf)
    return code, buf.getvalue()


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
    # the tanh_drift closed form overflows in math.cosh: exit 3, no traceback
    code, out = run("expect", "--entry", "tanh_drift", "--t", "1e-4",
                    "--x", "1000", "--lambda", "1")
    assert code == 3
    assert out == ""


def test_expect_capability_gap_is_usage_error():
    code, _ = run("expect", "--entry", "rational_drift", "--a", "1",
                  "--mu_inv", "0.6", "--t", "1", "--x", "1", "--lambda", "1")
    assert code == 2


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
    # the parser is built once per process; FEYNKAC_TOL set after the first
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


def test_verify_entry_filter():
    code, out = run("verify", "--suite", "mass", "--entry", "besq")
    assert code == 0
    rows = [l for l in out.splitlines()
            if l and not l.startswith(("#", "identity"))]
    assert rows
    assert all("besq" in r for r in rows)


def test_verify_json_format():
    code, out = run("verify", "--suite", "hartman", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "hartman"
    assert all(r["passed"] for r in obj["rows"])


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_manifest_flag():
    code, out = run("--manifest")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert len(obj["entries"]) == 11


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
