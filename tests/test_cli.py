"""Command-line interface: subcommands, exit codes, file outputs."""

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlcones import example_system, load_system, phi, system_to_json, tau_hat
from pwlcones.cli import main

PI = math.pi

EX1_ARGS = [
    "synthesize",
    "--gamma", "1", "--k", "1", "--c", "10",
    "--tau-minus", "0.7853981634", "--tau-plus", "3.9269908170",
]


def _write_ex1(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(example_system(1))))
    return path


def test_phi_subcommand(capsys):
    assert main(["phi", "--gamma", "0", "--tau", str(PI)]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(2.0, abs=1e-14)
    assert float(out) == phi(0.0, PI)


def test_tau_hat_subcommand(capsys):
    assert main(["tau-hat", "--gamma", "0"]) == 0
    assert float(capsys.readouterr().out.strip()) == 2 * PI
    assert main(["tau-hat", "--gamma", "1.5"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == tau_hat(1.5).tau
    assert PI < val < 2 * PI


def test_synthesize_subcommand(tmp_path, capsys):
    out_path = tmp_path / "system.json"
    assert main(EX1_ARGS + ["--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert "lam=-10.33" in stdout.replace(" ", "").replace("lam=", "lam=") or "-10.33" in stdout
    system = load_system(out_path)
    assert system.minus.eigen.lam == pytest.approx(-10.3322, abs=1e-3)
    assert system.plus.eigen.beta == pytest.approx(0.2209, abs=1e-3)


def test_synthesize_rejects_bad_angles(capsys):
    code = main(
        [
            "synthesize",
            "--gamma", "1", "--k", "1", "--c", "10",
            "--tau-minus", str(PI), "--tau-plus", "3.9269908170",
        ]
    )
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_synthesize_rejects_zero_offset(capsys):
    code = main(
        [
            "synthesize",
            "--gamma", "1", "--k", "1", "--c", "0",
            "--tau-minus", "0.7853981634", "--tau-plus", "3.9269908170",
        ]
    )
    assert code == 4


def test_synthesize_maps_nonpositive_beta_to_exit_5(monkeypatch, capsys):
    # the admissible region prevents this in practice; force the error to pin
    # the exit-code contract
    from pwlcones import NonPositiveBeta
    import pwlcones.cli as cli

    def boom(inp):
        raise NonPositiveBeta("forced")

    monkeypatch.setattr(cli, "synthesize", boom)
    assert main(EX1_ARGS) == 5
    capsys.readouterr()


def test_analyze_subcommand(tmp_path, capsys):
    sys_path = _write_ex1(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["analyze", "--system", str(sys_path), "--json", str(report_path)]) == 0
    stdout = capsys.readouterr().out
    assert "periodic orbits through the plane: yes" in stdout
    doc = json.loads(report_path.read_text())
    assert doc["periodic"] is True
    assert doc["necessary_screen"] == "Pass"
    assert doc["cones"][0]["dynamics"] == "Center"
    assert doc["cones"][0]["tau_minus"] == pytest.approx(PI / 4, abs=1e-6)


def test_analyze_prints_json_without_file(tmp_path, capsys):
    sys_path = _write_ex1(tmp_path)
    assert main(["analyze", "--system", str(sys_path)]) == 0
    stdout = capsys.readouterr().out
    payload = stdout[stdout.index("{") :]
    doc = json.loads(payload)
    assert doc["periodic"] is True


def test_analyze_exit_codes(tmp_path, capsys):
    not_focus = tmp_path / "real.json"
    not_focus.write_text(
        json.dumps(
            {
                "minus": {"delta": 3.0, "m": 3.0, "d": 1.0},
                "plus": {"delta": 3.0, "m": 3.0, "d": 1.0},
            }
        )
    )
    assert main(["analyze", "--system", str(not_focus)]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["analyze", "--system", str(bad_json)]) == 3
    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text(json.dumps({"minus": {"delta": 1.0}}))
    assert main(["analyze", "--system", str(bad_schema)]) == 3
    assert main(["analyze", "--system", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


def test_analyze_trivial_cone_past_float_range(tmp_path, capsys):
    # equal lambdas: the trivial cone's radial factor exp(800 pi) exceeds
    # the float range and reads as +inf
    zone = {"lambda": 300, "alpha": 400, "beta": 1}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"minus": zone, "plus": zone}))
    report_path = tmp_path / "report.json"
    assert main(["analyze", "--system", str(path), "--json", str(report_path)]) == 0
    capsys.readouterr()
    cones = json.loads(report_path.read_text())["cones"]
    trivial = [c for c in cones if c["kind"] == "Trivial"]
    assert len(trivial) == 1
    assert trivial[0]["dynamics"] == "UnstableFocus"
    assert trivial[0]["return_ratio"] == math.inf


def test_analyze_reports_the_cone_continuum(tmp_path, capsys):
    # both shape ratios zero with equal lambdas: the report carries the family
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"minus": {"lambda": -0.5, "alpha": -0.5, "beta": 1},
                                "plus": {"lambda": -0.5, "alpha": -0.5, "beta": 1.7}}))
    report_path = tmp_path / "report.json"
    assert main(["analyze", "--system", str(path), "--json", str(report_path)]) == 0
    assert "cones: 0 isolated, 1 trivial, continuum: yes" in capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert doc["family"]["dynamics"] == "StableFocus"
    assert doc["family"]["includes_half_turn_pair"] is True
    assert [c["kind"] for c in doc["cones"]] == ["Trivial"]


def test_analyze_strong_shape_spec_without_warning(tmp_path, capsys):
    # gamma = 5001 in both zones: e^{gamma tau} leaves the float range in
    # both branches of the kernel, which must read it as +inf without warning
    zone = {"lambda": -1, "alpha": 5000, "beta": 1}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"minus": zone, "plus": zone}))
    report_path = tmp_path / "report.json"
    assert main(["analyze", "--system", str(path), "--json", str(report_path)]) == 0
    capsys.readouterr()
    cones = json.loads(report_path.read_text())["cones"]
    assert [c["kind"] for c in cones] == ["Trivial"]
    assert cones[0]["return_ratio"] == math.inf


def test_simulate_subcommand(tmp_path, capsys):
    sys_path = _write_ex1(tmp_path)
    csv_path = tmp_path / "trace.csv"
    code = main(
        [
            "simulate",
            "--system", str(sys_path),
            "--x0", "0,4,-1.3040",
            "--crossings", "2",
            "--t-max", "100",
            "--out", str(csv_path),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["closed"] is True
    assert summary["crossings"] == 2
    assert summary["period"] == pytest.approx(18.0203, abs=1e-3)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,y,z,zone"
    assert any(ln.startswith("# crossing ") for ln in lines)


def test_simulate_rejects_bad_x0(tmp_path, capsys):
    sys_path = _write_ex1(tmp_path)
    assert main(["simulate", "--system", str(sys_path), "--x0", "1,2"]) == 3
    assert main(["simulate", "--system", str(sys_path), "--x0", "a,b,c"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "option",
    [
        ["--grid", "-1"],
        ["--grid", "0"],
        ["--grid", "1"],
        ["--residual-target", "-1"],
        ["--residual-target", "inf"],
        ["--center-tol", "nan"],
        ["--center-tol", "-1"],
        ["--degeneracy-tol", "inf"],
    ],
    ids=" ".join,
)
def test_analyze_rejects_out_of_range_options(option, tmp_path, capsys):
    sys_path = _write_ex1(tmp_path)
    assert main(["analyze", "--system", str(sys_path)] + option) == 3
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--system", "{system}", "--grid", "2.5"], ["analyze"], ["no-such-command"], []],
    ids=" ".join,
)
def test_usage_errors_exit_as_malformed_input(argv, tmp_path, capsys):
    # argparse alone would exit with 2, the code of NotFocusType
    sys_path = _write_ex1(tmp_path)
    assert main([a.format(system=sys_path) for a in argv]) == 3
    assert "error: " in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(flag in out for flag in ("--system", "--json", "--grid"))
    assert "-tol" not in out and "--residual-target" not in out


def test_analyze_flat_entry_slope_without_warning(tmp_path):
    # the plus zone's entry slope is exactly flat at the trivial cone; its
    # transverse multiplier once ended in a raw ZeroDivisionError
    doc = {
        "minus": {"lambda": -3, "alpha": 2.6793786170616363, "beta": 2.7342230241841587},
        "plus": {"lambda": -3, "alpha": -3473444.102586655, "beta": 2.6724383368196634},
    }
    sys_path = tmp_path / "flat.json"
    sys_path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "pwlcones.cli", "analyze",
         "--system", str(sys_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "transverse multiplier inf" in proc.stdout


_DET_MINUS = [
    [1.2258514076896303e-65, 1.0, 7.913867098147273e+299],
    [-3.082755157386491e-62, -5.508771799703885e-186, 1.6979147075784482e+234],
    [1.2955154788577893e-07, 1e+308, 5.293587796089948e+239],
]


@pytest.mark.parametrize(
    "doc",
    [
        # the spec check's eigenvector norms overflowed, then the trace's modal column norms
        {"minus": {"lambda": -1, "alpha": 1e100, "beta": 1},
         "plus": {"lambda": -1, "alpha": 1e100, "beta": 1}},
        {"minus": {"lambda": 5e-324, "alpha": -4.5e118, "beta": 2},
         "plus": {"lambda": -1, "alpha": 1, "beta": 1}},
        # the power-of-two-scaled pair's determinant took the log of a zero pivot
        {"A_minus": _DET_MINUS,
         "A_plus": [[first] + row[1:] for first, row in
                    zip((-5e-324, 8.647331958379129e-223, -5.07503931535645e-60), _DET_MINUS)]},
        # minus gamma about 1.1e185: 1 + gamma^2 overflowed in the slope kernel
        {"minus": {"lambda": -1.4429064688064747e+203, "alpha": -9.909770983704536e-283,
                   "beta": 1.2851500808183788e+18},
         "plus": {"delta": 2.2108489903745417e-16, "m": -2.1498843687217464e-245,
                  "d": 1.9384207812089657e+95}},
    ],
    ids=["alpha-1e100", "alpha-4.5e118", "singular-scaled-det", "gamma-1.1e185"],
)
def test_specs_near_the_float_range_load_without_warning(doc, tmp_path):
    sys_path = tmp_path / "spec.json"
    sys_path.write_text(json.dumps(doc))
    for argv in (["analyze"], ["simulate", "--x0", "0,1,1", "--crossings", "4", "--t-max", "50"]):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "pwlcones.cli", *argv,
             "--system", str(sys_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 2, 3), proc.stderr


@pytest.mark.parametrize(
    "option",
    [["--samples-per-dwell", "-3"], ["--t-max", "nan"], ["--x0", "0,0,-0"], ["--x0", "nan,1,1"]],
    ids=" ".join,
)
def test_simulate_rejects_malformed_options(option, tmp_path, capsys):
    # each of these once ended in a raw ValueError or RuntimeWarning traceback
    sys_path = _write_ex1(tmp_path)
    assert main(["simulate", "--system", str(sys_path), "--x0", "0,4,-1.3040"] + option) == 3
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, termination",
    [(["--t-max", "-5"], "t_max"), (["--crossings", "-1"], "crossings"),
     (["--samples-per-dwell", "0"], "crossings")],
)
def test_simulate_keeps_degenerate_budgets(option, termination, tmp_path, capsys):
    sys_path = _write_ex1(tmp_path)
    assert main(["simulate", "--system", str(sys_path), "--x0", "0,4,-1.3040"] + option) == 0
    assert json.loads(capsys.readouterr().out)["termination"] == termination


def test_simulate_reports_origin_collapse(tmp_path, capsys):
    # both zones contract along a slow invariant line; the orbit never crosses
    doc = {
        "minus": {"lambda": -0.5, "alpha": -2.0, "beta": 1.0},
        "plus": {"lambda": -0.5, "alpha": -1.0, "beta": 1.0},
    }
    sys_path = tmp_path / "decay.json"
    sys_path.write_text(json.dumps(doc))
    code = main(
        ["simulate", "--system", str(sys_path), "--x0=-1,4,-5", "--t-max", "1e5"]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["termination"] == "origin"
    assert summary["crossings"] == 0


def test_console_entry_point_runs():
    for gamma in ["1", "230", "5000", "1e308"]:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "pwlcones.cli", "tau-hat",
             "--gamma", gamma],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.strip()) == tau_hat(float(gamma)).tau


_EX1_EIGEN = {"lambda": -10.3322, "alpha": -7.1060, "beta": 3.2259}
_EX1_MATRIX = [[-24.5442, -1.0, 0.0], [207.7430, 0.0, -1.0], [-629.2483, 0.0, 0.0]]
# the pair scaled by 1e160: its coefficients m and d leave the float range
_HUGE_MATRIX = [[1e160 * v for v in row] for row in _EX1_MATRIX]


@pytest.mark.parametrize(
    "doc",
    [
        {"minus": {**_EX1_EIGEN, "lambda": math.nan}, "plus": _EX1_EIGEN},
        {"minus": {**_EX1_EIGEN, "lambda": math.inf}, "plus": _EX1_EIGEN},
        {"minus": {"delta": math.nan, "m": 1.0, "d": 1.0}, "plus": {"delta": 1, "m": 1, "d": 1}},
        {"A_minus": [[math.nan, -1.0, 0.0], *_EX1_MATRIX[1:]], "A_plus": _EX1_MATRIX},
        # finite numbers whose discriminant or expanded coefficients overflow
        {"minus": {"delta": 1e308, "m": 1.0, "d": 1.0}, "plus": {"delta": 1, "m": 1, "d": 1}},
        {"minus": {**_EX1_EIGEN, "lambda": 1e308}, "plus": _EX1_EIGEN},
        {"A_minus": _HUGE_MATRIX, "A_plus": _HUGE_MATRIX},
    ],
    ids=[
        "nan-lambda", "inf-lambda", "nan-delta", "nan-matrix", "huge-delta", "huge-lambda",
        "huge-matrix",
    ],
)
def test_analyze_rejects_non_finite_spec(doc, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))  # writes NaN / Infinity, which json.loads accepts
    assert main(["analyze", "--system", str(path)]) == 3
    assert "finite" in capsys.readouterr().err


def test_analyze_raw_matrix_entry_past_float_range(tmp_path, capsys):
    # an entry of 1e160 squares past the float range: exit 3, no overflow warning
    path = tmp_path / "spec.json"
    a_minus = [[1e160, -1.0, 0.0], *_EX1_MATRIX[1:]]
    path.write_text(json.dumps({"A_minus": a_minus, "A_plus": _EX1_MATRIX}))
    assert main(["analyze", "--system", str(path)]) == 3
    capsys.readouterr()


_ANGLES = ["--gamma", "1", "--tau-minus", "0.78", "--tau-plus", "3.9"]


@pytest.mark.parametrize(
    "argv",
    [
        ["tau-hat", "--gamma", "nan"],
        ["phi", "--gamma", "inf", "--tau", "1"],
        ["phi", "--gamma", "1", "--tau", "nan"],
        ["synthesize", *_ANGLES, "--k", "1", "--c", "inf"],
        ["synthesize", *_ANGLES, "--k", "1", "--c", "nan"],
        ["synthesize", *_ANGLES, "--k", "inf", "--c", "10"],
    ],
    ids=" ".join,
)
def test_non_finite_numbers_exit_3(argv, capsys):
    # these once printed a number, warned, or ended in ZeroDivisionError or
    # in exit 4 or 5
    assert main(argv) == 3
    assert "must be" in capsys.readouterr().err


def _quiet_main(argv) -> int:
    """``main(argv)`` with its output discarded; fails on any warning."""
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code


@settings(max_examples=150)
@given(st.floats(), st.floats())
def test_kernel_subcommands_total_on_floats(gamma, tau):
    # every float, typed as its repr (negative exponents, -inf and nan too),
    # ends in a number or in exit 3, never in a traceback or a warning
    assert _quiet_main(["tau-hat", "--gamma", repr(gamma)]) == (3 if math.isnan(gamma) else 0)
    finite = math.isfinite(gamma) and math.isfinite(tau)
    assert _quiet_main(["phi", "--gamma", repr(gamma), "--tau", repr(tau)]) == (0 if finite else 3)


@pytest.mark.parametrize(
    "argv",
    [["tau-hat", "--gamma", "-3e10"], ["phi", "--gamma", "1e3", "--tau", "-1e-5"],
     ["simulate", "--system", "{system}", "--x0", "-1e-3,4,2", "--crossings", "2"]],
    ids=" ".join,
)
def test_negative_exponent_arguments_are_values(argv, tmp_path, capsys):
    # argparse's own negative-number pattern misses exponents: "-3e10" was
    # read as an option, and the command ended in a usage error
    sys_path = _write_ex1(tmp_path)
    assert main([a.format(system=sys_path) for a in argv]) == 0
    capsys.readouterr()


def test_phi_subcommand_past_float_range_without_warning():
    # gamma*tau = 1000 > log(DBL_MAX): +inf with the sign of phi_scaled, no
    # "overflow encountered in expm1" traceback
    for gamma, tau, expected in (("1000", "1", math.inf), ("1000", "4", -math.inf)):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "pwlcones.cli", "phi",
             "--gamma", gamma, "--tau", tau],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.strip()) == expected


def test_simulate_never_returning_orbit_ends_with_infinite_t_max(tmp_path):
    # lam = 0, alpha < 0, started on the minus invariant line: x1 never
    # changes sign and the norm stays bounded, so only the no_return test
    # ends the trace; a subprocess with a timeout keeps a regression from
    # hanging the suite
    doc = {"minus": {"lambda": 0.0, "alpha": -1.0, "beta": 1.0},
           "plus": {"lambda": 0.0, "alpha": -1.0, "beta": 1.0}}
    sys_path = tmp_path / "line.json"
    sys_path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "pwlcones.cli", "simulate",
         "--system", str(sys_path), "--x0=-1,2,-2", "--t-max", "inf"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["termination"] == "no_return"
    assert summary["crossings"] == 0


def test_main_reuses_parser_without_leaking_options(tmp_path, monkeypatch, capsys):
    from pwlcones import cli

    grids = []
    real = cli.analyze_system

    def recording(system, **kwargs):
        grids.append(kwargs["grid"])
        return real(system, **kwargs)

    monkeypatch.setattr(cli, "analyze_system", recording)
    sys_path = _write_ex1(tmp_path)
    assert main(["analyze", "--system", str(sys_path), "--grid", "17"]) == 0
    assert main(["analyze", "--system", str(sys_path)]) == 0
    capsys.readouterr()
    assert grids == [17, cli.GRID_DEFAULT] == [17, 256]
    assert cli._parser() is cli._parser()
