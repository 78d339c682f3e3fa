"""Command-line entry points, exercised in-process."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import weinorman.cli

from weinorman.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from weinorman.verify import load_golden

TAN_INI = """\
[run]
n = 2
t1 = 2.0
samples = 41

[signal]
kind = constant
a = 1, 0, -1
"""

# a trust region wide enough that u_1 = tan t runs up to its pole at pi/2,
# for the tests that exercise pole handling
POLE_INI = TAN_INI.replace(
    "samples = 41", "samples = 41\nu_threshold = 1e6\ncond_threshold = 1e12"
)

HAMILTONIAN_JSON = {
    "run": {"n": 2, "t1": 1.0, "samples": 11, "seed": 7},
    "signal": {
        "kind": "hamiltonian",
        "h0": [[1.0, "0.5-0.25i"], [[0.5, 0.25], -1.0]],
        "modes": [
            {
                "omega": 2.0,
                "cos": [[0.0, "1i"], ["-1i", 0.0]],
                "sin": [[0.1, 0.0], [0.0, -0.1]],
            }
        ],
    },
}


@pytest.fixture
def tan_ini(tmp_path):
    path = tmp_path / "tan.ini"
    path.write_text(TAN_INI)
    return str(path)


@pytest.fixture
def pole_ini(tmp_path):
    path = tmp_path / "pole.ini"
    path.write_text(POLE_INI)
    return str(path)


# -- derive --------------------------------------------------------------------


def test_derive_matches_frozen_output(capsys):
    assert main(["derive", "--n", "3"]) == EXIT_OK
    assert capsys.readouterr().out == load_golden(3, "plain")


def test_derive_latex_and_json(capsys, tmp_path):
    assert main(["derive", "--n", "2", "--format", "latex"]) == EXIT_OK
    assert r"\begin{aligned}" in capsys.readouterr().out
    out = tmp_path / "n4.json"
    assert main(["derive", "--n", "4", "--format", "json", "--out", str(out)]) == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["schema"] == "wn-hierarchy/1"
    assert obj["N"] == 4


def test_derive_rejects_small_n(capsys):
    assert main(["derive", "--n", "1"]) == EXIT_VALIDATION
    assert "derive:" in capsys.readouterr().err


# -- integrate -----------------------------------------------------------------


def test_integrate_ini_to_csv(pole_ini, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["integrate", "--config", pole_ini, "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "charts=2" in text
    assert "chart switch at t=1.57" in text
    assert out.read_text().startswith("t,")


def test_integrate_check_oracle(tan_ini, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        ["integrate", "--config", tan_ini, "--out", str(out), "--check-oracle"]
    )
    assert code == EXIT_OK
    assert "oracle: " in capsys.readouterr().out


def test_integrate_no_reanchor_aborts(pole_ini, tmp_path, capsys):
    code = main(["integrate", "--config", pole_ini, "--no-reanchor"])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["singularity"]["action"] == "abort"
    assert abs(obj["singularity"]["time"] - 1.5708) < 1e-3
    assert "integrate:" in captured.err

    # a JSON string reads like the INI words, so "false" turns it off
    cfg = tmp_path / "tan.json"
    cfg.write_text(json.dumps({
        "run": {"n": 2, "t1": 2.0, "samples": 41, "reanchor": "false",
                "u_threshold": 1e6, "cond_threshold": 1e12},
        "signal": {"kind": "constant", "a": [1, 0, -1]},
    }))
    assert main(["integrate", "--config", str(cfg)]) == EXIT_NUMERICAL
    capsys.readouterr()


def test_integrate_json_config_deterministic(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(HAMILTONIAN_JSON))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["integrate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["integrate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert obj["schema"] == "wn-trajectory/2"
    assert obj["seed"] == 7
    assert len(obj["t"]) == 11


def test_integrate_rejects_bad_configs(tmp_path, capsys):
    assert main(["integrate", "--config", str(tmp_path / "nope.ini")]) == EXIT_VALIDATION

    bad_kind = tmp_path / "bad.json"
    bad_kind.write_text(json.dumps({"run": {"n": 2}, "signal": {"kind": "whale"}}))
    assert main(["integrate", "--config", str(bad_kind)]) == EXIT_VALIDATION

    ini_piecewise = tmp_path / "pw.ini"
    ini_piecewise.write_text("[run]\nn = 2\n\n[signal]\nkind = piecewise\n")
    assert main(["integrate", "--config", str(ini_piecewise)]) == EXIT_VALIDATION
    assert "JSON" in capsys.readouterr().err

    out = tmp_path / "traj.json"
    for line in ("t0 = -inf", "max_step = 0", "max_step = -1", "first_step = -0.1",
                 "atol = nan", "rtol = inf", "max_steps = 0",
                 "u_threshold = nan", "cond_threshold = 1", "u_treshold = 0.5"):
        path = tmp_path / "bad_value.ini"
        path.write_text(TAN_INI.replace("samples = 41", f"samples = 41\n{line}"))
        code = main(["integrate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_VALIDATION, line
        assert not out.exists()
    assert "u_treshold" in capsys.readouterr().err

    for key, value in (("cond_treshold", 10), ("t1", [1.0]), ("reanchor", "maybe"),
                       ("n", 2.9), ("samples", 11.7), ("seed", "7.5"),
                       ("max_steps", 1e3 + 0.5)):
        path = tmp_path / "bad_value.json"
        run = {**HAMILTONIAN_JSON["run"], key: value}
        path.write_text(json.dumps({**HAMILTONIAN_JSON, "run": run}))
        code = main(["integrate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_VALIDATION, key
        assert not out.exists()
        assert key in capsys.readouterr().err


def test_integrate_rejects_non_finite_signal_data(tmp_path, capsys):
    out = tmp_path / "traj.json"
    fourier = {"kind": "fourier", "a0": [0, 1, 0],
               "modes": [{"omega": "nan", "cos": [1, 0, 0], "sin": [0, 0, 1]}]}
    for signal, field in (
        ({"kind": "constant", "a": [1, "nan", -1]}, "a"),
        ({"kind": "constant", "a": [1, "inf", -1]}, "a"),
        ({"kind": "constant", "a": ["1", "2-infi", "-1"]}, "a"),
        (fourier, "frequency of mode 0"),
        ({**HAMILTONIAN_JSON["signal"], "h0": [["-inf", 0], [0, 1]]}, "h0"),
    ):
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps({"run": {"n": 2}, "signal": signal}))
        code = main(["integrate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_VALIDATION, signal
        assert not out.exists()
        assert f"{field} has a non-finite value" in capsys.readouterr().err


def test_integer_run_keys_accept_whole_numbers(tmp_path, capsys):
    out = tmp_path / "traj.json"
    for value in (3, "3", 3.0):
        path = tmp_path / "whole.json"
        run = {**HAMILTONIAN_JSON["run"], "samples": value, "seed": value}
        path.write_text(json.dumps({**HAMILTONIAN_JSON, "run": run}))
        assert main(["integrate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert len(obj["t"]) == 3 and obj["seed"] == 3
    capsys.readouterr()


def test_readme_ini_example_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    out = tmp_path / "traj.csv"
    assert main(["integrate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 1 + 41


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_rk4_over_a_pole_fails_without_output(tmp_path, capsys):
    path = tmp_path / "rk4.ini"
    path.write_text(
        POLE_INI.replace("t1 = 2.0\nsamples = 41", "t1 = 3.0\nsamples = 7\n"
                         "method = rk4\nfixed_step = 0.01")
    )
    out = tmp_path / "traj.json"
    assert main(["integrate", "--config", str(path), "--out", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fixed_step, message",
    [(0.01, "chart frozen at t = 1.58"), (0.1, "RK4 step from t = 1.6")],
)
def test_integrate_rk4_blow_up_prints_no_warning(tmp_path, capsys, fixed_step, message):
    # the blow-up through the pole overflows inside the stepper; only the
    # structured message reaches stderr, and any warning would raise here
    path = tmp_path / "rk4.json"
    path.write_text(json.dumps({
        "run": {"n": 2, "t1": 3, "samples": 31, "method": "rk4",
                "fixed_step": fixed_step, "u_threshold": 1e6},
        "signal": {"kind": "constant", "a": [1, 0, -1]},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["integrate", "--config", str(path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert message in err and "fixed_step" in err
    assert "Warning" not in err


def test_integrate_linalg_error_is_numerical(tan_ini, monkeypatch, capsys):
    # LinAlgError is a ValueError, but never a validation failure
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(weinorman.cli, "integrate_wn", singular)
    assert main(["integrate", "--config", tan_ini]) == EXIT_NUMERICAL
    assert "integrate: Singular matrix" in capsys.readouterr().err


def test_integrate_oracle_failure_is_numerical(tmp_path, capsys):
    # the product route takes 157 steps, the oracle runs out of its 200
    path = tmp_path / "tan.json"
    path.write_text(json.dumps({
        "run": {"n": 2, "t1": 6.0, "samples": 61, "max_steps": 200},
        "signal": {"kind": "constant", "a": [1, 0, -1]},
    }))
    out = tmp_path / "traj.csv"
    code = main(["integrate", "--config", str(path), "--out", str(out),
                 "--check-oracle"])
    assert code == EXIT_NUMERICAL
    assert "--check-oracle: step budget exceeded" in capsys.readouterr().err
    assert not out.exists()


def test_integrate_piecewise_json_config(tmp_path, capsys):
    cfg = {
        "run": {"n": 2, "t1": 1.0, "samples": 5},
        "signal": {
            "kind": "piecewise",
            "times": [0.0, 0.25, 0.5, 0.75, 1.0],
            "nodes": [
                {"diag": [0.0, 0.0], "upper": [x]}
                for x in ("0.2i", "0.4i", "0.3i", "0.1i", "0i")
            ],
        },
    }
    path = tmp_path / "pw.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "pw.csv"
    assert main(["integrate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()


# -- verify ----------------------------------------------------------------------


def test_verify_passes(capsys):
    assert main(["verify", "--n", "2..3", "--trials", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out.replace("0 FAIL", "")


def test_verify_json_format(capsys):
    assert main(["verify", "--n", "2", "--trials", "2", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema"] == "wn-verify/1"
    assert obj["passed"] is True
    assert any(item["name"] == "golden-derivation" for item in obj["items"])


def test_verify_rejects_bad_range(capsys):
    assert main(["verify", "--n", "5..2"]) == EXIT_VALIDATION
    assert main(["verify", "--n", "1..3"]) == EXIT_VALIDATION
    assert main(["verify", "--n", "2..9"]) == EXIT_VALIDATION  # above --max-n
    capsys.readouterr()


# -- compare ----------------------------------------------------------------------


def test_compare_self(tan_ini, tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["integrate", "--config", tan_ini, "--out", str(out)]) == EXIT_OK
    assert main(["compare", str(out), str(out)]) == EXIT_OK
    assert "max ||dK||_F = 0.000e+00" in capsys.readouterr().out
    # a schema /1 export, whose events carry a constant "jump", still loads
    obj = json.loads(out.read_text())
    obj["schema"] = "wn-trajectory/1"
    for ev in obj["chart_events"]:
        ev["jump"] = 0.0
    old = tmp_path / "old.json"
    old.write_text(json.dumps(obj))
    assert main(["compare", str(old), str(out)]) == EXIT_OK
    assert "max ||dK||_F = 0.000e+00" in capsys.readouterr().out


def test_compare_mismatch(tan_ini, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["integrate", "--config", tan_ini, "--out", str(out)]) == EXIT_OK
    other = tmp_path / "late.json"
    cfg = tmp_path / "late.json.cfg"
    cfg.write_text(
        json.dumps(
            {
                "run": {"n": 2, "t0": 5.0, "t1": 6.0, "samples": 5},
                "signal": {"kind": "constant", "a": [0.0, 1.0, 0.0]},
            }
        )
    )
    assert main(["integrate", "--config", str(cfg), "--out", str(other)]) == EXIT_OK
    assert main(["compare", str(out), str(other)]) == EXIT_VALIDATION
    assert main(["compare", str(out), str(tmp_path / "missing.csv")]) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("list.json", "[1, 2]", "unsupported schema None"),
        ("bare.json", '{"schema": "wn-trajectory/2"}', "lacks the key 't'"),
        ("empty.csv", "", "holds no samples"),
        ("header.csv", "t,K_1_1_re,K_1_1_im\n", "holds no samples"),
    ],
)
def test_compare_rejects_a_malformed_file(name, text, message, tan_ini, tmp_path, capsys):
    good = tmp_path / "t.json"
    assert main(["integrate", "--config", tan_ini, "--out", str(good)]) == EXIT_OK
    bad = tmp_path / name
    bad.write_text(text)
    capsys.readouterr()
    for pair in ([str(bad), str(good)], [str(good), str(bad)]):
        assert main(["compare", *pair]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert err.startswith("compare: ") and message in err
        assert "Traceback" not in out + err


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
