"""Command-line entry points, exercised in-process."""

import json

import pytest

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


def test_integrate_ini_to_csv(tan_ini, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["integrate", "--config", tan_ini, "--out", str(out)]) == EXIT_OK
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


def test_integrate_no_reanchor_aborts(tan_ini, capsys):
    code = main(["integrate", "--config", tan_ini, "--no-reanchor"])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["singularity"]["action"] == "abort"
    assert abs(obj["singularity"]["time"] - 1.5708) < 1e-3
    assert "integrate:" in captured.err


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
                 "u_threshold = nan", "cond_threshold = 1"):
        path = tmp_path / "bad_value.ini"
        path.write_text(TAN_INI.replace("samples = 41", f"samples = 41\n{line}"))
        code = main(["integrate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_VALIDATION, line
        assert not out.exists()
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_rk4_over_a_pole_fails_without_output(tmp_path, capsys):
    path = tmp_path / "rk4.ini"
    path.write_text(
        TAN_INI.replace("t1 = 2.0\nsamples = 41", "t1 = 3.0\nsamples = 7\n"
                        "method = rk4\nfixed_step = 0.01")
    )
    out = tmp_path / "traj.json"
    assert main(["integrate", "--config", str(path), "--out", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


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


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
