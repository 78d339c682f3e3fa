"""Command-line front end.

Four subcommands: ``derive`` emits the staged hierarchy for a given N,
``integrate`` runs a factorized integration from a config file,
``verify`` runs the battery, ``compare`` diffs two trajectory exports.

Exit codes: 0 success, 1 validation error (bad flags, config, schema),
2 numerical failure (chart singularity with re-anchoring off, step-size
underflow), 3 verification failure.

Config files are JSON (by ``.json`` extension or a leading ``{``) or INI
key/value sections.  See the README for the schema; the INI dialect covers
every signal kind except piecewise, which needs per-node Hermitian
matrices and is JSON-only.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .hierarchy import derive_hierarchy, emit
from .integrate import (
    ChartSingularityError,
    IntegrationConfig,
    StepSizeUnderflow,
    Trajectory,
    compare,
    integrate_direct,
    integrate_wn,
)
from .signals import (
    CoefficientSignal,
    ConstantSignal,
    FourierSignal,
    HamiltonianSignal,
    PiecewiseSignal,
    PolynomialSignal,
)
from .verify import run_battery

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _cx(v) -> complex:
    """Complex scalar from JSON/INI data: number, [re, im], or string."""
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, str):
        tok = v.strip().replace(" ", "")
        if "i" in tok and "j" not in tok:
            tok = tok.replace("i", "j")
        return complex(tok)
    raise ValueError(f"cannot read complex number from {v!r}")


def _cvec(v, what: str) -> np.ndarray:
    if isinstance(v, str):
        parts = [p for p in v.split(",") if p.strip()]
        return np.array([_cx(p) for p in parts])
    if isinstance(v, list):
        return np.array([_cx(x) for x in v])
    raise ValueError(f"{what}: expected a vector, got {v!r}")


def _cmat(v, what: str) -> np.ndarray:
    if not isinstance(v, list) or not all(isinstance(r, list) for r in v):
        raise ValueError(f"{what}: expected a matrix (list of rows)")
    return np.array([[_cx(x) for x in row] for row in v])


def _hermitian_from_node(node: dict, N: int, what: str) -> np.ndarray:
    """Hermitian matrix from real diagonal + row-major upper triangle."""
    diag = node.get("diag")
    upper = node.get("upper", [])
    if diag is None or len(diag) != N:
        raise ValueError(f"{what}: need 'diag' with {N} real entries")
    need = N * (N - 1) // 2
    if len(upper) != need:
        raise ValueError(
            f"{what}: need {need} upper-triangle entries (row-major), "
            f"got {len(upper)}"
        )
    H = np.zeros((N, N), dtype=complex)
    H[np.diag_indices(N)] = np.array([float(d) for d in diag])
    it = iter(upper)
    for p in range(N):
        for q in range(p + 1, N):
            z = _cx(next(it))
            H[p, q] = z
            H[q, p] = z.conjugate()
    return H


def _signal_from_obj(obj: dict, N: int) -> CoefficientSignal:
    kind = obj.get("kind")
    if kind == "constant":
        return ConstantSignal(N, _cvec(obj["a"], "signal.a"))
    if kind == "polynomial":
        coeffs = obj.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ValueError("polynomial signal: need 'coefficients', a list "
                             "of vectors (constant term first)")
        return PolynomialSignal(
            N, tuple(_cvec(c, f"coefficients[{k}]") for k, c in enumerate(coeffs))
        )
    if kind == "fourier":
        modes = tuple(
            (
                float(m["omega"]),
                _cvec(m["cos"], "mode cos"),
                _cvec(m["sin"], "mode sin"),
            )
            for m in obj.get("modes", [])
        )
        return FourierSignal(N, _cvec(obj["a0"], "signal.a0"), modes)
    if kind == "hamiltonian":
        modes = tuple(
            (
                float(m["omega"]),
                _cmat(m["cos"], "mode cos"),
                _cmat(m["sin"], "mode sin"),
            )
            for m in obj.get("modes", [])
        )
        return HamiltonianSignal(N, _cmat(obj["h0"], "signal.h0"), modes)
    if kind == "piecewise":
        times = [float(t) for t in obj["times"]]
        nodes = obj.get("nodes")
        if not isinstance(nodes, list) or len(nodes) != len(times):
            raise ValueError("piecewise signal: 'nodes' must match 'times'")
        H_nodes = [
            _hermitian_from_node(nd, N, f"nodes[{i}]") for i, nd in enumerate(nodes)
        ]
        values = np.array([-1j * H for H in H_nodes])
        return PiecewiseSignal(
            N, np.array(times), values, rule=obj.get("rule", "cubic")
        )
    raise ValueError(
        f"unknown signal kind {kind!r} (expected constant, polynomial, "
        "fourier, piecewise, or hamiltonian)"
    )


_RUN_FIELDS = {
    "t0": float,
    "t1": float,
    "method": str,
    "atol": float,
    "rtol": float,
    "max_step": float,
    "first_step": float,
    "fixed_step": float,
    "samples": int,
    "reanchor": bool,
    "u_threshold": float,
    "cond_threshold": float,
    "max_steps": int,
}


def _config_from_obj(obj: dict) -> tuple[int, IntegrationConfig, int | None]:
    run = obj.get("run")
    if not isinstance(run, dict):
        raise ValueError("config needs a 'run' section")
    if "n" not in run:
        raise ValueError("run section needs 'n'")
    N = int(run["n"])
    if N < 2:
        raise ValueError(f"need n >= 2, got {N}")
    kwargs = {}
    for key, typ in _RUN_FIELDS.items():
        if key in run and run[key] is not None:
            kwargs[key] = typ(run[key])
    seed = run.get("seed")
    cfg = IntegrationConfig(**kwargs)
    cfg.validate()
    return N, cfg, None if seed is None else int(seed)


_INI_TRUE = {"1", "true", "yes", "on"}
_INI_FALSE = {"0", "false", "no", "off"}


def _ini_to_obj(text: str) -> dict:
    """Translate the INI dialect into the JSON config structure."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"cannot parse config: {exc}") from exc
    if "run" not in cp or "signal" not in cp:
        raise ValueError("config needs [run] and [signal] sections")

    run: dict = {}
    for key, raw in cp["run"].items():
        if key == "method":
            run[key] = raw.strip()
        elif key in ("n", "samples", "seed", "max_steps"):
            run[key] = int(raw)
        elif key == "reanchor":
            low = raw.strip().lower()
            if low not in _INI_TRUE | _INI_FALSE:
                raise ValueError(f"run.reanchor: cannot read boolean {raw!r}")
            run[key] = low in _INI_TRUE
        else:
            run[key] = float(raw)

    sig_sec = cp["signal"]
    kind = sig_sec.get("kind", "").strip()
    sig: dict = {"kind": kind}
    if kind == "constant":
        sig["a"] = sig_sec.get("a", "")
    elif kind == "polynomial":
        pairs = sorted(
            (int(key.split(".", 1)[1]), raw)
            for key, raw in sig_sec.items()
            if key.startswith("coeff.")
        )
        if not pairs or [k for k, _ in pairs] != list(range(len(pairs))):
            raise ValueError(
                "polynomial signal: need keys coeff.0, coeff.1, ... "
                "(consecutive from 0)"
            )
        sig["coefficients"] = [raw for _, raw in pairs]
    elif kind == "fourier":
        sig["a0"] = sig_sec.get("a0", "")
        sig["modes"] = [
            {
                "omega": cp[name].get("omega"),
                "cos": cp[name].get("cos", ""),
                "sin": cp[name].get("sin", ""),
            }
            for name in sorted(cp.sections())
            if name.startswith("signal.mode.")
        ]
    elif kind == "hamiltonian":
        sig["h0"] = _ini_rows(sig_sec, "row.")
        sig["modes"] = [
            {
                "omega": cp[name].get("omega"),
                "cos": _ini_rows(cp[name], "cos.row."),
                "sin": _ini_rows(cp[name], "sin.row."),
            }
            for name in sorted(cp.sections())
            if name.startswith("signal.mode.")
        ]
    elif kind == "piecewise":
        raise ValueError(
            "piecewise signals need per-node Hermitian matrices; "
            "use a JSON config (see README)"
        )
    else:
        raise ValueError(f"unknown signal kind {kind!r} in [signal]")
    return {"run": run, "signal": sig}


def _ini_rows(section, prefix: str) -> list:
    pairs = sorted(
        (int(key[len(prefix) :]), raw)
        for key, raw in section.items()
        if key.startswith(prefix)
    )
    if not pairs or [k for k, _ in pairs] != list(range(1, len(pairs) + 1)):
        raise ValueError(f"need consecutive keys {prefix}1, {prefix}2, ...")
    return [[p for p in raw.split(",") if p.strip()] for _, raw in pairs]


def load_run_config(
    path: str,
) -> tuple[int, CoefficientSignal, IntegrationConfig, int | None]:
    """Read a config file; returns (N, signal, integration config, seed)."""
    p = Path(path)
    if not p.exists():
        raise ValueError(f"config file not found: {path}")
    text = p.read_text(encoding="utf-8")
    if p.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"cannot parse JSON config: {exc}") from exc
    else:
        obj = _ini_to_obj(text)
    N, cfg, seed = _config_from_obj(obj)
    signal = _signal_from_obj(obj.get("signal", {}), N)
    return N, signal, cfg, seed


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_derive(args) -> int:
    if args.n is None:
        print("derive: --n is required", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        schedule = derive_hierarchy(args.n)
        text = emit(schedule, args.format)
        _write_or_print(text, args.out)
    except (ValueError, OSError) as exc:
        print(f"derive: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_integrate(args) -> int:
    try:
        N, signal, cfg, cfg_seed = load_run_config(args.config)
        if args.no_reanchor:
            cfg = replace(cfg, reanchor=False)
        if args.tol_abs is not None or args.tol_rel is not None:
            cfg = replace(
                cfg,
                atol=args.tol_abs if args.tol_abs is not None else cfg.atol,
                rtol=args.tol_rel if args.tol_rel is not None else cfg.rtol,
            )
        seed = args.seed if args.seed is not None else cfg_seed
        fmt = args.format
        if fmt is None:
            fmt = (
                "json"
                if args.out and args.out.lower().endswith(".json")
                else "csv"
            )
        if fmt not in ("csv", "json"):
            raise ValueError(f"integrate: unknown output format {fmt!r}")
    except ValueError as exc:
        print(f"integrate: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        traj = integrate_wn(signal, cfg, seed=seed)
    except ChartSingularityError as exc:
        report = {"singularity": {**asdict(exc.report), "action": "abort"}}
        print(json.dumps(report, indent=2))
        print(f"integrate: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (StepSizeUnderflow, RuntimeError) as exc:
        print(f"integrate: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"integrate: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    lines = [
        f"n={N} method={cfg.method} steps={traj.n_steps} "
        f"rejected={traj.n_rejected} charts={len(traj.chart_events) + 1}",
        f"final unitarity defect {traj.unitarity_defect[-1]:.3e}, "
        f"final |det-1| {traj.det_defect[-1]:.3e}",
    ]
    for ev in traj.chart_events:
        lines.append(
            f"chart switch at t={ev.time:.9f} ({ev.trigger} {ev.value:.3e})"
        )
    if args.check_oracle:
        oracle = integrate_direct(signal, cfg)
        rep = compare(traj, oracle)
        lines.append(f"oracle: {rep.describe()}")
    text = traj.to_csv() if fmt == "csv" else traj.to_json()
    try:
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            lines.append(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"integrate: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print("\n".join(lines), file=sys.stderr if not args.out else sys.stdout)
    return EXIT_OK


def _parse_n_range(spec: str) -> tuple[int, ...]:
    spec = spec.strip()
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo > hi:
            raise ValueError(f"empty range {spec!r}")
        return tuple(range(lo, hi + 1))
    return (int(spec),)


def cmd_verify(args) -> int:
    try:
        n_values = _parse_n_range(args.n or "2..4")
        if any(N < 2 for N in n_values) or any(N > args.max_n for N in n_values):
            raise ValueError(
                f"dimensions must lie in 2..{args.max_n}, got {n_values}"
            )
        summary = run_battery(
            n_values,
            trials=args.trials,
            seed=args.seed,
            tol_abs=args.tol_abs if args.tol_abs is not None else 1e-10,
            tol_rel=args.tol_rel if args.tol_rel is not None else 1e-10,
        )
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    text = summary.to_json() if args.format == "json" else summary.describe() + "\n"
    try:
        _write_or_print(text, args.out)
        if args.out:
            print(f"wrote {args.out}")
    except OSError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK if summary.passed else EXIT_VERIFY


def _load_trajectory(path: str) -> Trajectory:
    p = Path(path)
    if not p.exists():
        raise ValueError(f"trajectory file not found: {path}")
    text = p.read_text(encoding="utf-8")
    if p.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        return Trajectory.from_json(text)
    return Trajectory.from_csv(text)


def cmd_compare(args) -> int:
    try:
        a = _load_trajectory(args.path_a)
        b = _load_trajectory(args.path_b)
        rep = compare(a, b)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(rep.describe())
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weinorman",
        description="Staged Wei-Norman factorization on SL(N, C): derive the "
        "coordinate hierarchy, integrate it, verify it, compare trajectories.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="emit the staged hierarchy for one N")
    d.add_argument("--n", type=int, required=True, help="matrix dimension (>= 2)")
    d.add_argument(
        "--format", choices=("plain", "latex", "json"), default="plain"
    )
    d.add_argument("--out", help="output path (default: stdout)")
    d.set_defaults(func=cmd_derive)

    i = sub.add_parser("integrate", help="integrate a run described by a config file")
    i.add_argument("--config", required=True, help="JSON or INI run config")
    i.add_argument("--out", help="trajectory output path (default: stdout)")
    i.add_argument(
        "--format",
        choices=("csv", "json"),
        help="trajectory format (default: by --out extension, else csv)",
    )
    i.add_argument(
        "--check-oracle",
        action="store_true",
        help="also integrate the matrix ODE directly and report the difference",
    )
    i.add_argument(
        "--no-reanchor",
        action="store_true",
        help="abort on chart singularity instead of re-anchoring",
    )
    i.add_argument("--seed", type=int, help="seed recorded in the artifact")
    i.add_argument("--tol-abs", type=float, help="override absolute tolerance")
    i.add_argument("--tol-rel", type=float, help="override relative tolerance")
    i.set_defaults(func=cmd_integrate)

    v = sub.add_parser("verify", help="run the verification battery")
    v.add_argument("--n", help="dimension or range, e.g. 3 or 2..4 (default 2..4)")
    v.add_argument("--max-n", type=int, default=6, help="largest allowed dimension")
    v.add_argument("--trials", type=int, default=10, help="random draws per check")
    v.add_argument("--seed", type=int, default=0, help="battery seed")
    v.add_argument("--tol-abs", type=float, help="absolute tolerance (default 1e-10)")
    v.add_argument("--tol-rel", type=float, help="relative tolerance (default 1e-10)")
    v.add_argument("--format", choices=("plain", "json"), default="plain")
    v.add_argument("--out", help="write the summary to a file")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("compare", help="compare two trajectory exports")
    c.add_argument("path_a")
    c.add_argument("path_b")
    c.set_defaults(func=cmd_compare)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
