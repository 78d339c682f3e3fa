"""The four workloads: seeded inputs, one timed op, and the op's check.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times), runs one op per :meth:`op` call, and judges that
op's output in :meth:`check` against an independent oracle, outside the
timed region.  Ops call the package through module attributes
(``integrate.integrate_wn``, ``cli.main``, ...) so that the tracer in
``spans.py`` sees every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import weinorman
from weinorman import cli, hierarchy, integrate
from weinorman import (
    ConstantSignal,
    IntegrationConfig,
    algebra,
    expand_in_basis,
    random_antihermitian_signal,
)

HERE = Path(__file__).resolve().parent

# Bounds pinned in tests/test_acceptance.py: chart-free unitary runs on
# [0, 1] (test_end_to_end_unitary_evolution) and re-anchored rotations
# (test_singularity_detection_and_reanchor).
CHART_FREE_DK = 1e-6
CHART_FREE_UNITARITY = 1e-7
CHART_FREE_DET = 1e-8
REANCHORED_DK = 1e-5


@dataclass
class Check:
    """Verdict on one op; ``stats`` feeds the per-layer metrics."""

    ok: bool
    err: float = 0.0          # max ||K - K_oracle||_F over samples
    unitarity: float = 0.0    # max ||K^+ K - I||_F over samples
    fingerprint: bytes = b""  # digest of the op's output, for traced == untraced
    reason: str = ""
    stats: dict = field(default_factory=dict)


def _digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.digest()


def check_against_oracle(K: np.ndarray, K_oracle: np.ndarray, switches: int) -> Check:
    """Compare sampled K (S, N, N) with the dense oracle on the same grid."""
    N = K.shape[1]
    err = float(np.linalg.norm(K - K_oracle, axis=(1, 2)).max())
    KhK = np.conj(np.swapaxes(K, 1, 2)) @ K
    unitarity = float(np.linalg.norm(KhK - np.eye(N), axis=(1, 2)).max())
    det = float(np.abs(np.linalg.det(K) - 1.0).max())
    if switches:
        bad = [f"||dK|| {err:.2e} >= {REANCHORED_DK:.0e}"] if err >= REANCHORED_DK else []
    else:
        bad = [
            f"{what} {val:.2e} >= {bound:.0e}"
            for what, val, bound in (
                ("||dK||", err, CHART_FREE_DK),
                ("unitarity", unitarity, CHART_FREE_UNITARITY),
                ("det", det, CHART_FREE_DET),
            )
            if not val < bound
        ]
    return Check(ok=not bad, err=err, unitarity=unitarity, reason="; ".join(bad))


def _trajectory_stats(traj, config: IntegrationConfig) -> dict:
    return {
        "accepted": traj.n_steps,
        "rejected": traj.n_rejected,
        "chart_switches": len(traj.chart_events),
        "intervals": len(config.grid()) - 1,
    }


def _merge(checks: list[Check]) -> Check:
    out = Check(
        ok=all(c.ok for c in checks),
        err=max(c.err for c in checks),
        unitarity=max(c.unitarity for c in checks),
        fingerprint=_digest(*(c.fingerprint for c in checks)),
        reason="; ".join(c.reason for c in checks if c.reason),
    )
    for c in checks:
        for key, val in c.stats.items():
            out.stats[key] = out.stats.get(key, 0) + val
    return out


class _Integrations:
    """Oracle runs, one per signal, shared by the integrating workloads."""

    config: IntegrationConfig

    def __init__(self):
        self._oracle: dict = {}

    def oracle_K(self, signal) -> np.ndarray:
        key = id(signal)
        if key not in self._oracle:
            self._oracle[key] = integrate.integrate_direct(signal, self.config).K
        return self._oracle[key]

    def _check_traj(self, traj, signal) -> Check:
        switches = len(traj.chart_events)
        c = check_against_oracle(np.asarray(traj.K), self.oracle_K(signal), switches)
        c.fingerprint = _digest(np.asarray(traj.K).tobytes(), np.asarray(traj.u).tobytes())
        c.stats = _trajectory_stats(traj, self.config)
        return c


class UnitaryN6(_Integrations):
    """integrate_wn on seeded random anti-Hermitian N = 6 signals, ||M||_F <= 5."""

    name = "unitary-n6"
    CONFIG = IntegrationConfig(t0=0.0, t1=1.0, samples=11)
    # Cost classes 0..8 of unitary_n6_strata.json (see make_strata.py),
    # cheapest first.  Class 9, the costliest tenth (3.6-7.3 s, up to 4x the
    # median), is left out: one such op moved ops_per_s by up to 20 % between
    # seeds.  A run makes one pass and then repeats the sequence's start, so
    # median classes open it: the op where a run ends is a median one.
    ORDER = (4, 3, 5, 8, 0, 7, 1, 6, 2)

    @staticmethod
    def universe_signal(index: int):
        rng = np.random.default_rng([6, index])
        return random_antihermitian_signal(6, rng, sup_norm=5.0)

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        algebra(6)
        strata = json.loads((HERE / "unitary_n6_strata.json").read_text(encoding="utf-8"))
        rng = np.random.default_rng(seed)
        self.signals = [
            self.universe_signal(int(rng.choice(strata["classes"][c]))) for c in self.ORDER
        ]
        self.config = self.CONFIG

    def op(self, k: int):
        return integrate.integrate_wn(self.signals[k % len(self.signals)], self.config)

    def check(self, k: int, traj) -> Check:
        return self._check_traj(traj, self.signals[k % len(self.signals)])


class ChartEscape(_Integrations):
    """The N = 2 tangent case plus a seeded N = 3 plane rotation on [0, 6]."""

    name = "chart-escape"
    POOL = 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        algebra(2)
        alg3 = algebra(3)
        rng = np.random.default_rng(seed)
        self.tangent = ConstantSignal(2, [1.0, 0.0, -1.0])
        self.rotations = []
        for _ in range(self.POOL):
            p, q = sorted(int(x) for x in rng.choice(3, size=2, replace=False))
            # omega in [0.8, 1] gives 3 chart switches and ~1000 steps on
            # [0, 6], matching the tangent case's 3 and ~1100.
            omega = float(rng.uniform(0.8, 1.0))
            M = np.zeros((3, 3), dtype=complex)
            M[p, q], M[q, p] = omega, -omega
            self.rotations.append(ConstantSignal(3, expand_in_basis(M, alg3.basis)))
        self.config = IntegrationConfig(t0=0.0, t1=6.0, samples=61)

    def op(self, k: int):
        rotation = self.rotations[k % self.POOL]
        return (
            integrate.integrate_wn(self.tangent, self.config),
            integrate.integrate_wn(rotation, self.config),
        )

    def check(self, k: int, trajs) -> Check:
        signals = (self.tangent, self.rotations[k % self.POOL])
        return _merge([self._check_traj(t, s) for t, s in zip(trajs, signals)])


def _pairs(H: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in H]


class DenseGridCli(_Integrations):
    """`weinorman integrate` in-process on seeded N = 4 Hamiltonian configs.

    ||M||_F <= 1 keeps max |u| below 0.5, where the trust-region monitor
    stays idle, so the work is the grid's: 1000 steps, K rebuilt at 1001
    samples, per-sample diagnostics and the JSON export.
    """

    name = "dense-grid-cli"
    POOL = 4

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        algebra(4)
        rng = np.random.default_rng(seed)
        self.signals = [
            random_antihermitian_signal(4, rng, sup_norm=1.0) for _ in range(self.POOL)
        ]
        self.config = cfg = IntegrationConfig(t0=0.0, t1=1.0, samples=1001)
        self.config_paths = []
        for j, sig in enumerate(self.signals):
            obj = {
                "run": {"n": 4, "t0": cfg.t0, "t1": cfg.t1, "samples": cfg.samples},
                "signal": {
                    "kind": "hamiltonian",
                    "h0": _pairs(sig.h0),
                    "modes": [
                        {"omega": w, "cos": _pairs(Hc), "sin": _pairs(Hs)}
                        for w, Hc, Hs in sig.modes
                    ],
                },
            }
            path = workdir / f"run{j}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            self.config_paths.append(str(path))
        self.out_path = workdir / "traj.json"

    def op(self, k: int) -> int:
        self.out_path.unlink(missing_ok=True)
        return cli.main(
            ["integrate", "--config", self.config_paths[k % self.POOL],
             "--out", str(self.out_path)]
        )

    def check(self, k: int, exit_code: int) -> Check:
        if exit_code != 0:
            return Check(ok=False, reason=f"exit code {exit_code}")
        raw = self.out_path.read_bytes()
        obj = json.loads(raw)
        pairs = np.asarray(obj["K"], dtype=float)
        K = pairs[..., 0] + 1j * pairs[..., 1]
        oracle = self.oracle_K(self.signals[k % self.POOL])
        c = check_against_oracle(K, oracle, len(obj["chart_events"]))
        c.fingerprint = _digest(raw)
        c.stats = {
            "accepted": obj["n_steps"],
            "rejected": obj["n_rejected"],
            "chart_switches": len(obj["chart_events"]),
            "intervals": len(obj["t"]) - 1,
            "json_bytes": len(raw),
        }
        return c


FORMATS = (("plain", "txt"), ("latex", "tex"), ("json", "json"))


class Derive:
    """derive_hierarchy(N) and emit in three formats for N = 2..7.

    The derivation has no random input, so the seed does not change it.
    """

    name = "derive"
    NS = tuple(range(2, 8))
    GOLDEN_NS = (2, 3, 4)

    def __init__(self, seed: int, workdir: Path):
        for N in self.NS:
            algebra(N)
        golden = Path(weinorman.__file__).resolve().parent / "_golden"
        # N = 5..7 have no golden file; derive_digests.json holds the SHA-256
        # of the output at the commit that introduced this benchmark.
        digests = json.loads((HERE / "derive_digests.json").read_text(encoding="utf-8"))
        self.expected = {}
        for N in self.NS:
            for fmt, suffix in FORMATS:
                self.expected[N, fmt] = (
                    hashlib.sha256(
                        (golden / f"derive_n{N}.{suffix}").read_bytes()
                    ).hexdigest()
                    if N in self.GOLDEN_NS
                    else digests[str(N)][fmt]
                )

    def op(self, k: int):
        out = []
        for N in self.NS:
            schedule = hierarchy.derive_hierarchy(N)
            out.append((N, schedule, [hierarchy.emit(schedule, f) for f, _ in FORMATS]))
        return out

    def check(self, k: int, out) -> Check:
        bad = []
        texts = []
        terms = 0
        for N, schedule, rendered in out:
            for (fmt, _), text in zip(FORMATS, rendered):
                data = text.encode("utf-8")
                texts.append(data)
                if hashlib.sha256(data).hexdigest() != self.expected[N, fmt]:
                    bad.append(f"N={N} {fmt} differs from the frozen output")
            terms += sum(len(expr.terms()) for _, expr in schedule.equations())
        return Check(
            ok=not bad,
            fingerprint=_digest(*texts),
            reason="; ".join(bad),
            stats={"terms": terms},
        )


WORKLOADS = {cls.name: cls for cls in (UnitaryN6, ChartEscape, DenseGridCli, Derive)}
