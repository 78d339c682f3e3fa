"""Build unitary_n6_strata.json: the cost classes the unitary-n6 workload samples.

The unitary-n6 op integrates one random N = 6 signal, and its cost varies
about 8x between signals.  With ~10 ops in a run, drawing signals freely
makes ops_per_s swing by a quarter between seeds.  This script integrates
each signal of a fixed universe once, sorts the universe by modelled cost
and cuts it into equal classes; the workload then takes one seeded signal
from every class, so each universe signal is equally likely to be drawn but
every seed runs the same mix of costs.

The cost model counts calls, so the classes do not depend on timing noise:
an RHS evaluation costs 0.53 ms and a monitor check (A assembly plus SVD)
7.9 ms, as traced at N = 6 on a 2-core x86-64 machine.

Run from the root of a checkout (about three minutes on two cores):

    python3 perfbench/make_strata.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
UNIVERSE = 120
CLASSES = 10
JOBS = 2


RHS_MS = 0.53
MONITOR_MS = 7.9


def cost_of(index: int) -> float:
    """Modelled ms of one op on universe signal ``index``."""
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.integrate.integrate_wn(
            workloads.UnitaryN6.universe_signal(index), workloads.UnitaryN6.CONFIG
        )
    finally:
        tracer.restore()
    calls, _, _ = tracer.layer_times()
    return RHS_MS * calls["hierarchy.rhs"] + MONITOR_MS * calls["hierarchy.assemble_A_numeric"]


def main() -> None:
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        cost = pool.map(cost_of, range(UNIVERSE))
    order = sorted(range(UNIVERSE), key=lambda i: (cost[i], i))
    size = UNIVERSE // CLASSES
    classes = [order[c * size:(c + 1) * size] for c in range(CLASSES)]
    out = {
        "universe": UNIVERSE,
        "classes": classes,
        "cost_ms": [[round(cost[i], 1) for i in cls] for cls in classes],
    }
    (HERE / "unitary_n6_strata.json").write_text(json.dumps(out) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
