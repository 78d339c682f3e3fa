"""Symbolic derivation of the staged ODE hierarchy.

The N = 2 and N = 3 systems (and the N = 4 stage data) are pinned here as
hand-built expressions, written out term by term, so a regression in the
derivation cannot hide behind the emitter.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weinorman import (
    CartanStage,
    LinearStage,
    RiccatiStage,
    StageLocalityError,
    SymbolicExpr,
    algebra,
    assemble_A_numeric,
    assemble_A_symbolic,
    check_A_block_structure,
    derive_hierarchy,
    emit,
    matrix_from_coefficients,
    parse_hierarchy_json,
    rhs,
)
from weinorman.hierarchy import (
    _derive_from_algebra,
    _schedule_to_obj,
    assemble_A_gauss,
    condition_estimate,
    riccati_rhs,
)
from weinorman.verify import _corrupted_algebra

a, u, E = SymbolicExpr.a, SymbolicExpr.u, SymbolicExpr.exp_u


def _eqs(N):
    return dict(derive_hierarchy(N).equations())


# -- pinned systems -----------------------------------------------------------


def test_n2_system():
    eqs = _eqs(2)
    assert eqs[1] == a(1) + 2 * a(2) * u(1) - a(3) * u(1) * u(1)
    assert eqs[2] == a(2) - a(3) * u(1)
    assert eqs[3] == a(3) * E({2: 2})
    assert len(eqs) == 3


def test_n3_system():
    eqs = _eqs(3)
    # stage J_1: coupled Riccati pair for (u1, u2)
    assert eqs[1] == (
        a(1)
        - a(4) * u(1)
        + 2 * a(5) * u(1)
        + a(6) * u(2)
        - a(7) * u(1) * u(2)
        - a(8) * u(1) * u(1)
    )
    assert eqs[2] == (
        a(2)
        + a(3) * u(1)
        + a(4) * u(2)
        + a(5) * u(2)
        - a(7) * u(2) * u(2)
        - a(8) * u(1) * u(2)
    )
    # stage J_2: scalar Riccati for u3
    assert eqs[3] == (
        a(3)
        + 2 * a(4) * u(3)
        - a(5) * u(3)
        - a(6) * u(3) * u(3)
        + a(7) * u(1) * u(3) * u(3)
        - a(7) * u(2) * u(3)
        + a(8) * u(1) * u(3)
        - a(8) * u(2)
    )
    # Cartan quadrature
    assert eqs[4] == a(4) - a(6) * u(3) + a(7) * u(1) * u(3) - a(7) * u(2)
    assert eqs[5] == a(5) - a(7) * u(2) - a(8) * u(1)
    # lower stages: linear with Cartan exponentials
    assert eqs[6] == (a(6) - a(7) * u(1)) * E({4: 2, 5: -1})
    assert eqs[7] == (
        (a(7) * u(3) + a(8)) * u(6) * E({4: -1, 5: 2}) + a(7) * E({4: 1, 5: 1})
    )
    assert eqs[8] == (a(8) + a(7) * u(3)) * E({4: -1, 5: 2})
    assert len(eqs) == 8


def test_n4_stage_one_riccati_data():
    sched = derive_hierarchy(4)
    st1 = sched.stages[0]
    assert isinstance(st1, RiccatiStage)
    assert st1.unknowns == (1, 2, 3)
    assert st1.c == (a(1), a(2), a(3))
    assert st1.b == (-a(15), -a(14), -a(13))
    expected_C = (
        (-a(8) + 2 * a(9), a(12), a(11)),
        (a(4), -a(7) + a(8) + a(9), a(10)),
        (a(5), a(6), a(7) + a(9)),
    )
    assert st1.C == expected_C


def test_n4_stage_two_riccati_data():
    st2 = derive_hierarchy(4).stages[1]
    assert isinstance(st2, RiccatiStage)
    assert st2.unknowns == (4, 5)
    assert st2.c == (a(4) - a(15) * u(2), a(5) - a(15) * u(3))
    assert st2.b == (-a(12) + a(14) * u(1), -a(11) + a(13) * u(1))
    assert st2.C == (
        (
            -a(7) + 2 * a(8) - a(9) - a(14) * u(2) + a(15) * u(1),
            a(10) - a(13) * u(2),
        ),
        (
            a(6) - a(14) * u(3),
            a(7) + a(8) - a(9) - a(13) * u(3) + a(15) * u(1),
        ),
    )


def test_n4_scalar_stage_riccati_data():
    st3 = derive_hierarchy(4).stages[2]
    assert isinstance(st3, RiccatiStage)
    assert st3.unknowns == (6,)
    assert st3.c == (a(6) - a(12) * u(5) + a(14) * u(1) * u(5) - a(14) * u(3),)
    assert st3.C == (
        (
            2 * a(7)
            - a(8)
            - a(11) * u(5)
            + a(12) * u(4)
            + a(13) * u(1) * u(5)
            - a(13) * u(3)
            - a(14) * u(1) * u(4)
            + a(14) * u(2),
        ),
    )
    assert st3.b == (-a(10) + a(11) * u(4) - a(13) * u(1) * u(4) + a(13) * u(2),)


def test_n4_shape():
    sched = derive_hierarchy(4)
    assert sched.n == 15
    assert len(dict(sched.equations())) == 15
    kinds = [(s.kind, s.k) for s in sched.stages]
    assert kinds == [
        ("riccati", 1),
        ("riccati", 2),
        ("riccati", 3),
        ("cartan", 0),
        ("linear", 3),
        ("linear", 2),
        ("linear", 1),
    ]


def test_riccati_rhs_assembly():
    # rhs_exprs must equal c + C u + u (b . u) termwise
    st1 = derive_hierarchy(3).stages[0]
    u1, u2 = u(1), u(2)
    quad = st1.b[0] * u1 + st1.b[1] * u2
    want0 = st1.c[0] + st1.C[0][0] * u1 + st1.C[0][1] * u2 + u1 * quad
    want1 = st1.c[1] + st1.C[1][0] * u1 + st1.C[1][1] * u2 + u2 * quad
    assert st1.rhs_exprs() == (want0, want1)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_stage_structure(N):
    sched = derive_hierarchy(N)
    part = algebra(N).partition
    cartan = set(part.cartan)
    solved: set[int] = set()
    for stage in sched.stages:
        own = set(stage.unknowns)
        for expr in stage.rhs_exprs():
            # no unknown from this or any later stage, except the
            # Cartan exponentials of linear stages and the Riccati
            # stage's own quadratic coupling
            deps = expr.u_indices()
            if stage.kind == "riccati":
                assert deps <= solved | own
                assert expr.degree_in(own) <= 2
            else:
                assert deps <= solved
            if stage.kind == "linear":
                assert expr.exp_indices() <= cartan
            else:
                assert not expr.exp_indices()
        solved |= own


def test_cartan_stage_is_quadrature():
    st = derive_hierarchy(3).stages[2]
    assert isinstance(st, CartanStage)
    assert st.unknowns == (4, 5)
    upper = {1, 2, 3}
    for expr in st.rhs:
        assert expr.u_indices() <= upper


def test_lower_stages_are_linear_in_prior_lower_unknowns():
    sched = derive_hierarchy(4)
    lower = [s for s in sched.stages if s.kind == "linear"]
    assert [s.unknowns for s in lower] == [(10,), (11, 12), (13, 14, 15)]
    assert all(isinstance(s, LinearStage) for s in lower)
    prior: set[int] = set()
    for s in lower:
        for expr in s.rhs:
            assert expr.degree_in(prior | set(s.unknowns)) <= 1
        prior |= set(s.unknowns)


def test_latex_emission_keeps_term_granularity():
    tex = emit(derive_hierarchy(4), "latex")
    for frag in (
        "- a_{10} u_{6}^{2}",
        "+ a_{11} u_{4} u_{6}^{2}",
        "- a_{13} u_{1} u_{4} u_{6}^{2}",
        "+ a_{13} u_{2} u_{6}^{2}",
    ):
        assert frag in tex
    assert "e^{2 u_{7} - u_{8}}" in tex
    assert tex.count(r"\begin{aligned}") == tex.count(r"\end{aligned}") >= 1


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(derive_hierarchy(2), "pdf")


# -- staged solve vs dense oracle ----------------------------------------------


@given(
    N=st.sampled_from([2, 3, 4, 5, 6, 8, 12]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_staged_solve_matches_dense(N, seed):
    alg = algebra(N)
    rng = np.random.default_rng(seed)
    uv = 0.7 * (rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n))
    av = rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
    up = rhs(alg, uv, matrix_from_coefficients(av, alg.basis))
    A = assemble_A_numeric(alg, uv)
    dense = np.linalg.solve(A, av)
    assert np.linalg.norm(up - dense) < 1e-10 * max(np.linalg.norm(dense), 1.0)


@pytest.mark.parametrize("N", [2, 3, 6])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rhs_non_finite_state_stays_rejectable(N, bad):
    # the step controller rejects a trial stage whose rhs is non-finite, so
    # a pole in u must come back as inf/nan and not as an exception
    alg = algebra(N)
    rng = np.random.default_rng(N)
    M = matrix_from_coefficients(rng.standard_normal(alg.n) + 0j, alg.basis)
    for slot in range(alg.n):
        uv = 0.7 * rng.standard_normal(alg.n) + 0j
        uv[slot] = bad
        assert not np.all(np.isfinite(rhs(alg, uv, M)))


@given(
    N=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gauss_A_matches_oracle(N, seed):
    alg = algebra(N)
    rng = np.random.default_rng(seed)
    uv = 0.7 * (rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n))
    want = assemble_A_numeric(alg, uv)
    got = assemble_A_gauss(alg, uv)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_gauss_A_condition_matches_oracle_near_threshold(N):
    # the monitor switches charts at cond(A) = 1e12; draw root coordinates
    # until 20 states land in [1e10, 1e14].  cond grows about like |u|^(2N),
    # hence the scale range.  The Cartan coordinates stay O(1): with them as
    # large as the roots, D = diag(exp w) spans e^+-100 at N = 2 and the
    # oracle itself is off from a 50-digit reference by about 1e-6.
    alg = algebra(N)
    cartan = alg.basis.maps.cartan
    rng = np.random.default_rng(N)
    kept = 0
    for _ in range(2000):
        uv = 10 ** rng.uniform(0, 8 / N) * (
            rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
        )
        uv[cartan] = 0.7 * (
            rng.standard_normal(N - 1) + 1j * rng.standard_normal(N - 1)
        )
        want = condition_estimate(assemble_A_numeric(alg, uv))
        if not 1e10 <= want <= 1e14:
            continue
        # measured at most 1.1e-9 on these draws
        got = condition_estimate(assemble_A_gauss(alg, uv))
        assert abs(got - want) <= 1e-6 * want
        kept += 1
        if kept == 20:
            return
    pytest.fail(f"only {kept} draws landed in the band")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_condition_estimate_of_non_finite_A_is_inf(bad):
    # past a pole the assembled A overflows; the monitor must read that as
    # infinitely ill-conditioned, not stop on an SVD that does not converge
    A = np.eye(3, dtype=complex)
    A[1, 2] = bad
    assert condition_estimate(A) == np.inf


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_factor_matrix_is_identity_at_origin(N):
    alg = algebra(N)
    assert np.array_equal(assemble_A_numeric(alg, np.zeros(alg.n)), np.eye(alg.n))


@pytest.mark.parametrize("N", range(2, 9))
def test_symbolic_schedule_matches_numeric_peel(N):
    alg = algebra(N)
    sched = derive_hierarchy(N)
    rng = np.random.default_rng(3)
    uv = 0.5 * (rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n))
    av = rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
    sym = sched.evaluate_rhs(uv, av)
    num = rhs(alg, uv, matrix_from_coefficients(av, alg.basis))
    assert np.linalg.norm(sym - num) < 1e-10 * max(np.linalg.norm(num), 1.0)


@pytest.mark.parametrize("N", range(2, 9))
def test_riccati_rhs_matches_the_symbolic_stages(N):
    # the numeric Riccati hierarchy and Cartan quadrature against the
    # RiccatiStage and CartanStage equations of derive_hierarchy
    alg = algebra(N)
    maps = alg.basis.maps
    sched = derive_hierarchy(N)
    riccati = [i for st in sched.stages if st.kind == "riccati" for i in st.unknowns]
    assert riccati == list(range(1, maps.upper.stop + 1))
    rng = np.random.default_rng(40 + N)
    for _ in range(5):
        uv = 0.5 * (rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n))
        av = rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
        M = matrix_from_coefficients(av, alg.basis)
        _, upper, cartan = riccati_rhs(alg, maps.upper_factor(uv), M)
        sym = sched.evaluate_rhs(uv, av)
        for got, want in ((upper, sym[maps.upper]), (cartan, sym[maps.cartan])):
            assert np.linalg.norm(got - want) < 1e-12 * max(np.linalg.norm(want), 1.0)


def test_rhs_validates_shapes():
    alg = algebra(2)
    with pytest.raises(ValueError, match="3-vector"):
        rhs(alg, np.zeros(2), matrix_from_coefficients(np.zeros(3), alg.basis))


# -- factor-matrix block structure ----------------------------------------------


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_factor_matrix_block_structure(N):
    assert check_A_block_structure(algebra(N)) == []


def test_block_structure_check_reports_violations():
    alg = algebra(2)
    A = assemble_A_symbolic(alg)
    A[2][0] = SymbolicExpr.a(1)  # plant a below-diagonal entry
    violations = check_A_block_structure(alg, A)
    assert violations and "A[3,1]" in violations[0]


def test_corrupted_ordering_breaks_stage_locality():
    with pytest.raises(StageLocalityError):
        _derive_from_algebra(_corrupted_algebra())


def test_corrupted_ordering_has_no_group_peel():
    # the group-level peel needs every root block to be one matrix line
    with pytest.raises(ValueError, match="not one matrix line"):
        _corrupted_algebra().basis.maps


# -- JSON round-trip -------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 3, 4])
def test_json_roundtrip(N):
    sched = derive_hierarchy(N)
    back = parse_hierarchy_json(emit(sched, "json"))
    assert back == sched


@pytest.mark.parametrize("N", range(2, 9))
def test_json_writer_matches_json_dumps(N):
    sched = derive_hierarchy(N)
    got = emit(sched, "json").splitlines(keepends=True)
    want = (json.dumps(_schedule_to_obj(sched), indent=2) + "\n").splitlines(keepends=True)
    # the first differing line, not a diff of megabytes of text
    first = next(((i, g, w) for i, (g, w) in enumerate(zip(got, want), 1) if g != w), None)
    assert first is None
    assert len(got) == len(want)


def test_json_parse_rejects_bad_input():
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_hierarchy_json("{")
    with pytest.raises(ValueError, match="schema"):
        parse_hierarchy_json('{"schema": "other/9", "stages": []}')


def _first_coefficient(obj: dict) -> dict:
    return obj["stages"][0]["c"][0][0]["coeff"]


def _spoiled(change) -> str:
    obj = json.loads(emit(derive_hierarchy(2), "json"))
    change(obj)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("[1, 2]", "unsupported schema None", id="not-an-object"),
        pytest.param(_spoiled(lambda o: o.pop("stages")), "lacks the key 'stages'",
                     id="no-stages"),
        pytest.param(_spoiled(lambda o: o["stages"][0].pop("unknowns")),
                     "lacks the key 'unknowns'", id="stage-without-unknowns"),
        pytest.param(_spoiled(lambda o: _first_coefficient(o).update(re=[1, 0])),
                     "malformed hierarchy JSON", id="zero-denominator"),
        pytest.param(_spoiled(lambda o: o.update(stages=3)), "malformed hierarchy JSON",
                     id="stages-a-number"),
        pytest.param(_spoiled(lambda o: _first_coefficient(o).update(re=[])),
                     "malformed hierarchy JSON", id="empty-coefficient"),
    ],
)
def test_json_parse_raises_only_value_error(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_hierarchy_json(text)
