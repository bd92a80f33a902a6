"""LP container and solver boundary: worked examples, vertex-enumeration
cross-checks, determinism, the feasibility check, the numpy-built CSC layout
against SciPy's, bit-for-bit agreement between the persistent HiGHS model and
the ``linprog`` reference, the concurrent runs of :func:`run_ahead`, and the
HiGHS extension loaded without ``scipy.optimize``."""

from __future__ import annotations

import itertools
import math
import queue
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from reccoord.billing import activation_price
from reccoord.central import (PlannerMode, SolvedDay, _DayModel, default_refs,
                              solve_centralized)
from reccoord.cli import main
from reccoord import lpcore
from reccoord.decentral import MemberAgent
from reccoord.lpcore import (LpError, LpProblem, LpStatus, TOL_FEAS, TOL_OPT,
                             run_ahead, solve_lp)
from reccoord.scenario import SyntheticConfig, generate_synthetic
import scipy
from scipy.optimize._highspy import _core as _highs
from scipy.sparse import csc_array
from helpers import run_python, scipy_without_highs, solve_with_linprog


def test_single_variable_lower_bounded():
    p = LpProblem()
    (x,) = p.add_variables("x", 1, 0.0, 10.0)
    p.add_rows(">=", 3.0, [(x, 1.0)])
    p.add_objective(x, 1.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.x[x] == pytest.approx(3.0, abs=1e-9)


def test_contradictory_rows_are_infeasible():
    p = LpProblem()
    (x,) = p.add_variables("x", 1, 0.0, 10.0)
    p.add_rows(">=", 3.0, [(x, 1.0)])
    p.add_rows("<=", 2.0, [(x, 1.0)])
    sol = solve_lp(p)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.x is None


def test_unbounded_detected():
    p = LpProblem()
    (x,) = p.add_variables("x", 1, 0.0, math.inf)
    p.add_objective(x, -1.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.UNBOUNDED


def test_simplex_edge_optimum():
    """min -x-y over the unit simplex: both vertices optimal at -1."""
    p = LpProblem()
    (x,) = p.add_variables("x", 1)
    (y,) = p.add_variables("y", 1)
    p.add_rows("<=", 1.0, [(x, 1.0), (y, 1.0)])
    p.add_objective(x, -1.0)
    p.add_objective(y, -1.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert sol.x[x] + sol.x[y] == pytest.approx(1.0, abs=1e-9)


def test_duplicate_terms_accumulate():
    p = LpProblem()
    (x,) = p.add_variables("x", 1, 0.0, 5.0)
    p.add_rows(">=", 4.0, [(x, 1.0), (x, 1.0)])  # 2x >= 4
    p.add_objective(x, 1.0)
    sol = solve_lp(p)
    assert sol.x[x] == pytest.approx(2.0, abs=1e-9)


def test_builder_rejects_malformed_input():
    p = LpProblem()
    (x,) = p.add_variables("x", 1)
    with pytest.raises(LpError, match="lb"):
        p.add_variables("y", 1, 2.0, 1.0)
    with pytest.raises(LpError, match="out of range"):
        p.add_rows("<=", 1.0, [(1, 1.0)])
    with pytest.raises(LpError, match="non-finite"):
        p.add_rows("<=", 1.0, [(x, math.nan)])
    with pytest.raises(LpError, match="non-finite"):
        p.add_rows("<=", math.inf, [(x, 1.0)])
    with pytest.raises(LpError, match="sense"):
        p.add_rows("<", 1.0, [(x, 1.0)])


def test_crossed_bounds_name_the_column():
    p = LpProblem()
    p.add_variables("a", 2)
    p.add_variables("empty", 0)
    soc = p.add_variables("soc", 4, 0.0, 1.0)
    with pytest.raises(LpError, match=r"^variable 'pv\.2' has lb 2\.0 > ub 1\.0$"):
        p.add_variables("pv", 3, [0.0, 0.0, 2.0], 1.0)
    with pytest.raises(LpError, match=r"^variable 'soc\.3' has lb 5\.0 > ub 1\.0$"):
        p.set_bounds(soc[[1, 3]], [0.0, 5.0], 1.0)
    with pytest.raises(LpError, match=r"^variable 'a\.0' has lb 1\.0 > ub 0\.0$"):
        p.set_bounds(0, 1.0, 0.0)
    assert p.num_variables == 6


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate candidate vertices of a box-bounded LP


def _enumerate_optimum(c, rows, rhs, lb, ub):
    """Exact optimum of min c.x s.t. rows.x <= rhs, lb <= x <= ub, by trying
    every choice of n tight constraints among rows and bounds."""
    n = len(c)
    cons = [(np.asarray(row), float(r)) for row, r in zip(rows, rhs)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cons.append((e, ub[i]))
        cons.append((-e, -lb[i]))

    best = None
    for combo in itertools.combinations(range(len(cons)), n):
        a = np.array([cons[i][0] for i in combo])
        b = np.array([cons[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        x = np.linalg.solve(a, b)
        feasible = all(row @ x <= r + 1e-9 for row, r in cons)
        if feasible and np.all(x >= lb - 1e-9) and np.all(x <= ub + 1e-9):
            value = float(c @ x)
            if best is None or value < best:
                best = value
    return best


def test_solver_matches_vertex_enumeration_on_random_lps():
    rng = np.random.default_rng(2024)
    solved = 0
    for trial in range(40):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 5))
        c = rng.uniform(-2.0, 2.0, size=n)
        rows = rng.uniform(-1.0, 1.0, size=(m, n))
        rhs = rng.uniform(-0.5, 2.0, size=m)
        lb = np.zeros(n)
        ub = rng.uniform(0.5, 3.0, size=n)

        p = LpProblem(f"rand{trial}")
        cols = p.add_variables("x", n, lb, ub)
        for row, r in zip(rows, rhs):
            p.add_rows("<=", float(r), [(cols, row, 0)])
        p.add_objective(cols, c)

        sol = solve_lp(p)
        expected = _enumerate_optimum(c, rows, rhs, lb, ub)
        if expected is None:
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-7, rel=TOL_OPT)
            assert p.max_violation(sol.x) <= TOL_FEAS
            solved += 1
    assert solved > 20  # the generator must actually produce solvable cases


def test_constraint_order_does_not_change_objective():
    rng = np.random.default_rng(17)
    n, m = 4, 6
    c = rng.uniform(-1.0, 1.0, size=n)
    rows = rng.uniform(-1.0, 1.0, size=(m, n))
    rhs = rng.uniform(0.2, 2.0, size=m)

    def build(order):
        p = LpProblem()
        cols = p.add_variables("x", n, 0.0, 2.0)
        for k in order:
            p.add_rows("<=", float(rhs[k]), [(cols, rows[k], 0)])
        p.add_objective(cols, c)
        return solve_lp(p)

    base = build(range(m))
    shuffled = build([3, 1, 5, 0, 4, 2])
    assert base.status is LpStatus.OPTIMAL
    assert shuffled.objective == pytest.approx(base.objective, rel=TOL_OPT, abs=1e-9)


def test_resolving_identical_problem_is_deterministic():
    def build():
        p = LpProblem()
        (x,) = p.add_variables("x", 1, 0.0, 4.0)
        (y,) = p.add_variables("y", 1, 0.0, 4.0)
        p.add_rows("<=", 5.0, [(x, 1.0), (y, 2.0)])
        p.add_objective(x, -1.0)
        p.add_objective(y, -1.0)
        return solve_lp(p)

    a, b = build(), build()
    assert a.objective == b.objective
    assert list(a.x) == list(b.x)


# ---------------------------------------------------------------------------
# The feasibility check


def _check_lp() -> LpProblem:
    """u in [0, 1]; free v, w, z; rows 2v <= 4, w >= -1, z = 3."""
    p = LpProblem("check")
    p.add_variables("u", 1, 0.0, 1.0)
    v, w, z = p.add_variables("free", 3, -math.inf, math.inf)
    p.add_rows("<=", 4.0, [(v, 2.0)])
    p.add_rows(">=", -1.0, [(w, 1.0)])
    p.add_rows("=", 3.0, [(z, 1.0)])
    return p


@pytest.mark.parametrize("point, expected", [
    ((0.5, 0.0, 0.0, 3.0), 0.0),         # feasible
    ((0.5, 2.125, 0.0, 3.0), 0.25),      # <= row: 4.25 against 4
    ((0.5, 0.0, -1.5, 3.0), 0.5),        # >= row: -1.5 against -1
    ((0.5, 0.0, 0.0, 3.125), 0.125),     # = row, above
    ((0.5, 0.0, 0.0, 2.75), 0.25),       # = row, below
    ((-0.75, 0.0, 0.0, 3.0), 0.75),      # finite lower bound
    ((1.0625, 0.0, 0.0, 3.0), 0.0625),   # finite upper bound
    ((-0.75, 2.125, -1.5, 3.125), 0.75),  # the largest of several
    ((0.5, -1e300, 1e300, 3.0), 0.0),    # infinite bounds never report
])
def test_max_violation_reports_the_exact_worst_violation(point, expected):
    assert _check_lp().max_violation(np.array(point)) == expected


# ---------------------------------------------------------------------------
# The matrix layout, assembled with numpy, against SciPy's


def _random_entries(rng, most: int) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """A shape ``(m, n)`` and entries ``(r, c, v)`` at random distinct
    positions, each repeated up to ``most`` times, about a fifth of them
    explicit zeros, in random order."""
    m, n = (int(k) for k in rng.integers(1, 12, size=2))
    pos = rng.choice(m * n, size=int(rng.integers(1, m * n + 1)), replace=False)
    pos = rng.permutation(np.repeat(pos, rng.integers(1, most + 1, size=pos.size)))
    v = rng.normal(size=pos.size)
    v[rng.random(pos.size) < 0.2] = 0.0
    return m, n, pos // n, pos % n, v


def _scipy_csc(v, r, c, shape) -> csc_array:
    """SciPy's canonical CSC matrix of the entries, with int32 indexes as
    HiGHS takes them (SciPy keeps the index type it is given)."""
    return csc_array((v, (r.astype(np.int32), c.astype(np.int32))), shape=shape)


def _one_block(sense: str, m: int, n: int, r, c, v) -> LpProblem:
    p = LpProblem("block")
    x = p.add_variables("x", n, -1.0, 1.0)
    p.add_rows(sense, np.zeros(m), [(x[c], v, r)])
    return p


@pytest.mark.parametrize("sense", ["<=", ">=", "="])
@pytest.mark.parametrize("seed", range(20))
def test_csc_arrays_are_scipys_bit_for_bit(sense, seed):
    """One block of rows with explicit zeros and entries repeated at most
    twice: the arrays HiGHS receives are those of SciPy's canonical CSC matrix
    of the same entries (``>=`` rows negated), zeros and signs of zero kept."""
    m, n, r, c, v = _random_entries(np.random.default_rng(seed), most=2)
    a = _one_block(sense, m, n, r, c, v)._highs_layout()[0]
    ref = _scipy_csc(-1.0 * v if sense == ">=" else v, r, c, (m, n))
    for got, want in zip(a, (ref.indptr, ref.indices, ref.data)):
        assert _same_bits(got, want)


@pytest.mark.parametrize("seed", range(20))
def test_entries_repeated_more_often_give_scipys_structure(seed):
    """Three or more repeats of an entry are summed in another order than
    SciPy's, so only the last bit of their sum may differ."""
    m, n, r, c, v = _random_entries(np.random.default_rng(seed), most=5)
    indptr, indices, data = _one_block("<=", m, n, r, c, v)._highs_layout()[0]
    ref = _scipy_csc(v, r, c, (m, n))
    assert _same_bits(indptr, ref.indptr) and _same_bits(indices, ref.indices)
    np.testing.assert_allclose(data, ref.data, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("seed", range(20))
def test_max_violation_matches_a_dense_reference(seed):
    rng = np.random.default_rng(seed)
    p = LpProblem("dense")
    n = 8
    x = p.add_variables("x", n, rng.uniform(-1.0, 0.0, n), rng.uniform(0.0, 1.0, n))
    dense, lo, hi = [], [], []
    for sense in ("<=", ">=", "="):
        m, _, r, c, v = _random_entries(rng, most=3)
        c = c * n // (c.max() + 1)  # spread over the n columns
        b = rng.normal(size=m)
        p.add_rows(sense, b, [(x[c], v, r)])
        a = np.zeros((m, n))
        np.add.at(a, (r, c), v)
        dense.append(a)
        lo.append(np.full(m, -math.inf) if sense == "<=" else b)
        hi.append(np.full(m, math.inf) if sense == ">=" else b)
    point = rng.normal(size=n)
    y = np.concatenate(dense) @ point
    lb, ub = p.bounds()
    expected = max(0.0, np.max(np.concatenate(lo) - y), np.max(y - np.concatenate(hi)),
                   np.max(lb - point), np.max(point - ub))
    assert p.max_violation(point) == pytest.approx(expected, rel=0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Agreement with the reference: the persistent HiGHS model and linprog solve
# the same layout


@pytest.fixture(scope="module")
def community():
    return generate_synthetic(SyntheticConfig(members=4, seed=11, dt_hours=1.0, pv_total_kwp=20.0))


def _day_lp(scenario) -> LpProblem:
    return _DayModel(SolvedDay(scenario, 0), PlannerMode.EC_FLEX, None, None).problem


def _member_agent(scenario) -> MemberAgent:
    day = scenario.for_day(0)
    m = next(m for m in day.members if m.has_flexibility)
    ecfix = solve_centralized(SolvedDay(scenario, 0), PlannerMode.EC_FIX)
    return MemberAgent(m, default_refs(day)[m.id], {}, day.horizon.dt_hours,
                       ecfix.member(m.id), activation_price(day.prices))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _limit_member(agent: MemberAgent, scale: float) -> LpProblem:
    """The agent's subproblem with shift limits and references set as for a solve."""
    steps = len(agent.member.fixed_load_kw)
    limits = scale * np.linspace(0.5, 2.0, steps)
    agent._lp.set_bounds(agent._capu, 0.0, limits)
    agent._lp.set_bounds(agent._capd, 0.0, limits[::-1])
    agent._lp.set_rhs(agent._ref_rows, agent.refs_total)
    return agent._lp


def test_backends_agree_bit_for_bit_on_day_and_member_lps(community):
    day_lp = _day_lp(community)
    member_lp = _limit_member(_member_agent(community), 1.0)
    for problem in (day_lp, member_lp):
        a = solve_lp(problem)
        b = solve_with_linprog(problem)
        assert a.status is b.status is LpStatus.OPTIMAL
        assert _same_bits(a.x, b.x), problem.name
        assert a.objective == b.objective


def test_in_place_resolve_matches_a_fresh_linprog_solve(community):
    agent = _member_agent(community)
    problem = _limit_member(agent, 1.0)
    assert solve_lp(problem).status is LpStatus.OPTIMAL
    attached = problem._attached
    assert attached is not None

    # a bound change and a right-hand-side change on the solved problem
    steps = len(agent.member.fixed_load_kw)
    problem.set_bounds(agent._capu, 0.0, 0.4 * np.linspace(0.5, 2.0, steps))
    shifted = agent.refs_total.copy()
    shifted[: steps // 2] += 0.05
    shifted[steps // 2:] -= 0.05
    problem.set_rhs(agent._ref_rows, shifted)
    resolved = solve_lp(problem)
    assert problem._attached is attached  # edited in place, not rebuilt

    fresh_agent = _member_agent(community)
    fresh = _limit_member(fresh_agent, 1.0)
    fresh.set_bounds(fresh_agent._capu, 0.0, 0.4 * np.linspace(0.5, 2.0, steps))
    fresh.set_rhs(fresh_agent._ref_rows, shifted)
    expected = solve_with_linprog(fresh)
    assert resolved.status is expected.status is LpStatus.OPTIMAL
    assert _same_bits(resolved.x, expected.x)


def test_structural_edit_drops_the_attached_model():
    p = LpProblem()
    (x,) = p.add_variables("x", 1, 0.0, 4.0)
    p.add_objective(x, -1.0)
    assert solve_lp(p).objective == -4.0
    p.set_bounds(x, 0.0, 3.0)
    assert solve_lp(p).objective == -3.0
    assert p._attached is not None
    p.add_rows("<=", 2.0, [(x, 1.0)])
    assert p._attached is None
    assert solve_lp(p).objective == -2.0


# ---------------------------------------------------------------------------
# Warm re-runs: bound edits pushed in place, HiGHS started from its last basis


def _pinned_day_lp(scenario):
    """The ECFlex day LP with every device power bound to its reference, and
    those columns with their flexible bounds."""
    model = _DayModel(SolvedDay(scenario, 0), PlannerMode.EC_FLEX, None, None)
    p = model.problem
    cols = np.concatenate([c for c, _ in model._power])
    refs = np.concatenate([r for _, r in model._power])
    lb, ub = p.bounds()
    p.set_bounds(cols, refs, refs)
    return p, cols, lb[cols], ub[cols]


def test_warm_resolve_matches_a_highs_run_kept_from_the_pinned_basis(community):
    p, cols, lb, ub = _pinned_day_lp(community)
    assert solve_lp(p).status is LpStatus.OPTIMAL
    p.set_bounds(cols, lb, ub)
    warm = solve_lp(p, warm=True)

    # a fresh HiGHS handed the pinned LP, run, relaxed in place and run again
    pinned, _, _, _ = _pinned_day_lp(community)
    a, lhs, rhs = pinned._highs_layout()
    shape = pinned.num_constraints, pinned.num_variables
    lp = _highs.HighsLp()
    lp.num_row_, lp.num_col_ = shape
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = shape
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = a
    lp.col_cost_ = pinned.objective_vector()
    lp.col_lower_, lp.col_upper_ = pinned.bounds()
    lp.row_lower_, lp.row_upper_ = lhs, rhs
    h = _highs._Highs()
    for key, value in lpcore._HIGHS_OPTIONS:
        h.setOptionValue(key, value)
    h.passModel(lp)
    h.run()
    h.changeColsBounds(cols.size, cols.astype(np.int32), lb, ub)
    h.run()
    assert warm.status is LpStatus.OPTIMAL
    assert _same_bits(warm.x, np.array(h.getSolution().col_value))
    iterations = h.getInfo().simplex_iteration_count
    assert p._attached.highs.getInfo().simplex_iteration_count == iterations

    cold = _day_lp(community)
    assert solve_lp(cold).objective == pytest.approx(warm.objective, rel=TOL_OPT)
    assert iterations < cold._attached.highs.getInfo().simplex_iteration_count


def test_warm_without_a_basis_to_start_from_runs_cold(community, monkeypatch):
    """No earlier run, or a structural edit since it, leaves nothing to start
    from: ``warm=True`` then solves cold, with the bits of a cold solve."""
    warm_runs = []
    run = lpcore._run

    def recording(model, warm=False):
        warm_runs.append(warm)
        run(model, warm)

    monkeypatch.setattr(lpcore, "_run", recording)
    p, cols, lb, ub = _pinned_day_lp(community)
    p.set_bounds(cols, lb, ub)
    got = solve_lp(p, warm=True)
    assert warm_runs == [False]
    assert _same_bits(got.x, solve_with_linprog(p).x)

    p.set_bounds(cols, lb, 2.0 * ub)  # a bound edit keeps the basis
    assert solve_lp(p, warm=True).status is LpStatus.OPTIMAL
    assert warm_runs == [False, True]

    p.add_rows("<=", float(np.sum(ub)), [(cols, 1.0, 0)])  # a structural edit drops it
    got = solve_lp(p, warm=True)
    assert warm_runs == [False, True, False]
    assert _same_bits(got.x, solve_with_linprog(p).x)


def _time_runs(monkeypatch) -> list[float]:
    """The wall time of every HiGHS run from now on, as ``_run`` records it."""
    times, run = [], lpcore._run

    def timed(model, warm=False):
        run(model, warm)
        times.append(model.seconds)

    monkeypatch.setattr(lpcore, "_run", timed)
    return times


def test_a_solution_reports_the_highs_run_behind_it(community, monkeypatch):
    """A member LP solved cold, then warm from that basis: each solution holds
    its run's simplex iterations, whether it was warm, and its wall time;
    none of them is part of equality."""
    agent = _member_agent(community)
    problem = _limit_member(agent, 1.0)
    times = _time_runs(monkeypatch)
    cold = solve_lp(problem, warm=True)  # no basis yet: cold
    cold_iterations = problem._attached.highs.getInfo().simplex_iteration_count
    _limit_member(agent, 0.3)
    warm = solve_lp(problem, warm=True)
    assert (cold.warm, warm.warm) == (False, True)
    assert cold.iterations == cold_iterations > 0
    assert warm.iterations == problem._attached.highs.getInfo().simplex_iteration_count
    assert [cold.seconds, warm.seconds] == times and min(times) > 0
    assert solve_lp(problem, warm=True).seconds == warm.seconds  # not run again

    solution = lpcore.LpSolution(LpStatus.OPTIMAL, 1.0, None, "Optimal")
    assert solution == lpcore.LpSolution(LpStatus.OPTIMAL, 1.0, None, "Optimal",
                                         iterations=7, warm=True, seconds=0.5)


def _stop_warm_runs(monkeypatch) -> list[tuple[bool, LpStatus | None]]:
    """Warm HiGHS runs stopped before their first simplex iteration; returns
    the record of every run: started warm, and the status it ended with."""
    record = []
    run = lpcore._run

    def stopping(model, warm=False):
        if warm:
            model.highs.setOptionValue("simplex_iteration_limit", 0)
        try:
            run(model, warm)
        finally:
            model.highs.setOptionValue("simplex_iteration_limit", 2147483647)  # the default
        record.append((warm, lpcore._HIGHS_STATUS.get(model.highs.getModelStatus())))

    monkeypatch.setattr(lpcore, "_run", stopping)
    return record


def test_a_warm_run_that_stops_short_is_run_again_cold(community, monkeypatch):
    """A warm run that does not end optimal is run again cold, once, and the
    cold result is the answer, with the cold run's figures."""
    agent = _member_agent(community)
    problem = _limit_member(agent, 1.0)
    record = _stop_warm_runs(monkeypatch)
    times = _time_runs(monkeypatch)
    assert solve_lp(problem, warm=True).status is LpStatus.OPTIMAL  # no basis yet: cold
    _limit_member(agent, 0.3)
    got = solve_lp(problem, warm=True)
    assert record == [(False, LpStatus.OPTIMAL), (True, None), (False, LpStatus.OPTIMAL)]
    assert got.warm is False and got.seconds == times[-1]
    assert got.iterations == problem._attached.highs.getInfo().simplex_iteration_count > 0
    want = solve_with_linprog(problem)
    assert got.status is want.status is LpStatus.OPTIMAL
    assert _same_bits(got.x, want.x)
    assert solve_lp(problem, warm=True).objective == got.objective
    assert len(record) == 3  # the cold result stands: nothing runs again


# ---------------------------------------------------------------------------
# Running ahead: concurrent HiGHS runs read back by solve_lp


@pytest.fixture
def runs(monkeypatch):
    """The HiGHS models run, in order; run_ahead uses its helper thread
    whatever the machine's affinity."""
    runs = []
    run = lpcore._run

    def counting(model, warm=False):
        runs.append(model)
        run(model, warm)

    monkeypatch.setattr(lpcore, "_run", counting)
    monkeypatch.setattr(lpcore, "_cpus", lambda: 2)
    return runs


def _three_lps(scenario) -> list[LpProblem]:
    """A day LP and two member LPs of one community, set up for a solve."""
    return [_day_lp(scenario),
            _limit_member(_member_agent(scenario), 1.0),
            _limit_member(_member_agent(scenario), 0.3)]


def _ran(runs: list, problems: list[LpProblem]) -> list[int]:
    """HiGHS runs of each problem's model."""
    return [sum(model is p._attached for model in runs) for p in problems]


def test_run_ahead_then_solve_gives_the_bits_of_a_solve_alone(community, runs):
    ahead, alone = _three_lps(community), _three_lps(community)
    runs.clear()
    run_ahead(ahead)
    assert _ran(runs, ahead) == [1, 1, 1]
    for a, b in zip(map(solve_lp, ahead), map(solve_lp, alone)):
        assert a.status is b.status is LpStatus.OPTIMAL
        assert _same_bits(a.x, b.x)
        assert a.objective == b.objective
    assert _ran(runs, ahead) == _ran(runs, alone) == [1, 1, 1]


def test_a_change_after_run_ahead_forces_a_new_run(community, runs):
    """A bound change on one member LP and a right-hand-side change on another."""
    agents = [_member_agent(community) for _ in range(4)]
    ahead = [_limit_member(agent, 1.0) for agent in agents[:2]]
    expected = [_limit_member(agent, 1.0) for agent in agents[2:]]
    run_ahead(ahead)
    steps = community.horizon.steps_per_day
    shifted = agents[1].refs_total.copy()
    shifted[: steps // 2] += 0.05
    shifted[steps // 2:] -= 0.05
    for bounded, moved in (agents[:2], agents[2:]):
        bounded._lp.set_bounds(bounded._capu, 0.0, 0.4 * np.linspace(0.5, 2.0, steps))
        moved._lp.set_rhs(moved._ref_rows, shifted)
    runs.clear()
    results = [solve_lp(p) for p in ahead]
    assert _ran(runs, ahead) == [1, 1]
    for got, problem in zip(results, expected):
        want = solve_with_linprog(problem)
        assert got.status is want.status is LpStatus.OPTIMAL
        assert _same_bits(got.x, want.x)


def test_no_highs_run_is_repeated_or_thrown_away(community, runs, monkeypatch):
    problems = _three_lps(community)
    runs.clear()
    run_ahead(problems)
    run_ahead(problems)  # nothing changed: nothing to run
    for problem in problems:
        solve_lp(problem)
        solve_lp(problem)
    assert _ran(runs, problems) == [1, 1, 1]

    # a single stale model is left to solve_lp
    problems[1].set_rhs([0], problems[1]._array("rhs")[0] + 1e-3)
    run_ahead(problems)
    assert _ran(runs, problems) == [1, 1, 1]
    solve_lp(problems[1])
    assert _ran(runs, problems) == [1, 2, 1]

    # one CPU runs nothing ahead
    monkeypatch.setattr(lpcore, "_cpus", lambda: 1)
    fresh = _three_lps(community)
    runs.clear()
    run_ahead(fresh)
    assert runs == []


def test_a_warm_run_ahead_that_stops_short_is_run_again_cold(community, runs, monkeypatch):
    """Run ahead warm, each model gets the warm run ``solve_lp`` would make;
    one that does not end optimal is run again cold by ``solve_lp``, once."""
    agents = [_member_agent(community) for _ in range(2)]
    problems = [_limit_member(agent, 1.0) for agent in agents]
    for problem in problems:
        assert solve_lp(problem, warm=True).status is LpStatus.OPTIMAL
    record = _stop_warm_runs(monkeypatch)
    for agent in agents:
        _limit_member(agent, 0.3)
    run_ahead(problems, warm=True)
    assert record == [(True, None), (True, None)]
    got = [solve_lp(problem, warm=True) for problem in problems]
    assert record[2:] == [(False, LpStatus.OPTIMAL), (False, LpStatus.OPTIMAL)]
    for result, problem in zip(got, problems):
        want = solve_with_linprog(problem)
        assert result.status is want.status is LpStatus.OPTIMAL
        assert _same_bits(result.x, want.x)
    assert _ran(runs, problems) == [3, 3]


def _random_lp(seed: int) -> LpProblem:
    """A small feasible LP: 12 columns in boxes, 8 ``<=`` rows met at zero."""
    rng = np.random.default_rng(seed)
    p = LpProblem(f"rand{seed}")
    cols = p.add_variables("x", 12, 0.0, rng.uniform(0.5, 3.0, 12))
    p.add_rows("<=", rng.uniform(0.0, 2.0, 8),
               [(np.tile(cols, 8), rng.uniform(-1.0, 1.0, 96), np.repeat(np.arange(8), 12))])
    p.add_objective(cols, rng.uniform(-2.0, 2.0, 12))
    return p


def test_run_ahead_under_fast_thread_switches_runs_each_model_once(runs):
    """The caller and the helper switching every microsecond: each model runs
    exactly once and reads back the bits of a solve on its own."""
    alone = [solve_lp(_random_lp(seed)) for seed in range(64)]
    problems = [_random_lp(seed) for seed in range(64)]
    runs.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_ahead(problems)
    finally:
        sys.setswitchinterval(interval)
    assert _ran(runs, problems) == [1] * 64
    for problem, want in zip(problems, alone):
        got = solve_lp(problem)
        assert got.status is want.status is LpStatus.OPTIMAL
        assert _same_bits(got.x, want.x)
    assert _ran(runs, problems) == [1] * 64


def test_run_ahead_keeps_one_helper_thread(runs, monkeypatch):
    """Every call hands its models to the same helper thread, whatever the
    number of CPUs; a helper that is gone is started again."""
    monkeypatch.setattr(lpcore, "_cpus", lambda: 64)
    threads = set()
    counting = lpcore._run

    def on_thread(model, warm=False):
        threads.add(threading.current_thread())
        counting(model, warm)

    monkeypatch.setattr(lpcore, "_run", on_thread)

    def helpers() -> list[threading.Thread]:
        return [t for t in threading.enumerate() if t.name == "highs"]

    for seed in range(0, 24, 3):
        run_ahead([_random_lp(seed + k) for k in range(3)])
    assert len(runs) == 24
    assert len(helpers()) == 1
    assert threads <= {threading.main_thread(), *helpers()}

    # a model that fails to run ends the helper; the next call starts another
    monkeypatch.setattr(threading, "excepthook", lambda args: None)
    (dead,) = helpers()
    broken, done = queue.SimpleQueue(), threading.Event()
    broken.put(None)
    lpcore._helper_jobs().put((broken, done))
    assert done.wait(10.0)
    dead.join(10.0)
    assert not dead.is_alive()
    problems = [_random_lp(seed) for seed in range(3)]
    runs.clear()
    run_ahead(problems)
    assert _ran(runs, problems) == [1, 1, 1]
    assert helpers() == [lpcore._helper[0]] != [dead]


# ---------------------------------------------------------------------------
# The HiGHS extension, loaded from SciPy's files without scipy.optimize


def _fresh(*pieces: str) -> None:
    """Run the code ``pieces`` in a fresh interpreter that imports reccoord
    from where this process does; it fails the test by failing an assert or
    raising."""
    done = run_python(*pieces)
    assert done.returncode == 0, done.stderr


_SMALL_LP = """
    p = lpcore.LpProblem()
    (x,) = p.add_variables("x", 1, 0.0, 10.0)
    p.add_rows(">=", 3.0, [(x, 1.0)])
    p.add_objective(x, 1.0)
"""

_SMALL_SOLVE = _SMALL_LP + """
    solution = lpcore.solve_lp(p)
    assert solution.status is lpcore.LpStatus.OPTIMAL and solution.objective == 3.0
"""

#: Records in ``loads`` the name of every extension module loaded from a file
#: from here on.  CPython hands a second load of an extension the module it
#: made first, so only the record shows whether one was loaded twice.
_RECORD_LOADS = """
    import importlib.machinery
    import sys
    CORE = "scipy.optimize._highspy._core"
    loads = []
    create = importlib.machinery.ExtensionFileLoader.create_module

    def recording(self, spec):
        loads.append(spec.name)
        return create(self, spec)

    importlib.machinery.ExtensionFileLoader.create_module = recording
"""

#: Fails unless neither SciPy's package nor its HiGHS extension is loaded.
_NOTHING_LOADED = """
    loaded = [m for m in ("scipy", CORE) if m in sys.modules]
    assert not loaded and lpcore._highs is None and CORE not in loads, loaded
"""


def test_the_cli_imports_neither_scipy_optimize_nor_scipy_sparse():
    _fresh("""
        import sys
        import reccoord.cli
        from reccoord import lpcore
    """, _SMALL_SOLVE, """
        leaked = [m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules]
        assert not leaked, leaked
    """)


def test_what_solves_nothing_loads_neither_scipy_nor_highs(tmp_path):
    """Importing the CLI, loading, validating and dumping a scenario, help
    and input errors leave SciPy and HiGHS unloaded; the first solve loads
    the extension, once, and still not SciPy's package."""
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    _fresh(_RECORD_LOADS, f"""
        import contextlib
        import io
        import reccoord.cli
        from reccoord import lpcore
        from reccoord.scenario import (dump_scenario, load_bundled_scenario, load_scenario,
                                       validate_scenario)

        scenario = load_scenario(dump_scenario(load_bundled_scenario()))
        assert validate_scenario(scenario) == []
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in (["--help"], ["run", "--help"], ["run", "--modes", "fifo"]):
                try:
                    reccoord.cli.main(argv)
                except SystemExit:
                    pass
                else:
                    raise AssertionError(argv)
            assert reccoord.cli.main(["run", "--scenario", {str(bad)!r}, "--modes", "solofix",
                                      "--out", {str(tmp_path / "out")!r}]) == 2
    """, _NOTHING_LOADED, _SMALL_SOLVE, _SMALL_SOLVE, """
        assert loads.count(CORE) == 1 and CORE in sys.modules and "scipy" not in sys.modules, \
            loads
    """)


def test_a_complete_resume_loads_neither_scipy_nor_highs(tmp_path):
    """A resume over the complete checkpoints of the bundled community's day
    0 (six modes) solves nothing, so it loads no solver and rewrites the
    same reports."""
    bundled = Path(lpcore.__file__).parent / "data" / "community20.json"
    argv = ["run", "--scenario", str(bundled), "--modes",
            "solofix,soloflex,ecfix,ecflex,ecflexit,ecflexitprimed", "--key", "equal", "--trace",
            "--days", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    names = ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl")
    reports = {name: (tmp_path / name).read_bytes() for name in names}
    _fresh(_RECORD_LOADS, f"""
        import reccoord.cli
        from reccoord import lpcore
        assert reccoord.cli.main({argv!r}) == 0
    """, _NOTHING_LOADED)
    assert {name: (tmp_path / name).read_bytes() for name in names} == reports


def test_a_later_scipy_optimize_uses_the_loaded_extension():
    _fresh(_RECORD_LOADS, """
        from reccoord import lpcore
    """, _SMALL_SOLVE, """
        import scipy.optimize
        from scipy.optimize._highspy import _core
        assert _core is lpcore._highs is sys.modules[CORE]
        assert loads.count(CORE) == 1, loads
        res = scipy.optimize.linprog([1.0], A_ub=[[-1.0]], b_ub=[-3.0], bounds=[(0.0, 10.0)],
                                     method="highs")
        assert res.status == 0 and res.x[0] == 3.0
    """)


def test_an_earlier_scipy_optimize_extension_is_reused():
    _fresh(_RECORD_LOADS, """
        import scipy.optimize
        from scipy.optimize._highspy import _core
        from reccoord import lpcore
    """, _SMALL_SOLVE, """
        assert lpcore._highs is _core
        assert loads.count(CORE) == 1, loads
    """)


def test_a_missing_extension_names_the_directory_and_the_scipy_version(tmp_path):
    """A SciPy tree without the extension fails each solve with an
    ``LpError`` naming its ``_highspy`` directory and the installed SciPy's
    version, and never runs that tree's ``scipy/__init__.py``."""
    where = scipy_without_highs(tmp_path)
    _fresh(_RECORD_LOADS, f"""
        sys.path.insert(0, {str(tmp_path)!r})
        from reccoord import lpcore
    """, _SMALL_LP, f"""
        for attempt in range(2):
            try:
                lpcore.solve_lp(p)
            except lpcore.LpError as exc:
                message = str(exc)
            else:
                raise AssertionError("solved without a solver")
            assert message.startswith("cannot load the HiGHS solver: "), message
            assert {str(where)!r} in message, message
            assert "(scipy {scipy.__version__})" in message, message
    """, _NOTHING_LOADED)


# ---------------------------------------------------------------------------
# A run keeps bases, never models


def test_no_lp_model_outlives_a_run(tmp_path):
    """Once a six-mode run returns, a collection leaves no ``LpProblem`` and
    no HiGHS model alive: what the coordination keeps between rounds are
    the members' bases, never their models."""
    _fresh(f"""
        import contextlib, gc, io
        import reccoord.cli
        from reccoord import lpcore

        argv = ["run", "--generate", "members=6", "--seed", "7", "--dt", "1.0", "--modes",
                "solofix,soloflex,ecfix,ecflex,ecflexit,ecflexitprimed", "--key", "equal",
                "--trace", "--out", {str(tmp_path)!r}]
        with contextlib.redirect_stdout(io.StringIO()):
            assert reccoord.cli.main(argv) == 0
        gc.collect()
        alive = [type(o).__name__ for o in gc.get_objects()
                 if isinstance(o, (lpcore.LpProblem, lpcore._HighsModel))]
        assert not alive, alive
    """)
    assert (tmp_path / "trace.jsonl").read_text(), "no coordination round ran"


# ---------------------------------------------------------------------------
# Threads a solve wakes


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="per-thread CPU times are read from /proc")
@pytest.mark.skipif(lpcore._cpus() < 2, reason="one CPU: BLAS starts no worker thread")
def test_a_day_solve_wakes_no_blas_thread():
    """numpy's BLAS starts its worker threads at import, unless a variable
    caps them at one; a BLAS call long enough to split, such as the dot
    product of a day LP's objective (more than 16k columns), wakes them, and
    they then spin beside HiGHS.  So with the variables unset, three day
    solves leave every thread but the caller and ``lpcore``'s helper within
    a few clock ticks of the CPU it had."""
    _fresh("""
        import os
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.pop(var, None)  # before numpy loads its BLAS
        import threading
        import time
        from reccoord import central, lpcore
        from reccoord.central import PlannerMode
        from reccoord.scenario import SyntheticConfig, generate_synthetic

        def cpu_ms():
            out = {}
            for tid in os.listdir("/proc/self/task"):
                try:
                    with open(f"/proc/self/task/{tid}/stat") as f:
                        fields = f.read().rsplit(")", 1)[1].split()
                except OSError:  # the thread ended
                    continue
                ticks = int(fields[11]) + int(fields[12])  # utime + stime
                out[int(tid)] = ticks * 1000 / os.sysconf("SC_CLK_TCK")
            return out

        columns, solve = [], central.solve_lp

        def recording(problem, warm=False):
            columns.append(problem.num_variables)
            return solve(problem, warm)

        central.solve_lp = recording
        solved = central.SolvedDay(generate_synthetic(SyntheticConfig(
            members=24, seed=3, num_days=1)), 0)
        before = cpu_ms()
        for mode in (PlannerMode.SOLO_FIX, PlannerMode.EC_FIX, PlannerMode.SOLO_FLEX):
            central.solve_centralized(solved, mode)
        time.sleep(0.5)  # a woken BLAS thread spins on after the call returns
        gained = {tid: ms - before.get(tid, 0.0) for tid, ms in cpu_ms().items()}
        assert len(columns) == 3 and min(columns) > 16_000, columns
        ours = {threading.get_native_id()}
        if lpcore._helper is not None:
            ours.add(lpcore._helper[0].native_id)
        busy = {tid: ms for tid, ms in gained.items() if tid not in ours and ms > 30.0}
        assert not busy, f"CPU ms gained by other threads: {busy}"
    """)
