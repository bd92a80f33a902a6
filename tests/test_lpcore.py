"""LP container and solver boundary: worked examples, vertex-enumeration
cross-checks, determinism, MPS dumping, the feasibility check and agreement
between the persistent HiGHS backend and ``linprog``."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from reccoord.billing import activation_price
from reccoord.central import (CarriedState, PlannerMode, build_day_problem, default_refs,
                              solve_centralized)
from reccoord.decentral import MemberAgent, settle_community
from reccoord.lpcore import (LpError, LpProblem, LpStatus, TOL_FEAS, TOL_OPT,
                             solve_lp)
from reccoord.scenario import SyntheticConfig, generate_synthetic


def test_single_variable_lower_bounded():
    p = LpProblem()
    x = p.add_variable("x", 0.0, 10.0)
    p.add_constraint([(x, 1.0)], ">=", 3.0)
    p.add_objective_term(x, 1.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.values["x"] == pytest.approx(3.0, abs=1e-9)


def test_contradictory_rows_are_infeasible():
    p = LpProblem()
    x = p.add_variable("x", 0.0, 10.0)
    p.add_constraint([(x, 1.0)], ">=", 3.0)
    p.add_constraint([(x, 1.0)], "<=", 2.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.x is None


def test_unbounded_detected():
    p = LpProblem()
    x = p.add_variable("x", 0.0, math.inf)
    p.add_objective_term(x, -1.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.UNBOUNDED


def test_simplex_edge_optimum():
    """min -x-y over the unit simplex: both vertices optimal at -1."""
    p = LpProblem()
    x = p.add_variable("x")
    y = p.add_variable("y")
    p.add_constraint([(x, 1.0), (y, 1.0)], "<=", 1.0)
    p.add_objective_term(x, -1.0)
    p.add_objective_term(y, -1.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert sol.values["x"] + sol.values["y"] == pytest.approx(1.0, abs=1e-9)


def test_duplicate_terms_accumulate():
    p = LpProblem()
    x = p.add_variable("x", 0.0, 5.0)
    p.add_constraint([(x, 1.0), (x, 1.0)], ">=", 4.0)  # 2x >= 4
    p.add_objective_term(x, 1.0)
    sol = solve_lp(p)
    assert sol.values["x"] == pytest.approx(2.0, abs=1e-9)


def test_builder_rejects_malformed_input():
    p = LpProblem()
    x = p.add_variable("x")
    with pytest.raises(LpError, match="duplicate"):
        p.add_variable("x")
    with pytest.raises(LpError, match="lb"):
        p.add_variable("y", 2.0, 1.0)
    with pytest.raises(LpError, match="unknown variable"):
        p.add_constraint([("nope", 1.0)], "<=", 1.0)
    with pytest.raises(LpError, match="non-finite"):
        p.add_constraint([(x, math.nan)], "<=", 1.0)
    with pytest.raises(LpError, match="non-finite"):
        p.add_constraint([(x, 1.0)], "<=", math.inf)
    with pytest.raises(LpError, match="sense"):
        p.add_constraint([(x, 1.0)], "<", 1.0)


def test_unknown_backend_rejected():
    p = LpProblem()
    p.add_variable("x", 0.0, 1.0)
    with pytest.raises(LpError, match="unknown LP backend"):
        solve_lp(p, backend="cplex")


def test_backend_from_environment(monkeypatch):
    p = LpProblem()
    p.add_variable("x", 0.0, 1.0)
    monkeypatch.setenv("RECCOORD_SOLVER", "highs")
    assert solve_lp(p).status is LpStatus.OPTIMAL
    monkeypatch.setenv("RECCOORD_SOLVER", "bogus")
    with pytest.raises(LpError, match="unknown LP backend"):
        solve_lp(p)


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
        cols = [p.add_variable(f"x{i}", lb[i], ub[i]) for i in range(n)]
        for row, r in zip(rows, rhs):
            p.add_constraint([(cols[i], row[i]) for i in range(n)], "<=", float(r))
        for i in range(n):
            p.add_objective_term(cols[i], float(c[i]))

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
        cols = [p.add_variable(f"x{i}", 0.0, 2.0) for i in range(n)]
        for k in order:
            p.add_constraint([(cols[i], rows[k][i]) for i in range(n)], "<=", float(rhs[k]))
        for i in range(n):
            p.add_objective_term(cols[i], float(c[i]))
        return solve_lp(p)

    base = build(range(m))
    shuffled = build([3, 1, 5, 0, 4, 2])
    assert base.status is LpStatus.OPTIMAL
    assert shuffled.objective == pytest.approx(base.objective, rel=TOL_OPT, abs=1e-9)


def test_resolving_identical_problem_is_deterministic():
    def build():
        p = LpProblem()
        x = p.add_variable("x", 0.0, 4.0)
        y = p.add_variable("y", 0.0, 4.0)
        p.add_constraint([(x, 1.0), (y, 2.0)], "<=", 5.0)
        p.add_objective_term(x, -1.0)
        p.add_objective_term(y, -1.0)
        return solve_lp(p)

    a, b = build(), build()
    assert a.objective == b.objective
    assert list(a.x) == list(b.x)


def test_mps_dump_structure():
    p = LpProblem("demo")
    x = p.add_variable("flow", 1.0, 10.0)
    y = p.add_variable("level", -math.inf, math.inf)
    p.add_constraint([(x, 2.0), (y, -1.0)], "<=", 4.0)
    p.add_constraint([(x, 1.0)], ">=", 1.5)
    p.add_constraint([(y, 1.0)], "=", 0.5)
    p.add_objective_term(x, 3.0)
    text = p.to_mps()

    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    assert " N  COST" in text
    assert " L  R1" in text
    assert " G  R2" in text
    assert " E  R3" in text
    assert "* X1 = flow" in text
    assert " FR BND       X2" in text
    assert p.to_mps() == text  # deterministic


# ---------------------------------------------------------------------------
# The feasibility check


def _check_lp() -> LpProblem:
    """u in [0, 1]; free v, w, z; rows 2v <= 4, w >= -1, z = 3."""
    p = LpProblem("check")
    p.add_variable("u", 0.0, 1.0)
    for name in ("v", "w", "z"):
        p.add_variable(name, -math.inf, math.inf)
    p.add_constraint([("v", 2.0)], "<=", 4.0)
    p.add_constraint([("w", 1.0)], ">=", -1.0)
    p.add_constraint([("z", 1.0)], "=", 3.0)
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
# Backend agreement: the persistent HiGHS model and linprog see the same model


@pytest.fixture(scope="module")
def community():
    return generate_synthetic(SyntheticConfig(members=4, seed=11, steps_per_day=24,
                                              dt_hours=1.0, pv_total_kwp=20.0))


def _member_agent(scenario) -> MemberAgent:
    day = scenario.for_day(0)
    m = next(m for m in day.members if m.has_flexibility)
    ecfix = solve_centralized(scenario, 0, PlannerMode.EC_FIX)
    return MemberAgent(m, default_refs(day)[m.id], CarriedState(), day.horizon.dt_hours,
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
    day_lp = build_day_problem(community, 0, PlannerMode.EC_FLEX)
    member_lp = _limit_member(_member_agent(community), 1.0)
    for problem in (day_lp, member_lp):
        a = solve_lp(problem, backend="highs")
        b = solve_lp(problem, backend="linprog")
        assert a.status is b.status is LpStatus.OPTIMAL
        assert _same_bits(a.x, b.x), problem.name
        assert a.objective == b.objective


def test_backends_agree_bit_for_bit_on_the_settlement(community, monkeypatch):
    day = community.for_day(0)
    sched = solve_centralized(community, 0, PlannerMode.EC_FLEX)
    injections = {m.member_id: m.injection_kw for m in sched.members}
    out = {}
    for backend in ("highs", "linprog"):
        monkeypatch.setenv("RECCOORD_SOLVER", backend)
        out[backend] = settle_community(day.prices, day.horizon.dt_hours, injections)
    for uid, legs in out["highs"].items():
        for tag, values in legs.items():
            assert _same_bits(values, out["linprog"][uid][tag]), (uid, tag)


def test_in_place_resolve_matches_a_fresh_linprog_solve(community):
    agent = _member_agent(community)
    problem = _limit_member(agent, 1.0)
    assert solve_lp(problem, backend="highs").status is LpStatus.OPTIMAL
    attached = problem._attached
    assert attached is not None

    # a bound change and a right-hand-side change on the solved problem
    steps = len(agent.member.fixed_load_kw)
    problem.set_bounds(agent._capu, 0.0, 0.4 * np.linspace(0.5, 2.0, steps))
    shifted = agent.refs_total.copy()
    shifted[: steps // 2] += 0.05
    shifted[steps // 2:] -= 0.05
    problem.set_rhs(agent._ref_rows, shifted)
    resolved = solve_lp(problem, backend="highs")
    assert problem._attached is attached  # edited in place, not rebuilt

    fresh_agent = _member_agent(community)
    fresh = _limit_member(fresh_agent, 1.0)
    fresh.set_bounds(fresh_agent._capu, 0.0, 0.4 * np.linspace(0.5, 2.0, steps))
    fresh.set_rhs(fresh_agent._ref_rows, shifted)
    expected = solve_lp(fresh, backend="linprog")
    assert resolved.status is expected.status is LpStatus.OPTIMAL
    assert _same_bits(resolved.x, expected.x)


def test_structural_edit_drops_the_attached_model():
    p = LpProblem()
    x = p.add_variable("x", 0.0, 4.0)
    p.add_objective_term(x, -1.0)
    assert solve_lp(p, backend="highs").objective == -4.0
    p.set_bounds(x, 0.0, 3.0)
    assert solve_lp(p, backend="highs").objective == -3.0
    assert p._attached is not None
    p.add_constraint([(x, 1.0)], "<=", 2.0)
    assert p._attached is None
    assert solve_lp(p, backend="highs").objective == -2.0
