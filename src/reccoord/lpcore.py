"""Sparse linear-program container and the solver boundary.

:class:`LpProblem` declares variables and rows in vectorized blocks (one call
adds the T variables or T rows of a series) under a minimizing objective.
The ``RECCOORD_SOLVER`` environment variable selects the backend:

* ``highs`` (default) keeps a persistent HiGHS model attached to the problem.
  Bound and right-hand-side edits reach it in place, as changes of only the
  entries that moved; a structural edit drops it.  The coordination loop's
  member subproblems are built once per day and re-solved this way.
* ``linprog`` hands the problem to ``scipy.optimize.linprog`` afresh.

Every solve runs cold, so results do not depend on solve history.  Both
backends give HiGHS the same model (inequality rows first as ``<=`` with
``>=`` rows negated, then equalities; a CSC matrix) and the options
``linprog`` uses, so they return bit-identical solutions.

Solutions are checked against the declared rows before being reported
``optimal``: a backend claiming success on a primal-infeasible point is
downgraded to ``numeric_error`` rather than silently returned.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal, NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs

#: Absolute feasibility tolerance on constraint residuals and bound violations.
TOL_FEAS = 1e-7
#: Relative optimality tolerance on objective values.
TOL_OPT = 1e-6

Sense = Literal["<=", "=", ">="]
_SENSES = ("<=", "=", ">=")
_LE, _EQ, _GE = range(3)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERIC_ERROR = "numeric_error"


class LpError(Exception):
    """Malformed problem: bad bounds, unknown variables, non-finite data."""


@dataclass
class LpSolution:
    status: LpStatus
    objective: float | None
    x: np.ndarray | None
    names: tuple[str, ...]
    message: str = ""

    @property
    def values(self) -> dict[str, float]:
        """Variable assignment by name (empty unless optimal)."""
        if self.x is None:
            return {}
        return {n: float(v) for n, v in zip(self.names, self.x)}

    def value(self, name: str) -> float:
        if self.x is None:
            raise LpError(f"no assignment available (status {self.status.value})")
        return float(self.x[self.names.index(name)])


class _Structure(NamedTuple):
    """Arrays derived from the declarations, rebuilt after structural edits."""

    check: sparse.csr_array    # declared rows stacked on the identity
    highs: sparse.csc_array    # rows in the order HiGHS receives them
    order: np.ndarray          # declared row of each ``highs`` row
    num_ub: int                # leading inequality rows of ``highs``
    c: np.ndarray              # objective vector


class LpProblem:
    """Minimization LP built from blocks of variables and rows."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        # declared data as lists of array chunks, joined on first use
        self._parts = {key: [np.empty(0, dtype=dtype)] for key, dtype in (
            ("lb", np.float64), ("ub", np.float64), ("obj_col", np.int64),
            ("obj_val", np.float64), ("rhs", np.float64), ("sense", np.int8),
            ("row", np.int64), ("col", np.int64), ("val", np.float64))}
        self._num_rows = 0
        self._structure: _Structure | None = None
        self._attached = None  # backend model; structural edits drop it

    # -- construction -------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return self._num_rows

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def _array(self, key: str) -> np.ndarray:
        parts = self._parts[key]
        if len(parts) > 1:
            parts[:] = [np.concatenate(parts)]
        return parts[0]

    def _declare(self, **chunks: list[np.ndarray]) -> None:
        for key, arrays in chunks.items():
            self._parts[key].extend(arrays)
        self._structure = self._attached = None

    def add_variables(self, name: str, size: int, lb=0.0, ub=math.inf) -> np.ndarray:
        """Add ``size`` variables named ``name.0`` ... and return their columns.

        ``lb`` and ``ub`` are scalars or length-``size`` arrays.
        """
        return self._add_columns([f"{name}.{t}" for t in range(size)], lb, ub)

    def add_variable(self, name: str, lb: float = 0.0, ub: float = math.inf) -> int:
        return int(self._add_columns([name], lb, ub)[0])

    def _add_columns(self, names: list[str], lb, ub) -> np.ndarray:
        bad = next((n for n in names if n in self._index), None)
        if bad is not None:
            raise LpError(f"duplicate variable name {bad!r}")
        lbb, ubb = _bound_arrays(lb, ub, len(names), names.__getitem__)
        start = len(self._names)
        self._names.extend(names)
        self._index.update(zip(names, range(start, len(self._names))))
        self._declare(lb=[lbb], ub=[ubb])
        return np.arange(start, len(self._names))

    def _cols(self, cols) -> np.ndarray:
        """Columns of a variable name, a column index or an array of them."""
        if isinstance(cols, str):
            if cols not in self._index:
                raise LpError(f"unknown variable {cols!r}")
            cols = self._index[cols]
        out = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        if out.size and (out.min() < 0 or out.max() >= len(self._names)):
            raise LpError("variable index out of range")
        return out

    def add_objective(self, cols, coeffs) -> None:
        """Add ``coeffs[j] * x[cols[j]]`` to the objective; repeats accumulate."""
        c = self._cols(cols)
        v = np.broadcast_to(np.asarray(coeffs, dtype=np.float64), c.shape)
        if not np.isfinite(v).all():
            raise LpError("non-finite objective coefficient")
        self._declare(obj_col=[c], obj_val=[v])

    add_objective_term = add_objective

    def add_rows(self, sense: Sense, rhs, terms: Iterable[tuple]) -> np.ndarray:
        """Add ``len(rhs)`` rows of one sense and return their row indexes.

        Each term is ``(cols, coeffs)`` or ``(cols, coeffs, at)`` and adds
        ``coeffs[j] * x[cols[j]]`` to row ``at[j]`` of the block; ``at``
        defaults to ``j``.  ``coeffs`` and ``at`` broadcast against ``cols``.
        """
        if sense not in _SENSES:
            raise LpError(f"bad constraint sense {sense!r}")
        b = np.array(rhs, dtype=np.float64, ndmin=1)
        if not np.isfinite(b).all():
            raise LpError(f"non-finite rhs in {b}")
        row0 = self._num_rows
        rows, cols, vals = [], [], []
        for term in terms:
            c = self._cols(term[0])
            v = np.broadcast_to(np.asarray(term[1], dtype=np.float64), c.shape)
            at = (np.arange(c.size) if len(term) < 3
                  else np.broadcast_to(np.asarray(term[2], dtype=np.int64), c.shape))
            if not np.isfinite(v).all():
                raise LpError("non-finite constraint coefficient")
            if at.size and (at.min() < 0 or at.max() >= b.size):
                raise LpError(f"term row outside the block of {b.size} rows")
            rows.append(at + row0)
            cols.append(c)
            vals.append(v)
        self._declare(row=rows, col=cols, val=vals, rhs=[b],
                      sense=[np.full(b.size, _SENSES.index(sense), dtype=np.int8)])
        self._num_rows += b.size
        return np.arange(row0, self._num_rows)

    def add_constraint(self, terms: Iterable[tuple[int | str, float]], sense: Sense,
                       rhs: float) -> int:
        return int(self.add_rows(sense, rhs, [(var, coeff, 0) for var, coeff in terms])[0])

    def set_bounds(self, cols, lb, ub) -> None:
        """Replace the bounds of one variable or an array of them."""
        c = self._cols(cols)
        lbb, ubb = _bound_arrays(lb, ub, c.size, lambda i: self._names[c[i]])
        self._array("lb")[c] = lbb
        self._array("ub")[c] = ubb

    def set_rhs(self, rows, rhs) -> None:
        """Replace the right-hand side of declared rows."""
        r = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        b = np.broadcast_to(np.asarray(rhs, dtype=np.float64), r.shape)
        if not np.isfinite(b).all():
            raise LpError("non-finite rhs")
        if r.size and (r.min() < 0 or r.max() >= self._num_rows):
            raise LpError("row index out of range")
        self._array("rhs")[r] = b

    # -- introspection ------------------------------------------------------

    def _structured(self) -> _Structure:
        if self._structure is None:
            m, n = self._num_rows, len(self._names)
            r, c, v, sense = (self._array(k) for k in ("row", "col", "val", "sense"))
            ineq = sense != _EQ
            order = np.concatenate([np.flatnonzero(ineq), np.flatnonzero(~ineq)])
            position = np.empty(m, dtype=np.int64)
            position[order] = np.arange(m)
            self._structure = _Structure(
                sparse.vstack([sparse.csr_array((v, (r, c)), shape=(m, n)),
                               sparse.eye_array(n, format="csr")], format="csr"),
                sparse.csc_array((np.where(sense[r] == _GE, -1.0 * v, v), (position[r], c)),
                                 shape=(m, n)),
                order, int(ineq.sum()),
                np.bincount(self._array("obj_col"), self._array("obj_val"), minlength=n))
        return self._structure

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self._array("lb").copy(), self._array("ub").copy()

    def objective_vector(self) -> np.ndarray:
        return self._structured().c.copy()

    def _highs_layout(self) -> tuple[sparse.csc_array, np.ndarray, np.ndarray]:
        """Matrix and row limits in the layout HiGHS receives.

        Inequality rows come first as ``<=`` rows (``>=`` rows negated), then
        the equalities, each group in declaration order.
        """
        s = self._structured()
        b = self._array("rhs")[s.order]
        b[:s.num_ub] *= np.where(self._array("sense")[s.order[:s.num_ub]] == _GE, -1.0, 1.0)
        return s.highs, np.concatenate([np.full(s.num_ub, -math.inf), b[s.num_ub:]]), b

    def max_violation(self, x: np.ndarray) -> float:
        """Largest row or bound violation at ``x``; a NaN violation reports inf.

        One mat-vec of the rows stacked on the identity, against the row
        limits followed by the variable bounds.
        """
        y = self._structured().check @ x
        sense, rhs = self._array("sense"), self._array("rhs")
        lo = np.concatenate([np.where(sense == _LE, -math.inf, rhs), self._array("lb")])
        hi = np.concatenate([np.where(sense == _GE, math.inf, rhs), self._array("ub")])
        viol = np.maximum(lo - y, y - hi)
        return float(np.max(np.where(np.isnan(viol), math.inf, viol), initial=0.0))

    # -- MPS debug dump -----------------------------------------------------

    def to_mps(self) -> str:
        """Fixed-layout MPS dump with generated short names.

        Original variable names appear in a leading comment block, one per
        generated column name, so external-solver cross-checks stay readable.
        """
        s = self._structured()
        lines = [f"* problem: {self.name}"]
        lines += [f"* X{i + 1} = {name}" for i, name in enumerate(self._names)]
        lines += [f"NAME          {self.name.upper()[:8]}", "ROWS", " N  COST"]
        lines += [f" {'LEG'[sense]}  R{i + 1}" for i, sense in enumerate(self._array("sense"))]

        # column-major entries: objective first, then rows that touch the column
        by_col = s.check[:self._num_rows].tocsc()
        lines.append("COLUMNS")
        for col in range(len(self._names)):
            span = slice(by_col.indptr[col], by_col.indptr[col + 1])
            entries = [("COST", s.c[col])] if s.c[col] != 0.0 else []
            entries += [(f"R{r + 1}", v) for r, v in
                        zip(by_col.indices[span], by_col.data[span]) if v != 0.0]
            for k in range(0, len(entries), 2):
                text = f"    {f'X{col + 1}':<10}"
                for rname, coeff in entries[k:k + 2]:
                    text += f"{rname:<10}{coeff:<15.10g}"
                lines.append(text.rstrip())

        lines.append("RHS")
        for i, rhs in enumerate(self._array("rhs")):
            if rhs != 0.0:
                lines.append(f"    {'RHS':<10}{f'R{i + 1}':<10}{rhs:<15.10g}".rstrip())

        lines.append("BOUNDS")
        for col, (lb, ub) in enumerate(zip(self._array("lb"), self._array("ub"))):
            vname = f"X{col + 1}"
            if lb == 0.0 and math.isinf(ub):
                continue  # default bounds
            if math.isinf(lb) and math.isinf(ub):
                lines.append(f" FR {'BND':<10}{vname:<10}")
                continue
            if math.isinf(lb):
                lines.append(f" MI {'BND':<10}{vname:<10}")
            elif lb != 0.0:
                lines.append(f" LO {'BND':<10}{vname:<10}{lb:<15.10g}".rstrip())
            if not math.isinf(ub):
                lines.append(f" UP {'BND':<10}{vname:<10}{ub:<15.10g}".rstrip())
        lines.append("ENDATA")
        return "\n".join(lines) + "\n"


def _bound_arrays(lb, ub, size: int, name_of) -> tuple[np.ndarray, np.ndarray]:
    """Bounds broadcast to ``size`` entries; NaN and crossed bounds are rejected."""
    lbb, ubb = (np.array(np.broadcast_to(np.asarray(b, dtype=np.float64), (size,)))
                for b in (lb, ub))
    bad = np.flatnonzero(np.isnan(lbb) | np.isnan(ubb))
    if bad.size:
        raise LpError(f"NaN bound on variable {name_of(bad[0])!r}")
    bad = np.flatnonzero(lbb > ubb)
    if bad.size:
        i = bad[0]
        raise LpError(f"variable {name_of(i)!r} has lb {lbb[i]} > ub {ubb[i]}")
    return lbb, ubb


def _solution(problem: LpProblem, status: LpStatus, x: np.ndarray | None,
              message: str) -> LpSolution:
    """A backend's result; an optimal point violating the problem is a numeric error."""
    names = problem.variable_names
    if status is LpStatus.OPTIMAL:
        violation = problem.max_violation(x)
        if violation <= TOL_FEAS:
            return LpSolution(status, float(problem.objective_vector() @ x), x, names, message)
        status = LpStatus.NUMERIC_ERROR
        message = f"solver returned an infeasible point (violation {violation:.3e})"
    return LpSolution(status, None, None, names, message)


def _solve_linprog(problem: LpProblem) -> LpSolution:
    a, _, rhs = problem._highs_layout()
    k = problem._structured().num_ub
    blocks = {"A_ub": a[:k], "b_ub": rhs[:k], "A_eq": a[k:], "b_eq": rhs[k:]}
    res = linprog(problem.objective_vector(), bounds=np.column_stack(problem.bounds()),
                  method="highs", **{key: v for key, v in blocks.items() if v.shape[0]})
    status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    return _solution(problem, status.get(res.status, LpStatus.NUMERIC_ERROR), res.x,
                     res.message)


#: The options ``linprog(method="highs")`` sets: presolve on, dual simplex, no log.
_HIGHS_OPTIONS = (("presolve", "on"), ("highs_debug_level", 0), ("log_to_console", False),
                  ("output_flag", False), ("simplex_strategy", 1))

_HIGHS_STATUS = {_highs.HighsModelStatus.kOptimal: LpStatus.OPTIMAL,
                 _highs.HighsModelStatus.kInfeasible: LpStatus.INFEASIBLE,
                 _highs.HighsModelStatus.kUnbounded: LpStatus.UNBOUNDED}


class _HighsModel:
    """A HiGHS model attached to one problem; edits reach it as in-place diffs."""

    def __init__(self, problem: LpProblem):
        a, self.lhs, self.rhs = problem._highs_layout()
        self.lb, self.ub = problem.bounds()
        lp = _highs.HighsLp()
        lp.num_row_, lp.num_col_ = a.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = a.shape
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = \
            a.indptr, a.indices, a.data
        lp.col_cost_ = problem.objective_vector()
        lp.col_lower_, lp.col_upper_ = self.lb, self.ub
        lp.row_lower_, lp.row_upper_ = self.lhs, self.rhs
        self.highs = _highs._Highs()
        for key, value in _HIGHS_OPTIONS:
            self.highs.setOptionValue(key, value)
        if self.highs.passModel(lp) == _highs.HighsStatus.kError:
            raise LpError(f"HiGHS rejected the model of {problem.name!r}")

    def sync(self, problem: LpProblem) -> None:
        """Push the bounds and row limits that changed since the last solve."""
        lb, ub = problem.bounds()
        cols = np.flatnonzero(_moved(lb, self.lb) | _moved(ub, self.ub))
        if cols.size:
            self.highs.changeColsBounds(cols.size, cols.astype(np.int32), lb[cols], ub[cols])
        _, lhs, rhs = problem._highs_layout()
        for i in np.flatnonzero(_moved(lhs, self.lhs) | _moved(rhs, self.rhs)):
            self.highs.changeRowBounds(int(i), lhs[i], rhs[i])
        self.lb, self.ub, self.lhs, self.rhs = lb, ub, lhs, rhs


def _moved(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Entries that differ bit for bit (so a sign change of zero counts)."""
    return new.view(np.uint64) != old.view(np.uint64)


def _solve_highs(problem: LpProblem) -> LpSolution:
    model = problem._attached = problem._attached or _HighsModel(problem)
    model.sync(problem)
    h = model.highs
    h.clearSolver()
    h.run()
    status = h.getModelStatus()
    x = np.array(h.getSolution().col_value) if status == _highs.HighsModelStatus.kOptimal \
        else None
    return _solution(problem, _HIGHS_STATUS.get(status, LpStatus.NUMERIC_ERROR), x,
                     h.modelStatusToString(status))


_BACKENDS = {"highs": _solve_highs, "linprog": _solve_linprog}

#: Environment variable selecting the LP backend.
SOLVER_ENV_VAR = "RECCOORD_SOLVER"


def solve_lp(problem: LpProblem, backend: str | None = None) -> LpSolution:
    """Solve a minimization LP; deterministic for identical input.

    Backend resolution order: explicit argument, ``RECCOORD_SOLVER``
    environment variable, built-in default.
    """
    if backend is None:
        backend = os.environ.get(SOLVER_ENV_VAR, "highs")
    try:
        fn = _BACKENDS[backend]
    except KeyError:
        raise LpError(f"unknown LP backend {backend!r}; available: {sorted(_BACKENDS)}") from None
    return fn(problem)
