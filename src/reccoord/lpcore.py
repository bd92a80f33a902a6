"""Sparse linear-program container and the HiGHS solve.

:class:`LpProblem` declares columns and rows in vectorized blocks (one call
adds the T variables or T rows of a series) under a minimizing objective.
Columns are indexes; a block keeps only its first column and its name, so
that a bound error can name a column ``name.t``.

:func:`solve_lp` keeps a persistent HiGHS model attached to the problem:
bound and right-hand-side edits reach it in place, as changes of only the
entries that moved, and a structural edit drops it.  A solve runs cold, so
its result does not depend on solve history, and a model that has not changed
since its last run is not run again.  The exception is asked for
explicitly: ``solve_lp(problem, warm=True)`` re-runs HiGHS from the basis of
its last run.  ECFlex uses it from its own pinned solve (see
:mod:`reccoord.central`), and each coordination member from its previous
subproblem run of the day (see :mod:`reccoord.decentral`).  A warm run
reaches the cold optimal objective, but where several dispatches are optimal
it can end on another of them, so its point is not the cold vertex.  A warm
run that does not end optimal (a bad status, or a point failing the
feasibility check) is run again cold, once, and that result is final.

HiGHS receives the inequality rows first as ``<=`` rows (``>=`` rows
negated), then the equalities, as a CSC matrix, under the options SciPy's
HiGHS method sets.  The matrix is assembled with numpy into the arrays
SciPy's canonical CSC format holds (entries sorted by column, then row;
repeats summed; explicit zeros kept); the tests hand that layout to SciPy's
own HiGHS interface and require the same bits.  A solution is checked against
the declared rows before it is reported ``optimal``; an infeasible point is
downgraded to ``numeric_error``.

The HiGHS binary is the one SciPy ships.  :func:`_load_highs` loads it from
SciPy's files the first time a problem is attached to a HiGHS model, on the
calling thread, without running ``scipy/__init__.py`` or importing
``scipy.optimize``, which would bring in most of SciPy; ``scipy.sparse`` is
not used either.  A process that never solves (a resume, a usage or scenario
error, a load, validation, dump, settlement or bill) never loads SciPy or
HiGHS, and one whose solver cannot be loaded fails at its first solve with
an :class:`LpError`.

:func:`run_ahead` runs the HiGHS models of independent problems (the member
solves of one coordination phase) concurrently on the calling thread and
one helper thread kept for the life of the process, when the process may
use two or more CPUs (its affinity).  Only the HiGHS runs leave the calling
thread, each on its own model under identical options and from its own last
basis when warm, so results are bit-identical on any number of cores.  There
is no option for it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Literal, NamedTuple

import numpy as np

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
    """Malformed problem: bad bounds, out-of-range columns, non-finite data."""


@dataclass
class LpSolution:
    """A solve's result, and the HiGHS run behind it: its simplex
    iterations, whether it started from an earlier basis, and its wall time
    in seconds.  The run's fields are not part of equality, and no report,
    checkpoint or trace holds them."""

    status: LpStatus
    objective: float | None
    x: np.ndarray | None
    message: str = ""
    iterations: int = field(default=0, compare=False)
    warm: bool = field(default=False, compare=False)
    seconds: float = field(default=0.0, compare=False)


#: A CSC matrix as the arrays ``(indptr, indices, data)``.
_Csc = tuple[np.ndarray, np.ndarray, np.ndarray]


class _Structure(NamedTuple):
    """Arrays derived from the declarations, rebuilt after structural edits."""

    highs: _Csc                # rows in the order HiGHS receives them
    order: np.ndarray          # declared row of each ``highs`` row
    num_ub: int                # leading inequality rows of ``highs``
    c: np.ndarray              # objective vector


class LpProblem:
    """Minimization LP built from blocks of variables and rows."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self._num_cols = 0
        self._blocks: list[tuple[int, str]] = []  # (first column, name) per block
        # declared data as lists of array chunks, joined on first use
        self._parts = {key: [np.empty(0, dtype=dtype)] for key, dtype in (
            ("lb", np.float64), ("ub", np.float64), ("obj_col", np.int64),
            ("obj_val", np.float64), ("rhs", np.float64), ("sense", np.int8),
            ("row", np.int64), ("col", np.int64), ("val", np.float64))}
        self._num_rows = 0
        self._structure: _Structure | None = None
        self._attached = None  # HiGHS model; structural edits drop it

    # -- construction -------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return self._num_cols

    @property
    def num_constraints(self) -> int:
        return self._num_rows

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
        """Add ``size`` variables ``name.0`` ... and return their columns.

        ``lb`` and ``ub`` are scalars or length-``size`` arrays.
        """
        lbb, ubb = _bound_arrays(lb, ub, size, lambda t: f"{name}.{t}")
        start = self._num_cols
        self._blocks.append((start, name))
        self._num_cols += size
        self._declare(lb=[lbb], ub=[ubb])
        return np.arange(start, self._num_cols)

    def _column_name(self, col: int) -> str:
        start, name = [b for b in self._blocks if b[0] <= col][-1]  # the block holding it
        return f"{name}.{col - start}"

    def _cols(self, cols) -> np.ndarray:
        """A column index or an array of them, range-checked."""
        out = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        if out.size and (out.min() < 0 or out.max() >= self._num_cols):
            raise LpError("variable index out of range")
        return out

    def add_objective(self, cols, coeffs) -> None:
        """Add ``coeffs[j] * x[cols[j]]`` to the objective; repeats accumulate."""
        c = self._cols(cols)
        v = np.broadcast_to(np.asarray(coeffs, dtype=np.float64), c.shape)
        if not np.isfinite(v).all():
            raise LpError("non-finite objective coefficient")
        self._declare(obj_col=[c], obj_val=[v])

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

    def set_bounds(self, cols, lb, ub) -> None:
        """Replace the bounds of one variable or an array of them."""
        c = self._cols(cols)
        lbb, ubb = _bound_arrays(lb, ub, c.size, lambda i: self._column_name(c[i]))
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
            m, n = self._num_rows, self._num_cols
            r, c, v, sense = (self._array(k) for k in ("row", "col", "val", "sense"))
            ineq = sense != _EQ
            order = np.concatenate([np.flatnonzero(ineq), np.flatnonzero(~ineq)])
            position = np.empty(m, dtype=np.int64)
            position[order] = np.arange(m)
            self._structure = _Structure(
                _csc(position[r], c, np.where(sense[r] == _GE, -1.0 * v, v), n),
                order, int(ineq.sum()),
                np.bincount(self._array("obj_col"), self._array("obj_val"), minlength=n))
        return self._structure

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self._array("lb").copy(), self._array("ub").copy()

    def objective_vector(self) -> np.ndarray:
        return self._structured().c.copy()

    def _highs_layout(self) -> tuple[_Csc, np.ndarray, np.ndarray]:
        """The CSC arrays of the matrix, and the row limits, in the layout
        HiGHS receives.

        Inequality rows come first as ``<=`` rows (``>=`` rows negated), then
        the equalities, each group in declaration order.
        """
        s = self._structured()
        b = self._array("rhs")[s.order]
        b[:s.num_ub] *= np.where(self._array("sense")[s.order[:s.num_ub]] == _GE, -1.0, 1.0)
        return s.highs, np.concatenate([np.full(s.num_ub, -math.inf), b[s.num_ub:]]), b

    def max_violation(self, x: np.ndarray) -> float:
        """Largest row or bound violation at ``x``; a NaN violation reports inf.

        The row activities are summed over the declared entries, and checked
        against the row limits; ``x`` itself against the variable bounds.
        """
        r, c, v = (self._array(k) for k in ("row", "col", "val"))
        y = np.concatenate([np.bincount(r, v * x[c], minlength=self._num_rows), x])
        sense, rhs = self._array("sense"), self._array("rhs")
        lo = np.concatenate([np.where(sense == _LE, -math.inf, rhs), self._array("lb")])
        hi = np.concatenate([np.where(sense == _GE, math.inf, rhs), self._array("ub")])
        viol = np.maximum(lo - y, y - hi)
        return float(np.max(np.where(np.isnan(viol), math.inf, viol), initial=0.0))


def _csc(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, num_cols: int) -> _Csc:
    """The arrays of SciPy's canonical CSC form of the entries ``vals`` at
    ``(rows, cols)``: sorted by column, then row; repeated entries summed in
    declaration order (SciPy's order, and so its bits, may differ from three
    repeats on); explicit zeros kept; int32 indexes."""
    key = np.lexsort((rows, cols))
    rows, cols, vals = rows[key], cols[key], vals[key]
    first = np.ones(key.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    data = vals[first]
    if not first.all():
        np.add.at(data, np.cumsum(first)[~first] - 1, vals[~first])
    indptr = np.zeros(num_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols[first], minlength=num_cols), out=indptr[1:])
    return indptr, rows[first].astype(np.int32), data


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
              message: str, **run) -> LpSolution:
    """A solver's result; an optimal point violating the problem is a numeric error.
    ``run`` are the :class:`LpSolution` fields of the solver run.

    The objective is summed without BLAS: a dot product of a day LP's length
    wakes OpenBLAS's worker threads, which then spin beside the solver."""
    if status is LpStatus.OPTIMAL:
        violation = problem.max_violation(x)
        if violation <= TOL_FEAS:
            return LpSolution(status, float(np.sum(problem.objective_vector() * x)), x, message,
                              **run)
        status = LpStatus.NUMERIC_ERROR
        message = f"solver returned an infeasible point (violation {violation:.3e})"
    return LpSolution(status, None, None, message, **run)


#: SciPy's HiGHS extension, or None until :func:`_load_highs` loads it.
_highs = None

#: The options SciPy's HiGHS method sets: presolve on, dual simplex, no log.
_HIGHS_OPTIONS = (("presolve", "on"), ("highs_debug_level", 0), ("log_to_console", False),
                  ("output_flag", False), ("simplex_strategy", 1))

#: HiGHS model statuses other than a numeric error, filled by the first load.
_HIGHS_STATUS: dict = {}


def _load_highs():
    """SciPy's compiled HiGHS extension ``scipy.optimize._highspy._core``,
    loaded on the first call from its file in SciPy's tree; later calls
    return the same module.

    SciPy's directory comes from its import spec, so neither
    ``scipy/__init__.py`` nor ``scipy/optimize/__init__.py`` runs.  The
    module is registered under its own name, so a later ``import
    scipy.optimize`` uses it, and an already imported one is reused: the file
    is loaded at most once per process.  A failed load raises an
    ``ImportError`` naming SciPy's ``_highspy`` directory and SciPy's version,
    and leaves nothing registered.
    """
    global _highs
    if _highs is not None:
        return _highs
    name = "scipy.optimize._highspy._core"
    module = sys.modules.get(name)
    if module is None:
        package = importlib.util.find_spec("scipy")
        if package is None or not package.submodule_search_locations:
            raise ImportError("scipy is not installed", name=name)
        where = os.path.join(package.submodule_search_locations[0], "optimize", "_highspy")
        spec = importlib.machinery.FileFinder(where, (
            importlib.machinery.ExtensionFileLoader,
            importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
        try:
            if spec is None:
                raise ImportError("no HiGHS extension module _core")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        except ImportError as exc:
            sys.modules.pop(name, None)
            from importlib import metadata  # only here: it imports a few dozen modules
            try:
                version = metadata.version("scipy")
            except metadata.PackageNotFoundError:
                version = "version unknown"
            raise ImportError(f"{exc} in {where} (scipy {version})", name=name) from exc
    _HIGHS_STATUS.update({module.HighsModelStatus.kOptimal: LpStatus.OPTIMAL,
                          module.HighsModelStatus.kInfeasible: LpStatus.INFEASIBLE,
                          module.HighsModelStatus.kUnbounded: LpStatus.UNBOUNDED})
    _highs = module
    return module


class _HighsModel:
    """A HiGHS model attached to one problem; edits reach it as in-place diffs.

    ``fresh`` says that the last run saw the model as it is now, ``ran``
    that a run has left a basis to start from, ``warm`` that the last run
    started from one, and ``seconds`` how long that run took.
    """

    def __init__(self, problem: LpProblem):
        try:
            highs = _load_highs()
        except ImportError as exc:
            raise LpError(f"cannot load the HiGHS solver: {exc}") from exc
        self.fresh = self.ran = self.warm = False
        self.seconds = 0.0
        (start, index, value), self.lhs, self.rhs = problem._highs_layout()
        self.lb, self.ub = problem.bounds()
        self.highs = highs._Highs()
        for key, option in _HIGHS_OPTIONS:
            self.highs.setOptionValue(key, option)
        status = self.highs.passModel(
            problem.num_variables, problem.num_constraints, value.size,
            int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize), 0.0,
            problem.objective_vector(), self.lb, self.ub, self.lhs, self.rhs,
            start, index, value, np.zeros(problem.num_variables, dtype=np.int32))
        if status == highs.HighsStatus.kError:
            raise LpError(f"HiGHS rejected the {problem.name} LP")

    def sync(self, problem: LpProblem) -> None:
        """Push the bounds and row limits that changed since the last solve."""
        lb, ub = problem.bounds()
        cols = np.flatnonzero(_moved(lb, self.lb) | _moved(ub, self.ub))
        if cols.size:
            self.highs.changeColsBounds(cols.size, cols.astype(np.int32), lb[cols], ub[cols])
        _, lhs, rhs = problem._highs_layout()
        rows = np.flatnonzero(_moved(lhs, self.lhs) | _moved(rhs, self.rhs))
        for i in rows:
            self.highs.changeRowBounds(int(i), lhs[i], rhs[i])
        if cols.size or rows.size:
            self.fresh = False
        self.lb, self.ub, self.lhs, self.rhs = lb, ub, lhs, rhs


def _moved(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Entries that differ bit for bit (so a sign change of zero counts)."""
    return new.view(np.uint64) != old.view(np.uint64)


def _synced(problem: LpProblem) -> _HighsModel:
    """The problem's HiGHS model, attached if need be, holding its current data."""
    model = problem._attached = problem._attached or _HighsModel(problem)
    model.sync(problem)
    return model


def _run(model: _HighsModel, warm: bool = False) -> None:
    """A HiGHS run, cold unless ``warm`` (then from the basis of the last run);
    releases the GIL, so it may run on the helper thread."""
    start = time.perf_counter()
    if not warm:
        model.highs.clearSolver()
    model.highs.run()
    model.seconds = time.perf_counter() - start
    model.fresh = model.ran = True
    model.warm = warm


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _drain(pending: queue.SimpleQueue) -> None:
    while True:
        try:
            model, warm = pending.get_nowait()
        except queue.Empty:
            return
        _run(model, warm)


def _serve(jobs: queue.SimpleQueue) -> None:
    """The helper thread's loop: drain each queue handed over, then say so."""
    while True:
        pending, done = jobs.get()
        try:
            _drain(pending)
        finally:
            done.set()


#: The helper thread and its job queue.  There is one helper for the life of
#: the process (restarted if it died or the process forked): each thread that
#: runs HiGHS costs a malloc arena and a HiGHS scheduler of its own, and only
#: one helper beside the caller has been measured.
_helper: tuple[threading.Thread, queue.SimpleQueue] | None = None


def _helper_jobs() -> queue.SimpleQueue:
    """The helper thread's job queue; the thread starts on first use."""
    global _helper
    if _helper is None or not _helper[0].is_alive():
        jobs: queue.SimpleQueue = queue.SimpleQueue()
        thread = threading.Thread(target=_serve, args=(jobs,), name="highs", daemon=True)
        thread.start()
        _helper = thread, jobs
    return _helper[1]


def run_ahead(problems: Iterable[LpProblem], warm: bool = False) -> None:
    """Run the HiGHS models of independent problems concurrently.

    Every problem's model is attached and synced here, on the calling thread.
    The stale ones are then run from one shared queue by this thread and the
    process's one helper thread, which executes only :func:`_run`.  Each
    model gets the run ``solve_lp(problem, warm)`` would make, so a later
    :func:`solve_lp` of a problem left unchanged reads its result without
    running HiGHS again (or re-runs it cold, if a warm run ended non-optimal).
    With one CPU in the process's affinity, or fewer than two stale models,
    nothing runs here.
    """
    stale = [model for model in map(_synced, problems) if not model.fresh]
    if len(stale) < 2 or _cpus() < 2:
        return
    pending: queue.SimpleQueue = queue.SimpleQueue()
    for model in stale:
        pending.put((model, warm and model.ran))
    done = threading.Event()
    _helper_jobs().put((pending, done))
    _drain(pending)
    done.wait()


def solve_lp(problem: LpProblem, warm: bool = False) -> LpSolution:
    """Solve a minimization LP; deterministic for identical input.

    ``warm=True`` re-runs HiGHS from the basis its last run of this model
    left, with the bound and row-limit edits made since pushed in place.
    A model that has not run since it was attached (a new problem, or one
    structurally edited) is solved cold.  A warm run, made here or by
    :func:`run_ahead`, whose result is not optimal is run again cold, once;
    the cold result is final.
    """
    model = _synced(problem)
    if not model.fresh:
        _run(model, warm and model.ran)
    solution = _read(problem, model)
    if model.warm and solution.status is not LpStatus.OPTIMAL:
        _run(model)
        solution = _read(problem, model)
    return solution


def _read(problem: LpProblem, model: _HighsModel) -> LpSolution:
    """The checked result of the model's last run, and that run's figures."""
    h = model.highs
    status = h.getModelStatus()
    ours = _HIGHS_STATUS.get(status, LpStatus.NUMERIC_ERROR)
    x = np.array(h.getSolution().col_value) if ours is LpStatus.OPTIMAL else None
    return _solution(problem, ours, x, h.modelStatusToString(status),
                     iterations=h.getInfo().simplex_iteration_count, warm=model.warm,
                     seconds=model.seconds)
