"""The LP solver: HiGHS through the binding SciPy bundles.

HiGHS (``scipy.optimize._highspy._core``) is the only solver.  The
backend name ``"scipy"`` (:data:`DEFAULT_BACKEND`) survives as data --
scenario specs, request fingerprints and :class:`LPResult.backend` carry
it -- and :func:`check_backend` rejects any other name.

The extension module is loaded by file location (:func:`_load_highs`), not
imported through its package: ``import scipy.optimize`` would run the whole
of ``scipy/optimize/__init__.py`` (about 0.37 s and 23 MB RSS on an Intel
Xeon, 2 cores, SciPy 1.17.1) although only this one extension is ever
called.  The module is registered under its real name, so ``linprog``
imported before or after this module shares the same object.

Every call into HiGHS -- from :func:`solve_lp` here or from the engine's
batched path, :func:`repro.lp.maxmin.solve_maxmin_buffer_batch`, which
:func:`repro.lp.maxmin.solve_max_min` also runs on -- goes through
:func:`call_highs`, which feeds the :func:`count_highs_calls` shim
and the ``lp.highs.calls`` registry counter.  The stacked strategy's "one
HiGHS call per chunk" contract is asserted against the shim in the test
suite.

:func:`call_highs` builds the same HiGHS model, with the same options, as
``scipy.optimize.linprog(method="highs")`` and applies the same post-solve
status check, so ``x``, ``fun`` and ``status`` are bit-identical to
``linprog``'s (``tests/lp/test_highs_binding.py`` holds the parity sweep).
The model is a :class:`RowwiseLP`, the one LP form in ``src/``: the
Section 1.3 reductions are assembled in it directly from CSR buffers
(:mod:`repro.lp.maxmin`), and it reaches HiGHS through the binding's array
overload of ``passModel``.  The parity sweep builds its ``RowwiseLP`` and
the matching ``linprog`` arguments with a test-only helper.  On the 267
local LPs of perfbench's ``suite_random`` (seed 1), solved per LP in
chunks of 64 as the engine does, assembly plus solve is about 0.5 ms a
call, of which HiGHS's own ``run`` is 0.2-0.3 ms (Intel Xeon, 2 cores,
SciPy 1.17.1).  Each call builds a fresh HiGHS instance, as ``linprog``
does.  Reusing one instance per thread would save 0.1-0.2 ms a call, but
per-call savings are what the stacked strategy (:mod:`repro.lp.batch`)
lives on: with reuse the LP-BATCH torus speed-up floor in
``benchmarks/test_bench_lp_batch.py`` no longer holds.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
import time
from types import ModuleType
from typing import Iterator, List, NamedTuple, Optional

import numpy as np
import scipy

from ..exceptions import SolverError
from ..faults import InjectedFault, RetryPolicy
from ..faults import inject as _inject
from ..obs.metrics import get_registry
from ..obs.trace import span as _span
from .standard import LPResult, LPStatus

__all__ = [
    "DEFAULT_BACKEND",
    "HIGHS_RETRY",
    "HiGHSResult",
    "RowwiseLP",
    "call_highs",
    "check_backend",
    "count_highs_calls",
    "solve_lp",
]

DEFAULT_BACKEND = "scipy"

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs() -> ModuleType:
    """Load SciPy's HiGHS extension without running ``scipy.optimize``.

    ``find_spec("scipy.optimize")`` locates the package and imports only
    ``scipy``; the extension is then loaded from the package's
    ``_highspy`` directory and registered in :data:`sys.modules` under its
    real name, so a later ``import scipy.optimize`` reuses it.  If the
    module is already loaded it is returned as is: pybind11 registers its
    types once per process, so both import orders must share one module
    object.  (Attribute access ``scipy.optimize._highspy._core`` is the one
    thing a later package import does not bind; ``import`` statements and
    ``from`` imports of the module do resolve.)
    """
    loaded = sys.modules.get(_HIGHS_MODULE)
    if loaded is not None:
        return loaded
    package = importlib.util.find_spec("scipy.optimize")
    search = [
        os.path.join(location, "_highspy")
        for location in (package.submodule_search_locations if package else ())
    ]
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, search)
    if spec is None or spec.loader is None:
        raise ImportError(
            f"SciPy's HiGHS extension {_HIGHS_MODULE} not found in {search} "
            f"(scipy {scipy.__version__})",
            name=_HIGHS_MODULE,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(_HIGHS_MODULE, None)
        raise
    return module


_highs = _load_highs()

#: Transient-backend retry: injected (or injectable) faults at the
#: ``lp.highs.call`` seam are absorbed here; real solver statuses are not
#: retried (a deterministic LP does not become feasible on attempt two).
HIGHS_RETRY = RetryPolicy(
    attempts=3,
    base_delay=0.005,
    multiplier=2.0,
    max_delay=0.05,
    retry_on=(InjectedFault,),
    seed=0,
)


class _HiGHSCallCounter:
    """Mutable counter handed out by :func:`count_highs_calls`."""

    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls = 0


_counter_stack: threading.local = threading.local()


def _active_counters() -> List[_HiGHSCallCounter]:
    stack = getattr(_counter_stack, "stack", None)
    if stack is None:
        stack = []
        _counter_stack.stack = stack
    return stack


@contextlib.contextmanager
def count_highs_calls() -> Iterator[_HiGHSCallCounter]:
    """Count HiGHS invocations made inside the block.

    The counting shim behind the stacked strategy's acceptance criterion:
    a stacked :func:`repro.lp.maxmin.solve_maxmin_buffer_batch` over an
    all-feasible chunk must register exactly **one** call here, however
    many LPs it carries.  Counters nest; each sees only calls made while
    it is the innermost *or* an enclosing context on the same thread.

    Only the current thread's calls are counted -- the right scope for
    asserting what one code path did.  Process-wide traffic is the
    ``lp.highs.calls`` counter of the metrics registry.
    """
    counter = _HiGHSCallCounter()
    stack = _active_counters()
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.remove(counter)


#: The options ``linprog(method="highs")`` passes; built once, never mutated.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.simplex_strategy = (
    _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
)
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone

#: HiGHS model status -> ``linprog`` status code (0 optimal, 1 iteration or
#: time limit, 2 infeasible, 3 unbounded); every other model status is 4.
_LINPROG_STATUS = {
    _highs.HighsModelStatus.kOptimal: 0,
    _highs.HighsModelStatus.kTimeLimit: 1,
    _highs.HighsModelStatus.kIterationLimit: 1,
    _highs.HighsModelStatus.kModelError: 2,
    _highs.HighsModelStatus.kInfeasible: 2,
    _highs.HighsModelStatus.kUnbounded: 3,
}

#: HiGHS's infinity: ``linprog`` hands infinite bounds over as ``±HIGHS_INF``.
HIGHS_INF = float(_highs.kHighsInf)

#: Matrix format and objective sense, as the array ``passModel`` takes them.
_ROWWISE = int(_highs.MatrixFormat.kRowwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)

#: ``linprog``'s post-solve feasibility tolerance: ``sqrt(tol) * 10`` for
#: its default ``tol = 1e-9``.
_CHECK_TOL = float(np.sqrt(1e-9) * 10)


class HiGHSResult(NamedTuple):
    """What :func:`call_highs` returns: ``linprog``'s status, ``x`` and ``fun``.

    ``x`` and ``fun`` are ``None`` unless ``status`` is 0 (optimal).
    """

    status: int
    x: Optional[np.ndarray]
    fun: Optional[float]
    message: str


class RowwiseLP(NamedTuple):
    """One LP exactly as HiGHS takes it: the model :func:`_run_highs` solves.

    Minimise ``cost @ x`` subject to ``col_lower <= x <= col_upper`` and
    ``row_lower <= A x <= row_upper``, with ``A`` given row-wise by
    ``start``/``index``/``value`` (``start`` and ``index`` are 32-bit, as
    HiGHS's integers are).  Infinite bounds are ``±HIGHS_INF``.  As
    in ``linprog``'s model every row is an inequality (lower bound
    ``-HIGHS_INF``) or an equality (lower bound equal to the upper one).
    The max-min reduction of :mod:`repro.lp.maxmin` builds its rows
    directly.
    """

    cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray


def _run_highs(model: RowwiseLP) -> HiGHSResult:
    """Solve ``model`` in a fresh HiGHS instance, as ``linprog`` would.

    A solution outside ``linprog``'s tolerance is demoted from status 0 to
    4, as ``linprog``'s post-solve check does.
    """
    n = model.cost.size
    if not (
        n
        and np.isfinite(model.cost).all()
        and np.isfinite(model.row_upper).all()
        and np.isfinite(model.value).all()
    ):
        raise ValueError(
            "LP needs at least one variable and finite c, A_ub, b_ub, A_eq "
            "and b_eq"
        )
    # The array overload of passModel reads the buffers directly; a HighsLp
    # would copy every field element by element (about 8x slower on a
    # 50-block stack).  Every column is continuous.
    highs = _highs._Highs()
    if highs.passOptions(_HIGHS_OPTIONS) == _highs.HighsStatus.kError:
        model_status = highs.getModelStatus()
    elif (
        highs.passModel(
            n,
            model.row_upper.size,
            model.value.size,
            _ROWWISE,
            _MINIMIZE,
            0.0,
            model.cost,
            model.col_lower,
            model.col_upper,
            model.row_lower,
            model.row_upper,
            model.start,
            model.index,
            model.value,
            np.zeros(n, dtype=np.int32),
        )
        == _highs.HighsStatus.kError
    ):
        model_status = _highs.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    status = _LINPROG_STATUS.get(model_status, 4)
    message = (
        f"HiGHS model status {int(model_status)}: "
        f"{highs.modelStatusToString(model_status)}"
    )
    if status != 0:
        return HiGHSResult(status, None, None, message)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getObjectiveValue()
    residual = model.row_upper - np.array(solution.row_value)
    equality = model.row_lower == model.row_upper
    violated = (
        np.isnan(x).any()
        or np.isnan(fun)
        or np.isnan(residual).any()
        or np.any(x < model.col_lower - _CHECK_TOL)
        or np.any(x > model.col_upper + _CHECK_TOL)
        or np.any(residual[~equality] < -_CHECK_TOL)
        or np.any(np.abs(residual[equality]) > _CHECK_TOL)
    )
    if violated:
        return HiGHSResult(
            4,
            x,
            fun,
            "the solution does not satisfy the constraints within "
            f"{_CHECK_TOL:.2E}; " + message,
        )
    return HiGHSResult(0, x, fun, message)


def call_highs(model: RowwiseLP) -> HiGHSResult:
    """One HiGHS solve of ``model``; the single entry point.

    Returns the raw :class:`HiGHSResult` -- callers interpret the status.
    """
    n_variables, n_rows = model.cost.size, model.row_upper.size
    registry = get_registry()

    def _attempt():
        # The fault seam fires *before* the call counters: an injected
        # transient never reaches HiGHS, so the batch layer's
        # one-call-per-batch contract counts real invocations only.
        _inject("lp.highs.call", variables=n_variables)
        for counter in _active_counters():
            counter.calls += 1
        registry.counter("lp.highs.calls", "HiGHS invocations").inc()
        start = time.perf_counter()
        with _span("lp.highs", variables=n_variables, constraints=n_rows):
            result = _run_highs(model)
        registry.histogram("lp.highs.seconds", "HiGHS call latency").observe(
            time.perf_counter() - start
        )
        return result

    return HIGHS_RETRY.call(_attempt, metric="engine.retries")


def check_backend(backend: str) -> None:
    """Raise :class:`SolverError` unless ``backend`` names the HiGHS solver."""
    if backend != DEFAULT_BACKEND:
        raise SolverError(
            f"unknown LP backend {backend!r}; available: [{DEFAULT_BACKEND!r}]"
        )


def solve_lp(model: RowwiseLP) -> LPResult:
    """Solve ``model`` with HiGHS; unexpected statuses raise."""
    result = call_highs(model)
    if result.status == 0:
        return LPResult(
            LPStatus.OPTIMAL,
            np.asarray(result.x, dtype=np.float64),
            float(result.fun),
            backend="scipy",
        )
    if result.status == 2:
        return LPResult(LPStatus.INFEASIBLE, None, None, backend="scipy")
    if result.status == 3:
        return LPResult(LPStatus.UNBOUNDED, None, None, backend="scipy")
    # Statuses beyond {optimal, infeasible, unbounded} (iteration limit,
    # numerical difficulties, future additions) must not be silently
    # collapsed into a result object callers might ignore.
    n_eq = int(np.count_nonzero(model.row_lower == model.row_upper))
    raise SolverError(
        f"backend 'scipy' returned unexpected status {result.status} "
        f"({getattr(result, 'message', '')!r}) for LP with "
        f"{model.cost.size} variables, {model.row_upper.size - n_eq} "
        f"inequality and {n_eq} equality constraints"
    )
