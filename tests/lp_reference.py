"""Test-only LP builders, independent of the library's reduction code.

:func:`reduction` writes the Section 1.3 LP of a max-min instance as
``scipy.optimize.linprog`` keyword arguments, assembled from the instance's
``A`` and ``C`` with ``scipy.sparse.bmat``.  :func:`rowwise` turns such
arguments into the :class:`~repro.lp.backends.RowwiseLP` that ``linprog``
itself hands to HiGHS.  ``linprog`` on the one and
:func:`~repro.lp.backends.call_highs` on the other are the oracle pair the
engine's buffer path (``_stack_maxmin_buffers``) is checked against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.lp.backends import HIGHS_INF, RowwiseLP


def reduction(problem) -> dict:
    """``max ω  s.t.  Ax ≤ 1,  ω·1 − Cx ≤ 0,  x, ω ≥ 0`` as ``linprog`` keywords.

    ``problem`` is anything with ``A``, ``C`` and ``n_agents`` (a
    ``MaxMinLP`` or a ``CompiledMaxMin``); the variables are
    ``(x_1, ..., x_n, ω)`` and the objective minimises ``-ω``.
    """
    n_i, n_k, n = problem.A.shape[0], problem.C.shape[0], problem.n_agents
    c = np.zeros(n + 1)
    c[-1] = -1.0
    return {
        "c": c,
        "A_ub": sp.bmat(
            [[problem.A, None], [-problem.C, np.ones((n_k, 1))]], format="csr"
        ),
        "b_ub": np.concatenate([np.ones(n_i), np.zeros(n_k)]),
        "bounds": [(0.0, None)] * (n + 1),
    }


def rowwise(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)):
    """The row-wise model ``linprog(method="highs")`` builds from its arguments.

    Rows are ``A_ub``'s (bounds ``[-inf, b_ub]``) then ``A_eq``'s (bounds
    ``[b_eq, b_eq]``); ``None`` bounds become HiGHS's infinity.  Dense
    matrices keep their nonzeros in row-major order, as ``linprog``'s CSR
    conversion does.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    b_ub = np.asarray(b_ub if A_ub is not None else [], dtype=np.float64)
    b_eq = np.asarray(b_eq if A_eq is not None else [], dtype=np.float64)
    blocks = [sp.csr_matrix(A, dtype=np.float64) for A in (A_ub, A_eq) if A is not None]
    matrix = sp.vstack(blocks, format="csr") if blocks else sp.csr_matrix((0, n))
    # None -> nan -> ±HIGHS_INF.
    bounds = np.broadcast_to(np.array(bounds, dtype=np.float64).reshape(-1, 2), (n, 2))
    return RowwiseLP(
        cost=c,
        col_lower=np.where(np.isnan(bounds[:, 0]), -HIGHS_INF, bounds[:, 0]),
        col_upper=np.where(np.isnan(bounds[:, 1]), HIGHS_INF, bounds[:, 1]),
        row_lower=np.concatenate([np.full(b_ub.size, -HIGHS_INF), b_eq]),
        row_upper=np.concatenate([b_ub, b_eq]),
        start=matrix.indptr.astype(np.int32),
        index=matrix.indices.astype(np.int32),
        value=matrix.data,
    )
