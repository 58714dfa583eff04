"""Damped Newton for MNA systems: one row-masked driver.

:func:`newton_rows` is the package's only Newton loop.  It iterates a
stack of ``m`` independent systems at once: each row has its own
residual norm, convergence test, backtracking damping and stall exit,
and leaves the active set as soon as it converges or stalls, so late
iterations only pay for the stragglers.  Convergence is a single
relative+absolute test on the max-norm residual — the same criterion
at the main exit, on step stall and at iteration exhaustion, so
"converged" means one thing everywhere.

Two adapters feed it:

* :func:`newton_solve` — the scalar solve, a batch of one.  Every
  evaluation, the single iterate and the damping ladder of a rejected
  full step alike, goes through
  :meth:`~repro.circuit.assembly.StampPlan.evaluate_many`; the ladder
  runs in batches of ``_TRIAL_BATCH`` trials (one device ``linearize``
  per batch instead of one per trial).  Linear-only circuits reuse the
  plan's cached LU of the constant matrix
  (:meth:`~repro.circuit.assembly.StampPlan.linear_step`).
* ``_BatchedNewtonEngine._newton_batch`` in :mod:`repro.circuit.sweep`
  — the Monte Carlo engines' solve over perturbed instances.

Every other Newton step goes through the plan's one stacked step solve,
:meth:`~repro.circuit.assembly.StampPlan.solve_stack`, whose per-row
arithmetic does not depend on how many rows are still active: that is
what keeps batched results bitwise invariant to chunking and order.

Cold-start robustness lives in :mod:`repro.circuit.continuation`:
:func:`solve_dc` delegates to its adaptive ladder (structural seeding,
adaptive gmin stepping, adaptive source ramping, pseudo-transient
continuation) and raises a diagnostics-carrying
:class:`~repro.circuit.continuation.ConvergenceError` when the ladder
is exhausted.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.circuit.netlist import MNASystem

__all__ = ["NewtonResult", "newton_rows", "newton_solve", "solve_dc", "operating_point"]

_MAX_ITERATIONS = 120
_RESIDUAL_ATOL = 1e-10
_RESIDUAL_RTOL = 1e-9
_STEP_TOL = 1e-10
# Trial points per evaluation call once a full step is rejected: a
# lone pending row evaluates this many dampings at once, a crowd of
# pending rows one each (the total ladder stays _MAX_TRIALS per row).
_TRIAL_BATCH = 8
_MAX_TRIALS = 30


class NewtonResult(NamedTuple):
    """Per-row outcome of :func:`newton_rows`."""

    x: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    norm: np.ndarray


def newton_rows(evaluate, solve, x0: np.ndarray, max_iterations: int = _MAX_ITERATIONS):
    """Damped Newton on every row of ``x0`` at once.

    ``evaluate(x_rows, rows)`` returns the residuals ``(k, n)`` and
    Jacobians (a ``(k, ...)`` stack) at iterates ``x_rows`` of the rows
    ``rows`` (indices into ``x0``, possibly repeated); the arrays must be
    the caller's to keep.  ``solve(jacobians, rhs)`` returns the steps
    ``(k, n)`` and may overwrite ``jacobians``; a row whose matrix is
    singular comes back non-finite.  Such rows, and rows whose line
    search finds no residual decrease within ``_MAX_TRIALS`` halvings,
    stop unconverged.  Returns a :class:`NewtonResult` whose
    ``iterations`` counts each row's Newton steps and ``norm`` its final
    residual.
    """
    x = np.array(x0, dtype=float)
    m = x.shape[0]
    residual, jacobian = evaluate(x, np.arange(m))
    norm = np.abs(residual).max(axis=1)
    tolerance = _RESIDUAL_ATOL + _RESIDUAL_RTOL * norm
    iterations = np.zeros(m, dtype=np.intp)

    # The working set: the active rows' state, compacted.  A row's
    # final iterate, norm and step count go back into x, norm and
    # iterations when it leaves.
    rows = (norm > tolerance).nonzero()[0]
    if not rows.size:
        return NewtonResult(x, norm <= tolerance, iterations, norm)
    x_a, r_a, j_a, n_a, t_a = x, residual, jacobian, norm, tolerance
    if rows.size < m:
        x_a, r_a, j_a, n_a, t_a = (a[rows] for a in (x, residual, jacobian, norm, tolerance))
    count = 0
    while rows.size and count < max_iterations:
        step = solve(j_a, -r_a)
        finite = np.isfinite(step)
        if np.count_nonzero(finite) < finite.size:
            bad = ~finite.all(axis=1)
            gone = rows[bad]
            x[gone], norm[gone], iterations[gone] = x_a[bad], n_a[bad], count
            if bad.all():
                break
            rows, x_a, n_a, t_a, step = (a[~bad] for a in (rows, x_a, n_a, t_a, step))
        count += 1

        # Backtracking line search with per-row damping: the full step
        # first, then halvings until the residual norm drops.  A row
        # takes the first damping the sequential ladder would accept.
        x_t = x_a + step
        r_t, j_t = evaluate(x_t, rows)
        n_t = np.abs(r_t).max(axis=1)
        done = n_t <= t_a
        ok = done | (n_t < n_a)
        moved = step
        if np.count_nonzero(ok) < ok.size:
            damping = np.where(ok, 1.0, 0.5)
            pending = (~ok).nonzero()[0]
            trials = 1
            while pending.size and trials < _MAX_TRIALS:
                width = min(max(1, _TRIAL_BATCH // pending.size), _MAX_TRIALS - trials)
                local = np.repeat(pending, width)
                scales = damping[local]
                if width > 1:
                    scales *= np.tile(0.5 ** np.arange(width), pending.size)
                x_l = x_a[local] + scales[:, None] * step[local]
                r_l, j_l = evaluate(x_l, rows[local])
                n_l = np.abs(r_l).max(axis=1)
                hits = ((n_l < n_a[local]) | (n_l <= t_a[local])).reshape(-1, width)
                hit = hits.any(axis=1)
                if hit.any():
                    pick = hit.nonzero()[0] * width + hits[hit].argmax(axis=1)
                    took = pending[hit]
                    x_t[took], r_t[took], j_t[took], n_t[took] = (
                        x_l[pick], r_l[pick], j_l[pick], n_l[pick]
                    )
                    damping[took] = scales[pick]
                    ok[took] = True
                pending = pending[~hit]
                damping[pending] *= 0.5**width
                trials += width
            # A row the whole ladder rejected keeps its last iterate.
            x_t[pending], n_t[pending] = x_a[pending], n_a[pending]
            moved = damping[:, None] * step
            done = n_t <= t_a

        # Stay active only if the line search moved, the row has not
        # converged, and its step has not stalled below _STEP_TOL.
        stay = ok & ~done
        kept = np.count_nonzero(stay)
        if kept:
            stay &= np.abs(moved).max(axis=1) >= _STEP_TOL
            kept = np.count_nonzero(stay)
        if not kept:
            x[rows], norm[rows], iterations[rows] = x_t, n_t, count
            break
        if kept < rows.size:
            leave = ~stay
            gone = rows[leave]
            x[gone], norm[gone], iterations[gone] = x_t[leave], n_t[leave], count
            rows, x_t, r_t, j_t, n_t, t_a = (
                a[stay] for a in (rows, x_t, r_t, j_t, n_t, t_a)
            )
        x_a, r_a, j_a, n_a = x_t, r_t, j_t, n_t
    else:
        # Out of iterations.
        x[rows], norm[rows], iterations[rows] = x_a, n_a, count
    return NewtonResult(x, norm <= tolerance, iterations, norm)


def newton_solve(
    system: MNASystem,
    x0: np.ndarray,
    source_scale: float = 1.0,
    gmin: float = 0.0,
    report=None,
    stage: str = "newton",
    parameter: float | None = None,
    **eval_kwargs,
) -> tuple[np.ndarray, bool]:
    """Damped Newton from ``x0``; returns (solution, converged).

    :func:`newton_rows` on a batch of one.  Converged means ``norm <=
    _RESIDUAL_ATOL + _RESIDUAL_RTOL * norm0`` with ``norm0`` the
    residual at ``x0``.  When ``report`` (a
    :class:`~repro.circuit.continuation.ConvergenceReport`) is given,
    the attempt is recorded under ``stage``/``parameter`` with its
    iteration count and final residual.
    """
    plan = system._plan
    kwargs = dict(eval_kwargs, source_scale=source_scale, gmin=gmin)

    def evaluate(x_rows, rows):
        return plan.evaluate_many(x_rows, **kwargs)

    def linear_solve(jacobians, rhs):
        # Linear-only circuits reuse the plan's cached LU of the
        # constant matrix instead of refactorizing it every step.
        step = plan.linear_step(
            -rhs[0], eval_kwargs.get("dt_s"), eval_kwargs.get("integrator", "trapezoidal")
        )
        return np.full_like(rhs, np.nan) if step is None else step[None]

    solve = linear_solve if plan.linear_only and gmin == 0.0 else plan.solve_stack
    result = newton_rows(evaluate, solve, np.asarray(x0, dtype=float)[None])
    converged = bool(result.converged[0])
    if report is not None:
        report.record(
            stage, parameter, int(result.iterations[0]), result.norm[0], converged
        )
    return result.x[0], converged


def solve_dc(
    system: MNASystem, x0: np.ndarray | None = None, **eval_kwargs
) -> np.ndarray:
    """DC solution via the adaptive continuation ladder.

    Delegates to :func:`repro.circuit.continuation.solve_dc_robust`
    (structural seed -> Newton -> adaptive gmin -> adaptive source ramp
    -> pseudo-transient).  Raises
    :class:`~repro.circuit.continuation.ConvergenceError` — carrying the
    full :class:`~repro.circuit.continuation.ConvergenceReport` — when
    every strategy is exhausted.
    """
    from repro.circuit.continuation import ConvergenceError, solve_dc_robust

    x, report = solve_dc_robust(system, x0, **eval_kwargs)
    if not report.converged:
        raise ConvergenceError("DC solve failed: continuation ladder exhausted", report)
    return x


def operating_point(
    system: MNASystem, x0: np.ndarray | None = None, **eval_kwargs
) -> tuple[np.ndarray, np.ndarray | sparse.csr_matrix]:
    """Continuation-solved DC point and its detached small-signal G.

    The Jacobian the evaluator returns at the DC solution *is* the
    small-signal conductance matrix — the FET gm/gds stamps come from
    the device protocol's ``linearize`` (analytic for models that
    provide derivatives, central differences with the model-owned step
    otherwise), so no caller ever re-derives them by finite
    differences.  Dense plans return an array, sparse plans the
    canonical-pattern CSR matrix.  This is the one linearization the
    compiled AC path (:mod:`repro.circuit.ac`) performs per analysis.
    """
    x = solve_dc(system, x0, **eval_kwargs)
    _, jacobian = system.evaluate(x)
    return x, jacobian
