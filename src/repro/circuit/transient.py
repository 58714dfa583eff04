"""Transient analysis: fixed-step backward-Euler or trapezoidal integration.

Starts from the DC operating point at t = 0 (sources at their initial
waveform values) and marches the companion-model system forward.  The
trapezoidal rule (default) is second-order accurate — validated against
closed-form RC responses in the test suite — while backward Euler is
available for heavily damped startup transients.

The scalar :func:`transient` and the batched transient Monte Carlo
engine (:class:`repro.circuit.sweep.CircuitTransientMC`) share:

* :func:`validate_grid` — the one place the ``(t_stop, dt,
  integrator)`` contract is checked and the step count is derived;
* :func:`march` — the one time-march loop.  It steps an ``(m, size)``
  stack of solved t=0 rows in lockstep and carries the trapezoidal
  companion history as an ``(m, n_caps)`` array.  The caller supplies
  the per-step Newton and the per-row rescue of a failed step: the
  scalar path rescues through the continuation ladder and raises
  :class:`ConvergenceError` with its history; the Monte Carlo engine
  marks the instance instead;
* :func:`result_from_samples` — the mapping from a sample matrix to the
  named-waveform :class:`TransientResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.assembly import check_integrator
from repro.circuit.continuation import ConvergenceError, solve_dc_robust
from repro.circuit.elements import VoltageSource
from repro.circuit.netlist import Circuit, CircuitError, MNASystem
from repro.circuit.solver import newton_solve, solve_dc

__all__ = [
    "TransientResult",
    "transient",
    "transient_samples",
    "march",
    "result_from_samples",
    "validate_grid",
]

# How far t_stop / dt may sit from a whole step count (relative).
_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class TransientResult:
    """Waveforms from a transient run."""

    time_s: np.ndarray
    voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def source_current(self, name: str) -> np.ndarray:
        try:
            return self.source_currents[name]
        except KeyError:
            raise CircuitError(f"unknown voltage source {name!r}") from None


def validate_grid(t_stop_s: float, dt_s: float, integrator: str) -> int:
    """Check the time-grid contract; returns the step count.

    Shared by the scalar :func:`transient` and the batched
    :class:`repro.circuit.sweep.CircuitTransientMC`, so both reject the
    same inputs and march the identical grid.  ``t_stop`` must be a
    whole number of steps: a grid that would end early is an error,
    not a silently shorter run.
    """
    if t_stop_s <= 0.0 or dt_s <= 0.0:
        raise CircuitError("t_stop and dt must be positive")
    if dt_s > t_stop_s:
        raise CircuitError(f"dt {dt_s} exceeds t_stop {t_stop_s}")
    check_integrator(integrator)
    ratio = t_stop_s / dt_s
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > _GRID_RTOL * ratio:
        raise CircuitError(
            f"t_stop {t_stop_s} is not a whole number of steps dt {dt_s}"
        )
    return n_steps


def march(
    plan,
    x0: np.ndarray,
    n_steps: int,
    dt_s: float,
    integrator: str,
    newton,
    rescue,
    alive: np.ndarray | None = None,
) -> np.ndarray:
    """Step an ``(m, size)`` stack of solved t=0 rows in lockstep.

    ``alive`` selects the rows that march (all by default).  Each step
    calls ``newton(x_prev, alive, time_s, prevpad, history)`` for the
    marching rows — ``prevpad`` is the padded previous solution stack
    ``(k, size + 1)`` and ``history`` the trapezoidal companion currents
    ``(k, n_caps)`` — which returns ``(x_next, ok)``.  A row whose step
    failed goes to ``rescue(row, time_s, x_prev, history_row)``; it
    returns that row's solution, or None to stop marching the row.
    Returns the ``(m, n_steps + 1, size)`` samples; samples a row never
    reached are NaN.
    """
    m, size = x0.shape
    samples = np.full((m, n_steps + 1, size), np.nan)
    samples[:, 0] = x0
    alive = np.arange(m) if alive is None else alive
    x = x0[alive]
    prevpad = np.zeros((alive.size, size + 1))
    prevpad[:, :size] = x
    history = np.zeros((alive.size, len(plan.cap_names)))
    for step in range(1, n_steps + 1):
        if not alive.size:
            break
        time_s = step * dt_s
        x, ok = newton(x, alive, time_s, prevpad, history)
        if np.count_nonzero(ok) < ok.size:
            for row in (~ok).nonzero()[0]:
                rescued = rescue(int(alive[row]), time_s, prevpad[row, :size], history[row])
                if rescued is not None:
                    x[row] = rescued
                    ok[row] = True
            if not ok.all():
                alive, x, prevpad, history = alive[ok], x[ok], prevpad[ok], history[ok]
        xpad = np.zeros((alive.size, size + 1))
        xpad[:, :size] = x
        if integrator == "trapezoidal" and history.shape[1]:
            history = plan.cap_history_update(xpad, prevpad, dt_s, integrator, history)
        samples[alive, step] = x
        prevpad = xpad
    return samples


def transient_samples(
    system: MNASystem,
    t_stop_s: float,
    dt_s: float,
    integrator: str = "trapezoidal",
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """March the system from its t=0 operating point; returns raw samples.

    The ``(n_steps + 1, size)`` matrix stacks the DC solution at t=0 and
    every accepted time step: :func:`march` over a stack of one.  Each
    step runs plain Newton from the previous solution; a failed step is
    rescued through the adaptive continuation ladder anchored at the
    last accepted solution, and a rescue failure raises
    :class:`ConvergenceError` with the full ladder history.
    """
    n_steps = validate_grid(t_stop_s, dt_s, integrator)
    x = solve_dc(system, x0, time_s=0.0)

    def newton(x_prev, alive, time_s, prevpad, history):
        x_next, converged = newton_solve(
            system,
            x_prev[0],
            time_s=time_s,
            dt_s=dt_s,
            previous_x=x_prev[0],
            integrator=integrator,
            history=history[0],
        )
        return x_next[None], np.array([converged])

    def rescue(row, time_s, x_prev, history):
        x_next, report = solve_dc_robust(
            system,
            x_prev,
            time_s=time_s,
            dt_s=dt_s,
            previous_x=x_prev,
            integrator=integrator,
            history=history,
        )
        if not report.converged:
            raise ConvergenceError(
                f"transient Newton failed at t = {time_s:.3e} s", report
            )
        return x_next

    return march(system._plan, x[None], n_steps, dt_s, integrator, newton, rescue)[0]


def result_from_samples(
    system: MNASystem, samples: np.ndarray, dt_s: float
) -> TransientResult:
    """Name the columns of a raw sample matrix as waveforms."""
    circuit = system.circuit
    times = dt_s * np.arange(samples.shape[0])
    voltages = {
        node: samples[:, system.node_index(node)] for node in circuit.node_names
    }
    currents = {
        el.name: samples[:, el.branch_index]
        for el in circuit.elements
        if isinstance(el, VoltageSource)
    }
    return TransientResult(
        time_s=times, voltages=voltages, source_currents=currents
    )


def transient(
    circuit: Circuit,
    t_stop_s: float,
    dt_s: float,
    integrator: str = "trapezoidal",
    x0: np.ndarray | None = None,
) -> TransientResult:
    """Integrate the circuit from its t=0 operating point to ``t_stop_s``.

    The initial DC solve cold-starts through the adaptive continuation
    ladder of :mod:`repro.circuit.continuation` (structural seeding,
    adaptive gmin/source stepping, pseudo-transient fallback), so
    ``x0`` is no longer needed for long FET chains; it remains as an
    optional override for callers that want to select a particular
    operating point of a multistable circuit.
    """
    system = circuit.build_system()
    samples = transient_samples(system, t_stop_s, dt_s, integrator, x0)
    return result_from_samples(system, samples, dt_s)
