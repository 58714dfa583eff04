"""Library-level circuit-engine cases of the ``circuit_engines`` workload.

The circuits are the ``AlphaPowerFET`` inverter chains of
``benchmarks/perf_trajectory.py`` at the same sizes, so the first
figures line up with its ``BENCH_*.json`` trajectory; the scalar case
is the 200-step 20-stage transient of ``benchmarks/test_solver_bench.py``.  ``FETVariation``
draws come from the benchmark's ``--seed``.  Only the compiled engines
are timed, never the test-only oracles (the legacy dense AC loop and
``scalar_reference``).
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

__all__ = ["Case", "build", "outcome", "supervised_over_raw"]

CHAIN_STAGES = 5
N_DENSE = 1000
N_SPARSE = 256
SPARSE_STAGES = 200
N_TRANSIENT = 256
T_STOP_S = 0.2e-9
DT_S = 1e-11
N_AC_FREQUENCIES = 240
AC_STAGES = 600
SCALAR_STAGES = 20
SCALAR_T_STOP_S = 4e-10
SCALAR_DT_S = 2e-12


@dataclass
class Case:
    """One timed call: ``run()`` returns what :func:`outcome` checks."""

    name: str
    run: Callable[[], object]
    kind: str
    supervised: Callable[[object], object] | None = None


def _variation(engine, n_instances: int, seed: int, stream: int):
    from repro.circuit.sweep import FETVariation

    case_seed = int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])
    return FETVariation.sample(
        n_instances,
        len(engine.fet_names),
        seed=case_seed,
        drive_sigma=0.15,
        vth_sigma_v=0.01,
    )


def build(seed: int) -> list[Case]:
    """Build every circuit, compile its plan and draw its variation."""
    from repro.circuit.ac import ACPlan
    from repro.circuit.sweep import CircuitMonteCarlo, CircuitTransientMC
    from repro.circuit.transient import transient
    from repro.circuit.waveforms import DC, Pulse
    from repro.devices.empirical import AlphaPowerFET
    from repro.experiments.cascade import build_inverter_chain

    device = AlphaPowerFET()
    dense = CircuitMonteCarlo(
        build_inverter_chain(device, n_stages=CHAIN_STAGES, input_waveform=DC(0.0))
    )
    dense_variation = _variation(dense, N_DENSE, seed, 0)
    sparse = CircuitMonteCarlo(
        build_inverter_chain(device, n_stages=SPARSE_STAGES, input_waveform=DC(0.0))
    )
    if not sparse.plan.use_sparse:
        raise RuntimeError("the sparse DC MC circuit fell below the sparse threshold")
    sparse_variation = _variation(sparse, N_SPARSE, seed, 1)
    # The stimuli of perf_trajectory.py's transient MC and of
    # test_solver_bench.py's 20-stage transient.
    mc_pulse = Pulse(
        v1=0.0, v2=1.0, delay_s=0.02e-9, rise_s=10e-12, fall_s=10e-12,
        width_s=0.09e-9, period_s=0.0,
    )
    scalar_pulse = Pulse(
        0.0, 1.0, delay_s=2e-11, rise_s=1e-11, fall_s=1e-11,
        width_s=2e-10, period_s=4e-10,
    )
    marcher = CircuitTransientMC(
        build_inverter_chain(device, n_stages=CHAIN_STAGES, input_waveform=mc_pulse)
    )
    transient_variation = _variation(marcher, N_TRANSIENT, seed, 2)
    ac_plan = ACPlan(
        build_inverter_chain(device, n_stages=AC_STAGES, input_waveform=DC(0.0)), "VIN"
    )
    frequencies = np.logspace(3, 11, N_AC_FREQUENCIES)
    scalar_chain = build_inverter_chain(
        device, n_stages=SCALAR_STAGES, input_waveform=scalar_pulse
    )
    return [
        Case(
            "dc_mc_dense",
            lambda: dense.run(dense_variation),
            "mc",
            supervised=lambda policy: dense.run(dense_variation, policy=policy),
        ),
        Case("dc_mc_sparse", lambda: sparse.run(sparse_variation), "mc"),
        Case(
            "transient_mc",
            lambda: marcher.run(transient_variation, T_STOP_S, DT_S),
            "mc",
        ),
        Case("ac_sweep", lambda: ac_plan.sweep_samples(frequencies), "array"),
        Case(
            "scalar_transient",
            lambda: transient(scalar_chain, SCALAR_T_STOP_S, SCALAR_DT_S),
            "waveform",
        ),
    ]


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def outcome(case: Case, result) -> tuple[int, int, str, list[str]]:
    """``(attempted, failed, digest, problems)`` of one case result.

    A Monte Carlo call attempts one operation per instance and fails one
    per unconverged or non-finite instance; the other cases attempt one
    operation that fails when any value is non-finite.
    """
    if case.kind == "mc":
        values = result.x if hasattr(result, "x") else result.samples
        per_instance = values.reshape(values.shape[0], -1)
        good = result.converged & np.all(np.isfinite(per_instance), axis=1)
        failed = int(values.shape[0] - np.count_nonzero(good))
        problems = (
            [f"{case.name}: {failed} of {values.shape[0]} instances failed"]
            if failed
            else []
        )
        return values.shape[0], failed, _digest([values, result.converged]), problems
    if case.kind == "array":
        arrays = [result]
    else:
        arrays = [result.time_s, *(result.voltages[k] for k in sorted(result.voltages))]
    finite = all(np.all(np.isfinite(array)) for array in arrays)
    problems = [] if finite else [f"{case.name}: non-finite values"]
    return 1, int(not finite), _digest(arrays), problems


def supervised_over_raw(case: Case, repeats: int = 15) -> float:
    """Median time of the dense DC MC under a no-checkpoint
    ``ExecutionPolicy`` over its time without one, alternating runs."""
    from repro.circuit.resilience import ExecutionPolicy

    ratios = []
    for _ in range(repeats):
        start = perf_counter()
        raw = case.run()
        middle = perf_counter()
        supervised = case.supervised(ExecutionPolicy())
        end = perf_counter()
        if _digest([raw.x]) != _digest([supervised.x]):
            raise RuntimeError("supervised and raw dense DC MC results differ")
        ratios.append((end - middle) / (middle - start))
    return statistics.median(ratios)
