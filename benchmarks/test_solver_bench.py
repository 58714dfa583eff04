"""Bench SOLVER: MNA assembly/Newton throughput on inverter chains.

The perf baseline for the compiled stamp-plan assembly engine
(:mod:`repro.circuit.assembly`): ``evaluate()`` throughput and full
Newton-solve wall-clock on 1/5/20-stage complementary inverter chains,
plus a 200-step trapezoidal transient of the 20-stage chain.  Future
solver PRs should quote before/after numbers from this file.

Seed-implementation reference numbers (same machine class as the
introduction of this benchmark): 20-stage ``evaluate()`` ~359 us, Newton
~0.72 ms, 200-step transient ~0.218 s; the compiled engine landed at
~52 us / ~0.13 ms / ~0.041 s (6.9x / 5.4x / 5.3x).

The Newton benchmarks start from an alternating-rails guess so the
measured work is identical across implementations; the transient
benchmark cold-starts with no ``x0`` — the continuation subsystem's
structural seeder (:mod:`repro.circuit.continuation`) reconstructs the
rails automatically, which is the bug fix this file guards the cost of.
"""

import numpy as np
import pytest

from conftest import print_rows, timing_s

from repro.circuit.solver import newton_solve
from repro.circuit.transient import transient
from repro.circuit.waveforms import Pulse
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain

CHAIN_SIZES = (1, 5, 20)
T_STOP_S = 4e-10
DT_S = 2e-12


def _input_pulse():
    return Pulse(0.0, 1.0, delay_s=2e-11, rise_s=1e-11, fall_s=1e-11,
                 width_s=2e-10, period_s=4e-10)


def _chain(n_stages):
    return build_inverter_chain(
        AlphaPowerFET(), n_stages=n_stages, input_waveform=_input_pulse()
    )


def _rails_guess(system, n_stages):
    guess = np.zeros(system.size)
    for i in range(n_stages + 1):
        guess[system.node_index(f"s{i}")] = float(i % 2)
    guess[system.node_index("vdd")] = 1.0
    return guess


@pytest.mark.parametrize("n_stages", CHAIN_SIZES)
def test_evaluate_throughput(benchmark, n_stages):
    system = _chain(n_stages).build_system()
    x, converged = newton_solve(system, _rails_guess(system, n_stages))
    assert converged

    residual, _ = benchmark(system.evaluate, x)
    print_rows(
        f"evaluate() throughput — {n_stages}-stage chain",
        [("unknowns", float(system.size)),
         ("mean evaluate [us]", timing_s(benchmark, 1e6))],
    )
    assert float(np.max(np.abs(residual))) < 1e-9


@pytest.mark.parametrize("n_stages", CHAIN_SIZES)
def test_newton_solve_wall_clock(benchmark, n_stages):
    system = _chain(n_stages).build_system()
    guess = _rails_guess(system, n_stages)

    x, converged = benchmark(newton_solve, system, guess)
    print_rows(
        f"newton_solve wall-clock — {n_stages}-stage chain",
        [("mean solve [ms]", timing_s(benchmark, 1e3))],
    )
    assert converged
    residual, _ = system.evaluate(x)
    assert float(np.max(np.abs(residual))) < 1e-9


def test_chain20_transient_wall_clock(benchmark):
    circuit = _chain(20)

    result = benchmark.pedantic(
        transient, args=(circuit, T_STOP_S, DT_S), rounds=3, iterations=1,
    )
    print_rows(
        "20-stage chain transient (200 steps)",
        [("points", float(result.time_s.size)),
         ("mean run [ms]", timing_s(benchmark, 1e3))],
    )
    # The pulse has propagated: the final stage swings across the supply.
    swing = result.voltage("s20")
    assert swing.max() > 0.9 and swing.min() < 0.1
