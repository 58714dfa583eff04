"""Newton solver robustness: KCL residuals, homotopies, hard starts."""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit, CircuitError
from repro.circuit.solver import newton_solve, solve_dc
from repro.circuit.waveforms import DC
from repro.devices.base import PType
from repro.devices.empirical import AlphaPowerFET


def inverter_circuit(vin=0.5):
    c = Circuit()
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_voltage_source("VIN", "in", "0", DC(vin))
    fet = AlphaPowerFET()
    c.add_fet("MP", "out", "in", "vdd", PType(fet))
    c.add_fet("MN", "out", "in", "0", fet)
    return c


class TestNewton:
    def test_linear_circuit_one_step(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", DC(1.0))
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_resistor("R2", "b", "0", 1e3)
        system = c.build_system()
        x, converged = newton_solve(system, np.zeros(system.size))
        assert converged
        residual, _ = system.evaluate(x)
        assert np.max(np.abs(residual)) < 1e-10

    def test_kcl_residual_at_solution(self):
        system = inverter_circuit(0.5).build_system()
        x = solve_dc(system)
        residual, _ = system.evaluate(x)
        assert np.max(np.abs(residual)) < 1e-9

    def test_cold_start_mid_transition(self):
        # Both FETs half-on: the classic hard DC point.
        system = inverter_circuit(0.5).build_system()
        x = solve_dc(system)
        out = system.voltage_of(x, "out")
        assert 0.3 < out < 0.7  # symmetric pair -> mid-rail output

    def test_rails_solve(self):
        for vin, expected in [(0.0, 1.0), (1.0, 0.0)]:
            system = inverter_circuit(vin).build_system()
            x = solve_dc(system)
            assert system.voltage_of(x, "out") == pytest.approx(expected, abs=1e-2)

    def test_gmin_kwarg_adds_leak(self):
        c = Circuit()
        c.add_current_source("I1", "0", "x", DC(1e-6))
        c.add_resistor("R1", "x", "0", 1e6)
        system = c.build_system()
        x_leaky, ok = newton_solve(system, np.zeros(system.size), gmin=1e-6)
        assert ok
        # 1 uA into 1 MOhm || 1 MOhm (gmin) = 0.5 V.
        assert system.voltage_of(x_leaky, "x") == pytest.approx(0.5, rel=1e-6)

    def test_source_scale_scales_solution(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", DC(2.0))
        c.add_resistor("R1", "a", "0", 1e3)
        system = c.build_system()
        x_half, ok = newton_solve(system, np.zeros(system.size), source_scale=0.5)
        assert ok
        assert system.voltage_of(x_half, "a") == pytest.approx(1.0)

    @pytest.mark.parametrize("fets", [False, True], ids=["linear", "inverter"])
    def test_misspelt_integrator_is_rejected(self, fets):
        # A misspelt name must raise, not fall back to the trapezoidal rule.
        c = inverter_circuit(0.3) if fets else Circuit()
        if not fets:
            c.add_voltage_source("V1", "a", "0", DC(1.0))
            c.add_resistor("R1", "a", "out", 1e3)
        c.add_capacitor("CL", "out", "0", 1e-14)
        system = c.build_system()
        x0 = np.zeros(system.size)
        with pytest.raises(CircuitError, match="backward_euler.*backward-euler"):
            newton_solve(
                system, x0, dt_s=1e-12, integrator="backward_euler", history=np.zeros(1)
            )


class TestBatchedLineSearch:
    """The damping ladder of a rejected full step runs batched.

    One :meth:`~repro.circuit.assembly.StampPlan.evaluate_many` call
    covers ``_TRIAL_BATCH`` damping candidates; acceptance must be the
    first candidate the sequential ladder would have accepted, so the
    solver's trajectory (and solution) matches the scalar reference.
    """

    def _chain(self, n_stages=5):
        c = Circuit()
        c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        c.add_voltage_source("VIN", "s0", "0", DC(0.0))
        fet = AlphaPowerFET()
        for i in range(n_stages):
            c.add_fet(f"MP{i}", f"s{i+1}", f"s{i}", "vdd", PType(fet))
            c.add_fet(f"MN{i}", f"s{i+1}", f"s{i}", "0", fet)
        return c

    def test_backtracking_routes_through_evaluate_many(self, monkeypatch):
        system = self._chain().build_system()
        plan = system._plan
        calls = {"many": 0}
        original = plan.evaluate_many

        def counting(x_stack, **kwargs):
            calls["many"] += 1
            return original(x_stack, **kwargs)

        monkeypatch.setattr(plan, "evaluate_many", counting)
        # An adversarial start (rails inverted) forces damped steps.
        x0 = np.full(system.size, 0.5)
        x0[system.node_index("vdd")] = -1.0
        x, converged = newton_solve(system, x0)
        residual, _ = system.evaluate_dense(x)
        assert calls["many"] > 0
        assert np.max(np.abs(residual)) < 1e-8 or not converged

    @staticmethod
    def _sequential_newton(system, x0):
        """Reference Newton: one ``plan.evaluate`` per damping trial."""
        from repro.circuit.assembly import DIAG_REGULARIZATION
        from repro.circuit.solver import (
            _MAX_ITERATIONS,
            _MAX_TRIALS,
            _RESIDUAL_ATOL,
            _RESIDUAL_RTOL,
            _STEP_TOL,
        )

        plan = system._plan
        regularization = DIAG_REGULARIZATION * np.eye(system.size)
        x = np.array(x0, dtype=float)
        residual, jacobian = (array.copy() for array in plan.evaluate(x))
        norm = np.max(np.abs(residual))
        tolerance = _RESIDUAL_ATOL + _RESIDUAL_RTOL * norm
        converged = norm <= tolerance
        for _ in range(_MAX_ITERATIONS):
            if converged:
                break
            step = np.linalg.solve(jacobian + regularization, -residual)
            for trial in range(_MAX_TRIALS):
                damping = 0.5**trial
                r_trial, j_trial = plan.evaluate(x + damping * step)
                n_trial = np.max(np.abs(r_trial))
                if n_trial < norm or n_trial <= tolerance:
                    x = x + damping * step
                    residual, jacobian, norm = r_trial.copy(), j_trial.copy(), n_trial
                    break
            else:
                break
            converged = norm <= tolerance
            if np.max(np.abs(damping * step)) < _STEP_TOL:
                break
        return x, converged

    def test_batched_ladder_matches_sequential_ladder(self):
        system = self._chain().build_system()
        x0 = np.full(system.size, 0.5)
        x0[system.node_index("vdd")] = -1.0
        x_batched, ok_batched = newton_solve(system, x0)
        # The per-trial sequential ladder must accept the same damping
        # sequence and land on the same solution.
        x_scalar, ok_scalar = self._sequential_newton(system, x0)
        assert ok_batched == ok_scalar
        np.testing.assert_allclose(x_batched, x_scalar, atol=1e-7)


def _loaded_chain(n_stages):
    """Complementary chain with a load capacitor on every stage."""
    c = Circuit(f"loaded-chain-{n_stages}")
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_voltage_source("VIN", "s0", "0", DC(0.0))
    fet = AlphaPowerFET()
    for i in range(n_stages):
        c.add_fet(f"MP{i}", f"s{i+1}", f"s{i}", "vdd", PType(fet))
        c.add_fet(f"MN{i}", f"s{i+1}", f"s{i}", "0", fet)
        c.add_capacitor(f"C{i}", f"s{i+1}", "0", 2e-15)
    return c


class TestScalarAdapterMatchesBatch:
    """``newton_solve`` and a one-row ``_newton_batch`` are one driver.

    Both adapters must report the same convergence flag and iteration
    count and land on the same solution, on the dense and the sparse
    plan, in every evaluation context.  Starts: the structural seed
    (converges at once), the line-search tests' inverted-rails start
    (the whole ladder is rejected) and the seed with every logic level
    flipped (dozens of iterations through accepted ladder dampings).
    """

    @pytest.fixture(scope="class", params=[20, 130], ids=["dense", "sparse"])
    def engine(self, request):
        from repro.circuit.sweep import CircuitMonteCarlo

        engine = CircuitMonteCarlo(_loaded_chain(request.param))
        assert engine.plan.use_sparse == (request.param == 130)
        return engine

    @pytest.mark.parametrize("start", ["seed", "adversarial", "flipped"])
    @pytest.mark.parametrize("context", ["dc", "gmin", "trapezoidal"])
    def test_same_flag_iterations_and_solution(self, engine, context, start):
        from repro.circuit.continuation import ConvergenceReport, structural_seed
        from repro.circuit.sweep import FETVariation, _BatchContext

        system = engine.system
        plan = engine.plan
        x0 = structural_seed(system)
        if start == "adversarial":
            x0 = np.full(system.size, 0.5)
            x0[system.node_index("vdd")] = -1.0
        elif start == "flipped":
            x0[: system.n_nodes] = 1.0 - x0[: system.n_nodes]
            x0[system.node_index("vdd")] = 1.0
            x0[system.node_index("s0")] = 0.0
        gmin = 1e-6 if context == "gmin" else 0.0
        kwargs, ctx = {}, _BatchContext()
        if context == "trapezoidal":
            rng = np.random.default_rng(3)
            previous_x = structural_seed(system)
            history = rng.normal(scale=1e-7, size=len(plan.cap_names))
            timing = dict(time_s=1e-11, dt_s=1e-12, integrator="trapezoidal")
            kwargs = dict(timing, previous_x=previous_x, history=history)
            ctx = _BatchContext(
                prevpad=np.append(previous_x, 0.0)[None],
                history=history[None],
                **timing,
            )

        report = ConvergenceReport()
        x_scalar, ok_scalar = newton_solve(
            system, x0, gmin=gmin, report=report, **kwargs
        )
        batch = engine._newton_batch(
            x0[None], FETVariation.nominal(1, len(engine.fet_names)), gmin, ctx=ctx
        )
        assert report.attempts[-1].iterations > 0
        assert ok_scalar == bool(batch.converged[0])
        assert report.attempts[-1].iterations == int(batch.iterations[0])
        np.testing.assert_allclose(x_scalar, batch.x[0], atol=1e-12, rtol=0.0)


class TestStiffCircuits:
    def test_wide_conductance_spread(self):
        # 9 decades of resistance spread in one circuit.
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", DC(1.0))
        c.add_resistor("R1", "a", "b", 1.0)
        c.add_resistor("R2", "b", "c", 1e9)
        c.add_resistor("R3", "c", "0", 1.0)
        system = c.build_system()
        x = solve_dc(system)
        assert system.voltage_of(x, "b") == pytest.approx(1.0, abs=1e-6)
        assert system.voltage_of(x, "c") == pytest.approx(0.0, abs=1e-6)

    def test_series_fet_stack(self):
        # Two stacked FETs (NAND-style pulldown) with a resistive load.
        c = Circuit()
        c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        c.add_voltage_source("VA", "a", "0", DC(1.0))
        c.add_voltage_source("VB", "b", "0", DC(1.0))
        c.add_resistor("RL", "vdd", "out", 50e3)
        fet = AlphaPowerFET()
        c.add_fet("M1", "out", "a", "mid", fet)
        c.add_fet("M2", "mid", "b", "0", fet)
        system = c.build_system()
        x = solve_dc(system)
        out = system.voltage_of(x, "out")
        mid = system.voltage_of(x, "mid")
        assert 0.0 <= mid <= out <= 1.0
        assert out < 0.3  # both gates high: output pulled low
