"""Transient integration against closed-form RC/RLC-free responses."""

import math

import numpy as np
import pytest

from repro.circuit.netlist import Circuit, CircuitError
from repro.circuit.transient import transient
from repro.circuit.waveforms import DC, Pulse, Sine


def rc_circuit(r=1e3, c=1e-9, v=1.0):
    circuit = Circuit("rc")
    circuit.add_voltage_source(
        "V1", "a", "0",
        Pulse(v1=0.0, v2=v, delay_s=0.0, rise_s=1e-12, fall_s=1e-12, width_s=1.0),
    )
    circuit.add_resistor("R1", "a", "b", r)
    circuit.add_capacitor("C1", "b", "0", c)
    return circuit


class TestRCCharging:
    def test_matches_exponential(self):
        tau = 1e-6
        result = transient(rc_circuit(), t_stop_s=3e-6, dt_s=5e-9)
        v = result.voltage("b")
        expected = 1.0 - np.exp(-result.time_s / tau)
        assert np.max(np.abs(v - expected)) < 5e-3

    def test_backward_euler_also_converges(self):
        result = transient(rc_circuit(), 3e-6, 5e-9, integrator="backward-euler")
        assert result.voltage("b")[-1] == pytest.approx(1.0 - math.exp(-3.0), abs=0.01)

    def test_trapezoidal_more_accurate_than_be_on_smooth_drive(self):
        # Sine-driven RC with the full analytic solution (particular +
        # homogeneous); smooth drive so integration error dominates.
        r, cap, f = 1e3, 1e-9, 1e6

        def run(integrator):
            c = Circuit()
            c.add_voltage_source("V1", "a", "0", Sine(0.0, 1.0, f))
            c.add_resistor("R1", "a", "b", r)
            c.add_capacitor("C1", "b", "0", cap)
            result = transient(c, 1e-6, 2e-9, integrator=integrator)
            return result.time_s, result.voltage("b")

        tau = r * cap
        omega = 2 * math.pi * f
        amplitude = 1.0 / math.sqrt(1.0 + (omega * tau) ** 2)
        phi = math.atan(omega * tau)

        def exact(t):
            return amplitude * (np.sin(omega * t - phi) + math.sin(phi) * np.exp(-t / tau))

        t_tr, v_tr = run("trapezoidal")
        t_be, v_be = run("backward-euler")
        err_tr = np.max(np.abs(v_tr - exact(t_tr)))
        err_be = np.max(np.abs(v_be - exact(t_be)))
        assert err_tr < err_be
        assert err_tr < 5e-3

    def test_source_current_decays(self):
        result = transient(rc_circuit(), 5e-6, 1e-8)
        i = -result.source_current("V1")
        assert i[1] > i[-1]
        assert i[-1] == pytest.approx(0.0, abs=1e-5)


class TestValidation:
    def test_bad_times(self):
        with pytest.raises(CircuitError):
            transient(rc_circuit(), -1.0, 1e-9)
        with pytest.raises(CircuitError):
            transient(rc_circuit(), 1e-9, 1e-6)

    def test_unknown_integrator(self):
        with pytest.raises(CircuitError):
            transient(rc_circuit(), 1e-6, 1e-8, integrator="gear2")

    @pytest.mark.parametrize("dt_s", [4e-10, 3e-10])
    def test_grid_that_would_end_early_is_rejected(self, dt_s):
        # 1 ns / 0.4 ns rounds to 2 steps (0.8 ns), 1 ns / 0.3 ns to 3
        # (0.9 ns): the run would silently stop short of t_stop.
        with pytest.raises(CircuitError, match=f"t_stop 1e-09 .* dt {dt_s}"):
            transient(rc_circuit(), 1e-9, dt_s)

    def test_grid_within_rounding_of_whole_steps_is_accepted(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point.
        result = transient(rc_circuit(), 0.3e-9, 0.1e-9)
        assert result.time_s.size == 4


class TestDynamicSources:
    def test_sine_through_divider(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", Sine(offset=0.0, amplitude=1.0, frequency_hz=1e6))
        c.add_resistor("R1", "a", "b", 1000.0)
        c.add_resistor("R2", "b", "0", 1000.0)
        result = transient(c, 2e-6, 1e-8)
        v = result.voltage("b")
        # Resistive divider: exactly half the source at all times.
        expected = 0.5 * np.sin(2 * np.pi * 1e6 * result.time_s)
        assert np.max(np.abs(v - expected)) < 1e-6

    def test_rc_lowpass_attenuates_fast_sine(self):
        # f >> 1/(2 pi RC): steady-state amplitude ~ 1 / (omega RC).
        # Run long enough (8 tau) for the startup transient to die.
        r, cap, f = 1e3, 1e-9, 10e6
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", Sine(0.0, 1.0, f))
        c.add_resistor("R1", "a", "b", r)
        c.add_capacitor("C1", "b", "0", cap)
        result = transient(c, 8e-6, 2e-9)
        settled = result.voltage("b")[result.time_s > 7e-6]
        gain = settled.max()
        expected = 1.0 / math.sqrt(1.0 + (2 * math.pi * f * r * cap) ** 2)
        assert gain == pytest.approx(expected, rel=0.1)

    def test_initial_condition_from_dc(self):
        # Source starts at 1 V DC: the capacitor must start charged.
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", DC(1.0))
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_capacitor("C1", "b", "0", 1e-9)
        result = transient(c, 1e-6, 1e-8)
        assert result.voltage("b")[0] == pytest.approx(1.0, abs=1e-6)
        assert result.voltage("b")[-1] == pytest.approx(1.0, abs=1e-6)
