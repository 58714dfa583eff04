"""Self-consistent top-of-barrier solver: convergence, physics, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.cntfet import CNTFET
from repro.devices.gnrfet import GNRFET
from repro.physics.cnt import Chirality
from repro.physics.electrostatics import gate_all_around_capacitance
from repro.transport.ballistic import BallisticParameters, TopOfBarrierSolver

from oracles.top_of_barrier import ScalarTopOfBarrier, slab_density


@pytest.fixture(scope="module")
def solver():
    chirality = Chirality(15, 7)
    bands = chirality.band_structure(3)
    c_ins = gate_all_around_capacitance(chirality.diameter_nm, 3.0, 16.0)
    return TopOfBarrierSolver(
        bands, BallisticParameters(c_ins_f_per_m=c_ins, ef_offset_ev=-0.3)
    )


class TestParameterValidation:
    def test_rejects_bad_capacitance(self):
        with pytest.raises(ValueError):
            BallisticParameters(c_ins_f_per_m=0.0)

    def test_rejects_bad_alpha_g(self):
        with pytest.raises(ValueError):
            BallisticParameters(c_ins_f_per_m=1e-10, alpha_g=1.5)

    def test_rejects_bad_alpha_d(self):
        with pytest.raises(ValueError):
            BallisticParameters(c_ins_f_per_m=1e-10, alpha_d=-0.1)

    def test_rejects_bad_transmission(self):
        with pytest.raises(ValueError):
            BallisticParameters(c_ins_f_per_m=1e-10, transmission=0.0)


class TestConvergence:
    def test_converges_quickly_at_typical_bias(self, solver):
        op = solver.solve(0.5, 0.5)
        assert op.iterations < 30

    def test_equilibrium_barrier_is_zero(self, solver):
        op = solver.solve(0.0, 0.0)
        assert op.barrier_ev == pytest.approx(0.0, abs=1e-6)
        assert op.current_a == pytest.approx(0.0, abs=1e-15)

    def test_extreme_bias_still_converges(self, solver):
        op = solver.solve(1.5, 1.0)
        assert op.iterations < 150
        assert np.isfinite(op.current_a)


class TestPhysics:
    def test_gate_lowers_barrier(self, solver):
        u0 = solver.solve(0.0, 0.5).barrier_ev
        u1 = solver.solve(0.5, 0.5).barrier_ev
        assert u1 < u0

    def test_charging_feedback_weakens_gate(self, solver):
        # |dU/dVg| < alpha_g once charge builds up (quantum capacitance).
        u1 = solver.solve(0.5, 0.5).barrier_ev
        u2 = solver.solve(0.6, 0.5).barrier_ev
        assert abs(u2 - u1) < solver.params.alpha_g * 0.1

    def test_subthreshold_swing_near_thermal(self, solver):
        # In subthreshold the barrier follows alpha_g * Vg, so SS ~ 60/alpha_g.
        i1 = solver.current(0.05, 0.5)
        i2 = solver.current(0.15, 0.5)
        decades = np.log10(i2 / i1)
        ss_mv = 100.0 / decades
        assert 59.0 < ss_mv < 75.0

    def test_current_saturates_with_vds(self, solver):
        i_knee = solver.current(0.6, 0.3)
        i_high = solver.current(0.6, 0.6)
        assert (i_high - i_knee) / i_high < 0.1

    def test_ohmic_at_low_vds(self, solver):
        i1 = solver.current(0.6, 0.01)
        i2 = solver.current(0.6, 0.02)
        assert i2 == pytest.approx(2 * i1, rel=0.1)

    def test_charge_increases_with_gate(self, solver):
        n1 = solver.solve(0.2, 0.5).charge_per_m
        n2 = solver.solve(0.6, 0.5).charge_per_m
        assert n2 > n1

    def test_transmission_scales_current(self, solver):
        half = solver.with_transmission(0.5)
        # Same barrier physics, half the current (charge unchanged).
        assert half.current(0.6, 0.5) == pytest.approx(
            solver.current(0.6, 0.5) / 2.0, rel=1e-6
        )

    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.8))
    @settings(max_examples=20, deadline=None)
    def test_current_nonnegative_forward(self, solver, vgs, vds):
        assert solver.current(vgs, vds) >= 0.0

    @given(st.floats(0.1, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_monotone_in_gate(self, solver, vgs):
        assert solver.current(vgs + 0.05, 0.5) > solver.current(vgs, 0.5)


class TestIVSurface:
    def test_shape_and_monotonicity(self, solver):
        vgs = np.linspace(0.1, 0.6, 4)
        vds = np.linspace(0.05, 0.5, 3)
        surface = solver.iv_surface(vgs, vds)
        assert surface.shape == (4, 3)
        # increasing along both axes
        assert np.all(np.diff(surface, axis=0) > 0.0)
        assert np.all(np.diff(surface, axis=1) > 0.0)


# -- quadrature guard ----------------------------------------------------------
# The kernel's k grid is sized to the accuracy double precision allows,
# not beyond it: a grid too coarse for some device or temperature shows
# here as a drift from a 9600-sample trapezoid reference.
_REFERENCE_K_SAMPLES = 9600
_GUARD_BIASES = [
    (-0.4, 0.05),
    (0.0, 0.5),
    (0.2, 0.0125),
    (0.4, 0.3),
    (0.6, 0.6),
    (0.9, 1.0),
    (1.2, 0.2),
    (1.5, 1.4),
]
_GUARD_DEVICES = {
    "reference_cnt": CNTFET.reference_device,
    "gnr": lambda: GNRFET.for_bandgap(0.56),
    "cnt_77k": lambda: CNTFET.for_bandgap(0.56, temperature_k=77.0),
    # The narrowest and widest semiconducting tubes of the fabric
    # experiment's sorted population (1.3-1.7 nm).
    "fabric_tube_12_7": lambda: CNTFET(Chirality(12, 7)),
    "fabric_tube_13_12": lambda: CNTFET(Chirality(13, 12)),
}


@pytest.mark.parametrize("name", _GUARD_DEVICES)
def test_k_grid_matches_refined_quadrature(name):
    device = _GUARD_DEVICES[name]()
    kernel = TopOfBarrierSolver(device.bands, device.params)
    reference = ScalarTopOfBarrier(
        device.bands, device.params, k_samples=_REFERENCE_K_SAMPLES
    )
    for vgs, vds in _GUARD_BIASES:
        op = kernel.solve(vgs, vds)
        barrier, _, current, _ = reference.solve(vgs, vds)
        assert op.barrier_ev == pytest.approx(barrier, rel=0.0, abs=1e-13)
        assert op.current_a == pytest.approx(current, rel=1e-12, abs=0.0)


# -- density pass against its frozen form ---------------------------------------
def _slab(kernel, size, kind, rng):
    """(barrier, mu_d) of a slab whose points sit at the lowest subband's
    30 kT k-grid floor: all, some or none of them."""
    mu_d = -rng.uniform(0.0, 1.2, size)
    if kind == "mixed":
        mu_d[::3] = rng.uniform(0.0, 0.3, mu_d[::3].size)  # reversed drains
    mu_max = np.maximum(0.0, mu_d)
    floor_barrier = mu_max - kernel._edges_ev[0]
    rise = rng.uniform(0.0, 0.4, size)
    if kind == "all_floor":
        barrier = floor_barrier + rise
        barrier[0] = floor_barrier[0]  # on the floor's edge
    elif kind == "no_floor":
        barrier = floor_barrier - 0.005 - rise
    else:
        barrier = floor_barrier + np.where(np.arange(size) % 2 == 0, rise, -0.005 - rise)
    at_floor = mu_max - (kernel._edges_ev[0] + barrier) <= 0.0
    floor_count = {"all_floor": size, "no_floor": 0}.get(kind, (size + 1) // 2)
    assert at_floor.sum() == floor_count
    return barrier, mu_d


@pytest.mark.parametrize("kind", ["all_floor", "mixed", "no_floor"])
@pytest.mark.parametrize("name", ["reference_cnt", "gnr", "cnt_77k"])
def test_density_pass_bitwise_equals_frozen_form(name, kind):
    """In-place (k, points) work arrays change no bit of N or dN/dU.

    Slab sizes 1 (pairwise k sums) through 256 (sequential), with the
    lowest subband at the shared 30 kT floor for all, some or none of
    the points; the higher subbands mostly sit at the floor.
    """
    device = _GUARD_DEVICES[name]()
    kernel = TopOfBarrierSolver(device.bands, device.params)
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 17, 256):
        barrier, mu_d = _slab(kernel, size, kind, rng)
        density, derivative = kernel._density(barrier, mu_d)
        frozen_density, frozen_derivative = slab_density(kernel, barrier, mu_d)
        assert np.array_equal(density, frozen_density)
        assert np.array_equal(derivative, frozen_derivative)
