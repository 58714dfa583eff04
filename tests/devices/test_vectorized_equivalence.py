"""Batched ``currents``/``linearize`` vs independent per-point references.

The compiled circuit assembly, the curve helpers and the tabulation all
consume the batched entry points, while spot values and density helpers
call scalar ``current``.  For the closed-form models these tests pin
the two paths together, so an edit to one side (a clamp, a softplus
threshold) cannot silently diverge from the other.  The physical
models have one solver kernel, which scalar ``current`` runs as a
batch of one; they are checked against the per-point oracles in
``tests/oracles/top_of_barrier.py`` instead (``np.trapezoid`` charge,
``cosh`` dN/dU, ``brentq`` series resistance).
"""

import numpy as np
import pytest

from repro.devices.base import PType
from repro.devices.cntfet import CNTFET
from repro.devices.contacts import SeriesResistanceFET
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET, TabulatedFET
from repro.devices.fabric import CNTFabricFET
from repro.devices.gnrfet import GNRFET
from repro.devices.reference import trigate_intel_22nm
from repro.physics.gnr import gnr_for_gap

from oracles.top_of_barrier import ScalarTopOfBarrier, series_current


def _tabulated():
    return TabulatedFET.from_model(
        AlphaPowerFET(), np.linspace(-0.3, 1.2, 16), np.linspace(0.0, 1.2, 13)
    )


FAST_DEVICES = {
    "alpha_power": AlphaPowerFET,
    "alpha_power_ptype": lambda: PType(AlphaPowerFET()),
    "alpha_power_double_mirror": lambda: PType(PType(AlphaPowerFET())),
    "non_saturating": NonSaturatingFET,
    "tabulated": _tabulated,
    "trigate": trigate_intel_22nm,
    "fabric": lambda: CNTFabricFET(
        [_tabulated()] * 3 + [AlphaPowerFET()], n_metallic=1
    ),
}

# The physical solvers are slow per point; a handful of biases still
# covers the mirror transform and the batched barrier Newton.
SLOW_DEVICES = {
    "cntfet": CNTFET.reference_device,
    "gnrfet": lambda: GNRFET(gnr_for_gap(0.56), channel_length_nm=20.0),
}


def _bias_grid(n):
    rng = np.random.default_rng(42)
    vgs = rng.uniform(-0.4, 1.2, n)
    vds = rng.uniform(-0.6, 1.2, n)  # both signs: exercises the mirror
    return vgs, vds


@pytest.mark.parametrize("name", FAST_DEVICES)
def test_fast_model_currents_match_scalar(name):
    device = FAST_DEVICES[name]()
    vgs, vds = _bias_grid(60)
    batch = device.currents(vgs, vds)
    scalar = np.array([device.current(float(g), float(d)) for g, d in zip(vgs, vds)])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-30)


@pytest.mark.parametrize("name", SLOW_DEVICES)
def test_physical_model_currents_match_scalar(name):
    device = SLOW_DEVICES[name]()
    oracle = ScalarTopOfBarrier(device.bands, device.params)
    vgs, vds = _bias_grid(6)
    batch = device.currents(vgs, vds)
    reference = np.array([oracle.current(float(g), float(d)) for g, d in zip(vgs, vds)])
    np.testing.assert_allclose(batch, reference, rtol=1e-9, atol=1e-30)
    # Scalar current is the same kernel on a slab of one point.
    scalar = np.array([device.current(float(g), float(d)) for g, d in zip(vgs, vds)])
    np.testing.assert_allclose(scalar, batch, rtol=1e-12, atol=1e-30)


def test_operating_point_matches_scalar_oracle():
    device = SLOW_DEVICES["cntfet"]()
    oracle = ScalarTopOfBarrier(device.bands, device.params)
    for vgs, vds in [(0.0, 0.0), (0.2, 0.05), (0.7, 0.5), (1.2, 1.0)]:
        op = device.operating_point(vgs, vds)
        barrier, density, current, iterations = oracle.solve(vgs, vds)
        assert op.barrier_ev == pytest.approx(barrier, rel=1e-12, abs=1e-15)
        assert op.charge_per_m == pytest.approx(density, rel=1e-9)
        assert op.current_a == pytest.approx(current, rel=1e-9, abs=1e-30)
        assert op.iterations == iterations


# brentq's stopping rule: each solve lands within xtol + rtol |I| of the root.
_SERIES_ATOL = 2e-18


@pytest.mark.parametrize(
    "r_source, r_drain",
    [(50e3, 50e3), (10e3, 90e3), (0.0, 0.0), (0.0, 30e3)],
    ids=["symmetric", "unequal", "zero", "drain_only"],
)
def test_series_resistance_matches_brentq_oracle(r_source, r_drain):
    inner = AlphaPowerFET()
    device = SeriesResistanceFET(inner, r_source, r_drain)
    vgs, vds = _bias_grid(40)
    # vds = 0 has I_intrinsic = 0: the off-state (upper <= 0) exit.
    vds[:4] = 0.0
    # Deep off, I R is below the bias resolution, so the residual at
    # I_intrinsic is exactly zero: the residual(upper) >= 0 exit.
    vgs[4:8] = -1.5
    batch = device.currents(vgs, vds)
    reference = np.array(
        [series_current(inner.current, r_source, r_drain, g, d) for g, d in zip(vgs, vds)]
    )
    np.testing.assert_allclose(batch, reference, rtol=1e-9, atol=_SERIES_ATOL)
    assert np.all(batch[:4] == 0.0)
    intrinsic = inner.currents(vgs[4:8], vds[4:8])
    assert np.all(batch[4:8] == intrinsic) and np.all(intrinsic != 0.0)
    scalar = np.array([device.current(float(g), float(d)) for g, d in zip(vgs, vds)])
    np.testing.assert_allclose(scalar, reference, rtol=1e-9, atol=_SERIES_ATOL)


def test_series_resistance_on_cntfet_matches_brentq_oracle(reference_cntfet):
    oracle = ScalarTopOfBarrier(reference_cntfet.bands, reference_cntfet.params)
    for r_source, r_drain in [(50e3, 50e3), (20e3, 60e3)]:
        device = SeriesResistanceFET(reference_cntfet, r_source, r_drain)
        vgs = np.array([0.0, 0.3, 0.7, 0.9, 0.7])
        vds = np.array([0.0, 0.5, 0.4, -0.3, 1e-3])
        batch = device.currents(vgs, vds)
        reference = np.array(
            [series_current(oracle.current, r_source, r_drain, g, d) for g, d in zip(vgs, vds)]
        )
        np.testing.assert_allclose(batch, reference, rtol=1e-9, atol=_SERIES_ATOL)


def test_linearize_matches_scalar_finite_differences():
    device = PType(AlphaPowerFET())
    vgs, vds = _bias_grid(40)
    delta_v = 1e-5
    current, gm, gds = device.linearize(vgs, vds, delta_v)
    for k in range(vgs.size):
        g, d = float(vgs[k]), float(vds[k])
        assert float(current[k]) == pytest.approx(device.current(g, d), rel=1e-12)
        gm_ref = (
            device.current(g + delta_v, d) - device.current(g - delta_v, d)
        ) / (2 * delta_v)
        gds_ref = (
            device.current(g, d + delta_v) - device.current(g, d - delta_v)
        ) / (2 * delta_v)
        assert float(gm[k]) == pytest.approx(gm_ref, rel=1e-9, abs=1e-18)
        assert float(gds[k]) == pytest.approx(gds_ref, rel=1e-9, abs=1e-18)
