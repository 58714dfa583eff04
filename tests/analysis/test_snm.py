"""Butterfly static noise margin on synthetic and device VTCs."""

import numpy as np
import pytest

from repro.analysis.snm import _lobe_snm, butterfly_snm
from repro.circuit.cells import inverter_vtc
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET


def steep_vtc(vdd=1.0, steepness=60.0, n=801):
    v_in = np.linspace(0.0, vdd, n)
    v_out = vdd / (1.0 + np.exp(steepness * (v_in - vdd / 2.0)))
    return v_in, v_out


def _whole_grid_lobe(x, f, f_inverse, n_grid):
    """The inscribed-square search on the full (x0, s) grid at once."""
    span = float(x[-1] - x[0])
    x0_grid = np.linspace(x[0], x[-1], n_grid)
    s_grid = np.linspace(0.0, span, n_grid)
    y0_min = f_inverse(x0_grid)
    headroom = f(x0_grid[:, None] + s_grid[None, :]) - s_grid[None, :] - y0_min[:, None]
    feasible = headroom >= 0.0
    if not feasible.any():
        return 0.0
    return float(s_grid[np.max(np.where(feasible.any(axis=0))[0])])


@pytest.mark.parametrize("n_grid", [5, 64, 65, 801])
def test_blocked_lobe_search_equals_whole_grid(n_grid):
    for steepness, shift in [(6.0, 0.0), (40.0, 0.08), (400.0, -0.05)]:
        v_in = np.linspace(0.0, 1.0, 161)
        v_out = 1.0 / (1.0 + np.exp(steepness * (v_in - 0.5 - shift)))
        y = np.minimum.accumulate(v_out) - 1e-12 * np.arange(v_in.size)

        def f(values):
            return np.interp(values, v_in, y)

        def f_inverse(values):
            return np.interp(values, y[::-1], v_in[::-1])

        for args in ((v_in, f, f_inverse), (np.sort(y), f_inverse, f)):
            assert _lobe_snm(*args, n_grid) == _whole_grid_lobe(*args, n_grid)


class TestIdealisedCurves:
    def test_near_ideal_inverter_snm_approaches_half_vdd(self):
        v_in, v_out = steep_vtc(steepness=400.0)
        result = butterfly_snm(v_in, v_out)
        assert result.is_bistable
        assert result.snm == pytest.approx(0.5, abs=0.03)

    def test_symmetric_curve_symmetric_lobes(self):
        v_in, v_out = steep_vtc(steepness=40.0)
        result = butterfly_snm(v_in, v_out)
        assert result.snm_low == pytest.approx(result.snm_high, abs=0.01)

    def test_steeper_is_better(self):
        soft = butterfly_snm(*steep_vtc(steepness=10.0))
        hard = butterfly_snm(*steep_vtc(steepness=100.0))
        assert hard.snm > soft.snm

    def test_sub_unity_gain_curve_not_bistable(self):
        # A straight line with |slope| < 1 crosses its mirror only once.
        v_in = np.linspace(0.0, 1.0, 101)
        v_out = 0.9 - 0.8 * v_in
        result = butterfly_snm(v_in, v_out)
        assert not result.is_bistable
        assert result.snm == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            butterfly_snm([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            butterfly_snm([0.0, 0.5, 0.4, 0.8, 1.0], [1, 1, 1, 0, 0])


class TestDeviceVTCs:
    def test_saturating_inverter_latch_holds_state(self):
        v_in, v_out, _ = inverter_vtc(AlphaPowerFET(), vdd=1.0, n_points=161)
        result = butterfly_snm(v_in, v_out)
        assert result.is_bistable
        assert result.snm > 0.25

    def test_non_saturating_inverter_cannot_store(self):
        # The Fig. 2 argument taken to its storage conclusion: without
        # regeneration there is no bistability, hence no SRAM.
        device = NonSaturatingFET(vt=0.2, smoothing_v=0.3)
        v_in, v_out, _ = inverter_vtc(device, vdd=1.0, n_points=161)
        result = butterfly_snm(v_in, v_out)
        assert not result.is_bistable
        assert result.snm == 0.0


class TestSNMCornerSweep:
    """Corner sweeps of the butterfly analysis through the sweep engine."""

    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.analysis.snm import snm_corner_sweep
        from repro.devices.empirical import AlphaPowerFET

        corners = {
            "slow": AlphaPowerFET(k_a_per_v_alpha=2.0e-4),
            "typical": AlphaPowerFET(),
            "fast": AlphaPowerFET(k_a_per_v_alpha=8.0e-4),
        }
        return snm_corner_sweep(corners, vdd=1.0, n_points=101)

    def test_all_corners_bistable(self, sweep):
        assert sweep.all_bistable()
        assert np.all(sweep.snm_v > 0.05)

    def test_labels_follow_input_order(self, sweep):
        assert sweep.labels == ("slow", "typical", "fast")

    def test_worst_corner_is_minimum(self, sweep):
        label, result = sweep.worst_corner()
        assert result.snm == sweep.snm_v.min()
        assert label in sweep.labels

    def test_non_saturating_corner_kills_snm(self):
        from repro.analysis.snm import snm_corner_sweep
        from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET

        # Same smoothed non-saturating device the butterfly tests use for
        # the sub-unity-gain (non-bistable) case.
        sweep = snm_corner_sweep(
            {"sat": AlphaPowerFET(), "linear": NonSaturatingFET(vt=0.2, smoothing_v=0.3)},
            vdd=1.0,
            n_points=161,
        )
        assert not sweep.all_bistable()
        label, result = sweep.worst_corner()
        assert label == "linear" and result.snm == 0.0

    def test_explicit_pair_and_validation(self):
        from repro.analysis.snm import snm_corner_sweep
        from repro.devices.base import PType
        from repro.devices.empirical import AlphaPowerFET

        nfet = AlphaPowerFET()
        paired = snm_corner_sweep(
            {"pair": (nfet, PType(nfet))}, vdd=1.0, n_points=101
        )
        assert paired.results[0].is_bistable
        with pytest.raises(ValueError):
            snm_corner_sweep({})
