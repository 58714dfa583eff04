"""Voltage-scaling experiment: the paper's central thesis."""

import pytest

from repro.analysis.vtc import analyze_vtc
from repro.circuit.cells import inverter_vtc
from repro.devices.cntfet import CNTFET
from repro.experiments.scaling import run_voltage_scaling


@pytest.fixture(scope="module")
def result():
    return run_voltage_scaling(supplies_v=(0.4, 0.5, 1.0))


class TestVoltageScaling:
    def test_cnt_logic_works_at_04v(self, result):
        point = result.cnt[0]
        assert point.vdd == 0.4
        assert point.nm_fraction > 0.3
        assert point.is_bistable

    def test_iso_footprint_delay_advantage(self, result):
        # A fabric at 8 nm pitch in the trigate's footprint drives the
        # same load several times faster.
        assert result.delay_advantage_at(0.4) > 3.0

    def test_advantage_grows_at_low_voltage(self, result):
        # "will enable further voltage ... scaling": the CNT advantage
        # must not shrink as VDD comes down.
        assert result.delay_advantage_at(0.4) >= result.delay_advantage_at(1.0)

    def test_delays_increase_at_low_supply(self, result):
        cnt_delays = [p.delay_s for p in result.cnt]
        si_delays = [p.delay_s for p in result.silicon]
        assert cnt_delays[0] > cnt_delays[-1]
        assert si_delays[0] > si_delays[-1]

    def test_min_logic_supply_reported(self, result):
        assert result.minimum_logic_supply("cnt") <= 0.5

    def test_tubes_per_footprint(self, result):
        # 88 nm effective width at 8 nm pitch.
        assert result.tubes_per_footprint == 11

    def test_rows_printable(self, result):
        rows = result.rows()
        assert len(rows) > 10
        assert all(isinstance(label, str) for label, *_ in rows)


def test_cnt_noise_margin_tracks_direct_device():
    """The CNT rows run on the compiled surrogate, not a bilinear table.

    At 0.7 V, where a 77x53 bilinear table of the same device misses the
    direct NM/VDD by 7.2e-3 relative, the surrogate agrees to ~4e-8.
    """
    (point,) = run_voltage_scaling(supplies_v=(0.7,)).cnt
    v_in, v_out, _ = inverter_vtc(CNTFET.reference_device(), vdd=0.7, n_points=161)
    metrics = analyze_vtc(v_in, v_out)
    direct = min(metrics.nm_low, metrics.nm_high) / 0.7
    assert point.nm_fraction == pytest.approx(direct, rel=1e-5)
