"""Two-band tunneling: imaginary dispersion, WKB, junction profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.physics.constants import HBAR, Q, VFERMI
from repro.transport.tunneling import (
    JunctionProfile,
    imaginary_dispersion_per_m,
    junction_btbt_transmission,
    wkb_transmission_uniform_field,
)


class TestImaginaryDispersion:
    def test_maximum_at_midgap(self):
        gap = 0.56
        kappa_mid = imaginary_dispersion_per_m(0.0, gap)
        expected = (gap / 2.0) * Q / (HBAR * VFERMI)
        assert kappa_mid == pytest.approx(expected, rel=1e-9)

    def test_vanishes_at_band_edges(self):
        gap = 0.56
        assert imaginary_dispersion_per_m(gap / 2.0, gap) == pytest.approx(0.0)
        assert imaginary_dispersion_per_m(-gap / 2.0, gap) == pytest.approx(0.0)

    def test_zero_outside_gap(self):
        assert imaginary_dispersion_per_m(1.0, 0.56) == 0.0

    def test_symmetric_in_energy(self):
        gap = 0.56
        assert imaginary_dispersion_per_m(0.1, gap) == pytest.approx(
            imaginary_dispersion_per_m(-0.1, gap)
        )

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            imaginary_dispersion_per_m(0.0, -1.0)

    @given(st.floats(0.2, 1.5))
    def test_scale_with_gap(self, gap):
        # kappa_max grows linearly with the gap.
        assert imaginary_dispersion_per_m(0.0, gap) == pytest.approx(
            gap / 2.0 * Q / (HBAR * VFERMI)
        )


class TestUniformFieldWKB:
    def test_analytic_value(self):
        gap, field = 0.56, 2e8
        expected = math.exp(
            -math.pi * (gap * Q) ** 2 / (4 * HBAR * VFERMI * Q * field)
        )
        assert wkb_transmission_uniform_field(gap, field) == pytest.approx(expected)

    def test_stronger_field_more_transmission(self):
        t1 = wkb_transmission_uniform_field(0.56, 1e8)
        t2 = wkb_transmission_uniform_field(0.56, 5e8)
        assert t2 > t1

    def test_larger_gap_less_transmission(self):
        assert wkb_transmission_uniform_field(0.4, 2e8) > wkb_transmission_uniform_field(
            0.8, 2e8
        )

    def test_field_validation(self):
        with pytest.raises(ValueError):
            wkb_transmission_uniform_field(0.56, 0.0)

    @given(st.floats(0.2, 1.2), st.floats(1e7, 1e9))
    @settings(max_examples=40)
    def test_bounded_probability(self, gap, field):
        t = wkb_transmission_uniform_field(gap, field)
        assert 0.0 <= t <= 1.0


class TestJunctionProfile:
    def test_midgap_limits(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.8, lambda_nm=3.0)
        assert profile.midgap_ev(-50.0) == pytest.approx(0.0, abs=1e-6)
        assert profile.midgap_ev(50.0) == pytest.approx(-0.8, abs=1e-6)
        assert profile.midgap_ev(0.0) == pytest.approx(-0.4)

    def test_window_closed_before_breakover(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.4, lambda_nm=3.0)
        lo, hi = profile.tunnel_window_ev()
        assert lo >= hi

    def test_window_opens_past_gap(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.76, lambda_nm=3.0)
        lo, hi = profile.tunnel_window_ev()
        assert hi - lo == pytest.approx(0.2, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            JunctionProfile(gap_ev=0.0, delta_ev=-0.5, lambda_nm=3.0)
        with pytest.raises(ValueError):
            JunctionProfile(gap_ev=0.5, delta_ev=-0.5, lambda_nm=0.0)


class TestJunctionTransmission:
    def test_zero_outside_window(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.8, lambda_nm=3.0)
        assert junction_btbt_transmission(profile, 0.5) == 0.0

    def test_positive_inside_window(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=3.0)
        lo, hi = profile.tunnel_window_ev()
        mid = (lo + hi) / 2.0
        t = junction_btbt_transmission(profile, mid)
        assert 0.0 < t < 1.0

    def test_sharper_junction_tunnels_more(self):
        sharp = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=1.5)
        soft = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=6.0)
        lo, hi = sharp.tunnel_window_ev()
        mid = (lo + hi) / 2.0
        assert junction_btbt_transmission(sharp, mid) > junction_btbt_transmission(
            soft, mid
        )

    def test_vectorised_output(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=3.0)
        lo, hi = profile.tunnel_window_ev()
        energies = np.linspace(lo + 1e-3, hi - 1e-3, 7)
        t = junction_btbt_transmission(profile, energies)
        assert t.shape == (7,)
        assert np.all((t >= 0.0) & (t <= 1.0))

    def test_array_call_equals_per_energy_calls(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=3.0)
        lo, hi = profile.tunnel_window_ev()
        # Window edges and points outside it have no final states.
        energies = np.concatenate(
            [[lo - 0.1, lo], np.linspace(lo + 1e-4, hi - 1e-4, 9), [hi, hi + 0.1]]
        )
        batch = junction_btbt_transmission(profile, energies)
        scalar = np.array([junction_btbt_transmission(profile, e) for e in energies])
        np.testing.assert_array_equal(batch, scalar)
        assert np.all(batch[[0, 1, -2, -1]] == 0.0)
        assert np.all(batch[2:-2] > 0.0)
