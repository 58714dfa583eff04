"""Fermi-Dirac statistics: limits, symmetry, numerical safety."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.physics.fermi import (
    fermi_dirac,
    fermi_integral_f0,
    fermi_integral_fm1,
    fermi_occupation,
    occupation_window,
)


class TestFermiDirac:
    def test_half_at_chemical_potential(self):
        assert fermi_dirac(0.3, 0.3) == pytest.approx(0.5)

    def test_limits(self):
        assert fermi_dirac(-10.0, 0.0) == pytest.approx(1.0)
        assert fermi_dirac(10.0, 0.0) == pytest.approx(0.0, abs=1e-30)

    def test_vectorised(self):
        values = fermi_dirac(np.array([-1.0, 0.0, 1.0]), 0.0)
        assert values.shape == (3,)
        assert np.all(np.diff(values) < 0.0)

    def test_temperature_sharpens_step(self):
        warm = fermi_dirac(0.05, 0.0, temperature_k=300.0)
        cold = fermi_dirac(0.05, 0.0, temperature_k=30.0)
        assert cold < warm

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            fermi_dirac(0.0, 0.0, temperature_k=-1.0)

    def test_no_overflow_for_extreme_energies(self):
        # Clipped exponent: result is denormal-small, never NaN/overflow.
        assert fermi_dirac(1e6, 0.0) < 1e-200
        assert fermi_dirac(-1e6, 0.0) == pytest.approx(1.0)

    @given(st.floats(-50, 50))
    def test_particle_hole_symmetry(self, eta):
        # f(E - mu) + f(mu - E) = 1
        e = eta * 0.0259
        assert fermi_dirac(e, 0.0) + fermi_dirac(-e, 0.0) == pytest.approx(1.0)


def _clip_form(eta):
    """The occupation with eta clipped on both sides to +/-500."""
    return 1.0 / (1.0 + np.exp(np.clip(eta, -500.0, 500.0)))


class TestOccupation:
    _SPECIAL = [np.inf, -np.inf, np.nan, 500.0, -500.0, 745.0, -745.0, 0.0, -0.0, 36.8, -36.8]

    def _etas(self):
        rng = np.random.default_rng(20)
        return np.concatenate([self._SPECIAL, rng.uniform(-800.0, 800.0, 20_000)])

    def test_bitwise_equal_to_clip_form(self):
        eta = self._etas()
        assert np.array_equal(fermi_occupation(eta), _clip_form(eta), equal_nan=True)
        grid = eta[:20_000].reshape(400, 50)  # a (k, points) slab
        assert np.array_equal(fermi_occupation(grid), _clip_form(grid), equal_nan=True)

    def test_in_place_form_is_bitwise_equal(self):
        eta = self._etas()
        out = eta.copy()
        assert fermi_occupation(out, out=out) is out
        assert np.array_equal(out, _clip_form(eta), equal_nan=True)
        buffer = np.empty_like(eta)
        fermi_occupation(eta, out=buffer)
        assert np.array_equal(buffer, _clip_form(eta), equal_nan=True)

    def test_scalars_match_clip_form(self):
        for eta in self._SPECIAL:
            assert np.array_equal(fermi_occupation(eta), _clip_form(eta), equal_nan=True)

    def test_capped_tail_is_tiny_not_zero(self):
        # The cap at eta = 500 leaves 1/(1 + e^500) ~ 7.1e-218.
        assert fermi_occupation(1e6) == pytest.approx(7.12e-218, rel=1e-3)
        assert fermi_occupation(-1e6) == 1.0


class TestF0Integral:
    def test_matches_log1p_exp(self):
        for eta in (-5.0, -1.0, 0.0, 1.0, 5.0):
            assert fermi_integral_f0(eta) == pytest.approx(math.log1p(math.exp(eta)))

    def test_large_positive_limit_is_linear(self):
        assert fermi_integral_f0(500.0) == pytest.approx(500.0)

    def test_large_negative_limit_is_exponential(self):
        assert fermi_integral_f0(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-6)

    def test_at_zero(self):
        assert fermi_integral_f0(0.0) == pytest.approx(math.log(2.0))

    def test_vectorised_shape(self):
        out = fermi_integral_f0(np.linspace(-5, 5, 11))
        assert out.shape == (11,)

    @given(st.floats(-100, 100))
    def test_monotone_increasing(self, eta):
        assert fermi_integral_f0(eta + 0.1) > fermi_integral_f0(eta)

    @given(st.floats(-100, 100))
    def test_always_positive(self, eta):
        assert fermi_integral_f0(eta) > 0.0

    @given(st.floats(-30, 30), st.floats(1e-4, 0.5))
    def test_derivative_is_fm1(self, eta, h):
        numeric = (fermi_integral_f0(eta + h) - fermi_integral_f0(eta - h)) / (2 * h)
        analytic = fermi_integral_fm1(eta)
        assert numeric == pytest.approx(analytic, rel=0.05, abs=1e-6)


class TestOccupationWindow:
    def test_contains_both_potentials(self):
        lo, hi = occupation_window(0.0, -0.5)
        assert lo < -0.5 and hi > 0.0

    def test_coverage_scales_window(self):
        lo1, hi1 = occupation_window(0.0, 0.0, coverage=10.0)
        lo2, hi2 = occupation_window(0.0, 0.0, coverage=20.0)
        assert lo2 < lo1 and hi2 > hi1
