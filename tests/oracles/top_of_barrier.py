"""Per-point reference for the top-of-barrier solver and series resistance.

:class:`ScalarTopOfBarrier` solves the barrier self-consistency of
:mod:`repro.transport.ballistic` one bias point at a time, with the
textbook ingredients the batched kernel replaces: ``np.trapezoid``
charge integrals on a per-point k grid, a separate ``cosh`` pass for
dN/dU and the closed-form F0 Landauer current.  :func:`series_current`
solves the contact-resistance self-consistency of
:class:`repro.devices.contacts.SeriesResistanceFET` with scipy's
``brentq``, one bias point per call.  :func:`slab_density` is a frozen
copy of the batched kernel's density pass before it moved to in-place
``(k, points)`` work arrays; the kernel must stay bitwise equal to it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from repro.physics.constants import KB_EV, Q
from repro.transport.landauer import subband_ballistic_current

_K_SAMPLES = 1200
_MAX_NEWTON_ITERATIONS = 200


def _fermi(x):
    return 1.0 / (1.0 + np.exp(np.clip(x, -500.0, 500.0)))


def slab_density(solver, barrier_ev: np.ndarray, mu_d: np.ndarray):
    """``(N, dN/dU)`` of a point slab, as the batched kernel once computed them.

    ``solver`` is a :class:`repro.transport.ballistic.TopOfBarrierSolver`
    (its bands, edges and kT are read, nothing else).  Each ``(points,
    k)`` array here comes from ``np.linspace(..., axis=-1)`` and is in
    Fortran order, which fixes the summation order of the k integrals:

    - ``sum(axis=-1)`` of an F-order array adds the k samples one after
      the other for a slab of two or more points, but pairwise for a
      one-point slab (whose array is contiguous along k).  A rewrite
      keeps the same order with ``(k, points)`` C-order arrays summed
      over axis 0.
    - ``a[:, mask]`` and other fancy column selections return F-order
      arrays, which flips a ``(k, points)`` sum to pairwise; a rewrite
      must not subset its work arrays that way.
    """
    density, derivative = np.zeros((2, barrier_ev.size))
    kt = solver._kt
    k_samples = 512
    mu_max = np.maximum(0.0, mu_d)
    for band, edge in zip(solver.bands.subbands, solver._edges_ev):
        edge_abs = edge + barrier_ev
        e_top_rel = np.maximum(mu_max - edge_abs, 0.0) + 30.0 * kt
        k_max = band.wavevector_per_m(band.edge_ev + e_top_rel)
        k = np.linspace(0.0, k_max, k_samples, axis=-1)
        dk = k_max / (k_samples - 1)
        energy_abs = edge_abs[:, None] + (band.energy_ev(k) - band.edge_ev)
        occ_s = _fermi(energy_abs / kt)
        occ_d = _fermi((energy_abs - mu_d[:, None]) / kt)
        weight = band.degeneracy / (2.0 * math.pi)
        density += weight * _trapz_last_axis(occ_s + occ_d, dk)
        spread = occ_s * (1.0 - occ_s) + occ_d * (1.0 - occ_d)
        derivative -= weight / kt * _trapz_last_axis(spread, dk)
    return density, derivative


def _trapz_last_axis(y: np.ndarray, dk: np.ndarray) -> np.ndarray:
    interior = y.sum(axis=-1) - 0.5 * (y[..., 0] + y[..., -1])
    return interior * dk


class ScalarTopOfBarrier:
    """One-point-at-a-time top-of-barrier solve on ``bands`` with ``params``.

    ``k_samples`` sets the trapezoid grid of each charge integral; a
    much finer grid than the kernel's makes this a quadrature reference.
    """

    def __init__(self, bands, params, k_samples: int = _K_SAMPLES):
        self.bands = bands
        self.params = params
        self.k_samples = k_samples
        first_edge = bands.subbands[0].edge_ev
        self._edges_ev = [
            band.edge_ev - first_edge - params.ef_offset_ev for band in bands.subbands
        ]
        self._kt = KB_EV * params.temperature_k
        self._n0 = self._density(0.0, 0.0, 0.0)

    def solve(self, vgs: float, vds: float):
        """``(barrier_ev, charge_per_m, current_a, iterations)`` at vds >= 0."""
        params = self.params
        mu_s, mu_d = 0.0, -vds
        u_laplace = -(params.alpha_g * vgs + params.alpha_d * vds)
        charging_ev_m = Q / params.c_ins_f_per_m
        max_step = 10.0 * self._kt

        barrier = u_laplace
        iterations = 0
        for iterations in range(1, _MAX_NEWTON_ITERATIONS + 1):
            density = self._density(barrier, mu_s, mu_d)
            residual = barrier - u_laplace - charging_ev_m * (density - self._n0)
            if abs(residual) < 1e-9:
                break
            slope = 1.0 - charging_ev_m * self._density_derivative(barrier, mu_s, mu_d)
            barrier += max(-max_step, min(max_step, -residual / slope))
        density = self._density(barrier, mu_s, mu_d)
        current = sum(
            subband_ballistic_current(
                edge_ev=edge + barrier,
                degeneracy=band.degeneracy,
                mu_source_ev=mu_s,
                mu_drain_ev=mu_d,
                temperature_k=params.temperature_k,
                transmission=params.transmission,
            )
            for band, edge in zip(self.bands.subbands, self._edges_ev)
        )
        return barrier, density, float(current), iterations

    def current(self, vgs: float, vds: float) -> float:
        """Drain current [A]; vds < 0 by explicit source/drain exchange."""
        if vds < 0.0:
            return -self.current(vgs - vds, -vds)
        return self.solve(vgs, vds)[2]

    def _k_grid(self, band, edge_abs_ev: float, mu_max: float):
        e_top_rel = max(mu_max - edge_abs_ev, 0.0) + 30.0 * self._kt
        k_max = float(band.wavevector_per_m(band.edge_ev + e_top_rel))
        return np.linspace(0.0, k_max, self.k_samples)

    def _energies(self, band, edge: float, barrier_ev: float, mu_max: float):
        edge_abs = edge + barrier_ev
        k = self._k_grid(band, edge_abs, mu_max)
        return k, edge_abs + (band.energy_ev(k) - band.edge_ev)

    def _density(self, barrier_ev: float, mu_s: float, mu_d: float) -> float:
        total = 0.0
        for band, edge in zip(self.bands.subbands, self._edges_ev):
            k, energy = self._energies(band, edge, barrier_ev, max(mu_s, mu_d))
            occupation = _fermi((energy - mu_s) / self._kt) + _fermi((energy - mu_d) / self._kt)
            total += band.degeneracy / (2.0 * math.pi) * float(np.trapezoid(occupation, k))
        return total

    def _density_derivative(self, barrier_ev: float, mu_s: float, mu_d: float) -> float:
        total = 0.0
        for band, edge in zip(self.bands.subbands, self._edges_ev):
            k, energy = self._energies(band, edge, barrier_ev, max(mu_s, mu_d))
            for mu in (mu_s, mu_d):
                x = np.clip((energy - mu) / self._kt, -250.0, 250.0)
                dfde = -1.0 / (4.0 * self._kt * np.cosh(x / 2.0) ** 2)
                total += band.degeneracy / (2.0 * math.pi) * float(np.trapezoid(dfde, k))
        return total


def series_current(inner_current, r_source_ohm, r_drain_ohm, vgs, vds) -> float:
    """I solving I = inner(vgs - I R_s, vds - I (R_s + R_d)) by ``brentq``.

    ``inner_current`` is a scalar ``(vgs, vds) -> I`` callable.  For
    vds < 0 the terminals are exchanged, which also swaps the resistors.
    """
    if vds < 0.0:
        return -series_current(inner_current, r_drain_ohm, r_source_ohm, vgs - vds, -vds)
    total = r_source_ohm + r_drain_ohm

    def residual(current: float) -> float:
        return inner_current(vgs - current * r_source_ohm, vds - current * total) - current

    upper = inner_current(vgs, vds)
    if upper <= 0.0 or residual(upper) >= 0.0:
        return upper
    return float(brentq(residual, 0.0, upper, xtol=1e-18, rtol=1e-12))
