"""Self-consistent ballistic top-of-barrier FET model.

Implements the Rahman-Guo-Datta-Lundstrom "theory of ballistic
nanotransistors" (IEEE TED 50, 1853 (2003)) for 1D carbon channels — the
same modelling level behind the FETToy-class simulators used by Ouyang et
al. (the source of the paper's Fig. 1) and behind the Stanford CNT-FET
compact models.

Model summary
-------------
The channel is represented by its single most-restrictive point (the top
of the source-drain barrier) with a rigid potential energy shift ``U``
applied to all subbands:

    U = U_L + U_C
    U_L = -q (alpha_G V_G + alpha_D V_D)                (Laplace part)
    U_C = (q^2 / C_sigma) * (N(U) - N0)                  (charging part)

where ``N(U)`` is the carrier density at the barrier top: +k states are
populated from the source reservoir and -k states from the drain,

    N = sum_j g_j/(2 pi) * [ int_0^inf f(E_j(k)+U - mu_S) dk
                           + int_0^inf f(E_j(k)+U - mu_D) dk ].

The solved ``U`` yields the Landauer current in closed form (F0
integrals).  Charge is integrated in k-space, which removes the van Hove
singularity of the 1D DOS from the numerics.  Per-unit-length
capacitances and densities are used throughout, so the charging energy is
independent of an (arbitrary) barrier length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.physics.bands import BandStructure1D
from repro.physics.constants import KB_EV, Q, ROOM_TEMPERATURE_K
from repro.physics.fermi import fermi_occupation
from repro.transport.landauer import subband_ballistic_current

__all__ = ["BallisticParameters", "OperatingPoint", "TopOfBarrierSolver"]

# k samples per charge integral.  Each integrand is analytic, even in k
# and e^-30 small at k_max, so the trapezoid rule converges geometrically
# (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)): against a 9600-sample
# reference (CNTs incl. 77 K and fabric chiralities, a GNR; vgs -0.6..1.5
# V, vds 0.0125..1.4 V) 256-1200 samples agree to 1.2e-14 in current and
# 4e-15 eV in barrier; 128 give 2.3e-9 at 77 K.  The energy step must stay
# below ~0.5 kT, so very low temperatures need more samples.  Not 256:
# benchmarks/test_surrogate_bench.py needs the spline surrogate >= 30x
# faster than direct evaluation, whose cost scales with this count.
_K_SAMPLES = 512
_MAX_NEWTON_ITERATIONS = 200
# Bias points per vectorised solve slab: bounds the (points x k-samples)
# work arrays to a few MB while keeping numpy dispatch overhead amortised.
_BATCH_CHUNK = 256


@dataclass(frozen=True)
class BallisticParameters:
    """Electrostatic and thermal parameters of a top-of-barrier FET.

    Attributes
    ----------
    c_ins_f_per_m:
        Gate-insulator capacitance per unit channel length [F/m]
        (e.g. from :func:`repro.physics.electrostatics.gate_all_around_capacitance`).
    alpha_g:
        Gate control of the barrier, d(-U)/d(qV_G) in [0, 1].  1 means
        perfect gate control; realistic GAA devices reach ~0.85-0.95.
    alpha_d:
        Drain coupling to the barrier (DIBL-like), typically 0.02-0.1.
    ef_offset_ev:
        Position of the equilibrium source Fermi level relative to the
        first subband edge, mu_S - E_c1 [eV].  Negative values mean a
        barrier at zero gate bias (enhancement-mode device).
    temperature_k:
        Lattice/reservoir temperature [K].
    transmission:
        Energy-independent channel transmission in (0, 1]; use
        :func:`repro.transport.scattering.ballisticity` for a finite
        channel length.
    """

    c_ins_f_per_m: float
    alpha_g: float = 0.88
    alpha_d: float = 0.035
    ef_offset_ev: float = -0.32
    temperature_k: float = ROOM_TEMPERATURE_K
    transmission: float = 1.0

    def __post_init__(self) -> None:
        if self.c_ins_f_per_m <= 0.0:
            raise ValueError(f"c_ins must be positive, got {self.c_ins_f_per_m}")
        if not 0.0 < self.alpha_g <= 1.0:
            raise ValueError(f"alpha_g must be in (0, 1], got {self.alpha_g}")
        if not 0.0 <= self.alpha_d < 1.0:
            raise ValueError(f"alpha_d must be in [0, 1), got {self.alpha_d}")
        if self.temperature_k <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature_k}")
        if not 0.0 < self.transmission <= 1.0:
            raise ValueError(f"transmission must be in (0, 1], got {self.transmission}")


@dataclass(frozen=True)
class OperatingPoint:
    """Solution of the self-consistent barrier problem at one bias point."""

    vgs: float
    vds: float
    barrier_ev: float
    charge_per_m: float
    current_a: float
    iterations: int


class TopOfBarrierSolver:
    """Self-consistent ballistic FET solver for a 1D band structure.

    One damped barrier Newton, vectorised over slabs of bias points,
    serves every entry: :meth:`solve` and :meth:`current` run it on a
    slab of one point.  The solver holds no state across bias points;
    it is safe to reuse one instance for full I-V surfaces.
    """

    def __init__(self, bands: BandStructure1D, params: BallisticParameters):
        self.bands = bands
        self.params = params
        # Subband edges relative to the equilibrium source Fermi level
        # (mu_S = 0): the first edge sits at -ef_offset above mu_S.
        first_edge = bands.subbands[0].edge_ev
        self._edges_ev = [
            band.edge_ev - first_edge - params.ef_offset_ev for band in bands.subbands
        ]
        self._kt = KB_EV * params.temperature_k
        self._n0 = float(self._density(np.zeros(1), np.zeros(1))[0][0])

    # -- public API --------------------------------------------------------
    def solve(self, vgs: float, vds: float) -> OperatingPoint:
        """Solve the barrier self-consistency at (V_GS, V_DS) and report I_D."""
        current, barrier, density, iterations = self._solve_chunk(
            np.array([vgs], dtype=float), np.array([vds], dtype=float)
        )
        return OperatingPoint(
            vgs=vgs,
            vds=vds,
            barrier_ev=float(barrier[0]),
            charge_per_m=float(density[0]),
            current_a=float(current[0]),
            iterations=int(iterations[0]),
        )

    def current(self, vgs: float, vds: float) -> float:
        """Drain current I_D [A] at the given bias."""
        return self.solve(vgs, vds).current_a

    def currents(self, vgs_values, vds_values) -> np.ndarray:
        """Batched elementwise drain currents [A] (arrays must broadcast).

        Runs the damped barrier Newton on whole slabs of bias points at
        once: every k-space integral covers all still-unconverged points
        of a slab, and points drop out of the active set as their
        residual passes the tolerance.  This is the entry the device
        models (and through them the compiled circuit assembly and curve
        tabulation) call.
        """
        currents, _ = self.solve_currents(vgs_values, vds_values)
        return currents

    def solve_currents(self, vgs_values, vds_values, barrier_guess=None):
        """Batched solve returning ``(currents, barriers)`` (broadcast shape).

        The exposed form of the chunked barrier Newton: callers that
        sweep smoothly varying bias families (the surrogate table fill)
        can feed one solve's barriers back as ``barrier_guess`` for the
        next, cutting the iteration count roughly in half.  With no
        guess every point starts from its Laplace barrier.
        """
        vgs, vds = np.broadcast_arrays(
            np.asarray(vgs_values, dtype=float), np.asarray(vds_values, dtype=float)
        )
        flat_vgs, flat_vds = vgs.ravel(), vds.ravel()
        flat_guess = None
        if barrier_guess is not None:
            flat_guess = np.broadcast_to(np.asarray(barrier_guess, dtype=float), vgs.shape).ravel()
        out = np.empty(flat_vgs.size)
        barriers = np.empty(flat_vgs.size)
        for start in range(0, flat_vgs.size, _BATCH_CHUNK):
            chunk = slice(start, start + _BATCH_CHUNK)
            guess = None if flat_guess is None else flat_guess[chunk]
            out[chunk], barriers[chunk], _, _ = self._solve_chunk(
                flat_vgs[chunk], flat_vds[chunk], guess
            )
        return out.reshape(vgs.shape), barriers.reshape(vgs.shape)

    def iv_surface(self, vgs_values, vds_values) -> np.ndarray:
        """I_D [A] on the outer product grid (len(vgs), len(vds))."""
        vgs_values = np.asarray(vgs_values, dtype=float)
        vds_values = np.asarray(vds_values, dtype=float)
        return self.currents(vgs_values[:, None], vds_values[None, :])

    def grid_currents(self, vgs_values, vds_values) -> np.ndarray:
        """Warm-started table fill on the outer grid (len(vgs), len(vds)).

        Solves one ``vds`` column at a time, seeding each column's
        barrier Newton with the previous column's converged barriers —
        the barrier moves smoothly with drain bias, so later columns
        converge in a fraction of the cold-start iterations.  This is
        the batched fill entry the surrogate compiler consumes through
        :meth:`repro.devices.base.FETModel.grid_currents`.
        """
        vgs = np.asarray(vgs_values, dtype=float)
        vds = np.asarray(vds_values, dtype=float)
        out = np.empty((vgs.size, vds.size))
        barriers = None
        for j in range(vds.size):
            out[:, j], barriers = self.solve_currents(
                vgs, np.full(vgs.size, vds[j]), barrier_guess=barriers
            )
        return out

    def with_transmission(self, transmission: float) -> "TopOfBarrierSolver":
        """A copy of this solver with a different channel transmission."""
        return TopOfBarrierSolver(self.bands, replace(self.params, transmission=transmission))

    # -- internals (one array axis = bias points) ------------------------------
    def _solve_chunk(
        self, vgs: np.ndarray, vds: np.ndarray, barrier_guess: np.ndarray | None = None
    ):
        """(currents, barriers, densities, iterations) of one slab of bias points.

        Damped Newton on the barrier residual, applied elementwise:
        every point starts from its Laplace barrier (or the warm-start
        ``barrier_guess``), steps are capped at 10 kT, and points whose
        residual passes the tolerance are frozen out of the active set.
        ``iterations`` counts the density evaluations each point took.
        """
        params = self.params
        mu_d = -vds
        u_laplace = -(params.alpha_g * vgs + params.alpha_d * vds)
        charging_ev_m = Q / params.c_ins_f_per_m  # [eV per (1/m) of density]
        # Damp large steps: the charge integral is exponential in U.
        max_step = 10.0 * self._kt

        barrier = u_laplace.copy() if barrier_guess is None else barrier_guess.copy()
        density = np.empty(vgs.size)
        iterations = np.zeros(vgs.size, dtype=int)
        active = np.arange(vgs.size)
        for iteration in range(1, _MAX_NEWTON_ITERATIONS + 1):
            density[active], ddensity = self._density(barrier[active], mu_d[active])
            iterations[active] = iteration
            residual = (
                barrier[active]
                - u_laplace[active]
                - charging_ev_m * (density[active] - self._n0)
            )
            keep = np.abs(residual) >= 1e-9
            if not keep.any():
                break
            active = active[keep]
            slope = 1.0 - charging_ev_m * ddensity[keep]  # ddensity < 0 -> slope > 1
            barrier[active] += np.clip(-residual[keep] / slope, -max_step, max_step)
        else:
            # Iteration cap: report the charge at the barrier actually reached.
            density[active] = self._density(barrier[active], mu_d[active])[0]
        return self._current(barrier, mu_d), barrier, density, iterations

    def _density(self, barrier_ev: np.ndarray, mu_d: np.ndarray):
        """Carrier density N [1/m] and dN/dU [1/(m eV)] of a point slab.

        One pass over each subband's k grid: the derivative
        dN/dU = -sum_j g_j/(2 pi) int f (1 - f) / kT dk reuses the
        occupations the density is built from.  It is always negative:
        raising the barrier empties it.
        """
        density, derivative = np.zeros((2, barrier_ev.size))
        kt = self._kt
        mu_max = np.maximum(0.0, mu_d)
        for band, edge in zip(self.bands.subbands, self._edges_ev):
            edge_abs = edge + barrier_ev
            # k grid covering occupations up to ~30 kT above the higher Fermi level.
            e_top_rel = np.maximum(mu_max - edge_abs, 0.0) + 30.0 * kt
            k_max = band.wavevector_per_m(band.edge_ev + e_top_rel)
            k = np.linspace(0.0, k_max, _K_SAMPLES, axis=-1)
            dk = k_max / (_K_SAMPLES - 1)
            energy_abs = edge_abs[:, None] + (band.energy_ev(k) - band.edge_ev)
            occ_s = fermi_occupation(energy_abs / kt)
            occ_d = fermi_occupation((energy_abs - mu_d[:, None]) / kt)
            weight = band.degeneracy / (2.0 * math.pi)
            density += weight * _trapz_uniform(occ_s + occ_d, dk)
            spread = occ_s * (1.0 - occ_s) + occ_d * (1.0 - occ_d)
            derivative -= weight / kt * _trapz_uniform(spread, dk)
        return density, derivative

    def _current(self, barrier_ev: np.ndarray, mu_d: np.ndarray) -> np.ndarray:
        total = np.zeros(barrier_ev.size)
        for band, edge in zip(self.bands.subbands, self._edges_ev):
            total += subband_ballistic_current(
                edge_ev=edge + barrier_ev,
                degeneracy=band.degeneracy,
                mu_source_ev=0.0,
                mu_drain_ev=mu_d,
                temperature_k=self.params.temperature_k,
                transmission=self.params.transmission,
            )
        return total


def _trapz_uniform(y: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """Trapezoid integral along the last axis on a uniform grid of step dk."""
    interior = y.sum(axis=-1) - 0.5 * (y[..., 0] + y[..., -1])
    return interior * dk
