"""Fermi-Dirac statistics helpers used by the ballistic transport models.

The ballistic top-of-barrier model needs the occupation function and the
order-0 Fermi-Dirac integral

    F0(eta) = ln(1 + exp(eta)),

which gives the Landauer current of a single 1D subband in closed form.
All functions are numerically safe for large |eta| and vectorised over
numpy arrays.
"""

from __future__ import annotations

import numpy as np

from repro.physics.constants import KB_EV, ROOM_TEMPERATURE_K

__all__ = [
    "fermi_dirac",
    "fermi_occupation",
    "fermi_integral_f0",
    "fermi_integral_fm1",
    "occupation_window",
]


def fermi_occupation(eta, out=None):
    """Occupation 1 / (1 + exp(eta)) at the reduced energy eta = (E - mu)/kT.

    eta is capped at 500, so exp never overflows; there the occupation
    is 1/(1 + e^500) ~ 7.1e-218, not 0.  No lower cap is needed: below
    eta ~ -37 the occupation rounds to exactly 1.  With ``out`` (a float
    array, which may be ``eta`` itself) the result is computed in place.
    """
    occupation = np.exp(np.minimum(eta, 500.0, out=out), out=out)
    occupation += 1.0
    return np.divide(1.0, occupation, out=out)


def fermi_dirac(energy_ev, mu_ev, temperature_k: float = ROOM_TEMPERATURE_K):
    """Fermi-Dirac occupation f(E) = 1 / (1 + exp((E - mu)/kT)).

    Parameters
    ----------
    energy_ev:
        Energy (scalar or array) [eV].
    mu_ev:
        Chemical potential [eV].
    temperature_k:
        Temperature [K]; must be positive.
    """
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    return fermi_occupation((np.asarray(energy_ev, dtype=float) - mu_ev) / (KB_EV * temperature_k))


def fermi_integral_f0(eta):
    """Order-0 Fermi-Dirac integral F0(eta) = ln(1 + exp(eta)).

    Uses ``log1p`` for eta < 0 and the identity
    ``F0(eta) = eta + log1p(exp(-eta))`` for eta >= 0, so the result is
    accurate over the full double-precision range.
    """
    eta = np.asarray(eta, dtype=float)
    out = np.where(
        eta < 0.0,
        np.log1p(np.exp(np.minimum(eta, 0.0))),
        eta + np.log1p(np.exp(-np.abs(eta))),
    )
    if out.ndim == 0:
        return float(out)
    return out


def fermi_integral_fm1(eta):
    """Order -1 Fermi-Dirac integral F_{-1}(eta) = 1/(1+exp(-eta)).

    This is d F0 / d eta, used for analytic Jacobians of the
    self-consistent charge equation.
    """
    eta = np.asarray(eta, dtype=float)
    out = 1.0 / (1.0 + np.exp(np.clip(-eta, -500.0, 500.0)))
    if out.ndim == 0:
        return float(out)
    return out


def occupation_window(
    mu_source_ev: float,
    mu_drain_ev: float,
    temperature_k: float = ROOM_TEMPERATURE_K,
    coverage: float = 20.0,
):
    """Energy window [eV] that contains all appreciable f_S - f_D weight.

    Returns ``(e_lo, e_hi)`` spanning ``coverage`` thermal energies beyond
    the two chemical potentials.  Useful for bounding numerical Landauer
    integrals.
    """
    kt = KB_EV * temperature_k
    lo = min(mu_source_ev, mu_drain_ev) - coverage * kt
    hi = max(mu_source_ev, mu_drain_ev) + coverage * kt
    return lo, hi
