"""Okada (1985) surface deformation of a rectangular fault.

Implements the closed-form surface displacements (``z = 0``) of a finite
rectangular dislocation in a homogeneous elastic half space [Okada, BSSA
75(4), 1985], the standard tsunami initial-condition generator: the vertical
sea-floor displacement is transferred to the water surface instantaneously.

Conventions
-----------
* Fault-local frame: x along strike, y perpendicular (up-dip side positive),
  origin at the surface projection of the fault's *bottom-left* corner.
* ``delta``: dip angle [rad]; ``L``: along-strike length [m]; ``W``:
  down-dip width [m]; ``d``: depth of the *bottom* edge [m].
* Slip components: ``U1`` strike-slip, ``U2`` dip-slip (thrust positive).
* Poisson solid by default (``mu_over_lambda_mu = 0.5``, i.e.
  mu/(lambda+mu) with lambda = mu).

All formulas are fully vectorized over observation points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Guard for divisions near the singular planes.
_EPS = 1.0e-14


def _chinnery(f, x, p, q, L, W, const):
    """Chinnery's notation: f(xi, eta)|| = f(x,p) - f(x,p-W) - f(x-L,p) + f(x-L,p-W)."""
    return (
        f(x, p, q, const)
        - f(x, p - W, q, const)
        - f(x - L, p, q, const)
        + f(x - L, p - W, q, const)
    )


def _I5(xi, eta, q, const):
    R, _ytilde, dtilde, cd, sd, alpha = const
    X = np.sqrt(xi**2 + q**2)
    if abs(cd) < 1e-6:
        return -alpha * xi * sd / (R + dtilde)
    # Principal-branch arctan (Okada's formulas are written with atan,
    # not atan2; the wrong branch injects +-pi jumps into the field).
    num = eta * (X + q * cd) + X * (R + X) * sd
    den = xi * (R + X) * cd
    out = (
        alpha
        * 2.0
        / cd
        * np.arctan(num / np.where(np.abs(den) < _EPS, _EPS, den))
    )
    return np.where(np.abs(xi) < _EPS, 0.0, out)


def _I4(xi, eta, q, const):
    R, _ytilde, dtilde, cd, sd, alpha = const
    if abs(cd) < 1e-6:
        return -alpha * q / (R + dtilde)
    return alpha / cd * (np.log(R + dtilde) - sd * np.log(R + eta))


def _I3(xi, eta, q, const):
    R, ytilde, dtilde, cd, sd, alpha = const
    if abs(cd) < 1e-6:
        return (
            alpha
            / 2.0
            * (eta / (R + dtilde) + ytilde * q / (R + dtilde) ** 2 - np.log(R + eta))
        )
    return (
        alpha * (ytilde / (cd * (R + dtilde)) - np.log(R + eta))
        + sd / cd * _I4(xi, eta, q, const)
    )


def _I2(xi, eta, q, const):
    R, _ytilde, _dtilde, _cd, _sd, alpha = const
    return alpha * (-np.log(R + eta)) - _I3(xi, eta, q, const)


def _I1(xi, eta, q, const):
    R, _ytilde, dtilde, cd, sd, alpha = const
    if abs(cd) < 1e-6:
        return -alpha / 2.0 * xi * q / (R + dtilde) ** 2
    return alpha * (-xi / (cd * (R + dtilde))) - sd / cd * _I5(xi, eta, q, const)


def _geom(xi, eta, q, cd, sd, alpha):
    R = np.sqrt(xi**2 + eta**2 + q**2)
    ytilde = eta * cd + q * sd
    dtilde = eta * sd - q * cd
    return (R, ytilde, dtilde, cd, sd, alpha)


def _safe_atan(num, den):
    """Principal-branch arctan(num/den) with a guarded denominator."""
    return np.arctan(num / np.where(np.abs(den) < _EPS, _EPS, den))


def _ux_ss(xi, eta, q, cs):
    cd, sd, alpha = cs
    c = _geom(xi, eta, q, cd, sd, alpha)
    R = c[0]
    return (
        xi * q / (R * (R + eta))
        + _safe_atan(xi * eta, q * R)
        + _I1(xi, eta, q, c) * sd
    )


def _uy_ss(xi, eta, q, cs):
    cd, sd, alpha = cs
    c = _geom(xi, eta, q, cd, sd, alpha)
    R, ytilde = c[0], c[1]
    return ytilde * q / (R * (R + eta)) + q * cd / (R + eta) + _I2(xi, eta, q, c) * sd


def _uz_ss(xi, eta, q, cs):
    cd, sd, alpha = cs
    c = _geom(xi, eta, q, cd, sd, alpha)
    R, dtilde = c[0], c[2]
    return dtilde * q / (R * (R + eta)) + q * sd / (R + eta) + _I4(xi, eta, q, c) * sd


def _ux_ds(xi, eta, q, cs):
    cd, sd, alpha = cs
    c = _geom(xi, eta, q, cd, sd, alpha)
    R = c[0]
    return q / R - _I3(xi, eta, q, c) * sd * cd


def _uy_ds(xi, eta, q, cs):
    cd, sd, alpha = cs
    c = _geom(xi, eta, q, cd, sd, alpha)
    R, ytilde = c[0], c[1]
    return (
        ytilde * q / (R * (R + xi))
        + cd * _safe_atan(xi * eta, q * R)
        - _I1(xi, eta, q, c) * sd * cd
    )


def _uz_ds(xi, eta, q, cs):
    cd, sd, alpha = cs
    c = _geom(xi, eta, q, cd, sd, alpha)
    R, dtilde = c[0], c[2]
    return (
        dtilde * q / (R * (R + xi))
        + sd * _safe_atan(xi * eta, q * R)
        - _I5(xi, eta, q, c) * sd * cd
    )


@dataclass(frozen=True)
class OkadaFault:
    """One rectangular fault segment.

    Parameters
    ----------
    x0, y0:
        Surface projection of the *top-center* of the fault trace [m],
        in domain coordinates.
    depth_top:
        Depth of the fault's upper edge [m], >= 0.
    strike_deg:
        Strike clockwise from the +y axis ("north") [deg].
    dip_deg:
        Dip angle [deg] in (0, 90].
    rake_deg:
        Slip direction in the fault plane [deg]: 0 = left-lateral
        strike-slip, 90 = thrust.
    slip:
        Slip magnitude [m].
    length, width:
        Along-strike length and down-dip width [m].
    """

    x0: float
    y0: float
    depth_top: float
    strike_deg: float
    dip_deg: float
    rake_deg: float
    slip: float
    length: float
    width: float

    def __post_init__(self) -> None:
        if self.length <= 0 or self.width <= 0:
            raise ConfigurationError("fault length and width must be positive")
        if not 0.0 < self.dip_deg <= 90.0:
            raise ConfigurationError(
                f"dip must be in (0, 90] degrees, got {self.dip_deg}"
            )
        if self.depth_top < 0:
            raise ConfigurationError("depth_top must be non-negative")

    @property
    def u_strike(self) -> float:
        return self.slip * math.cos(math.radians(self.rake_deg))

    @property
    def u_dip(self) -> float:
        return self.slip * math.sin(math.radians(self.rake_deg))


def okada_displacement(
    fault: OkadaFault,
    x: np.ndarray,
    y: np.ndarray,
    mu_over_lambda_mu: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Surface displacement ``(ux, uy, uz)`` at observation points.

    *x*, *y* are broadcastable arrays of domain coordinates [m]; the
    returned arrays have the broadcast shape.  ``uz`` (uplift positive) is
    the tsunami initial condition.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    delta = math.radians(fault.dip_deg)
    sd, cd = math.sin(delta), math.cos(delta)
    strike = math.radians(fault.strike_deg)

    # Rotate observations into the fault-local frame.  In domain coords the
    # strike direction is (sin(strike), cos(strike)) (clockwise from +y).
    dx = x - fault.x0
    dy = y - fault.y0
    x_f = dx * math.sin(strike) + dy * math.cos(strike)
    y_f = dx * math.cos(strike) - dy * math.sin(strike)

    # Okada's origin is the surface projection of the bottom-left corner.
    # Our reference (x0, y0) is the top-center of the upper edge, so shift
    # along strike by L/2 and perpendicular by the horizontal down-dip reach.
    L, W = fault.length, fault.width
    d_bottom = fault.depth_top + W * sd
    xi = x_f + L / 2.0
    yy = y_f + W * cd

    p = yy * cd + d_bottom * sd
    q = yy * sd - d_bottom * cd

    cs = (cd, sd, mu_over_lambda_mu)
    twopi = 2.0 * math.pi

    ux = np.zeros(np.broadcast(x, y).shape)
    uy = np.zeros_like(ux)
    uz = np.zeros_like(ux)

    u1, u2 = fault.u_strike, fault.u_dip
    if u1 != 0.0:
        ux += -u1 / twopi * _chinnery(_ux_ss, xi, p, q, L, W, cs)
        uy += -u1 / twopi * _chinnery(_uy_ss, xi, p, q, L, W, cs)
        uz += -u1 / twopi * _chinnery(_uz_ss, xi, p, q, L, W, cs)
    if u2 != 0.0:
        ux += -u2 / twopi * _chinnery(_ux_ds, xi, p, q, L, W, cs)
        uy += -u2 / twopi * _chinnery(_uy_ds, xi, p, q, L, W, cs)
        uz += -u2 / twopi * _chinnery(_uz_ds, xi, p, q, L, W, cs)

    # Rotate horizontal components back to domain coordinates.
    ux_dom = ux * math.sin(strike) + uy * math.cos(strike)
    uy_dom = ux * math.cos(strike) - uy * math.sin(strike)
    return ux_dom, uy_dom, uz
