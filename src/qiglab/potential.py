"""The trace potential of the alpha-geometry and its dual coordinates.

In affine coordinates xi of the order-alpha embedding, psi = (2/(1+alpha))
Tr sigma(xi) has the matched WYD metric as its Hessian, and its gradient eta
is an affine function of the order-(-alpha) affine coordinates; the Legendre
transform of psi pairs xi with eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .connections import covariant_derivative_set
from .manifold import ChartJet, ParametrizedFamily, _scalar_gradient, affine_coordinates
from .metrics import _metric_matrix, matched_metric
from .newton import _damped_newton, _row_dot
from .sampling import rng_from

__all__ = [
    "potential_value",
    "PotentialReport",
    "potential_check",
    "DualCoordinateReport",
    "dual_coordinate_check",
]


def _potential_factor(alpha: float) -> float:
    """2/(1+alpha), the factor of the trace potential; undefined at alpha <= -1."""
    alpha = float(alpha)
    if alpha <= -1.0:
        raise ValueError(f"the trace potential needs alpha > -1, got {alpha!r}")
    return 2.0 / (1.0 + alpha)


def _trace(a: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix of a stack (..., n, n)."""
    return np.trace(a, axis1=-2, axis2=-1).real


def potential_value(sigma: np.ndarray, alpha: float):
    """Trace potential (2/(1+alpha)) Tr sigma; undefined at alpha = -1.

    A stack of matrices (..., n, n) gives an array of values.
    """
    value = _potential_factor(alpha) * _trace(sigma)
    return float(value) if np.ndim(value) == 0 else value


def _check_affine(alpha: float, jet: ChartJet) -> None:
    """Reject a chart whose flat covariant derivatives do not all vanish at the theta of its
    order-2 ``jet`` at one point.

    Every pair (i, j) is checked, from one covariant_derivative_set call.
    """
    nabla = covariant_derivative_set(jet, [alpha], True)
    norm = float(np.linalg.norm(nabla, axis=(-2, -1)).max())  # a norm needs no basis
    if norm > 1e-4:
        raise ValueError(
            "coordinates are not affine for this embedding order "
            f"(flat covariant derivative has norm {norm:.3e})"
        )


@dataclass(frozen=True)
class PotentialReport:
    """Hessian-vs-metric comparison of the trace potential in affine coordinates."""

    alpha: float
    hessian: np.ndarray
    metric_matrix: np.ndarray
    residual: float
    gradient_residual: float
    n_points: int


def potential_check(
    family: ParametrizedFamily,
    alpha: float,
    points: Sequence[np.ndarray],
    basis: Sequence[np.ndarray],
) -> PotentialReport:
    """Verify the trace potential against the metric in affine coordinates.

    psi = (2/(1+alpha)) Tr sigma(xi) has the exact Hessian (2/(1+alpha)) Tr
    d_i d_j sigma and gradient eta = (2/(1+alpha)) Tr d_i sigma, from the
    chart's order-2 jet on the grid, one chart call whose Spectrum also
    serves the coordinates and the metric. The Hessian must equal the matched
    kernel metric of the coordinate tangents entrywise, and eta must be an
    affine function of the order-(-alpha) affine coordinates (checked by
    linear regression over the grid).

    Rejects coordinates in which the embedding is not affine at the first
    grid point.
    """
    alpha = float(alpha)
    if not -1.0 < alpha <= 1.0:
        raise ValueError(f"potential check needs alpha in (-1, 1], got {alpha!r}")
    points = np.stack([np.atleast_1d(np.asarray(p, dtype=float)) for p in points])
    d = family.param_dim
    if len(points) < d + 2:
        raise ValueError(f"need at least {d + 2} grid points for the affine regression")
    jet = family.jet(points, 2)
    # a chart affine for another order fails at any point
    _check_affine(alpha, jet[0])
    zetas = affine_coordinates(jet.spectrum, -alpha, basis)
    metric = _metric_matrix(jet, matched_metric(alpha))
    c = _potential_factor(alpha)
    hess = c * _trace(jet.hessians)
    etas = c * _trace(jet.tangents)
    design = np.hstack([zetas, np.ones((len(points), 1))])
    coeffs, *_ = np.linalg.lstsq(design, etas, rcond=None)
    gradient_residual = float(np.abs(design @ coeffs - etas).max())
    return PotentialReport(
        alpha=alpha,
        hessian=hess[0],
        metric_matrix=metric[0],
        residual=float(np.abs(hess - metric).max()),
        gradient_residual=gradient_residual,
        n_points=len(points),
    )


@dataclass(frozen=True)
class DualCoordinateReport:
    alpha: float
    jacobian_residual: float
    legendre_residual: float
    n_points: int


def dual_coordinate_check(
    family: ParametrizedFamily,
    alpha: float,
    points: Sequence[np.ndarray],
    seed=202,
) -> DualCoordinateReport:
    """Check the gradient coordinates against the metric and the Legendre pairing.

    The potential psi = (2/(1+alpha)) Tr sigma, its gradient eta = (2/(1+alpha))
    Tr d_i sigma and its Hessian (2/(1+alpha)) Tr d_i d_j sigma are exact, from
    one chart jet per point stack: the traces are taken in the eigenbasis, psi
    as the sum of the eigenvalues. The Jacobian of eta, by central differences,
    must equal the matched metric matrix, and the numeric Legendre transform
    must satisfy psi(xi) + phi(eta(xi)) = xi . eta(xi). phi(eta) =
    -min_x (psi(x) - x . eta) is found by damped Newton steps, every point's
    as one row of a stack started from a seeded perturbation of the point.
    """
    alpha = float(alpha)
    if not len(points):
        raise ValueError("the dual coordinate check needs at least one point")
    points = np.stack([np.atleast_1d(np.asarray(p, dtype=float)) for p in points])
    c = _potential_factor(alpha)

    def potential(jet):  # (psi, eta) at the jet's theta
        return c * jet.spectrum.eigenvalues.sum(axis=-1), c * _trace(jet.tangents)

    jet = family.jet(points, 1)
    metric = _metric_matrix(jet, matched_metric(alpha))
    psi0, eta0 = potential(jet)
    # eta at the 2d stencil points of every point, from one chart call
    jac = _scalar_gradient(lambda x: potential(family.jet(x, 1))[1], points)
    jac_res = float(np.abs(jac - metric).max())

    def evaluate(x, rows):
        at = family.jet(x, 2)
        psi, eta = potential(at)
        return psi - _row_dot(x, eta0[rows]), eta - eta0[rows], c * _trace(at.hessians)

    start = points + 0.05 * rng_from(seed).standard_normal(points.shape)
    _, value_min, _, _ = _damped_newton(evaluate, start, tol=1e-9, max_iter=50)
    # phi(eta0) = -(min value); residual is the optimality gap of xi itself
    gap = psi0 - _row_dot(points, eta0) - value_min
    leg_res = float(np.abs(gap).max())
    return DualCoordinateReport(
        alpha=alpha,
        jacobian_residual=jac_res,
        legendre_residual=leg_res,
        n_points=len(points),
    )
