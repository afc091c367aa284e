"""The trace potential of the alpha-geometry and its dual coordinates.

In affine coordinates xi of the order-alpha embedding, psi = (2/(1+alpha))
Tr sigma(xi) has the matched WYD metric as its Hessian, and its gradient eta
is an affine function of the order-(-alpha) affine coordinates; the Legendre
transform of psi pairs xi with eta.

The checks run on stacks of rows that each carry their own order, so
``qiglab potential`` checks every order of a dim in one pass
(``_potential_checks``), and the one-order public checks are its k = 1 case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .connections import _covariant_derivatives
from .linalg import check_hermitian
from .manifold import (
    ChartJet,
    ParametrizedFamily,
    _scalar_gradient,
    _xi_affine_chart,
    affine_coordinates,
)
from .metrics import _metric_matrix, matched_metric
from .newton import _damped_newton, _row_dot
from .sampling import rng_from

__all__ = [
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


def _check_order(alpha: float) -> float:
    """alpha as a float, rejected outside (-1, 1], where the trace potential is not checked."""
    alpha = float(alpha)
    if not -1.0 < alpha <= 1.0:
        raise ValueError(f"potential check needs alpha in (-1, 1], got {alpha!r}")
    return alpha


def _check_affine(orders: Sequence[float], jet: ChartJet) -> None:
    """Reject a chart whose flat covariant derivatives do not all vanish at the theta of its
    order-2 ``jet``, one point per order of ``orders``, point i in order orders[i].

    Every pair (i, j) is checked, in one pass with the orders lined up with the points; the
    first order that fails raises, naming the order and its point's theta.
    """
    nabla = _covariant_derivatives(jet, tuple(orders))
    norms = np.linalg.norm(nabla, axis=(-2, -1)).reshape(len(orders), -1).max(axis=1)
    bad = norms > 1e-4  # a norm needs no basis
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"coordinates are not affine for embedding order {orders[i]:g} at "
            f"theta={jet.theta[i].tolist()} (flat covariant derivative has norm {norms[i]:.3e})"
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


@dataclass(frozen=True)
class DualCoordinateReport:
    alpha: float
    jacobian_residual: float
    legendre_residual: float
    n_points: int


def _factors(orders: Sequence[float], m: int) -> np.ndarray:
    """2/(1+alpha) of each order, repeated for its m rows: (k * m,)."""
    return np.repeat([_potential_factor(alpha) for alpha in orders], m)


def _grid_check(jet: ChartJet, orders: Sequence[float], basis) -> tuple:
    """(PotentialReport of each order, metric matrices (k * m, d, d)) from one order-2 jet of
    the grids of k orders, m points each, the grid of orders[i] at rows i*m to (i+1)*m - 1.

    The jet's Spectrum gives the affine coordinates and the metric of every row, and the first
    row of each grid the affine check; only the regression runs order by order.
    """
    m = len(jet.theta) // len(orders)
    _check_affine(orders, jet[::m])  # a chart affine for another order fails at any point
    zetas = affine_coordinates(jet.spectrum, -np.repeat(orders, m), basis)
    metric = _metric_matrix(jet, [matched_metric(alpha) for alpha in orders])
    c = _factors(orders, m)
    hess = c[:, None, None] * _trace(jet.hessians)
    etas = c[:, None] * _trace(jet.tangents)
    reports = []
    for i, alpha in enumerate(orders):
        rows = slice(i * m, (i + 1) * m)
        design = np.hstack([zetas[rows], np.ones((m, 1))])
        coeffs, *_ = np.linalg.lstsq(design, etas[rows], rcond=None)
        reports.append(
            PotentialReport(
                alpha=alpha,
                hessian=hess[rows][0],
                metric_matrix=metric[rows][0],
                residual=float(np.abs(hess[rows] - metric[rows]).max()),
                gradient_residual=float(np.abs(design @ coeffs - etas[rows]).max()),
                n_points=m,
            )
        )
    return reports, metric


def _dual_check(chart, jet: ChartJet, orders: Sequence[float], metric, start) -> list:
    """DualCoordinateReport of each of k orders, from one order-1 jet of k blocks of m points,
    the points of orders[i] at rows i*m to (i+1)*m - 1, and their metric matrices.

    ``chart`` maps an order per row (r,) to the chart that takes stacks of those r rows. The
    Jacobian's stencil is one chart call, and the Legendre solve one _damped_newton over every
    row, each row from its row of ``start``.
    """
    k, m = len(orders), len(jet.theta) // len(orders)
    alphas, c = np.repeat(orders, m), _factors(orders, m)
    psi0 = c * jet.spectrum.eigenvalues.sum(axis=-1)
    eta0 = c[:, None] * _trace(jet.tangents)
    # eta at the 2d stencil points of every point, from one chart call
    width = 2 * jet.theta.shape[-1]
    stencil_orders, stencil_c = np.repeat(alphas, width), np.repeat(c, width)[:, None]
    jac = _scalar_gradient(
        lambda x: stencil_c * _trace(chart(stencil_orders).jet(x, 1).tangents), jet.theta
    )

    def evaluate(x, rows):
        at = chart(alphas[rows]).jet(x, 2)
        cr = c[rows]
        psi = cr * at.spectrum.eigenvalues.sum(axis=-1)
        eta = cr[:, None] * _trace(at.tangents)
        hessian = cr[:, None, None] * _trace(at.hessians)
        return psi - _row_dot(x, eta0[rows]), eta - eta0[rows], hessian

    _, value_min, _, _ = _damped_newton(evaluate, start, tol=1e-9, max_iter=50)
    # phi(eta0) = -(min value); residual is the optimality gap of xi itself
    gap = psi0 - _row_dot(jet.theta, eta0) - value_min
    jac_res = np.abs(jac - metric).reshape(k, -1).max(axis=1)
    leg_res = np.abs(gap).reshape(k, m).max(axis=1)
    return [
        DualCoordinateReport(
            alpha=alpha,
            jacobian_residual=float(jac_res[i]),
            legendre_residual=float(leg_res[i]),
            n_points=m,
        )
        for i, alpha in enumerate(orders)
    ]


def _stacked_points(points: Sequence[np.ndarray]) -> np.ndarray:
    return np.stack([np.atleast_1d(np.asarray(p, dtype=float)) for p in points])


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
    grid point. The one-order case of ``_potential_checks``' grid check.
    """
    alpha = _check_order(alpha)
    points = _stacked_points(points)
    d = family.param_dim
    if len(points) < d + 2:
        raise ValueError(f"need at least {d + 2} grid points for the affine regression")
    reports, _ = _grid_check(family.jet(points, 2), [alpha], basis)
    return reports[0]


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
    The one-order case of ``_potential_checks``' dual check.
    """
    alpha = float(alpha)
    if not len(points):
        raise ValueError("the dual coordinate check needs at least one point")
    points = _stacked_points(points)
    jet = family.jet(points, 1)
    metric = _metric_matrix(jet, [matched_metric(alpha)])
    start = points + 0.05 * rng_from(seed).standard_normal(points.shape)
    return _dual_check(lambda alphas: family, jet, [alpha], metric, start)[0]


def _potential_checks(
    basis: Sequence[np.ndarray],
    orders: Sequence[float],
    weights: np.ndarray,
    dual_points: int,
    seed,
) -> list:
    """potential_check and dual_coordinate_check of the grids of k orders in one pass: a
    (PotentialReport, DualCoordinateReport) pair per order.

    ``weights`` (k * m, n, n) hold the m grid weights of each order in turn; the grid of
    orders[i] is their affine coordinates in that order, checked in the xi-affine chart of that
    order, and its dual check takes its first ``dual_points`` points, started from one seeded
    perturbation shared by every order. Each report is bit for bit the one that
    potential_check and dual_coordinate_check give on the order's own grid and chart.

    Every row's order is carried along the row: one affine_coordinates call, one order-2 jet of
    every (order, point) row, whose first ``dual_points`` rows per order also serve the dual
    check, one stencil jet for the Jacobian and one Newton solve over every dual row.
    """
    orders = [_check_order(alpha) for alpha in orders]
    basis = check_hermitian(np.stack(basis))
    k, d = len(orders), len(basis)
    m = len(weights) // k
    if m < d + 2:
        raise ValueError(f"need at least {d + 2} grid points for the affine regression")
    if not 1 <= dual_points <= m:
        raise ValueError(f"the dual coordinate check needs 1 to {m} points, got {dual_points}")
    alphas = np.repeat(orders, m)
    points = affine_coordinates(weights, alphas, basis)
    chart = functools.partial(_xi_affine_chart, basis)  # the chart of an order per row
    jet = chart(alphas).jet(points, 2)
    reports, metric = _grid_check(jet, orders, basis)
    dual = (np.arange(k)[:, None] * m + np.arange(dual_points)).ravel()
    noise = rng_from(seed).standard_normal((dual_points, d))
    start = jet.theta[dual] + 0.05 * np.tile(noise, (k, 1))
    duals = _dual_check(chart, jet[dual], orders, metric[dual], start)
    return list(zip(reports, duals))
