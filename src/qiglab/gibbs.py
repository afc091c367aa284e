"""Gibbs families and the relative-entropy projection onto them.

A Gibbs family exp(sum theta_i Y_i - psi(theta) I) carries analytic chart
derivatives through the exp matrix calculus. Projecting a state onto one
minimizes relative entropy by damped Newton steps; at the minimizer the
means match and the residual segment is BKM-orthogonal to the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    Spectrum,
    _first_in_stack,
    apply_scalar_function,
    check_hermitian,
    divided_difference_matrix,
    exp_function,
    log_function,
    spectral_decompose,
)
from .manifold import (
    ParametrizedFamily,
    _check_chart_guard,
    _function_jet,
    basis_combination,
    check_state,
)
from .metrics import bkm_direct, relative_entropy
from .newton import _damped_newton, _row_dot

__all__ = [
    "GibbsFamily",
    "gibbs_family",
    "ProjectionReport",
    "entropy_projections",
    "entropy_projection",
    "relative_entropy_curvature_gap",
]


def _expectations(sigma: np.ndarray, observables: np.ndarray) -> np.ndarray:
    """Tr(sigma Y_i) for sigma (..., n, n) and observables (..., m, n, n): (..., m)."""
    return np.trace(sigma[..., None, :, :] @ observables, axis1=-2, axis2=-1).real


def _gibbs_evaluation(theta: np.ndarray, observables: np.ndarray, order: int) -> tuple:
    """(psi, means, d_i d_j psi, chart) of the Gibbs state sigma = exp(B - psi I) at each
    B = sum theta_i Y_i, from one decomposition of B.

    theta (..., m) and observables (..., m, n, n) broadcast. psi (...) is the
    log-sum-exp of B's eigenvalues and means (..., m) are Tr(sigma Y_i).
    ``chart`` is (sigma, Spectrum of sigma, tangents, hessians) as a
    ParametrizedFamily's ``evaluate`` returns them, up to ``order``: in the
    eigenbasis U of B, d_i sigma is K_exp o (U† Y_i U - <Y_i> I), and d_i d_j
    sigma is the second exp derivative along those directions less
    (d_i d_j psi) sigma, with d_i d_j psi = Tr(d_j sigma Y_i), symmetrized
    (..., m, m); it is None at order 0.
    """
    spec = spectral_decompose(basis_combination(theta, observables))
    top = spec.eigenvalues.max(axis=-1, keepdims=True)
    psi = top + np.log(np.sum(np.exp(spec.eigenvalues - top), axis=-1, keepdims=True))
    shifted = spec.eigenvalues - psi
    sigma = apply_scalar_function(Spectrum(shifted, spec.unitary), exp_function())
    p = np.exp(shifted)
    state = Spectrum(p, spec.unitary)
    means = _expectations(sigma, observables)
    if order < 1:
        return psi[..., 0], means, None, (sigma, state, None, None)
    rotated = spec.expand_dims().to_eigenbasis(observables)
    directions = rotated - means[..., None, None] * np.eye(spec.dim)
    tangents, hessians = _function_jet(shifted, exp_function(), directions, order)
    # Tr(d_j sigma Y_i) = sum_ab conj(Y_i)_ab (d_j sigma)_ab in the eigenbasis
    products = rotated.conj()[..., :, None, :, :] * tangents[..., None, :, :, :]
    d2psi = np.sum(products, axis=(-2, -1)).real
    d2psi = 0.5 * (d2psi + d2psi.swapaxes(-1, -2))
    if order >= 2:  # sigma is diag(e^shifted) in its eigenbasis
        diagonal = np.arange(spec.dim)
        hessians[..., diagonal, diagonal] -= d2psi[..., None] * p[..., None, None, :]
    return psi[..., 0], means, d2psi, (sigma, state, tangents, hessians)


def _gibbs_observables(observables) -> np.ndarray:
    """Observables (..., m, n, n) as a complex stack, checked for each family of the stack.

    Each must be self-adjoint, and {I, Y_1, ..., Y_m} linearly independent;
    an error names the first failing family by its stack index.
    """
    ys = np.asarray(observables, dtype=complex)
    if ys.ndim < 3 or ys.shape[-3] == 0:
        raise ValueError("need at least one observable")
    ys = check_hermitian(ys)
    n = ys.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=complex), ys.shape[:-3] + (1, n, n))
    span = np.concatenate([eye, ys], axis=-3)
    gram = np.sum(span.conj()[..., :, None, :, :] * span[..., None, :, :, :], axis=(-2, -1)).real
    dependent = np.linalg.cond(gram) > 1e12
    if dependent.any():
        _, at = _first_in_stack(dependent)
        raise ValueError(f"observables together with I must be linearly independent{at}")
    return ys


@dataclass(frozen=True)
class GibbsFamily:
    """exp(sum theta_i Y_i - psi(theta) I) with analytic chart derivatives.

    Each chart jet, ``log_partition`` and ``means`` takes one decomposition of
    sum theta_i Y_i.
    """

    observables: tuple
    family: ParametrizedFamily

    def log_partition(self, theta) -> float:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return float(_gibbs_evaluation(theta, np.stack(self.observables), 0)[0])

    def state(self, theta) -> np.ndarray:
        return self.family.point(theta)

    def means(self, theta) -> np.ndarray:
        return _expectations(self.state(theta), np.stack(self.observables))


def gibbs_family(observables: Sequence[np.ndarray]) -> GibbsFamily:
    """Build the normalized exponential family of the given observables.

    {I, Y_1, ..., Y_m} must be linearly independent; the chart's jet carries
    analytic first and second derivatives through the exp matrix calculus,
    and broadcasts over a stack of theta (k, m).
    """
    ys = _gibbs_observables(observables)
    if ys.ndim != 3:
        raise ValueError(f"expected a sequence of (n, n) observables, got shape {ys.shape}")

    def evaluate(theta, order):
        return _gibbs_evaluation(theta, ys, order)[3]

    return GibbsFamily(tuple(ys), ParametrizedFamily(param_dim=len(ys), evaluate=evaluate))


@dataclass(frozen=True)
class ProjectionReport:
    theta_star: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float
    mean_residual: float
    orthogonality_residual: float
    relative_entropy_value: float


def entropy_projections(rhos: np.ndarray, observables: np.ndarray, tol: float = 1e-9) -> list:
    """Project each state of a stack onto its own Gibbs family; one ProjectionReport per state.

    rhos (k, n, n) are states and observables (k, m, n, n) the families'
    observables. Every row gets the checks of one projection (a state;
    self-adjoint, linearly independent observables; chart values above the
    guard at every kept Newton step, though a rejected trial may fall
    below it), and an error names the failing row by its stack index. All rows
    run as one damped Newton iteration on theta -> psi(theta) - theta .
    means(rho), each with its own step length, convergence test and count;
    one stacked decomposition gives the value, gradient and Hessian of every
    row evaluated together. At the
    minimizer the family means match the state's means, and the mixture
    segment rho - sigma* is BKM-orthogonal to the family's tangent space.
    Non-convergence within 200 Newton steps is reported (with the gradient
    norm), not raised.
    """
    rho_spectrum = check_state(rhos)
    rhos = np.asarray(rhos, dtype=complex)
    ys = _gibbs_observables(observables)
    if rhos.ndim != 3 or ys.shape[:1] + ys.shape[-2:] != rhos.shape:
        raise ValueError(
            f"states {rhos.shape} and observables {ys.shape} do not stack "
            "as (k, n, n) and (k, m, n, n)"
        )
    k, m, n = ys.shape[:3]
    target = _expectations(rhos, ys)
    # what the last evaluation of each row leaves: sigma*, its Spectrum and its eigenbasis tangents
    mu, unitary = np.empty((k, n)), np.empty((k, n, n), dtype=complex)
    sigmas = np.empty((k, n, n), dtype=complex)
    tangents = np.empty((k, m, n, n), dtype=complex)

    def evaluate(theta, rows):
        psi, means, d2psi, (sigma, state, t, _) = _gibbs_evaluation(theta, ys[rows], 1)
        mu[rows], unitary[rows] = state.eigenvalues, state.unitary
        sigmas[rows], tangents[rows] = sigma, t
        return psi - _row_dot(theta, target[rows]), means - target[rows], d2psi

    def accepted(theta, rows):  # a rejected trial may fall below the guard; a kept step may not
        _check_chart_guard(mu[rows].min(axis=-1), theta, rows)

    theta, _, grad, iterations = _damped_newton(
        evaluate, np.zeros((k, m)), tol, max_iter=200, accepted=accepted
    )
    gnorm = np.abs(grad).max(axis=-1)
    # BKM pairing Tr((rho - sigma*) L_log(sigma*)[d_i sigma]) in the eigenbasis of sigma* that
    # the last evaluation of each row decomposed, where L_log(sigma*) scales entrywise by the
    # divided differences of log at its eigenvalues mu
    final = Spectrum(mu, unitary)
    k_log = divided_difference_matrix(mu, log_function())
    segment = final.to_eigenbasis(rhos - sigmas).swapaxes(-1, -2)
    pairing = np.sum(segment[:, None] * k_log[:, None] * tangents, axis=(-2, -1))
    orth = np.abs(pairing.real).max(axis=-1)
    entropy = relative_entropy(rho_spectrum, final)
    return [
        ProjectionReport(
            theta_star=theta[r],
            converged=bool(gnorm[r] <= tol),
            iterations=int(iterations[r]),
            gradient_norm=float(gnorm[r]),
            mean_residual=float(gnorm[r]),
            orthogonality_residual=float(orth[r]),
            relative_entropy_value=float(entropy[r]),
        )
        for r in range(k)
    ]


def entropy_projection(rho: np.ndarray, gibbs: GibbsFamily, tol: float = 1e-9) -> ProjectionReport:
    """Project a state onto a Gibbs family by minimizing relative entropy.

    The one-row case of ``entropy_projections``: damped Newton iteration on
    theta -> psi(theta) - theta . means(rho). At the minimizer the family
    means match the state's means and the mixture segment rho - sigma* is
    BKM-orthogonal to the family's tangent space. Non-convergence within 200
    Newton steps is reported (with the gradient norm), not raised.
    """
    rho = np.asarray(rho, dtype=complex)
    return entropy_projections(rho[None], np.stack(gibbs.observables)[None], tol)[0]


def relative_entropy_curvature_gap(
    rho: np.ndarray, direction: np.ndarray, t: float = 1e-2
) -> float:
    """|S(rho | rho + t D) - (1/2) t^2 bkm(D, D)|: the second-order expansion."""
    spec = check_state(rho)
    d = check_hermitian(direction)
    if abs(complex(np.trace(d))) > 1e-10:
        raise ValueError("expansion direction must be traceless")
    sigma = rho + t * d
    bkm = bkm_direct(spec, d, d)
    return float(abs(relative_entropy(spec, sigma) - 0.5 * bkm * t * t))
