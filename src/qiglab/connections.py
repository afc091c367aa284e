"""Covariant derivatives and parallel transports.

The order-alpha embedding induces a flat connection on the positive cone
(extended manifold): its covariant derivative is the plain second partial of
the embedded chart, and its parallel transport reinterprets the alpha
representation at the endpoint (``manifold.representation_convert``). On the
unit-trace manifold the same data is projected onto the embedded sphere's
tangent space; the projected transport is discretized step by step and is
path dependent.

Covariant derivatives are built in the eigenbasis of their base point, where
every step is entrywise (Amari-Nagaoka, Methods of Information Geometry,
ch. 7). With eigenvalues λ, eigenbasis chart tangents E = T_i, F = T_j and
f the embedding profile of order alpha:

- second partial: S_ab = Σ_k f[λa, λk, λb] (E_ak F_kb + F_ak E_kb) + f[λa, λb] H_ab,
  with H the chart Hessian d_i d_j sigma in the eigenbasis;
- sphere projection: S - (Σ_a λa^((1+alpha)/2) S_aa) diag(λ^((1-alpha)/2));
- mixture form: divide entrywise by f[λa, λb].

The tangent products do not depend on alpha. The orders of a call are one
profile stack (``embedding_function`` of the sequence: one power stack, with
alpha = 1 (log) and alpha = -1 (identity) as members of their own), and the
sphere projection's powers are one stack too. A stack lines up with the
jet's leading axis, so ``covariant_derivative_set`` takes every order at
every point as the jet ``jet[None]``. A call of any number of orders makes
one divided-difference matrix, one triple tensor, one contraction and one
projection over (order, point, pair), and with the chart's order-2 jet (one
chart call, already in the eigenbasis) every point and pair is in that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    _tangent_products,
    _triple_contraction,
    _triple_difference_tensor,
    divided_difference_matrix,
    frechet_derivative,
    hermitize,
)
from .manifold import (
    ChartJet,
    ParametrizedFamily,
    TangentVector,
    _project_in_eigenbasis,
    _pairs,
    _project_with,
    _sphere_powers,
    _standard_basis,
    check_state,
    check_weight,
    embedding_function,
    representation_convert,
    state_tangent,
    weight_tangent,
)

__all__ = [
    "CONTINUITY_BOUND",
    "CurveSpec",
    "CovariantDerivativeResult",
    "ext_covariant_derivative",
    "covariant_derivative_on_M",
    "covariant_derivative_set",
    "parallel_transport_on_M",
]

# Consecutive curve samples may differ by at most this much in Frobenius norm.
CONTINUITY_BOUND = 0.5


@dataclass
class CurveSpec:
    """A parameter path t in [0, 1] through a chart, with a discretization."""

    family: ParametrizedFamily
    path: Callable[[float], np.ndarray]
    step_count: int = 256

    def __post_init__(self):
        if self.step_count < 1:
            raise ValueError(f"step_count must be at least 1, got {self.step_count}")

    def point(self, t: float) -> np.ndarray:
        return self.family.point(self.path(t))


@dataclass(frozen=True)
class CovariantDerivativeResult:
    """Base point and the resulting tangent vector (mixture representation)."""

    base: np.ndarray
    vector: TangentVector


def ext_covariant_derivative(
    family: ParametrizedFamily, theta: np.ndarray, i: int, j: int, alpha: float
) -> CovariantDerivativeResult:
    """Flat covariant derivative on the positive cone.

    The plain second partial of the embedded chart, converted back to the
    mixture representation at the base point. Vanishes identically in
    coordinates that make the embedding affine. Entry (i, j) of
    ``covariant_derivative_set``; an index outside [0, param_dim) raises.
    """
    family._check_directions(i, j)
    jet = family.jet(theta, 2)
    mixture = covariant_derivative_set(jet, [alpha], True)[0, i, j]
    return CovariantDerivativeResult(
        jet.sigma, weight_tangent(jet.sigma, _standard_basis(jet.spectrum, mixture))
    )


def covariant_derivative_on_M(
    family: ParametrizedFamily, theta: np.ndarray, i: int, j: int, alpha: float
) -> CovariantDerivativeResult:
    """Projected covariant derivative on the unit-trace manifold.

    The second partial of the embedded chart followed by the sphere
    projection at the base point; the alpha representation of the result is
    tangent (weighted trace zero) by construction. Entry (i, j) of
    ``covariant_derivative_set``; an index outside [0, param_dim) raises.
    """
    family._check_directions(i, j)
    jet = family.jet(theta, 2)
    mixture = covariant_derivative_set(jet, [alpha], False)[0, i, j]
    return CovariantDerivativeResult(
        jet.sigma, state_tangent(jet.sigma, _standard_basis(jet.spectrum, mixture))
    )


def covariant_derivative_set(jet: ChartJet, alphas, on_extended: bool = False) -> np.ndarray:
    """All covariant derivatives nabla^(alpha)_i T_j at the jet's theta, in mixture form, in the
    eigenbasis of the base point, for each order in the sequence ``alphas``.

    ``jet`` is a chart's order-2 ChartJet at one point (d,) or a stack (m, d):
    its Spectrum, tangents and Hessians, all in that eigenbasis, so nothing is
    decomposed or rotated again. Every order is checked before any work; then
    every order, every point and every pair i <= j is one stack per step, and
    each order's slice is bit for bit that order's set alone.
    Flat ones on the positive cone (``on_extended``) or projected ones on the
    unit-trace manifold; the result has shape (orders, d, d, n, n), or
    (orders, m, d, d, n, n) for a stack, and is symmetric in the two axes
    before the matrix axes. ``U X U†``, with U the base point's eigenvectors,
    gives a set in the standard basis.
    """
    orders = tuple(alphas)
    # the base is checked before any order or pair axis is added, so an error names the point
    (check_weight if on_extended else check_state)(jet.spectrum)
    if len(orders) == 1:  # one order takes its profile without the order axis
        return _covariant_derivatives(jet, orders[0], on_extended)[None]
    return _covariant_derivatives(jet[None], orders, on_extended)


def _covariant_derivatives(jet: ChartJet, alpha, on_extended: bool) -> np.ndarray:
    """``covariant_derivative_set`` of one order, (..., d, d, n, n) for a jet (..., d), or of k
    orders lined up with the jet's leading axis as ``embedding_function`` lines them up. The
    base must be positive, as every chart jet's is; the projection checks its unit trace."""
    if jet.hessians is None:
        raise ValueError("covariant derivatives need the chart's order-2 jet")
    spec, tangents = jet.spectrum, jet.tangents
    d, n = tangents.shape[-3], spec.dim
    lam = spec.eigenvalues
    fun = embedding_function(alpha)  # checks every order before any work
    i, j = _pairs(d)
    products = _tangent_products(tangents[..., i, :, :], tangents[..., j, :, :])
    hess = jet.hessians[..., i, j, :, :]
    # the second partial of the embedded chart, at axes (..., pair i <= j, n, n)
    k = divided_difference_matrix(lam, fun)
    t = _triple_difference_tensor(lam, fun, k)
    k = k[..., None, :, :]
    d2 = hermitize(_triple_contraction(t[..., None, :, :, :], products) + k * hess)
    if on_extended:
        mixture = d2 / k
    else:
        # rejects a base off the unit-trace manifold
        mixture = _project_in_eigenbasis(spec.expand_dims(), alpha, d2) / k
        diag = np.arange(n)
        trace = mixture[..., diag, diag].sum(axis=-1)
        mixture[..., diag, diag] -= (trace / n)[..., None]  # kill round-off trace
    out = np.empty(mixture.shape[:-3] + (d, d, n, n), dtype=complex)
    out[..., i, j, :, :] = out[..., j, i, :, :] = mixture
    return out


def _curve_stack(curve: CurveSpec, *tangents: TangentVector) -> tuple:
    """(sigma, Spectrum) of the curve points t = k/step_count, k = 0..step_count, as stacks
    from one chart call. Every tangent vector must sit at row 0, the start point. A step that
    moves more than CONTINUITY_BOUND from the previous point raises, naming the first such step.
    """
    steps = curve.step_count
    theta = np.stack([curve.path(k / steps) for k in range(steps + 1)])
    _, sigma, spec = curve.family.point_and_spectrum(theta)
    if any(np.abs(sigma[0] - v.base).max() > 1e-9 for v in tangents):
        raise ValueError("tangent vector base does not match the curve start point")
    moves = np.linalg.norm(sigma[1:] - sigma[:-1], axis=(-2, -1))
    if (moves > CONTINUITY_BOUND).any():
        k = int(np.argmax(moves > CONTINUITY_BOUND))
        raise ValueError(
            f"curve moves {moves[k]:.3f} at step {k + 1}/{steps} (> {CONTINUITY_BOUND}); "
            f"step_count={steps} is too small for a continuous discretization"
        )
    return sigma, spec


def parallel_transport_on_M(curve: CurveSpec, v: TangentVector, alpha: float) -> TangentVector:
    """Projected transport on the unit-trace manifold.

    Discretized: the alpha representation is carried to each successive curve
    point and re-projected onto the tangent space there. Each run is
    first-order accurate in 1/step_count, so the step_count run is combined
    with a half-resolution run by Richardson extrapolation (2*fine - coarse).
    The coarse run visits every other point of the fine run, so one stacked
    chart call serves both.
    Path dependent: transports along different curves between the same
    endpoints disagree (the non-flatness witness).
    """
    sigma, spec = _curve_stack(curve, v)
    if curve.step_count % 2 or curve.step_count < 2:
        raise ValueError("richardson extrapolation needs an even step_count >= 2")
    p_plus, p_minus = _sphere_powers(spec[1:], alpha)  # rejects a curve off the unit-trace manifold
    w0 = frechet_derivative(spec[0], v.mixture, embedding_function(alpha))
    runs = []
    for rows in (slice(None), slice(1, None, 2)):  # points k = 1..s, then k = 2, 4, ..., s
        w = w0
        for powers in zip(p_plus[rows], p_minus[rows]):
            w = _project_with(powers, w)
        runs.append(w)
    mixtures = representation_convert(spec[-1], np.stack(runs), alpha, -1.0)
    mixtures -= (np.trace(mixtures, axis1=1, axis2=2) / spec.dim)[:, None, None] * np.eye(spec.dim)
    return state_tangent(sigma[-1], 2.0 * mixtures[0] - mixtures[1])
