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
ch. 7). With eigenvalues λ, eigenbasis chart tangents E = T_i, F = T_j, the
chart Hessian H = d_i d_j sigma in that basis and f the order-alpha profile:

- second partial: S_ab = Σ_k f[λa, λk, λb] (E_ak F_kb + F_ak E_kb) + f[λa, λb] H_ab;
- flat set, in mixture form: M = S / f[λa, λb] entrywise;
- on the unit-trace manifold: M - Tr(M) rho, which is the sphere projection
  S - Tr(rho^((1+alpha)/2) S) rho^((1-alpha)/2) in mixture form for every alpha
  in [-1, 1], as f[λa, λa] = λa^(-(1+alpha)/2).

Tr M = Tr H - ((1+alpha)/2) g_alpha(T_i, T_j), with g_alpha the matched WYD
metric (BKM at alpha = ±1), is the normal part. The orders of a call are one
profile stack (``embedding_function``) lined up with the jet's leading axis,
so ``covariant_derivative_set`` takes every order at every point as the jet
``jet[None]``, in one divided-difference matrix, one triple tensor and one
contraction over (order, point, pair): ``manifold._function_jet``, the
order-2 step that the chart jets take too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import frechet_derivative, hermitize
from .manifold import (
    ChartJet,
    ParametrizedFamily,
    TangentVector,
    _check_base,
    _function_jet,
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


def ext_covariant_derivative(
    family: ParametrizedFamily, theta: np.ndarray, i: int, j: int, alpha: float
) -> TangentVector:
    """Flat covariant derivative on the positive cone.

    The plain second partial of the embedded chart, converted back to the
    mixture representation at the base point. Vanishes identically in
    coordinates that make the embedding affine. Entry (i, j) of the set at
    one point; a stack of theta or an index outside [0, param_dim) raises.
    """
    return _one_derivative(family, theta, i, j, alpha, True)


def covariant_derivative_on_M(
    family: ParametrizedFamily, theta: np.ndarray, i: int, j: int, alpha: float
) -> TangentVector:
    """Projected covariant derivative on the unit-trace manifold.

    The second partial of the embedded chart followed by the sphere
    projection at the base point; the alpha representation of the result is
    tangent (weighted trace zero) by construction. Entry (i, j) of the set at
    one point; a stack of theta or an index outside [0, param_dim) raises.
    """
    return _one_derivative(family, theta, i, j, alpha, False)


def _one_derivative(family, theta, i: int, j: int, alpha: float, on_extended: bool):
    """Entry (i, j) of the order-alpha ``covariant_derivative_set`` at one point theta (d,), as a
    weight tangent (``on_extended``) or a state tangent."""
    if np.ndim(theta) > 1:
        raise ValueError(
            f"a single covariant derivative takes one point theta of shape "
            f"({family.param_dim},), got shape {np.shape(theta)}"
        )
    family._check_directions(i, j)
    jet = family.jet(theta, 2)
    mixture = covariant_derivative_set(jet, [alpha], on_extended)[0, i, j]
    tangent = weight_tangent if on_extended else state_tangent
    return tangent(jet.sigma, _standard_basis(jet.spectrum, mixture))


def covariant_derivative_set(jet: ChartJet, alphas, on_extended: bool = False) -> np.ndarray:
    """All covariant derivatives nabla^(alpha)_i T_j at the jet's theta, in mixture form, in the
    eigenbasis of the base point, for each order in the sequence ``alphas``.

    ``jet`` is a chart's order-2 ChartJet at one point (d,) or a stack (m, d):
    its Spectrum, tangents and Hessians, all in that eigenbasis, so nothing is
    decomposed or rotated again. Every order is checked before any work; then
    every order, every point and every pair i <= j is one stack per step, and
    each order's slice is bit for bit that order's set alone.
    Flat ones on the positive cone (``on_extended``) or, on the unit-trace
    manifold, each flat M less Tr(M) rho and its round-off trace. The result
    has shape (orders, d, d, n, n), or (orders, m, d, d, n, n) for a stack,
    symmetric in the two axes before the matrix axes; ``U X U†``, with U the
    base point's eigenvectors, gives a set in the standard basis.
    """
    orders = tuple(alphas)
    # the base is checked before any order or pair axis is added, so an error names the point
    spec = (check_weight if on_extended else check_state)(jet.spectrum)
    if len(orders) == 1:  # one order takes its profile without the order axis
        nabla = _covariant_derivatives(jet, orders[0])[None]
    else:
        nabla = _covariant_derivatives(jet[None], orders)
    if not on_extended:  # rho is diag(λ) in its eigenbasis
        diag = np.arange(spec.dim)
        trace = nabla[..., diag, diag].sum(axis=-1)
        nabla[..., diag, diag] -= trace[..., None] * spec.eigenvalues[..., None, None, :]
        trace = nabla[..., diag, diag].sum(axis=-1)
        nabla[..., diag, diag] -= (trace / spec.dim)[..., None]  # kill round-off trace
    return nabla


def _covariant_derivatives(jet: ChartJet, alpha) -> np.ndarray:
    """The flat ``covariant_derivative_set`` of one order, (..., d, d, n, n) for a jet (..., d),
    or of k orders lined up with the jet's leading axis as ``embedding_function`` lines them
    up. The base must be positive, as every chart jet's is."""
    if jet.hessians is None:
        raise ValueError("covariant derivatives need the chart's order-2 jet")
    # the second partials of the embedded chart, then their mixture form
    fun = embedding_function(alpha)  # checks every order before any work
    k, _, second = _function_jet(jet.spectrum.eigenvalues, fun, jet.tangents, 2, jet.hessians)
    return hermitize(second) / k[..., None, None, :, :]


def _curve_stack(curve: CurveSpec, *tangents: TangentVector) -> tuple:
    """(sigma, Spectrum) of the curve points t = k/step_count, k = 0..step_count, as stacks
    from one chart call. Every tangent vector must sit at row 0, the start point. A step that
    moves more than CONTINUITY_BOUND from the previous point raises, naming the first such step.
    """
    steps = curve.step_count
    theta = np.stack([curve.path(k / steps) for k in range(steps + 1)])
    _, sigma, spec = curve.family.point_and_spectrum(theta)
    for v in tangents:
        _check_base(v, sigma[0], "the curve start point")
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
