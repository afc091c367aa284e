"""Positive matrices as manifold points.

Order-alpha embeddings of weights and states, tangent-vector representations
and conversions between them, the sphere projection onto the embedded
unit-trace manifold, parametrized families (charts) with analytic
derivatives, and affine coordinates in a self-adjoint basis.

The embedding with parameter alpha in (-1, 1) sends a positive matrix to
(2/(1-alpha)) * sigma^((1-alpha)/2); the alpha = +1 and alpha = -1 limits are
the log and identity embeddings, handled here once so downstream code treats
alpha uniformly on [-1, 1].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .linalg import (
    ScalarFunction,
    Spectrum,
    _first_in_stack,
    _function_stack,
    _hermitize_self_adjoint,
    _is_stack,
    _tangent_products,
    _triple_contraction,
    _triple_difference_tensor,
    apply_scalar_function,
    check_hermitian,
    divided_difference_matrix,
    exp_function,
    frechet_derivative,
    hermitize,
    identity_function,
    log_function,
    power_function,
    spectral_decompose,
)

__all__ = [
    "CHART_MIN_EIGENVALUE",
    "FIRST_DERIVATIVE_STEP",
    "STATE_TRACE_TOL",
    "check_weight",
    "check_state",
    "TangentVector",
    "state_tangent",
    "weight_tangent",
    "embedding_function",
    "inverse_embedding_function",
    "alpha_representation",
    "representation_convert",
    "sphere_project",
    "ParametrizedFamily",
    "basis_combination",
    "affine_coordinates",
    "xi_affine_family",
    "linear_family",
    "simplex_family",
]

# Charts must keep the spectrum at least this far from the boundary.
CHART_MIN_EIGENVALUE = 1e-6
# Central first differences take steps FIRST_DERIVATIVE_STEP * max(1, |theta_i|).
FIRST_DERIVATIVE_STEP = 1e-4
STATE_TRACE_TOL = 1e-8
_TANGENT_TRACE_TOL = 1e-10
# A tangent vector sits at a base point when no entry of the two bases differs by more.
_BASE_MATCH_TOL = 1e-9


def _central_stencil(x: np.ndarray, step: float) -> tuple:
    """The rows x + h_0 e_0, x - h_0 e_0, x + h_1 e_1, ... of x (d,), or of every row of a
    stack x (..., d), as (..., 2d, d); and the steps h_i = step * max(1, |x_i|), shaped as x."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    h = step * np.maximum(1.0, np.abs(x))
    stencil = np.repeat(x[..., None, :], 2 * d, axis=-2)
    axes = np.arange(d)
    stencil[..., 2 * axes, axes] += h
    stencil[..., 2 * axes + 1, axes] -= h
    return stencil, h


def _central_difference(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i) from f on the rows of a _central_stencil.

    ``values`` holds f at the stencil rows in their order, stacked on one
    leading axis, (2d * rows, ...). The result has axes (..., i, ...): x's
    stack axes, the direction, then the axes of f's values.
    """
    tail = values.shape[1:]
    up_dn = np.moveaxis(values.reshape(h.shape + (2,) + tail), h.ndim, 0)
    return (up_dn[0] - up_dn[1]) / (2.0 * h).reshape(h.shape + (1,) * len(tail))


def _scalar_gradient(fn, x: np.ndarray, step: float = FIRST_DERIVATIVE_STEP) -> np.ndarray:
    """Central-difference gradient of fn at x (d,), or at every row of a stack x (k, d).

    fn maps a stack of points (m, d) to values (m, ...); the whole stencil
    goes to fn in one call. A vector-valued fn gives its transposed Jacobian,
    a matrix-valued one its d partials.
    """
    stencil, h = _central_stencil(x, step)
    return _central_difference(np.asarray(fn(stencil.reshape(-1, stencil.shape[-1]))), h)


def check_weight(a: Union[np.ndarray, Spectrum]) -> Spectrum:
    """Spectrum of a positive-definite base point; a Spectrum is checked as it is.

    A stack (..., n, n), or a stacked Spectrum, is checked matrix by matrix;
    the error names the first failing matrix by its stack index.
    """
    spec = a if isinstance(a, Spectrum) else spectral_decompose(a)
    if spec.eigenvalues.min(initial=np.inf) <= 0.0:  # an empty stack passes
        low = spec.eigenvalues.min(axis=-1)
        where, at = _first_in_stack(low <= 0.0)
        raise ValueError(
            f"not positive definite (off the positive cone){at}: "
            f"min eigenvalue {float(low[where]):.3e}"
        )
    return spec


def check_state(a: Union[np.ndarray, Spectrum]) -> Spectrum:
    """Spectrum of a density matrix (positive definite, unit trace within STATE_TRACE_TOL).

    Stacks are checked matrix by matrix, as in check_weight.
    """
    spec = check_weight(a)
    tr = spec.eigenvalues.sum(axis=-1)
    off = np.abs(tr - 1.0) > STATE_TRACE_TOL
    if off.any():
        where, at = _first_in_stack(off)
        raise ValueError(
            f"not a unit-trace state{at}: trace {float(tr[where])!r} is not 1 "
            f"within {STATE_TRACE_TOL:.1e}"
        )
    return spec


def _check_chart_guard(low: np.ndarray, theta: np.ndarray, rows=None) -> None:
    """Reject chart values whose smallest eigenvalues, ``low`` (one per row of theta (..., d)),
    fall below CHART_MIN_EIGENVALUE; the error names the first failing row's theta, and its
    stack index rows[k] when ``rows`` is given."""
    low = np.reshape(low, -1)
    bad = low < CHART_MIN_EIGENVALUE
    if bad.any():
        k = int(np.argmax(bad))
        theta = np.reshape(theta, (len(low), -1))[k]
        at = "" if rows is None else f"stack index {rows[k]}, "
        raise ValueError(
            f"chart evaluation failed at {at}theta={theta.tolist()}: chart output min "
            f"eigenvalue {float(low[k]):.3e} below guard {CHART_MIN_EIGENVALUE:.1e}"
        )


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector at a positive-matrix base point, in mixture form.

    ``mixture`` is the plain derivative of the point (the alpha = -1
    representation); other representations are derived from it on demand.
    """

    base: np.ndarray
    mixture: np.ndarray


def _check_base(v: TangentVector, point: np.ndarray, what: str) -> None:
    """Reject a tangent vector whose base is not ``point``; ``what`` names the point."""
    if np.abs(v.base - point).max() > _BASE_MATCH_TOL:
        raise ValueError(f"tangent vector base does not match {what}")


def weight_tangent(base: np.ndarray, mixture: np.ndarray) -> TangentVector:
    """Tangent vector at a weight-matrix point; mixture part self-adjoint."""
    return TangentVector(check_hermitian(base), check_hermitian(mixture))


def state_tangent(base: np.ndarray, mixture: np.ndarray) -> TangentVector:
    """Tangent vector at a density-matrix point; mixture part traceless."""
    base = check_hermitian(base)
    mixture = check_hermitian(mixture)
    tr = abs(complex(np.trace(mixture)))
    if tr > _TANGENT_TRACE_TOL:
        raise ValueError(
            f"mixture representation at a unit-trace base must be traceless; got trace {tr:.3e}"
        )
    return TangentVector(base, mixture)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha!r}")
    return alpha


def _check_orders(alpha):
    """One order checked as a float, or a sequence of them as a tuple of floats, each checked."""
    return tuple(map(_check_alpha, alpha)) if _is_stack(alpha) else _check_alpha(alpha)


def embedding_function(alpha) -> ScalarFunction:
    """Scalar profile of the order-alpha embedding.

    (2/(1-alpha)) * x^((1-alpha)/2) for |alpha| < 1; log at alpha = 1 and the
    identity at alpha = -1 (its formula limit).

    A sequence of k orders gives their profile stack, which lines up with the
    leading axis of its argument as a power stack does (``power_function``):
    row r takes order r, and an argument whose leading axis has length 1 gets
    every order, so ``f(x[None])`` gives every order at every point of x.
    Each row is bit for bit the value of its order's profile alone. The orders
    inside (-1, 1) are one power stack over arrays of exponents and scales;
    alpha = 1 and alpha = -1 are members of their own, each called once
    however often it repeats. Every order is checked before the profile is
    built, and a profile is built once per order or sequence of orders and
    then reused.
    """
    return _embedding_profile(_check_orders(alpha))


def inverse_embedding_function(alpha) -> ScalarFunction:
    """Inverse of the embedding profile: y maps back to the matrix eigenvalue. A sequence of
    orders gives their stack, lined up as in ``embedding_function``."""
    return _embedding_profile(_check_orders(alpha), inverse=True)


@functools.lru_cache(maxsize=256)
def _embedding_profile(alpha, inverse: bool = False) -> ScalarFunction:
    """embedding_function of one checked order or a tuple of them, or with ``inverse``
    inverse_embedding_function."""
    if isinstance(alpha, tuple):
        name = f"{'unembed' if inverse else 'embed'}({', '.join(map('{:g}'.format, alpha))})"
        rows = {1.0: [], -1.0: [], 0.0: []}  # log, identity and the powers inside (-1, 1)
        for r, a in enumerate(alpha):
            rows[a if abs(a) == 1.0 else 0.0].append(r)
        s = 0.5 * (1.0 - np.take(alpha, rows[0.0]))
        if inverse:  # each scale a Python pow, as one order takes it
            exponents, scales = 1.0 / s, [float(e) ** (1.0 / float(e)) for e in s]
        else:
            exponents, scales = s, 1.0 / s
        powers = power_function(exponents, scales, name)
        if len(s) == len(alpha):
            return powers
        at_one = exp_function() if inverse else log_function()
        parts = [(rows[0.0], powers), (rows[1.0], at_one), (rows[-1.0], identity_function())]
        return _function_stack([part for part in parts if part[0]], len(alpha), name)
    if alpha == 1.0:
        return exp_function() if inverse else log_function()
    if alpha == -1.0:
        return identity_function()
    s = 0.5 * (1.0 - alpha)
    if inverse:
        # (s*y)^(1/s) = s^(1/s) * y^(1/s)
        return power_function(1.0 / s, scale=s ** (1.0 / s), name=f"unembed({alpha:g})")
    return power_function(s, scale=1.0 / s, name=f"embed({alpha:g})")


def alpha_representation(v: TangentVector, alpha: float) -> np.ndarray:
    """Order-alpha representation of a tangent vector.

    The directional derivative of the embedding along the mixture part; at a
    unit-trace base the result satisfies Tr(rho^((1+alpha)/2) A) = 0.
    """
    alpha = _check_alpha(alpha)
    spec = check_weight(v.base)
    return frechet_derivative(spec, v.mixture, embedding_function(alpha))


def representation_convert(
    base: Union[np.ndarray, Spectrum], w: np.ndarray, from_alpha: float, to_alpha: float
) -> np.ndarray:
    """Convert a tangent representation between embedding orders at a base.

    Entrywise in the eigenbasis: divide by the divided-difference kernel of
    the source embedding, multiply by the target one. Both kernels are
    strictly positive, so the conversion is exactly invertible. The base may
    be given as its Spectrum; ``w`` may be a stack (..., n, n) at that base,
    converted with one pair of kernels.
    """
    spec = check_weight(base)
    k_from = divided_difference_matrix(spec.eigenvalues, embedding_function(from_alpha))
    k_to = divided_difference_matrix(spec.eigenvalues, embedding_function(to_alpha))
    wt = spec.to_eigenbasis(np.asarray(w, dtype=complex))
    out = spec.from_eigenbasis(wt / k_from * k_to)
    return _hermitize_self_adjoint(out, w)


def sphere_project(rho: Union[np.ndarray, Spectrum], alpha: float, a: np.ndarray) -> np.ndarray:
    """Project onto the tangent space of the embedded unit-trace manifold.

    Pi(A) = A - Tr(rho^((1+alpha)/2) A) * rho^((1-alpha)/2). Idempotent at a
    unit-trace base; defined for alpha in [-1, 1] (the +-1 limits use
    rho^0 = I on the corresponding side). The base may be given as its
    Spectrum; ``a`` may be a stack (..., n, n) at that base, projected with
    one pair of matrix powers.
    """
    a = check_hermitian(a)
    return _project_with(_sphere_powers(rho, alpha), a)


def _sphere_powers(rho: Union[np.ndarray, Spectrum], alpha: float) -> tuple:
    """(rho^((1+alpha)/2), rho^((1-alpha)/2)) at one unit-trace base or each base of a stack."""
    alpha = _check_alpha(alpha)
    spec = check_state(rho)
    plus, minus = power_function(0.5 * (1.0 + alpha)), power_function(0.5 * (1.0 - alpha))
    return apply_scalar_function(spec, plus), apply_scalar_function(spec, minus)


def _project_with(powers: tuple, a: np.ndarray) -> np.ndarray:
    """``sphere_project`` of the self-adjoint ``a`` with the base's ``_sphere_powers``."""
    p_plus, p_minus = powers
    coeff = np.trace(p_plus @ a, axis1=-2, axis2=-1).real
    return a - coeff[..., None, None] * p_minus


@dataclass(frozen=True)
class ChartJet:
    """A chart's value at theta and its derivatives up to an order, in the value's eigenbasis.

    ``theta`` (..., d); ``sigma`` (..., n, n) and its ``spectrum``, eigenvalues
    ascending and eigenvectors U; from order 1 ``tangents`` (..., d, n, n), U† d_i sigma U
    at [..., i]; at order 2 ``hessians`` (..., d, d, n, n), U† d_i d_j sigma U at [..., i, j].
    Derivatives past the order are None.
    """

    theta: np.ndarray
    sigma: np.ndarray
    spectrum: Spectrum
    tangents: Optional[np.ndarray] = None
    hessians: Optional[np.ndarray] = None

    def __getitem__(self, key) -> "ChartJet":
        """The jets at ``key`` on the stack axes: an index gives one, a slice a stack."""
        return ChartJet(
            self.theta[key],
            self.sigma[key],
            self.spectrum[key],
            *(None if a is None else a[key] for a in (self.tangents, self.hessians)),
        )


def _standard_basis(spec: Spectrum, eigenbasis: np.ndarray) -> np.ndarray:
    """U X U†, symmetrized, for a stack of eigenbasis matrices (..., k, n, n) or (..., k, l, n, n)
    at the point or points of ``spec``, eigenvalues (..., n)."""
    at = spec
    for _ in range(eigenbasis.ndim - spec.unitary.ndim):
        at = at.expand_dims()
    return hermitize(at.from_eigenbasis(eigenbasis))


@dataclass
class ParametrizedFamily:
    """A chart theta -> positive matrix, with its analytic derivatives.

    ``evaluate(theta, order)`` takes a parameter (d,) or a stack (m, d) and
    returns (sigma, Spectrum of sigma, tangents, hessians) as ``jet`` names
    them: derivatives in the eigenbasis of sigma, up to ``order`` (0, 1 or 2),
    and None past it. A stack is evaluated row by row with the same
    arithmetic. ``jet`` checks what it returns; every other face of the chart
    is a view of the jet. Charts must keep the spectrum above
    CHART_MIN_EIGENVALUE (domain guard). A chart that is not ``rowwise`` takes
    only whole stacks of the one size it was built for (its order varies by
    row), so ``jet`` cannot evaluate a row of them alone.
    """

    param_dim: int
    evaluate: Callable[[np.ndarray, int], tuple]
    rowwise: bool = True

    def jet(self, theta: np.ndarray, order: int = 0) -> ChartJet:
        """The ChartJet at theta (d,), or at every row of a stack (m, d), up to ``order``.

        Each sigma must be self-adjoint with its spectrum above the guard, which
        reads the Spectrum the chart returns. The error names the theta that
        fails, for a stack its first failing row (of a chart that is not ``rowwise``, the
        chart's own error names it).
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.ndim > 2 or theta.shape[-1] != self.param_dim:
            raise ValueError(
                f"parameter shape {theta.shape} does not match param_dim {self.param_dim}"
            )
        if order not in (0, 1, 2):
            raise ValueError(f"a chart jet has order 0, 1 or 2, got {order!r}")
        try:
            sigma, spec, tangents, hessians = self.evaluate(theta, order)
            sigma = check_hermitian(sigma)
            if sigma.shape[:-2] != theta.shape[:-1]:
                raise ValueError(
                    f"chart output shape {sigma.shape} does not follow the parameter stack"
                )
        except ValueError as exc:
            if theta.ndim == 2 and self.rowwise:
                for row in theta:  # the first failing row raises with its own theta
                    self.jet(row, order)
            raise ValueError(f"chart evaluation failed at theta={theta.tolist()}: {exc}") from exc
        _check_chart_guard(spec.eigenvalues.min(axis=-1), theta)
        return ChartJet(
            theta, sigma, spec, tangents if order >= 1 else None, hessians if order >= 2 else None
        )

    def point(self, theta: np.ndarray) -> np.ndarray:
        """Chart value at theta (d,), or at every row of a stack (m, d) as (m, n, n); checked as
        ``jet`` checks it."""
        return self.jet(theta).sigma

    def point_and_spectrum(self, theta: np.ndarray) -> tuple:
        """(theta as a float array, sigma, Spectrum of sigma) of the order-0 jet."""
        jet = self.jet(theta)
        return jet.theta, jet.sigma, jet.spectrum

    def tangent_matrices(self, theta: np.ndarray) -> np.ndarray:
        """All d partials of the chart at theta (d,), shape (d, n, n); (m, d) gives (m, d, n, n),
        in the standard basis: the order-1 jet's tangents rotated out of its eigenbasis."""
        jet = self.jet(theta, 1)
        return _standard_basis(jet.spectrum, jet.tangents)

    def hessians(self, theta: np.ndarray) -> np.ndarray:
        """Every second partial of the chart, (d, d, n, n) with d_i d_j sigma at [i, j]; (m, d)
        gives (m, d, d, n, n), in the standard basis: the order-2 jet's Hessians rotated out of
        its eigenbasis."""
        jet = self.jet(theta, 2)
        return _standard_basis(jet.spectrum, jet.hessians)

    def _check_directions(self, *indices: int) -> None:
        """Reject a direction index outside 0 <= i < param_dim, naming the first such index."""
        for i in indices:
            if not 0 <= i < self.param_dim:
                raise ValueError(
                    f"direction index {i} out of range for param_dim {self.param_dim}"
                )


@functools.cache
def _pairs(d: int) -> tuple:
    """np.triu_indices(d), the pairs i <= j of d chart directions, built once per d, read-only."""
    pairs = np.triu_indices(d)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _function_jet(lam: np.ndarray, f: ScalarFunction, tangents, order: int, hessians=None) -> tuple:
    """(K, first, second): the jet of theta -> f(sigma(theta)) from that of sigma, all in the
    eigenbasis of sigma, whose eigenvalues are lam (..., n); None past ``order``.

    K = f[λa, λb] (..., n, n); first[..., i] = K o T_i for the tangents T (..., d, n, n); and
    second[..., i, j] = Σ_k f[λa, λk, λb] (T_i T_j + T_j T_i)_akb + K o H_ij (..., d, d, n, n),
    with H the ``hessians`` of sigma (..., d, d, n, n), or none for a sigma linear in theta.
    The one home of the order-2 step: one K, one triple tensor and one contraction, each pair
    i <= j once and mirrored.
    """
    if order < 1:
        return None, None, None
    k = divided_difference_matrix(lam, f)
    first = k[..., None, :, :] * tangents
    if order < 2:
        return k, first, None
    d = tangents.shape[-3]
    i, j = _pairs(d)
    t = _triple_difference_tensor(lam, f, k)[..., None, :, :, :]
    products = _tangent_products(tangents[..., i, :, :], tangents[..., j, :, :])
    upper = _triple_contraction(t, products)
    if hessians is not None:
        upper = upper + k[..., None, :, :] * hessians[..., i, j, :, :]
    second = np.empty(upper.shape[:-3] + (d, d) + upper.shape[-2:], dtype=complex)
    second[..., i, j, :, :] = second[..., j, i, :, :] = upper
    return k, first, second


def basis_combination(xi: np.ndarray, basis) -> np.ndarray:
    """sum_i xi_i X_i, summed in basis order; coordinates (..., d) give matrices (..., n, n).

    ``basis`` is a sequence of d matrices, or a stack (..., d, n, n) whose
    leading axes broadcast against those of xi.
    """
    xi = np.asarray(xi, dtype=float)
    basis = np.asarray(basis)
    if xi.ndim < 1 or basis.ndim < 3 or xi.shape[-1] != basis.shape[-3]:
        raise ValueError(f"coordinate shape {xi.shape} does not match basis shape {basis.shape}")
    lead = np.broadcast_shapes(xi.shape[:-1], basis.shape[:-3])
    out = np.zeros(lead + basis.shape[-2:], dtype=complex)
    for k in range(basis.shape[-3]):
        out = out + xi[..., k, None, None] * basis[..., k, :, :]
    return out


def affine_coordinates(
    sigma: Union[np.ndarray, Spectrum], alpha: float, basis: Sequence[np.ndarray]
) -> np.ndarray:
    """Coordinates of the embedded matrix in a self-adjoint basis.

    Solves sum_i xi_i X_i = embed(sigma) through the basis Gram matrix;
    a singular Gram matrix is rejected. A stack of matrices (..., n, n), or
    its stacked Spectrum, gives coordinates (..., d), all solved with the one
    Gram matrix. ``alpha`` is one order, or a sequence of k orders lined up
    with the stack's leading axis as in ``embedding_function``: matrix r of a
    stack (k, n, n) is embedded in order alpha[r].
    """
    spec = check_weight(sigma)
    target = apply_scalar_function(spec, embedding_function(alpha))
    basis = np.asarray(basis)
    # Hilbert-Schmidt products Tr(X_i^dagger Y)
    gram = np.sum(basis.conj()[:, None] * basis[None, :], axis=(-2, -1)).real
    if np.linalg.cond(gram) > 1e12:
        raise ValueError("basis Gram matrix is singular or nearly so; need a linearly independent basis")
    rhs = np.sum(basis.conj() * target[..., None, :, :], axis=(-2, -1)).real
    return np.linalg.solve(gram, rhs[..., None])[..., 0]


def xi_affine_family(basis: Sequence[np.ndarray], alpha) -> ParametrizedFamily:
    """Chart in which the order-alpha embedding is linear: embed(sigma) = sum xi_i X_i.

    One decomposition of Y = sum xi_i X_i per xi, or per stack of xi (m, d),
    serves the chart and its jet: sigma = inverse(Y) has the eigenvectors U of
    Y and the eigenvalues inverse(μ), still ascending as the inverse profile
    increases. The tangents K o (U† X_i U) and the Hessians come from the
    inverse-embedding matrix calculus with one divided-difference matrix K.

    ``alpha`` may be a sequence of m orders, lined up with the parameter stack
    as in ``embedding_function``: the chart then takes stacks of m rows (m, d)
    only, row r in the chart of order alpha[r], each row bit for bit as that
    order's chart gives it, and every row from the one decomposition.
    """
    return _xi_affine_chart(check_hermitian(np.stack(basis)), alpha)


def _xi_affine_chart(basis: np.ndarray, alpha) -> ParametrizedFamily:
    """xi_affine_family of a basis stack (d, n, n) already checked self-adjoint."""
    inverse = inverse_embedding_function(alpha)
    # the exp inverse of the log embedding is defined on every self-adjoint y: its rows pass
    # the positivity check as +inf
    unbounded = (np.array(alpha, dtype=float) == 1.0)[..., None]

    def evaluate(xi, order):
        spec = spectral_decompose(basis_combination(xi, basis))
        # a stack of orders lines up with the rows here, so rows it does not fit fail first;
        # off the cone the values are not finite until the positivity check rejects them
        with np.errstate(all="ignore"):
            mu = inverse(spec.eigenvalues)
        check_weight(Spectrum(np.where(unbounded, np.inf, spec.eigenvalues), spec.unitary))
        sigma = apply_scalar_function(spec, inverse)
        directions = spec.expand_dims().to_eigenbasis(basis) if order >= 1 else None
        jet = _function_jet(spec.eigenvalues, inverse, directions, order)
        return (sigma, Spectrum(mu, spec.unitary)) + jet[1:]

    return ParametrizedFamily(param_dim=len(basis), evaluate=evaluate, rowwise=not _is_stack(alpha))


def linear_family(base: np.ndarray, directions: Sequence[np.ndarray]) -> ParametrizedFamily:
    """sigma(theta) = base + sum theta_k D_k with exact chart derivatives: one eigh of sigma
    rotates the fixed directions, and the Hessians are zero."""
    base = check_hermitian(np.array(base, dtype=complex))  # a copy, as np.stack makes one
    directions = check_hermitian(np.stack(directions))
    zero = np.zeros((len(directions),) + directions.shape, dtype=complex)  # (d, d, n, n)
    for a in (base, directions, zero):
        a.flags.writeable = False  # a chart may be shared, as the witness charts are

    def evaluate(theta, order):
        sigma = base + basis_combination(theta, directions)
        spec = Spectrum(*np.linalg.eigh(sigma))
        tangents = spec.expand_dims().to_eigenbasis(directions) if order >= 1 else None
        return sigma, spec, tangents, np.broadcast_to(zero, theta.shape[:-1] + zero.shape)

    return ParametrizedFamily(param_dim=len(directions), evaluate=evaluate)


def simplex_family(n: int) -> ParametrizedFamily:
    """Diagonal density chart p = (theta_1, ..., theta_{n-1}, 1 - sum theta)."""
    base = np.zeros((n, n), dtype=complex)
    base[n - 1, n - 1] = 1.0
    directions = []
    for i in range(n - 1):
        d = np.zeros((n, n), dtype=complex)
        d[i, i] = 1.0
        d[n - 1, n - 1] = -1.0
        directions.append(d)
    return linear_family(base, directions)
