"""Numerical duality laboratory.

Defect functionals quantifying how far a metric/connection pair is from
duality, transport-based duality checks, the trace potential whose Hessian
reproduces the metric in affine coordinates, dual-coordinate and Legendre
verification, a uniqueness falsification scan over candidate kernels, the
convex-combination comparison of connections, Gibbs families with the
relative-entropy projection, and the seeded witness families and drivers the
CLI runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    Spectrum,
    _first_in_stack,
    _triple_contraction,
    apply_scalar_function,
    check_hermitian,
    divided_difference_matrix,
    exp_function,
    frechet_derivative,
    hermitize,
    log_function,
    spectral_decompose,
)
from .manifold import (
    ChartJet,
    ParametrizedFamily,
    TangentVector,
    _check_chart_guard,
    _function_jet,
    _scalar_gradient,
    _standard_basis,
    affine_coordinates,
    basis_combination,
    check_state,
    embedding_function,
    linear_family,
    representation_convert,
    simplex_family,
    state_tangent,
    xi_affine_family,
)
from .metrics import (
    MonotoneFunctionSpec,
    _contract,
    _contraction_trials,
    _kernel_difference,
    _stinespring_channels,
    bkm_direct,
    bkm_function,
    bures_function,
    builtin_functions,
    depolarizing_channel,
    kernel_metric,
    partial_trace_channel,
    petz_kernel,
    relative_entropy,
    rld_function,
    wyd_direct,
    wyd_function,
)
from .connections import (
    CurveSpec,
    _curve_stack,
    covariant_derivative_set,
    parallel_transport_on_M,
)
from .sampling import (
    _ginibre_draws,
    _state_draws,
    _states,
    _traceless_hermitians,
    hermitian_basis,
    pauli_matrices,
    random_state,
    random_traceless_hermitian,
    random_weight,
    rng_from,
)

__all__ = [
    "POSITIVE_TOL",
    "FALSIFICATION_GAP",
    "band",
    "matched_metric",
    "WitnessFamily",
    "qubit_bloch_family",
    "qutrit_state_family",
    "qubit_weight_family",
    "qutrit_weight_family",
    "standard_witness_families",
    "sample_grid",
    "DualityReport",
    "DefectGrid",
    "duality_defect",
    "TransportDualityReport",
    "transport_duality_check",
    "witness_curve",
    "potential_value",
    "PotentialReport",
    "potential_check",
    "DualCoordinateReport",
    "dual_coordinate_check",
    "perturbed_wyd",
    "ScanEntry",
    "UniquenessScanResult",
    "uniqueness_scan",
    "ConvexityReport",
    "convexity_failure_check",
    "path_dependence_witness",
    "flatness_scan",
    "GibbsFamily",
    "gibbs_family",
    "ProjectionReport",
    "entropy_projections",
    "entropy_projection",
    "relative_entropy_curvature_gap",
    "kernel_direct_consistency",
    "monotonicity_scan",
    "classical_reduction_check",
]

# Positive verification tolerance and the falsification gap (100x separation).
POSITIVE_TOL = 5e-5
FALSIFICATION_GAP = 1e-2


def band(value: float, tol: float, gap: float) -> str:
    """Verdict band of a value: "pass" up to tol, "fail" from gap on or at NaN, else
    "inconclusive"."""
    if value <= tol:
        return "pass"
    if value < gap:
        return "inconclusive"
    return "fail"


def matched_metric(alpha: float) -> MonotoneFunctionSpec:
    """Kernel profile of the order-alpha pairing: WYD at p = (1+alpha)/2, BKM at |alpha| = 1."""
    if abs(alpha) >= 1.0:
        return bkm_function()
    return wyd_function(0.5 * (1.0 + alpha))


# ---------------------------------------------------------------------------
# Witness families and grids


@dataclass(frozen=True)
class WitnessFamily:
    """A documented chart plus the parameter box its grids are drawn from."""

    name: str
    family: ParametrizedFamily
    grid_halfwidth: float
    on_extended: bool


def qubit_bloch_family() -> ParametrizedFamily:
    """Full qubit chart rho = (I + theta . sigma)/2 (linear, analytic)."""
    i2, sx, sy, sz = pauli_matrices()
    return linear_family(0.5 * i2, [0.5 * sx, 0.5 * sy, 0.5 * sz])


def qutrit_state_family() -> ParametrizedFamily:
    """Three-parameter qutrit sub-chart around a seeded interior base state.

    rho(theta) = rho0 + sum theta_k D_k with traceless directions of spectral
    norm 0.1, drawn from seed 11; the base state has spectral floor 0.25.
    """
    rng = rng_from(11)
    base = random_state(rng, 3, floor=0.25)
    directions = []
    for _ in range(3):
        d = random_traceless_hermitian(rng, 3)
        directions.append(d * (0.1 / np.linalg.norm(d, 2)))
    return linear_family(base, directions)


def qubit_weight_family() -> ParametrizedFamily:
    """Full positive-cone qubit chart: a base drawn from seed 13 plus the Pauli basis/2."""
    rng = rng_from(13)
    base = random_weight(rng, 2, 0.8, 1.6)
    i2, sx, sy, sz = pauli_matrices()
    return linear_family(base, [0.5 * i2, 0.5 * sx, 0.5 * sy, 0.5 * sz])


def qutrit_weight_family() -> ParametrizedFamily:
    """Three-parameter qutrit chart into the positive cone, drawn from seed 17."""
    rng = rng_from(17)
    base = random_weight(rng, 3, 0.8, 1.6)
    directions = []
    for _ in range(3):
        d = hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        directions.append(d * (0.25 / np.linalg.norm(d, 2)))
    return linear_family(base, directions)


def standard_witness_families(dim: int, manifold: str = "both") -> list:
    """The documented defect-scan families for a dimension.

    ``manifold`` selects unit-trace charts ("state"), positive-cone charts
    ("weight") or both; only the selected families are built.
    """
    if dim == 2:
        state = ("qubit-bloch", qubit_bloch_family, 0.35, False)
        weight = ("qubit-weight", qubit_weight_family, 0.4, True)
    elif dim == 3:
        state = ("qutrit-sub", qutrit_state_family, 0.5, False)
        weight = ("qutrit-weight", qutrit_weight_family, 0.4, True)
    else:
        raise ValueError(f"no documented witness families for dimension {dim}")
    chosen = {"state": [state], "weight": [weight], "both": [state, weight]}.get(manifold)
    if chosen is None:
        raise ValueError(f"manifold must be 'state', 'weight' or 'both', got {manifold!r}")
    return [WitnessFamily(name, build(), halfwidth, ext) for name, build, halfwidth, ext in chosen]


def sample_grid(witness: WitnessFamily, seed, n_points: int = 3) -> list:
    """Seeded parameter grid inside the witness box."""
    rng = rng_from(seed)
    w = witness.grid_halfwidth
    return [
        rng.uniform(-w, w, size=witness.family.param_dim) for _ in range(n_points)
    ]


# ---------------------------------------------------------------------------
# Duality defect


@dataclass(frozen=True)
class DualityReport:
    """Defect tensor of a (metric, +-alpha connection pair) on a grid.

    defect is the maximum absolute entry of per_triple, whose axes are
    (grid point, i, j, k) for
    d_i g(T_j, T_k) - g(D^(+a)_ij, T_k) - g(T_j, D^(-a)_ik).
    """

    metric_name: str
    alpha: float
    on_extended: bool
    scale: float
    defect: float
    per_triple: np.ndarray
    grid: tuple
    family_name: str = ""


def _tangent_gram(tangents: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """g_ab = sum conj(T_a) * c * T_b over eigenbasis tangents T and kernel coefficients c.

    Leading axes broadcast: tangents (..., d, n, n) against coefficients
    (..., n, n). Each pair a <= b is summed once and mirrored.
    """
    d = tangents.shape[-3]
    a, b = np.triu_indices(d)
    upper = _contract(coefficients[..., None, :, :], tangents[..., a, :, :], tangents[..., b, :, :])
    out = np.empty(upper.shape[:-1] + (d, d))
    out[..., a, b] = upper
    out[..., b, a] = upper
    return out


def _metric_matrix(jet: ChartJet, f: MonotoneFunctionSpec) -> np.ndarray:
    """g_ab = f-metric of the coordinate tangents d_a sigma, d_b sigma at the theta of a chart's
    jet of order at least 1, (d, d), or (m, d, d) for a stacked jet."""
    return _tangent_gram(jet.tangents, petz_kernel(jet.spectrum, f).coefficients)


def _pairings(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re sum_ab conj(x_r)_ab (y_s)_ab for every matrix x_r of x (m, r, n, n) and y_s of
    y (m, s, n, n), point by point: (m, r, s), from one matmul."""
    m, n = x.shape[0], x.shape[-1]
    return (x.reshape(m, -1, n * n).conj() @ y.reshape(m, -1, n * n).swapaxes(-1, -2)).real


class DefectGrid:
    """Connection geometry of a duality-defect grid, shared by every kernel and alpha.

    Built once per (family, grid) from one order-2 chart jet: the Spectrum of
    each grid point, its eigenbasis coordinate tangents T and chart Hessians
    H, and the kernel-free products (T_i)_am (T_k)_mb that d_i g_jk needs.

    d_i g_jk is exact, by the Daleckii-Krein rule for the kernel
    superoperator (Skripka-Tomskova, Multilinear Operator Integrals, LNM 2250):
    d_i g_jk = 2 Re sum_amb c1_amb (T_i)_am (T_k)_mb conj(T_j)_ab
    + g(H_ij, T_k) + g(T_j, H_ik), with c1 the first divided difference of the
    Petz kernel in its first argument (``metrics._kernel_difference``); the
    kernel's other argument gives the complex conjugate of the first term.

    H - nabla^(alpha)_i T_j at every point, in the eigenbasis, is built on
    first use, from one covariant_derivative_set call over the whole grid for
    both orders +-alpha: the pair at -+alpha shares the two sets, and alpha = 0
    needs one. None of this depends on the metric kernel, so ``defect`` builds
    one Petz kernel and its divided difference and contracts.
    """

    def __init__(
        self, family: ParametrizedFamily, grid: Sequence[np.ndarray], on_extended: bool = False
    ):
        self.family = family
        self.grid = tuple(np.atleast_1d(np.asarray(g, dtype=float)) for g in grid)
        if not self.grid:
            raise ValueError("a defect grid needs at least one point, got none")
        self.on_extended = on_extended
        # one chart call, and the chart's one decomposition, for the whole grid
        self._jet = family.jet(np.stack(self.grid), 2)
        t = self._jet.tangents
        # (T_i)_am (T_k)_mb at axes (point, i, k, a, m, b): d^2 n^3 entries a point, where a
        # (point, d^3, n^3) tensor of all three tangents would take d^3 n^3
        self._tangent_pairs = t[:, :, None, :, :, None] * t[:, None, :, None, :, :]
        self._h_minus_nabla = {}

    def _connections(self, alpha: float) -> tuple:
        """H_ij - nabla^(alpha)_i T_j and H_ij - nabla^(-alpha)_i T_j at every grid point in its
        eigenbasis, each of shape (points, d, d, n, n)."""
        orders = list(dict.fromkeys((alpha, -alpha)))  # -0.0 == 0.0: alpha = 0 needs one set
        if any(a not in self._h_minus_nabla for a in orders):
            sets = covariant_derivative_set(self._jet, orders, self.on_extended)
            self._h_minus_nabla.update((a, self._jet.hessians - n) for a, n in zip(orders, sets))
        return self._h_minus_nabla[alpha], self._h_minus_nabla[-alpha]

    def defect(
        self,
        f: MonotoneFunctionSpec,
        alpha: float,
        scale: float = 1.0,
        family_name: str = "",
    ) -> DualityReport:
        """Defect tensor of the f-metric against the (+alpha, -alpha) connections on this grid.

        f must carry ``deriv``, which the exact d_i g_jk takes its kernel's
        derivative from.
        """
        alpha = float(alpha)
        plus, minus = self._connections(alpha)
        kernel = petz_kernel(self._jet.spectrum, f)
        c1 = _kernel_difference(kernel, f)[:, None, None]
        c = kernel.coefficients[:, None]
        t = self._jet.tangents
        m, d = t.shape[:2]
        # Y_ik = sum_m c1_amb (T_i)_am (T_k)_mb, axes (point, i, k, a, b)
        y = _triple_contraction(c1, self._tangent_pairs)
        # d_i g_jk - g(nabla+_ij, T_k) - g(T_j, nabla-_ik) as the pairings with T_j,
        # 2 Re <T_j, Y_ik> + g(T_j, H_ik - nabla-_ik) at axes (point, j, i, k), plus those
        # with T_k, g(H_ij - nabla+_ij, T_k) at axes (point, i, j, k)
        with_tj = _pairings(t, 2.0 * y + c[:, None] * minus).reshape(m, d, d, d)
        with_tk = _pairings(plus, c * t).reshape(m, d, d, d)
        per_triple = scale * (with_tj.swapaxes(1, 2) + with_tk)
        return DualityReport(
            metric_name=f.name,
            alpha=alpha,
            on_extended=self.on_extended,
            scale=scale,
            defect=float(np.abs(per_triple).max()),
            per_triple=per_triple,
            grid=self.grid,
            family_name=family_name,
        )


def duality_defect(
    family: ParametrizedFamily,
    grid: Sequence[np.ndarray],
    f: MonotoneFunctionSpec,
    alpha: float,
    on_extended: bool = False,
    scale: float = 1.0,
    family_name: str = "",
) -> DualityReport:
    """Measure how far (f-metric, +-alpha connections) is from duality.

    For every grid point and coordinate triple (i, j, k):
    the i-derivative of g(T_j, T_k) minus g(nabla^(+alpha)_i T_j, T_k) minus
    g(T_j, nabla^(-alpha)_i T_k), with projected connections on the
    unit-trace manifold (default) or the flat ones on the positive cone.
    The defect is linear in ``scale`` (scalar metric multiples) exactly.
    To check several kernels or alphas on one grid, build its DefectGrid once.
    """
    return DefectGrid(family, grid, on_extended).defect(f, alpha, scale, family_name)


# ---------------------------------------------------------------------------
# Transport duality


@dataclass(frozen=True)
class TransportDualityReport:
    metric_name: str
    alpha: float
    initial_value: float
    deviation: float
    values: np.ndarray


def transport_duality_check(
    curve: CurveSpec,
    f: MonotoneFunctionSpec,
    alpha: float,
    y: TangentVector,
    z: TangentVector,
) -> TransportDualityReport:
    """Carry y by the +alpha transport and z by the -alpha transport along the
    curve and watch g(y(t), z(t)).

    The flat transports on the positive cone keep each alpha representation
    fixed, so every curve point is one stacked conversion and one stacked
    pairing. Under the matched WYD metric the pairing is constant to
    round-off; mismatched metrics drift.
    """
    alpha = float(alpha)
    _, spec = _curve_stack(curve, y, z)
    wy = frechet_derivative(spec[0], y.mixture, embedding_function(alpha))
    wz = frechet_derivative(spec[0], z.mixture, embedding_function(-alpha))
    my = representation_convert(spec[1:], wy, alpha, -1.0)
    mz = representation_convert(spec[1:], wz, -alpha, -1.0)
    values = kernel_metric(
        petz_kernel(spec, f),
        np.concatenate([y.mixture[None], my]),
        np.concatenate([z.mixture[None], mz]),
    )
    return TransportDualityReport(
        metric_name=f.name,
        alpha=alpha,
        initial_value=float(values[0]),
        deviation=float(np.abs(values - values[0]).max()),
        values=values,
    )


def witness_curve(step_count: int = 256) -> CurveSpec:
    """Documented qubit transport curve: Bloch segment (0.35,0,0) -> (0,0.35,0)."""
    family = qubit_bloch_family()
    a = np.array([0.35, 0.0, 0.0])
    b = np.array([0.0, 0.35, 0.0])
    return CurveSpec(family, lambda t: (1.0 - t) * a + t * b, step_count)


# ---------------------------------------------------------------------------
# Potential and dual coordinates


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


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_r . y_r of each row of two stacks (k, d), each summed as a 1-d ``x @ y`` sums it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _newton_steps(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """-H^-1 g of each row of a stack; a row whose Hessian is singular steps along -g."""
    try:
        return -np.linalg.solve(hessian, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.empty_like(grad)
        for r, (h, g) in enumerate(zip(hessian, grad)):
            try:
                steps[r] = -np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                steps[r] = -g
        return steps


def _damped_newton(evaluate, x, tol: float, max_iter: int, accepted=None):
    """Minimize smooth convex objectives by Newton steps with Armijo backtracking, row by row.

    x is a stack of starting points (k, d). ``evaluate`` is asked about some
    rows at a time: it takes their points (r, d) and their indices into the
    stack (r,), and returns their values (r,), gradients (r, d) and Hessians
    (r, d, d). It is asked once at each new point, so a step kept at its
    first trial costs one call; a row whose gradient reached ``tol`` is not
    evaluated again, and a row whose Hessian is singular steps along
    -gradient. Each row has its own convergence test, step length and
    iteration count. ``accepted``, when given, is called with the points
    (r, d) and indices (r,) of rows evaluated at their start and, after each
    pass, at the steps they keep; it may raise. A trial the line search
    rejects is not passed to it.

    A row keeps its step t without comparing values once the predicted
    decrease t * |slope| / 4 is within the slack, sixteen ulps of the value at
    the row's point: an objective known only to its rounding cannot confirm a
    smaller decrease, and halving t for it would stall the row (the trace
    potential of ``dual_coordinate_check`` reads up to about 8 ulps off).
    Other rows halve t until the Armijo test passes (or t falls below 1e-12).
    Convergence is the gradient test alone.

    Returns (x, value at x, gradient at x, iterations), iterations (k,): a
    row's count is max_iter when its gradient never reached ``tol``.
    """
    x = np.array(x, dtype=float)
    active = np.arange(len(x))
    value, grad, hess = (np.array(a, dtype=float) for a in evaluate(x, active))
    accepted = accepted or (lambda points, rows: None)
    accepted(x, active)
    iterations = np.zeros(len(x), dtype=int)

    def move(rows):  # rows (indices into active) to xa + t delta, evaluated there
        at = active[rows]
        x[at] = xa[rows] + t[rows, None] * delta[rows]
        value[at], grad[at], hess[at] = evaluate(x[at], at)

    for it in range(1, max_iter + 1):
        iterations[active] = it
        active = active[~(np.abs(grad[active]).max(axis=-1) <= tol)]
        if not active.size:
            break
        xa, f0 = x[active], value[active]
        delta = _newton_steps(hess[active], grad[active])
        slope = _row_dot(grad[active], delta)
        slack = 16.0 * np.spacing(np.abs(f0))
        t = np.ones(len(active))

        def measurable(rows):  # the predicted decrease t |slope| / 4 exceeds the slack
            return -0.25 * t[rows] * slope[rows] > slack[rows]

        trying = np.arange(len(active))  # rows whose step t is still being halved
        unevaluated = []  # rows whose last halved t is kept without a trial
        while trying.size:
            move(trying)
            tt = t[trying]
            trial = value[active[trying]]
            rejected = trial > f0[trying] + 0.25 * tt * slope[trying] + slack[trying]
            halved = trying[rejected & measurable(trying)]
            t[halved] *= 0.5
            trying = halved[measurable(halved) & (t[halved] > 1e-12)]
            unevaluated.append(np.setdiff1d(halved, trying))
        kept = np.concatenate(unevaluated)
        if kept.size:
            move(kept)
        accepted(x[active], active)
    return x, value, grad, iterations


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


# ---------------------------------------------------------------------------
# Uniqueness scan


def perturbed_wyd(
    p: float, amplitude: float = 0.2, center: float = 0.8, width: float = 0.5
) -> MonotoneFunctionSpec:
    """A symmetric, normalized but deliberately non-matching bump deformation.

    f_p(t) * (1 + a h(log t))/(1 + a h(0)) with h even, so the Petz symmetry
    and f(1) = 1 survive while the kernel genuinely changes.
    """
    base = wyd_function(p)

    def h(s):
        return np.exp(-((s - center) ** 2) / width) + np.exp(-((s + center) ** 2) / width)

    def dh(s):
        lo, hi = s - center, s + center
        return -2.0 / width * (lo * np.exp(-lo * lo / width) + hi * np.exp(-hi * hi / width))

    norm = 1.0 + amplitude * h(0.0)

    def f(x):
        x = np.asarray(x, dtype=float)
        out = base.fn(x) * (1.0 + amplitude * h(np.log(x))) / norm
        return out if out.ndim else float(out)

    def deriv(x):
        x = np.asarray(x, dtype=float)
        s = np.log(x)
        out = (base.deriv(x) * (1.0 + amplitude * h(s)) + base.fn(x) * amplitude * dh(s) / x) / norm
        return out if out.ndim else float(out)

    return MonotoneFunctionSpec(
        f"wyd(p={p:g})*bump(a={amplitude:g},c={center:g},w={width:g})",
        f,
        claimed_monotone=False,
        deriv=deriv,
    )


@dataclass(frozen=True)
class ScanEntry:
    name: str
    defect: float
    status: str  # "pass" | "fail" | "inconclusive"
    expected_dual: bool
    scale: float = 1.0


@dataclass(frozen=True)
class UniquenessScanResult:
    """Falsification battery outcome; never a proof of the converse.

    ``uniqueness_supported`` is true when every candidate expected to be dual
    passes, every other candidate lands beyond the falsification gap, and the
    matched WYD entry has the smallest defect.
    """

    alpha: float
    entries: tuple
    tol: float
    gap: float
    wyd_minimal: bool
    uniqueness_supported: bool
    seed: object = None

    @property
    def inconclusive_names(self) -> tuple:
        return tuple(e.name for e in self.entries if e.status == "inconclusive")


def uniqueness_scan(
    alpha: float,
    witnesses: Optional[Sequence[WitnessFamily]] = None,
    seed=7,
    n_points: int = 3,
    candidates: Optional[Sequence] = None,
    tol: float = POSITIVE_TOL,
    gap: float = FALSIFICATION_GAP,
) -> UniquenessScanResult:
    """Scan candidate kernels against the +-alpha connections.

    Candidates are (spec, scale, expected_dual) triples; the default battery
    holds the matched WYD profile, the other built-ins, two seeded bump
    perturbations, and a scalar multiple of the matched profile.
    """
    alpha = float(alpha)
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"uniqueness scan needs alpha strictly inside (-1, 1), got {alpha!r}")
    p = 0.5 * (1.0 + alpha)
    if witnesses is None:
        witnesses = standard_witness_families(2, "state") + standard_witness_families(3, "state")
    if candidates is None:
        rng = rng_from(seed)
        candidates = [
            (wyd_function(p), 1.0, True),
            (bkm_function(), 1.0, False),
            (bures_function(), 1.0, False),
            (rld_function(), 1.0, False),
            (
                perturbed_wyd(
                    p,
                    amplitude=0.2,
                    center=float(rng.uniform(0.5, 1.2)),
                    width=float(rng.uniform(0.3, 0.8)),
                ),
                1.0,
                False,
            ),
            (
                perturbed_wyd(
                    p,
                    amplitude=0.3,
                    center=float(rng.uniform(0.5, 1.2)),
                    width=float(rng.uniform(0.3, 0.8)),
                ),
                1.0,
                False,
            ),
            (wyd_function(p), 3.0, True),
        ]
    grids = [
        (w, DefectGrid(w.family, sample_grid(w, seed, n_points), w.on_extended))
        for w in witnesses
    ]
    entries = []
    for spec, scale, expected in candidates:
        worst = 0.0
        for w, grid in grids:
            worst = max(worst, grid.defect(spec, alpha, scale, w.name).defect)
        status = band(worst, tol, gap)
        name = spec.name if scale == 1.0 else f"{scale:g}*{spec.name}"
        entries.append(ScanEntry(name, worst, status, expected, scale))
    matched = [e for e in entries if e.expected_dual and e.scale == 1.0]
    wyd_minimal = bool(matched) and all(
        matched[0].defect <= e.defect for e in entries if e is not matched[0]
    )
    supported = (
        all(e.status == "pass" for e in entries if e.expected_dual)
        and all(e.status == "fail" for e in entries if not e.expected_dual)
        and wyd_minimal
    )
    return UniquenessScanResult(
        alpha=alpha,
        entries=tuple(entries),
        tol=tol,
        gap=gap,
        wyd_minimal=wyd_minimal,
        uniqueness_supported=supported,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Convexity failure, flatness, path dependence, trace identity


@dataclass(frozen=True)
class ConvexityReport:
    """Gap between the order-alpha connection and the convex combination."""

    alpha: float
    max_difference: float
    per_point: np.ndarray
    family_name: str = ""


def convexity_failure_check(
    alpha: float,
    family: ParametrizedFamily,
    grid: Sequence[np.ndarray],
    family_name: str = "",
) -> ConvexityReport:
    """Frobenius gap between the projected order-alpha covariant derivative
    and the ((1+alpha)/2, (1-alpha)/2) mixture of the order-(+-1) ones.

    The classical alpha-connection satisfies this convex-combination identity
    exactly: the gap is zero on commuting (diagonal) families and genuinely
    nonzero on noncommuting charts for 0 < |alpha| < 1. The grid is evaluated
    and decomposed once, and the three orders are one covariant-derivative
    set call over the whole grid; the norms are taken in each point's
    eigenbasis.
    """
    alpha = float(alpha)
    w_plus, w_minus = 0.5 * (1.0 + alpha), 0.5 * (1.0 - alpha)
    points = np.stack([np.atleast_1d(np.asarray(theta, dtype=float)) for theta in grid])
    direct, plus, minus = covariant_derivative_set(family.jet(points, 2), [alpha, 1.0, -1.0])
    diffs = np.linalg.norm(direct - (w_plus * plus + w_minus * minus), axis=(-2, -1))
    return ConvexityReport(
        alpha=alpha,
        max_difference=float(diffs.max()),
        per_point=diffs,
        family_name=family_name,
    )


def path_dependence_witness(alpha: float = 0.0, step_count: int = 256) -> float:
    """Projected-transport disagreement between two qubit paths.

    Transports the sigma_z/2 tangent from Bloch point (0.35, 0, 0) to
    (0, 0.35, 0) along the straight segment and along a detour through
    (0, 0, 0.35); returns the Frobenius distance of the end results.
    """
    straight = witness_curve(step_count)
    family = straight.family
    a, b = straight.path(0.0), straight.path(1.0)
    c = np.array([0.0, 0.0, 0.35])
    v = state_tangent(family.point(a), 0.5 * pauli_matrices()[3])

    def detour(t):
        if t <= 0.5:
            return (1.0 - 2.0 * t) * a + 2.0 * t * c
        return (2.0 - 2.0 * t) * c + (2.0 * t - 1.0) * b

    bent = CurveSpec(family, detour, step_count)
    w1 = parallel_transport_on_M(straight, v, alpha)
    w2 = parallel_transport_on_M(bent, v, alpha)
    return float(np.linalg.norm(w1.mixture - w2.mixture))


def flatness_scan(alpha: float, dim: int, seed=5) -> float:
    """Max flat-covariant-derivative norm over two seeded points of the affine chart.

    The points are weights with spectrum in [0.5, 2]. The second partials of
    the embedded chart come from the chart's analytic derivatives, so a flat
    chart reads at round-off and no discretization floor can mask a curved one.
    """
    rng = rng_from(seed)
    basis = hermitian_basis(dim)
    fam = xi_affine_family(basis, alpha)
    worst = 0.0
    for _ in range(2):
        sigma = random_weight(rng, dim, 0.5, 2.0)
        xi = affine_coordinates(sigma, alpha, basis)
        nabla = covariant_derivative_set(fam.jet(xi, 2), [alpha], on_extended=True)
        worst = max(worst, float(np.linalg.norm(nabla, axis=(-2, -1)).max()))
    return worst


# ---------------------------------------------------------------------------
# Gibbs families and the relative-entropy projection


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


# ---------------------------------------------------------------------------
# Criterion drivers


def kernel_direct_consistency(
    seed=0,
    dims: Sequence[int] = (2, 3, 4),
    alphas: Sequence[float] = (-0.9, -0.5, 0.0, 0.5, 0.9),
    samples: int = 50,
    floor: float = 0.05,
) -> list:
    """Compare the direct two-representation WYD pairing with the kernel form.

    Returns one row per (dim, alpha): the worst value of
    |direct - g(a, b)| / sqrt(g(a, a) g(b, b)) over the sampled (state,
    tangent, tangent) triples, with g the kernel metric of the matched
    profile f_p, p = (1+alpha)/2. The Cauchy-Schwarz scale bounds |g(a, b)|
    and does not vanish where a and b are nearly g-orthogonal; one Petz
    kernel per sample gives all three pairings.
    """
    rows = []
    for n in dims:
        for alpha in alphas:
            rng = rng_from([seed, n, int(round((alpha + 1) * 1000))])
            f = wyd_function(0.5 * (1.0 + alpha))
            worst = 0.0
            for _ in range(samples):
                rho = check_state(random_state(rng, n, floor))
                a = random_traceless_hermitian(rng, n)
                b = random_traceless_hermitian(rng, n)
                direct = wyd_direct(rho, alpha, a, b)
                at, bt = rho.to_eigenbasis(np.stack([a, b]))
                c = petz_kernel(rho, f).coefficients
                ab, aa, bb = _contract(c, np.stack([at, at, bt]), np.stack([bt, at, bt]))
                worst = max(worst, float(abs(direct - ab) / np.sqrt(aa * bb)))
            rows.append({"dim": n, "alpha": alpha, "max_rel_dev": worst, "samples": samples})
    return rows


def monotonicity_scan(seed=0, trials: int = 1000) -> list:
    """Monte-Carlo contraction margins for the built-in kernels.

    Each trial draws one of three channel kinds (depolarizing, random
    Stinespring, two-qubit partial trace) with a matching state and traceless
    tangent; the kernels (WYD at p = 0.2, 0.5, 0.8 with the other built-ins)
    are evaluated on the same seeded triples.
    """
    rng = rng_from(seed)
    # draw: each trial makes the rng calls of random_state, random_traceless_hermitian and its
    # channel builder, in that order; the linear algebra waits for the build
    kinds, groups = [], {}
    for t in range(trials):
        kind = int(rng.integers(0, 3))
        n = int(rng.integers(2, 4)) if kind < 2 else 4
        floor = 0.05 if kind == 2 else 0.1
        state = _state_draws(rng, n, floor)
        tangent = _ginibre_draws(rng, n)
        if kind == 0:
            param = float(rng.uniform(0.05, 0.95))
        elif kind == 1:
            param = (rng.standard_normal((n * n, n)), rng.standard_normal((n * n, n)))
        else:
            param = None
        kinds.append(kind)
        dims = (n, 2 if kind == 2 else n)
        groups.setdefault(dims, []).append((t, kind, floor, *state, *tangent, param))
    # build: one stacked call per layer and (input, output)-dimension group, one channel stack
    # per kind; states, outputs and rotated directions do not depend on the kernel, so one
    # stacked decomposition per group serves every kernel
    partial_trace = partial_trace_channel(2, 2)
    stacks = []
    for group in groups.values():
        index, kind, floor, weights, g_re, g_im, a_re, a_im, params = zip(*group)
        kind = np.array(kind)
        n = len(weights[0])
        rho = _states(np.stack(weights), np.array(floor)[:, None], np.stack(g_re), np.stack(g_im))
        channels = []
        for k in np.unique(kind):
            members = np.flatnonzero(kind == k)
            drawn = [params[r] for r in members]
            if k == 0:
                channel = depolarizing_channel(n, np.array(drawn))
            elif k == 1:
                channel = _stinespring_channels(*(np.stack(part) for part in zip(*drawn)))
            else:
                channel = partial_trace
            channels.append((channel, members))
        a = _traceless_hermitians(np.stack(a_re), np.stack(a_im))
        stacks.append((np.array(index), _contraction_trials(channels, check_state(rho), rho, a)))
    regularized = np.zeros(trials, dtype=bool)
    inconclusive = np.zeros(trials, dtype=bool)
    for index, stack in stacks:
        regularized[index] = stack.regularized
        inconclusive[index] = stack.inconclusive
    conclusive = ~inconclusive
    depolarizing = conclusive & (np.array(kinds, dtype=int) == 0)
    rows = []
    for f in builtin_functions(wyd_exponents=(0.2, 0.5, 0.8)):
        margin = np.empty(trials)
        for index, stack in stacks:
            lhs, rhs = stack.lengths(f)
            margin[index] = rhs - lhs
        rows.append(
            {
                "metric": f.name,
                "trials": trials,
                # builtin min keeps the first of equal minima (0.0, -0.0) in trial order
                "min_margin": float(min(margin[conclusive], default=np.inf)),
                "depolarizing_strict_fraction": int(np.sum(margin[depolarizing] > 0.0))
                / max(int(np.sum(depolarizing)), 1),
                "regularized": int(np.sum(regularized & conclusive)),
                "inconclusive": int(np.sum(inconclusive)),
            }
        )
    return rows


def classical_reduction_check(seed=0) -> dict:
    """On a diagonal chart every built-in metric is the classical Fisher form.

    Returns the worst deviation of each kernel metric matrix from the Fisher
    matrix and the worst alpha-dependence (alpha = -0.5, 0, 0.5) of the direct
    WYD pairing, over three seeded points of the qutrit simplex chart.
    """
    dim = 3
    rng = rng_from(seed)
    fam = simplex_family(dim)
    d = fam.param_dim
    worst_metric = 0.0
    worst_alpha = 0.0
    for _ in range(3):
        p = rng.dirichlet(np.ones(dim)) * 0.6 + 0.4 / dim  # interior simplex point
        theta = p[:-1]
        # one decomposition of the point serves every kernel and every WYD pairing
        jet = fam.jet(theta, 1)
        spec = check_state(jet.spectrum)
        tangents = _standard_basis(jet.spectrum, jet.tangents)
        dp = np.diagonal(tangents, axis1=-2, axis2=-1).real
        fisher = (dp / p) @ dp.T
        for f in builtin_functions():
            worst_metric = max(worst_metric, float(np.abs(_metric_matrix(jet, f) - fisher).max()))
        for alpha in (-0.5, 0.0, 0.5):
            for i in range(d):
                for j in range(d):
                    g = wyd_direct(spec, alpha, tangents[i], tangents[j])
                    worst_alpha = max(worst_alpha, abs(g - fisher[i, j]))
    return {"max_fisher_dev": worst_metric, "max_alpha_dev": worst_alpha}
