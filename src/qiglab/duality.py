"""Numerical duality laboratory.

Defect functionals quantifying how far a metric/connection pair is from
duality, transport-based duality checks, a uniqueness falsification scan
over candidate kernels, the convex-combination comparison of connections,
flatness and path dependence of the transports, and the seeded witness
families the checks run on. The trace potential and dual coordinates are in
``potential``, and Gibbs families and the entropy projection in ``gibbs``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .bands import FALSIFICATION_GAP, POSITIVE_TOL, band
from .connections import (
    CurveSpec,
    _curve_stack,
    covariant_derivative_set,
    parallel_transport_on_M,
)
from .linalg import _triple_contraction, frechet_derivative, hermitize
from .manifold import (
    ParametrizedFamily,
    TangentVector,
    _standard_basis,
    affine_coordinates,
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
    _kernel_tables,
    _petz_coefficients,
    _tangent_gram,
    bkm_function,
    bures_function,
    builtin_functions,
    kernel_metric,
    petz_kernel,
    rld_function,
    wyd_direct,
    wyd_function,
)
from .sampling import (
    _random_weights,
    _simplex,
    hermitian_basis,
    pauli_matrices,
    random_state,
    random_traceless_hermitian,
    random_weight,
    rng_from,
)

__all__ = [
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
    "perturbed_wyd",
    "ScanEntry",
    "UniquenessScanResult",
    "uniqueness_scan",
    "ConvexityReport",
    "convexity_failure_check",
    "path_dependence_witness",
    "flatness_scan",
    "classical_reduction_check",
]

# The benchmark's span tracer looks these checks up in this module; each is loaded from its
# own module on first use, so importing duality does not load the potential or Gibbs code.
_ELSEWHERE = {
    "potential_check": "potential",
    "dual_coordinate_check": "potential",
    "entropy_projection": "gibbs",
}


def __getattr__(name: str):
    if name in _ELSEWHERE:
        return getattr(importlib.import_module(f".{_ELSEWHERE[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Witness families and grids


@dataclass(frozen=True)
class WitnessFamily:
    """A documented chart, its grids' parameter box, and on_extended: a positive-cone chart."""

    name: str
    family: ParametrizedFamily
    grid_halfwidth: float
    on_extended: bool


@cache
def qubit_bloch_family() -> ParametrizedFamily:
    """Full qubit chart rho = (I + theta . sigma)/2 (linear, analytic)."""
    i2, sx, sy, sz = pauli_matrices()
    return linear_family(0.5 * i2, [0.5 * sx, 0.5 * sy, 0.5 * sz])


@cache
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


@cache
def qubit_weight_family() -> ParametrizedFamily:
    """Full positive-cone qubit chart: a base drawn from seed 13 plus the Pauli basis/2."""
    rng = rng_from(13)
    base = random_weight(rng, 2, 0.8, 1.6)
    i2, sx, sy, sz = pauli_matrices()
    return linear_family(base, [0.5 * i2, 0.5 * sx, 0.5 * sy, 0.5 * sz])


@cache
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
    w = witness.grid_halfwidth
    return list(rng_from(seed).uniform(-w, w, size=(n_points, witness.family.param_dim)))


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
    scale: float
    defect: float
    per_triple: np.ndarray
    grid: tuple
    family_name: str = ""


def _pairings(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re sum_ab conj(x_r)_ab (y_s)_ab for every matrix x_r of x (k, m, r, n, n) and y_s of
    y (k, m, s, n, n), case by case and point by point: (k, m, r, s), from one matmul; the
    case and point axes broadcast."""
    n = x.shape[-1]
    return (x.reshape(x.shape[:2] + (-1, n * n)).conj()
            @ y.reshape(y.shape[:2] + (-1, n * n)).swapaxes(-1, -2)).real


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
    first use of an order, every order a ``defects`` call lacks, +-alpha for
    each alpha, in one covariant_derivative_set call over the whole grid.
    None of this depends on the kernel: ``_reports`` maps a battery's (c, c1)
    kernel tables to its reports, contracting over all its cases at once.

    The connections are the positive cone's flat ones. On a unit-trace chart that gives the
    state-manifold defect: the projected ones differ by a multiple of rho, and f(1) = 1 gives
    g_f(rho, T) = Tr T = 0 for every tangent T of the chart.
    """

    def __init__(self, family: ParametrizedFamily, grid: Sequence[np.ndarray]):
        self.family = family
        self.grid = tuple(np.atleast_1d(np.asarray(g, dtype=float)) for g in grid)
        if not self.grid:
            raise ValueError("a defect grid needs at least one point, got none")
        # one chart call, and the chart's one decomposition, for the whole grid
        self._jet = family.jet(np.stack(self.grid), 2)
        t = self._jet.tangents
        # (T_i)_am (T_k)_mb at axes (point, i, k, a, m, b): d^2 n^3 entries a point, where a
        # (point, d^3, n^3) tensor of all three tangents would take d^3 n^3
        self._tangent_pairs = t[:, :, None, :, :, None] * t[:, None, :, None, :, :]
        self._h_minus_nabla = {}

    def _connections(self, alphas: Sequence[float]) -> dict:
        """order -> H_ij - nabla^(order)_i T_j at every grid point in its eigenbasis, (points,
        d, d, n, n), for +-alpha of every alpha; the orders not yet built are one call."""
        missing = [a for a in dict.fromkeys(alphas + tuple(-a for a in alphas))  # -0.0 == 0.0
                   if a not in self._h_minus_nabla]
        if missing:
            sets = covariant_derivative_set(self._jet, missing, on_extended=True)
            self._h_minus_nabla.update((a, self._jet.hessians - n) for a, n in zip(missing, sets))
        return self._h_minus_nabla

    def defects(self, cases: Sequence[tuple]) -> list:
        """One DualityReport per (f, alpha, scale, family_name) case, bit for bit the one the
        case gets alone: the one-grid ``_defects``. Each distinct f, which must carry ``deriv``,
        is called once, and the kernels and contractions run once over a leading case axis."""
        return _defects([(self, cases)])[0]

    def _reports(self, c: np.ndarray, c1: np.ndarray, specs: list, cases: Sequence[tuple]) -> list:
        """One DualityReport per (f, alpha, scale, family_name) case, each f one of the K specs,
        from their kernel tables on this grid, c (K, points, n, n) and c1 (K, points, n, n, n)."""
        fs, alphas, scales, names = zip(*cases)
        alphas = tuple(map(float, alphas))
        nabla = self._connections(alphas)
        t = self._jet.tangents
        m, d = t.shape[:2]
        which = list(map(specs.index, fs))
        # Y_ik = sum_m c1_amb (T_i)_am (T_k)_mb, axes (case, point, i, k, a, b)
        y = _triple_contraction(c1[:, :, None, None], self._tangent_pairs)[which]
        c = c[which][:, :, None]
        plus = np.stack([nabla[a] for a in alphas])
        minus = np.stack([nabla[-a] for a in alphas])
        # d_i g_jk - g(nabla+_ij, T_k) - g(T_j, nabla-_ik) as the pairings with T_j,
        # 2 Re <T_j, Y_ik> + g(T_j, H_ik - nabla-_ik) at axes (case, point, j, i, k), plus
        # those with T_k, g(H_ij - nabla+_ij, T_k) at axes (case, point, i, j, k)
        with_tj = _pairings(t[None], 2.0 * y + c[:, :, None] * minus).reshape(-1, m, d, d, d)
        with_tk = _pairings(plus, c * t).reshape(-1, m, d, d, d)
        per_triple = np.reshape(scales, (-1, 1, 1, 1, 1)) * (with_tj.swapaxes(2, 3) + with_tk)
        worst = np.abs(per_triple).max(axis=(1, 2, 3, 4))
        return [
            DualityReport(f.name, alpha, scale, float(w), p, self.grid, name)
            for f, alpha, scale, name, w, p in zip(fs, alphas, scales, names, worst, per_triple)
        ]

    def defect(
        self, f: MonotoneFunctionSpec, alpha: float, scale: float = 1.0, family_name: str = ""
    ) -> DualityReport:
        """The one-case ``defects``: the f-metric against the (+alpha, -alpha) connections."""
        return self.defects([(f, alpha, scale, family_name)])[0]


def duality_defect(
    family: ParametrizedFamily,
    grid: Sequence[np.ndarray],
    f: MonotoneFunctionSpec,
    alpha: float,
    *,
    scale: float = 1.0,
    family_name: str = "",
) -> DualityReport:
    """Measure how far (f-metric, +-alpha connections) is from duality.

    For every grid point and coordinate triple (i, j, k):
    the i-derivative of g(T_j, T_k) minus g(nabla^(+alpha)_i T_j, T_k) minus
    g(T_j, nabla^(-alpha)_i T_k), with the flat connections: on a unit-trace
    chart, the state-manifold defect (see DefectGrid). The defect is linear in
    ``scale`` (scalar metric multiples) exactly. To check several kernels or
    alphas on one grid, build its DefectGrid once.
    """
    return DefectGrid(family, grid).defect(f, alpha, scale, family_name)


def _defects(batteries: Sequence[tuple]) -> list:
    """``DefectGrid.defects(cases)`` of each (grid, cases) battery, bit for bit where the grids
    share their f, from one kernel table of every f over all the grids, so each f must be
    positive on each grid. With several grids, a kernel error names the grid's family_name."""
    specs = list(dict.fromkeys(case[0] for _, cases in batteries for case in cases))
    if not specs:
        return [[] for _ in batteries]
    tables = _kernel_tables([grid._jet.spectrum[None] for grid, _ in batteries], specs, True,
                            [cases[0][3] for _, cases in batteries] if len(batteries) > 1 else ())
    return [grid._reports(c, c1, specs, cases) for (grid, cases), (c, c1) in zip(batteries, tables)]


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
        wyd = wyd_function(p)  # the matched profile and its multiple share one kernel
        bumps = [perturbed_wyd(p, a, float(rng.uniform(0.5, 1.2)), float(rng.uniform(0.3, 0.8)))
                 for a in (0.2, 0.3)]
        others = [bkm_function(), bures_function(), rld_function()] + bumps
        candidates = [(wyd, 1.0, True)] + [(f, 1.0, False) for f in others] + [(wyd, 3.0, True)]
    batteries = [(DefectGrid(w.family, sample_grid(w, seed, n_points)),
                  [(f, alpha, scale, w.name) for f, scale, _ in candidates]) for w in witnesses]
    worst = [0.0] * len(candidates)
    for reports in _defects(batteries):
        worst = [max(v, rep.defect) for v, rep in zip(worst, reports)]
    entries = [
        ScanEntry(f.name if scale == 1.0 else f"{scale:g}*{f.name}", v, band(v, tol, gap),
                  expected, scale)
        for (f, scale, expected), v in zip(candidates, worst)
    ]
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
# Convexity failure, flatness, path dependence, classical reduction


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

    The points are weights with spectrum in [0.5, 2], drawn in their rng order
    and evaluated in one jet. The second partials of the embedded chart come
    from the chart's analytic derivatives, so a flat chart reads at round-off
    and no discretization floor can mask a curved one.
    """
    basis = hermitian_basis(dim)
    xi = affine_coordinates(_random_weights([rng_from(seed)], 2, dim, 0.5, 2.0), alpha, basis)
    jet = xi_affine_family(basis, alpha).jet(xi, 2)
    nabla = covariant_derivative_set(jet, [alpha], on_extended=True)
    return float(np.linalg.norm(nabla, axis=(-2, -1)).max())


def classical_reduction_check(seed=0) -> dict:
    """On a diagonal chart every built-in metric is the classical Fisher form.

    Returns the worst deviation of each kernel metric matrix from the Fisher
    matrix and the worst alpha-dependence (alpha = -0.5, 0, 0.5) of the direct
    WYD pairing, over three seeded points of the qutrit simplex chart. One jet
    of the three points, and its one decomposition, serves every kernel and
    every WYD pairing.
    """
    dim = 3
    rng = rng_from(seed)
    p = _simplex(rng.standard_exponential((3, dim))) * 0.6 + 0.4 / dim  # interior
    jet = simplex_family(dim).jet(p[:, :-1], 1)
    spec = check_state(jet.spectrum)
    tangents = _standard_basis(jet.spectrum, jet.tangents)  # (point, i, n, n)
    dp = np.diagonal(tangents, axis1=-2, axis2=-1).real
    fisher = (dp / p[:, None]) @ dp.swapaxes(-1, -2)
    grams = _tangent_gram(jet.tangents, _petz_coefficients(jet.spectrum[None], builtin_functions()))
    # the direct pairings of every (T_i, T_j) at axes (alpha, point, i, j)
    at_pairs, a, b = spec.expand_dims().expand_dims(), tangents[:, :, None], tangents[:, None]
    direct = np.stack([wyd_direct(at_pairs, alpha, a, b) for alpha in (-0.5, 0.0, 0.5)])
    return {
        "max_fisher_dev": float(np.abs(grams - fisher).max()),
        "max_alpha_dev": float(np.abs(direct - fisher).max()),
    }
