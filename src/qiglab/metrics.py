"""Monotone metrics on positive matrices.

Operator monotone function specs with the Petz symmetry, the entrywise
metric kernels they induce, direct two-representation forms of the WYD and
BKM metrics, CPTP channels in Kraus form with a contraction (monotonicity)
check, and the entropy functionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .linalg import Spectrum, check_hermitian, hermitize, spectral_decompose
from .manifold import TangentVector, alpha_representation, check_state, check_weight

__all__ = [
    "MonotoneFunctionSpec",
    "validate_function_spec",
    "wyd_function",
    "bkm_function",
    "bures_function",
    "rld_function",
    "builtin_functions",
    "MetricKernel",
    "petz_kernel",
    "kernel_metric",
    "metric_eval",
    "wyd_direct",
    "bkm_direct",
    "KrausChannel",
    "apply_channel",
    "identity_channel",
    "depolarizing_channel",
    "partial_trace_channel",
    "random_stinespring_channel",
    "MonotonicityReport",
    "monotonicity_check",
    "von_neumann_entropy",
    "relative_entropy",
]

# Dyadic grid on which the Petz symmetry f(t) = t f(1/t) is checked.
_SYMMETRY_GRID = 2.0 ** np.arange(-6, 7)

_BASE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class MonotoneFunctionSpec:
    """A normalized symmetric function on (0, inf) defining a metric kernel.

    ``claimed_monotone`` records whether operator monotonicity is asserted
    (all built-ins) or the function is a deliberate falsification candidate.
    """

    name: str
    fn: Callable
    claimed_monotone: bool = True

    def __call__(self, x):
        return self.fn(x)


def validate_function_spec(
    spec: MonotoneFunctionSpec,
    symmetry_rtol: float = 1e-10,
    normalization_tol: float = 1e-12,
) -> MonotoneFunctionSpec:
    """Check f(1) = 1 and f(t) = t f(1/t) on the dyadic grid."""
    one = float(spec.fn(1.0))
    if abs(one - 1.0) > normalization_tol:
        raise ValueError(f"{spec.name}: f(1) = {one!r} is not 1 within {normalization_tol:.1e}")
    for t in _SYMMETRY_GRID:
        left = float(spec.fn(t))
        right = t * float(spec.fn(1.0 / t))
        if abs(left - right) > symmetry_rtol * max(abs(left), abs(right), 1.0):
            raise ValueError(
                f"{spec.name}: symmetry f(t) = t f(1/t) fails at t = {t!r}: "
                f"{left!r} vs {right!r}"
            )
    return spec


def wyd_function(p: float) -> MonotoneFunctionSpec:
    """WYD family f_p(x) = p(1-p)(x-1)^2 / ((x^p - 1)(x^(1-p) - 1)), p in (0, 1).

    The singularity at x = 1 is removable: f_p(1) = 1, f_p'(1) = 1/2. Near 1
    a second-order series is used; elsewhere the denominator is evaluated in
    expm1/log form, which stays exact for x^p close to 1.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"wyd exponent p must lie in (0, 1), got {p!r}")
    c2 = (p * p - p + 1.0) / 12.0

    def f(x):
        x = np.asarray(x, dtype=float)
        u = x - 1.0
        small = np.abs(u) <= 1e-6
        xs = np.where(small, 2.0, x)
        with np.errstate(all="ignore"):
            lg = np.log(xs)
            den = np.expm1(p * lg) * np.expm1((1.0 - p) * lg)
            main = p * (1.0 - p) * (xs - 1.0) ** 2 / den
        series = 1.0 + 0.5 * u - c2 * u * u
        out = np.where(small, series, main)
        return out if out.ndim else float(out)

    return MonotoneFunctionSpec(f"wyd(p={p:g})", f)


def bkm_function() -> MonotoneFunctionSpec:
    """f(x) = (x - 1)/log x, the kernel profile of the BKM metric."""

    def f(x):
        x = np.asarray(x, dtype=float)
        u = x - 1.0
        tiny = np.abs(u) <= 1e-14
        us = np.where(tiny, 1.0, u)
        with np.errstate(all="ignore"):
            main = us / np.log1p(us)
        out = np.where(tiny, 1.0 + 0.5 * u, main)
        return out if out.ndim else float(out)

    return MonotoneFunctionSpec("bkm", f)


def bures_function() -> MonotoneFunctionSpec:
    return MonotoneFunctionSpec("bures", lambda x: 0.5 * (1.0 + x))


def rld_function() -> MonotoneFunctionSpec:
    return MonotoneFunctionSpec("rld", lambda x: 2.0 * x / (1.0 + x))


def builtin_functions(wyd_exponents: Iterable[float] = (0.25, 0.5, 0.75)) -> list:
    """Validated standard set: WYD at the requested exponents, BKM, Bures, RLD."""
    specs = [wyd_function(p) for p in wyd_exponents]
    specs += [bkm_function(), bures_function(), rld_function()]
    return [validate_function_spec(s) for s in specs]


@dataclass(frozen=True)
class MetricKernel:
    """Entrywise metric kernel in the eigenbasis of the base matrix.

    coefficients[i, j] = 1/(lambda_j f(lambda_i/lambda_j)); real, symmetric,
    strictly positive, with 1/lambda_i on the diagonal.
    """

    spectrum: Spectrum
    coefficients: np.ndarray


def petz_kernel(sigma: Union[np.ndarray, Spectrum], f: MonotoneFunctionSpec) -> MetricKernel:
    """Kernel of the monotone metric generated by f at a positive base."""
    spec = check_weight(sigma)
    lam = spec.eigenvalues
    ratio = lam[:, None] / lam[None, :]
    c = 1.0 / (lam[None, :] * np.asarray(f.fn(ratio), dtype=float))
    c = 0.5 * (c + c.T)  # symmetric up to round-off by the Petz symmetry of f
    if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
        raise ValueError(f"kernel of {f.name} is not strictly positive on this spectrum")
    return MetricKernel(spec, c)


def kernel_metric(kernel: MetricKernel, a: np.ndarray, b: np.ndarray) -> float:
    spec = kernel.spectrum
    at = spec.to_eigenbasis(np.asarray(a, dtype=complex))
    bt = spec.to_eigenbasis(np.asarray(b, dtype=complex))
    return float(np.sum(at.conj() * kernel.coefficients * bt).real)


def _mixture_of(arg, base: Union[np.ndarray, Spectrum]) -> np.ndarray:
    """Mixture part of a metric argument: a TangentVector at ``base`` or a self-adjoint matrix."""
    if not isinstance(arg, TangentVector):
        return check_hermitian(arg)
    point = base.matrix() if isinstance(base, Spectrum) else base
    if np.abs(arg.base - point).max() > _BASE_MATCH_TOL:
        raise ValueError("tangent vector base does not match the metric base point")
    return arg.mixture


def metric_eval(sigma: Union[np.ndarray, Spectrum], f: MonotoneFunctionSpec, a, b) -> float:
    """Monotone-metric pairing of two mixture representations at sigma.

    sum_ij conj(a[i,j]) c[i,j] b[i,j] in the eigenbasis of sigma; symmetric
    in (a, b) and positive definite. sigma may be given as its Spectrum.
    Arguments may be TangentVector (base is then checked against sigma) or
    plain self-adjoint matrices.
    """
    kernel = petz_kernel(sigma, f)
    return kernel_metric(kernel, _mixture_of(a, sigma), _mixture_of(b, sigma))


def wyd_direct(rho: np.ndarray, alpha: float, a: TangentVector, b: TangentVector) -> float:
    """WYD metric as the trace pairing of +-alpha representations.

    Tr(A^(alpha) B^(-alpha)); agrees with the kernel form for
    f = wyd_function((1+alpha)/2). |alpha| = 1 is rejected: use bkm_direct.
    """
    alpha = float(alpha)
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (-1, 1), got {alpha!r}; use bkm_direct for the limits")
    rho = check_hermitian(rho)
    ra = alpha_representation(TangentVector(rho, _mixture_of(a, rho)), alpha)
    rb = alpha_representation(TangentVector(rho, _mixture_of(b, rho)), -alpha)
    return float(np.trace(ra @ rb).real)


def bkm_direct(rho: np.ndarray, a: TangentVector, b: TangentVector) -> float:
    """BKM metric: Tr(A^(-1) B^(+1)), the alpha -> +-1 limit of the WYD pairing."""
    rho = check_hermitian(rho)
    ra = _mixture_of(a, rho)
    rb = alpha_representation(TangentVector(rho, _mixture_of(b, rho)), 1.0)
    return float(np.trace(ra @ rb).real)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map as a tuple of Kraus operators."""

    kraus_ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.abs(total - np.eye(shape[1])).max())
        if dev > 1e-10:
            raise ValueError(f"Kraus completeness sum deviates from identity by {dev:.3e}")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus_ops[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus_ops[0].shape[0]


def apply_channel(channel: KrausChannel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (channel.dim_in, channel.dim_in):
        raise ValueError(f"input shape {x.shape} does not match channel input dim {channel.dim_in}")
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for k in channel.kraus_ops:
        out += k @ x @ k.conj().T
    return out


def identity_channel(n: int) -> KrausChannel:
    return KrausChannel((np.eye(n, dtype=complex),))


def _weyl_operators(n: int) -> list:
    shift = np.zeros((n, n), dtype=complex)
    for k in range(n):
        shift[(k + 1) % n, k] = 1.0
    omega = np.exp(2j * np.pi / n)
    clock = np.diag(omega ** np.arange(n))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(n)
        for b in range(n)
    ]


def depolarizing_channel(n: int, t: float) -> KrausChannel:
    """rho -> (1 - t) rho + t I/n, via the Weyl (shift/clock) Kraus set."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"mixing weight t must lie in [0, 1], got {t!r}")
    ops = []
    w = _weyl_operators(n)
    lead = np.sqrt(1.0 - t + t / n**2)
    ops.append(lead * w[0])
    amp = np.sqrt(t) / n
    ops.extend(amp * u for u in w[1:])
    return KrausChannel(tuple(ops))


def partial_trace_channel(dim_keep: int, dim_drop: int, keep_first: bool = True) -> KrausChannel:
    """Trace out one tensor factor of dim_keep * dim_drop; Kraus ops are isometry slices."""
    ops = []
    for k in range(dim_drop):
        bra = np.zeros((1, dim_drop), dtype=complex)
        bra[0, k] = 1.0
        ops.append(np.kron(np.eye(dim_keep, dtype=complex), bra) if keep_first else np.kron(bra, np.eye(dim_keep, dtype=complex)))
    return KrausChannel(tuple(ops))


def random_stinespring_channel(
    rng: np.random.Generator, dim_in: int, dim_out: int = None, env_dim: int = None
) -> KrausChannel:
    """Random channel from a Haar-ish isometry into output x environment."""
    dim_out = dim_out or dim_in
    env_dim = env_dim or dim_in
    z = rng.standard_normal((dim_out * env_dim, dim_in)) + 1j * rng.standard_normal(
        (dim_out * env_dim, dim_in)
    )
    v, _ = np.linalg.qr(z)  # isometry: v† v = I
    ops = tuple(v[k * dim_out : (k + 1) * dim_out, :] for k in range(env_dim))
    return KrausChannel(ops)


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of one contraction check; margin = before - after."""

    lhs: float
    rhs: float
    margin: float
    regularized: bool
    inconclusive: bool


def monotonicity_check(
    f: MonotoneFunctionSpec,
    rho: Union[np.ndarray, Spectrum],
    a: TangentVector,
    channel: KrausChannel,
) -> MonotonicityReport:
    """Compare the metric length of a tangent before and after a channel.

    lhs = metric at S(rho) of the pushed-forward mixture part, rhs = metric
    at rho; for an operator monotone f the margin rhs - lhs is nonnegative.
    A singular channel output is mixed with 1e-10 * I/n and flagged; if it
    stays singular the report is inconclusive, not an error. rho may be
    given as its Spectrum.
    """
    spec = check_state(rho)
    point = spec.matrix() if isinstance(rho, Spectrum) else rho
    mixture = _mixture_of(a, point)
    return _contraction_report(f, spec, mixture, _push_forward(channel, point, mixture))


def _push_forward(channel: KrausChannel, rho: np.ndarray, mixture: np.ndarray) -> tuple:
    """(output Spectrum, output direction, regularized) of a state and a direction.

    Mixing a singular output with 1e-10 * I/n shifts its eigenvalues and keeps
    its eigenvectors; if it stays singular the Spectrum is None.
    """
    out = spectral_decompose(hermitize(apply_channel(channel, rho)))
    out_dir = hermitize(apply_channel(channel, mixture))
    lam = out.eigenvalues
    if float(lam.min()) >= 1e-12:
        return out, out_dir, False
    lam = (lam + 1e-10 / lam.shape[0]) / (1.0 + 1e-10)
    if float(lam.min()) <= 0.0:
        return None, out_dir, True
    return Spectrum(lam, out.unitary), out_dir, True


def _contraction_report(
    f: MonotoneFunctionSpec, rho: Spectrum, mixture: np.ndarray, pushed: tuple
) -> MonotonicityReport:
    """Contraction margin of one kernel; ``pushed`` (from _push_forward) does not depend on f."""
    out, out_dir, regularized = pushed
    rhs = kernel_metric(petz_kernel(rho, f), mixture, mixture)
    if out is None:
        return MonotonicityReport(float("nan"), rhs, float("nan"), True, True)
    lhs = kernel_metric(petz_kernel(out, f), out_dir, out_dir)
    return MonotonicityReport(lhs, rhs, rhs - lhs, regularized, False)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr(rho log rho)."""
    lam = check_state(rho).eigenvalues
    return float(-np.sum(lam * np.log(lam)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho | sigma) = Tr rho (log rho - log sigma); nonnegative, 0 iff equal."""
    spec_r = check_state(rho)
    spec_s = check_state(sigma)
    log_r = (spec_r.unitary * np.log(spec_r.eigenvalues)) @ spec_r.unitary.conj().T
    log_s = (spec_s.unitary * np.log(spec_s.eigenvalues)) @ spec_s.unitary.conj().T
    return float(np.trace(spec_r.matrix() @ (log_r - log_s)).real)
