"""Monotone metrics on positive matrices.

Operator monotone function specs with the Petz symmetry, the entrywise
metric kernels they induce, direct two-representation forms of the WYD and
BKM metrics, CPTP channels in Kraus form with a contraction (monotonicity)
check, and the relative entropy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .linalg import (
    CONFLUENT_RTOL,
    Spectrum,
    _dagger,
    _first_in_stack,
    check_hermitian,
    frechet_derivative,
    hermitize,
    spectral_decompose,
)
from .manifold import TangentVector, check_state, check_weight, embedding_function

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
    "depolarizing_channel",
    "partial_trace_channel",
    "random_stinespring_channel",
    "MonotonicityReport",
    "monotonicity_check",
    "relative_entropy",
]

# Dyadic grid on which the Petz symmetry f(t) = t f(1/t) is checked, to a
# relative tolerance; f(1) = 1 is checked to an absolute one.
_SYMMETRY_GRID = 2.0 ** np.arange(-6, 7)
_SYMMETRY_RTOL = 1e-10
_NORMALIZATION_TOL = 1e-12

_BASE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class MonotoneFunctionSpec:
    """A normalized symmetric function on (0, inf) defining a metric kernel.

    ``claimed_monotone`` records whether operator monotonicity is asserted
    (all built-ins) or the function is a deliberate falsification candidate.
    ``deriv``, when present, is f' and acts elementwise as ``fn`` does; the
    exact duality defect needs it (every built-in carries one).
    """

    name: str
    fn: Callable
    claimed_monotone: bool = True
    deriv: Optional[Callable] = None

    def __call__(self, x):
        return self.fn(x)


def validate_function_spec(spec: MonotoneFunctionSpec) -> MonotoneFunctionSpec:
    """Check f(1) = 1 and f(t) = t f(1/t) on the dyadic grid."""
    one = float(spec.fn(1.0))
    if abs(one - 1.0) > _NORMALIZATION_TOL:
        raise ValueError(f"{spec.name}: f(1) = {one!r} is not 1 within {_NORMALIZATION_TOL:.1e}")
    t = _SYMMETRY_GRID
    left = np.broadcast_to(np.asarray(spec.fn(t), dtype=float), t.shape)
    right = t * np.asarray(spec.fn(1.0 / t), dtype=float)
    scale = np.maximum(np.maximum(np.abs(left), np.abs(right)), 1.0)
    bad = np.abs(left - right) > _SYMMETRY_RTOL * scale
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"{spec.name}: symmetry f(t) = t f(1/t) fails at t = {float(t[k])!r}: "
            f"{float(left[k])!r} vs {float(right[k])!r}"
        )
    return spec


def _langevin(t):
    """coth t - 1/t elementwise; its Taylor series where |t| <= 0.05, where the two terms cancel.

    Every built-in profile is f(x) = sqrt(x) F(log x) with F even, and the
    logarithmic derivative of F is a sum of these; the series is cut after
    t^7, whose successor is below 1e-16 there.
    """
    t = np.asarray(t, dtype=float)
    small = np.abs(t) <= 0.05
    ts = np.where(small, 1.0, t)
    t2 = t * t
    series = t * (1.0 / 3.0 - t2 * (1.0 / 45.0 - t2 * (2.0 / 945.0 - t2 / 4725.0)))
    return np.where(small, series, 1.0 / np.tanh(ts) - 1.0 / ts)


def _scalar_out(out: np.ndarray):
    """An elementwise result as given, or a float for a scalar argument."""
    return out if out.ndim else float(out)


def wyd_function(p: float) -> MonotoneFunctionSpec:
    """WYD family f_p(x) = p(1-p)(x-1)^2 / ((x^p - 1)(x^(1-p) - 1)), p in (0, 1).

    The singularity at x = 1 is removable: f_p(1) = 1, f_p'(1) = 1/2. Near 1
    a second-order series is used; elsewhere the denominator is evaluated in
    expm1/log form, which stays exact for x^p close to 1.

    f_p(x) = sqrt(x) F(s) with s = log x and
    F(s) = p(1-p) sinh(s/2)^2 / (sinh(ps/2) sinh((1-p)s/2)), which is even in
    s. So f_p'(x) = (f_p(x)/x) (1/2 + L(s/2) - (p/2) L(ps/2) - ((1-p)/2) L((1-p)s/2))
    with L(t) = coth t - 1/t, free of the cancellation near x = 1 that the
    quotient's derivative has. Within the series window the derivative
    of the series continues to u^2: f_p'(1+u) = 1/2 - 2 c2 u + (3/2) c2 u^2,
    where the u^3 coefficient c3 = c2/2 of f_p follows from its Petz symmetry.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"wyd exponent p must lie in (0, 1), got {p!r}")
    q = 1.0 - p
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
        return _scalar_out(np.where(small, series, main))

    def deriv(x):
        x = np.asarray(x, dtype=float)
        u = x - 1.0
        small = np.abs(u) <= 1e-6
        xs = np.where(small, 2.0, x)
        with np.errstate(all="ignore"):
            h = 0.5 * np.log(xs)
            lv, lp, lq = _langevin(np.stack([h, p * h, q * h]))
            main = f(xs) / xs * (0.5 + lv - 0.5 * p * lp - 0.5 * q * lq)
        series = 0.5 - 2.0 * c2 * u + 1.5 * c2 * u * u
        return _scalar_out(np.where(small, series, main))

    return MonotoneFunctionSpec(f"wyd(p={p:g})", f, deriv=deriv)


def bkm_function() -> MonotoneFunctionSpec:
    """f(x) = (x - 1)/log x, the kernel profile of the BKM metric.

    f(x) = sqrt(x) sinh(s/2)/(s/2) with s = log x, so
    f'(x) = (f(x)/x) (1 + L(s/2))/2 with L(t) = coth t - 1/t.
    """

    def f(x):
        x = np.asarray(x, dtype=float)
        u = x - 1.0
        tiny = np.abs(u) <= 1e-14
        us = np.where(tiny, 1.0, u)
        with np.errstate(all="ignore"):
            main = us / np.log1p(us)
        return _scalar_out(np.where(tiny, 1.0 + 0.5 * u, main))

    def deriv(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return _scalar_out(0.5 * f(x) / x * (1.0 + _langevin(0.5 * np.log(x))))

    return MonotoneFunctionSpec("bkm", f, deriv=deriv)


def bures_function() -> MonotoneFunctionSpec:
    return MonotoneFunctionSpec(
        "bures", lambda x: 0.5 * (1.0 + x), deriv=lambda x: _scalar_out(np.full(np.shape(x), 0.5))
    )


def rld_function() -> MonotoneFunctionSpec:
    return MonotoneFunctionSpec(
        "rld", lambda x: 2.0 * x / (1.0 + x), deriv=lambda x: 2.0 / (1.0 + x) ** 2
    )


def builtin_functions(wyd_exponents: Iterable[float] = (0.25, 0.5, 0.75)) -> list:
    """Validated standard set: WYD at the requested exponents, BKM, Bures, RLD."""
    specs = [wyd_function(p) for p in wyd_exponents]
    specs += [bkm_function(), bures_function(), rld_function()]
    return [validate_function_spec(s) for s in specs]


@dataclass(frozen=True)
class MetricKernel:
    """Entrywise metric kernel in the eigenbasis of the base matrix.

    coefficients[i, j] = 1/(lambda_j f(lambda_i/lambda_j)); real, symmetric,
    strictly positive, with 1/lambda_i on the diagonal. For a stacked
    spectrum, eigenvalues (m, n), the coefficients are (m, n, n).
    """

    spectrum: Spectrum
    coefficients: np.ndarray


def petz_kernel(sigma: Union[np.ndarray, Spectrum], f: MonotoneFunctionSpec) -> MetricKernel:
    """Kernel of the monotone metric generated by f at a positive base.

    The base may be a stack (m, n, n) or a stacked Spectrum; f.fn is then
    called once, on every eigenvalue ratio of the stack, and each matrix gets
    the coefficients it gets alone. The error names the first failing matrix
    by its stack index.
    """
    spec = check_weight(sigma)
    lam = spec.eigenvalues
    ratio = lam[..., :, None] / lam[..., None, :]
    c = 1.0 / (lam[..., None, :] * np.asarray(f.fn(ratio), dtype=float))
    c = 0.5 * (c + c.swapaxes(-1, -2))  # symmetric up to round-off by the Petz symmetry of f
    bad = ~(np.isfinite(c) & (c > 0.0)).all(axis=(-2, -1))
    if bad.any():
        _, at = _first_in_stack(bad)
        raise ValueError(f"kernel of {f.name} is not strictly positive on this spectrum{at}")
    return MetricKernel(spec, c)


def _kernel_difference(kernel: MetricKernel, f: MonotoneFunctionSpec) -> np.ndarray:
    """c1[..., a, m, b] = (c_ab - c_mb)/(λa - λm): the first divided difference of the Petz
    kernel c(x, y) = 1/(y f(x/y)) of ``kernel`` in its first argument, (..., n, n, n).

    Where |λa - λm| <= CONFLUENT_RTOL * max(λa, λm), a = m included,
    it is the derivative at the midpoint instead: d1 c(x, y) = -f'(x/y) c(x, y)^2,
    taken as -f'(mid/λb) c_ab c_mb, second-order accurate in the gap. f must
    carry ``deriv``; a value that is not finite raises, naming the first failing matrix by its
    stack index.
    """
    if f.deriv is None:
        raise ValueError(f"{f.name}: the kernel's derivative needs f', and the spec has no deriv")
    lam = kernel.spectrum.eigenvalues
    la, lm, lb = lam[..., :, None, None], lam[..., None, :, None], lam[..., None, None, :]
    c = kernel.coefficients
    ca, cm = c[..., :, None, :], c[..., None, :, :]
    gap = la - lm
    confluent = np.abs(gap) <= CONFLUENT_RTOL * np.maximum(la, lm)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = (ca - cm) / gap
    midpoint = -np.asarray(f.deriv(0.5 * (la + lm) / lb), dtype=float) * ca * cm
    c1 = np.where(confluent, midpoint, quotient)
    bad = ~np.isfinite(c1).all(axis=(-3, -2, -1))
    if bad.any():
        _, at = _first_in_stack(bad)
        raise ValueError(f"{f.name}: the kernel's divided difference is not finite{at}")
    return c1


def _contract(coefficients: np.ndarray, at: np.ndarray, bt: np.ndarray):
    """sum conj(at) * c * bt over the last two axes, real part; a float for one matrix."""
    out = np.sum(at.conj() * coefficients * bt, axis=(-2, -1)).real
    return float(out) if out.ndim == 0 else out


def kernel_metric(kernel: MetricKernel, a: np.ndarray, b: np.ndarray) -> Union[float, np.ndarray]:
    """Pairing sum conj(a) c b of a and b in the eigenbasis of the kernel's base.

    A float for one matrix; for a stacked kernel, a and b are stacks (or one
    matrix for every base) and the result is an (m,) array.
    """
    spec = kernel.spectrum
    at = spec.to_eigenbasis(np.asarray(a, dtype=complex))
    bt = spec.to_eigenbasis(np.asarray(b, dtype=complex))
    return _contract(kernel.coefficients, at, bt)


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


def wyd_direct(rho: Union[np.ndarray, Spectrum], alpha: float, a, b) -> float:
    """WYD metric as the trace pairing of +-alpha representations.

    Tr(A^(alpha) B^(-alpha)); agrees with the kernel form for
    f = wyd_function((1+alpha)/2). |alpha| = 1 is rejected: use bkm_direct.
    rho is checked positive definite and may be given as its Spectrum; the
    arguments are as in metric_eval.
    """
    alpha = float(alpha)
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (-1, 1), got {alpha!r}; use bkm_direct for the limits")
    spec = check_weight(rho)
    ra = frechet_derivative(spec, _mixture_of(a, rho), embedding_function(alpha))
    rb = frechet_derivative(spec, _mixture_of(b, rho), embedding_function(-alpha))
    return float(np.trace(ra @ rb).real)


def bkm_direct(rho: Union[np.ndarray, Spectrum], a, b) -> float:
    """BKM metric: Tr(A^(-1) B^(+1)), the alpha -> +-1 limit of the WYD pairing.

    rho is checked positive definite and may be given as its Spectrum; the
    arguments are as in metric_eval.
    """
    spec = check_weight(rho)
    rb = frechet_derivative(spec, _mixture_of(b, rho), embedding_function(1.0))
    return float(np.trace(_mixture_of(a, rho) @ rb).real)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map as a tuple of Kraus operators.

    Each operator is (n_out, n_in), or a stack (m, n_out, n_in) for m
    channels with the same Kraus count; the completeness error names the
    first failing channel by its stack index.
    """

    kraus_ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) < 2 or any(k.shape != shape for k in ops):
            raise ValueError("all Kraus operators must share one shape, (..., n_out, n_in)")
        total = sum(_dagger(k) @ k for k in ops)
        dev = np.abs(total - np.eye(shape[-1])).max(axis=(-2, -1))
        bad = dev > 1e-10
        if bad.any():
            where, at = _first_in_stack(bad)
            raise ValueError(
                f"Kraus completeness sum deviates from identity by {dev[where]:.3e}{at}"
            )
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus_ops[0].shape[-1]

    @property
    def dim_out(self) -> int:
        return self.kraus_ops[0].shape[-2]


def apply_channel(channel: KrausChannel, x: np.ndarray) -> np.ndarray:
    """sum_k K_k x K_k†, summed in Kraus order; stacks of channels and of inputs broadcast."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (channel.dim_in, channel.dim_in):
        raise ValueError(f"input shape {x.shape} does not match channel input dim {channel.dim_in}")
    stack = np.broadcast_shapes(channel.kraus_ops[0].shape[:-2], x.shape[:-2])
    out = np.zeros(stack + (channel.dim_out, channel.dim_out), dtype=complex)
    for k in channel.kraus_ops:
        out += k @ x @ _dagger(k)
    return out


@functools.cache
def _weyl_operators(n: int) -> tuple:
    """shift^a clock^b for a, b < n; built on first use per n and shared read-only."""
    shift = np.zeros((n, n), dtype=complex)
    for k in range(n):
        shift[(k + 1) % n, k] = 1.0
    omega = np.exp(2j * np.pi / n)
    clock = np.diag(omega ** np.arange(n))
    ops = tuple(
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(n)
        for b in range(n)
    )
    for op in ops:
        op.setflags(write=False)
    return ops


def depolarizing_channel(n: int, t: Union[float, np.ndarray]) -> KrausChannel:
    """rho -> (1 - t) rho + t I/n, via the Weyl (shift/clock) Kraus set.

    An array of weights t, (m,), gives a stack of m channels; the error
    names the first weight outside [0, 1] by its stack index.
    """
    t = np.asarray(t, dtype=float)
    bad = ~((0.0 <= t) & (t <= 1.0))
    if bad.any():
        where, at = _first_in_stack(bad)
        raise ValueError(f"mixing weight t must lie in [0, 1], got {float(t[where])!r}{at}")
    w = _weyl_operators(n)
    lead = np.sqrt(1.0 - t + t / n**2)[..., None, None]
    amp = (np.sqrt(t) / n)[..., None, None]
    return KrausChannel((lead * w[0],) + tuple(amp * u for u in w[1:]))


def partial_trace_channel(dim_keep: int, dim_drop: int) -> KrausChannel:
    """Trace out the second tensor factor of dim_keep * dim_drop; Kraus ops are isometry slices."""
    ops = []
    for k in range(dim_drop):
        bra = np.zeros((1, dim_drop), dtype=complex)
        bra[0, k] = 1.0
        ops.append(np.kron(np.eye(dim_keep, dtype=complex), bra))
    return KrausChannel(tuple(ops))


def _stinespring_channels(re: np.ndarray, im: np.ndarray) -> KrausChannel:
    """Channels whose isometries are the Q factors of re + i im, (..., n*n, n), in one QR.

    Each isometry maps into output x environment, both of dimension n.
    """
    v, _ = np.linalg.qr(re + 1j * im)  # isometry: v† v = I
    n = v.shape[-1]
    return KrausChannel(tuple(v[..., k * n : (k + 1) * n, :] for k in range(n)))


def random_stinespring_channel(rng: np.random.Generator, n: int) -> KrausChannel:
    """Random channel on n x n matrices from a Haar-ish isometry into output x environment."""
    return _stinespring_channels(rng.standard_normal((n * n, n)), rng.standard_normal((n * n, n)))


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
    trial = _contraction_trials(
        [(channel, 0)],
        spec[None],
        point[None],
        mixture[None],
    )
    lhs, rhs = (float(v[0]) for v in trial.lengths(f))
    if trial.inconclusive[0]:
        return MonotonicityReport(lhs, rhs, float("nan"), True, True)
    return MonotonicityReport(lhs, rhs, rhs - lhs, bool(trial.regularized[0]), False)


@dataclass(frozen=True)
class _ContractionTrials:
    """Contraction trials of one input and one output dimension, ready for any kernel.

    ``state`` is the stacked Spectrum of the m input states and ``mixture``
    their directions in its eigenbasis. ``output`` and ``out_dir`` hold the
    same for the channel outputs of the conclusive trials only.
    ``regularized`` and ``inconclusive`` flag each of the m trials.
    """

    state: Spectrum
    mixture: np.ndarray
    output: Spectrum
    out_dir: np.ndarray
    regularized: np.ndarray
    inconclusive: np.ndarray

    def lengths(self, f: MonotoneFunctionSpec) -> tuple:
        """(lhs, rhs) of every trial under f from one Petz kernel per side.

        lhs is nan where the trial is inconclusive.
        """
        rhs = _contract(petz_kernel(self.state, f).coefficients, self.mixture, self.mixture)
        lhs = np.full(rhs.shape, np.nan)
        lhs[~self.inconclusive] = _contract(
            petz_kernel(self.output, f).coefficients, self.out_dir, self.out_dir
        )
        return lhs, rhs


def _contraction_trials(
    channels: Sequence[tuple], state: Spectrum, points: np.ndarray, mixtures: np.ndarray
) -> _ContractionTrials:
    """Push m trials through their channels, decompose the outputs once, rotate each direction once.

    Trial k sends the state ``points[k]``, whose Spectrum is row k of the
    stacked ``state``, and its direction ``mixtures[k]`` through its channel.
    ``channels`` pairs each channel, or stack of channels, with the rows of
    the trials it takes (an index or an index array); the rows cover every
    trial once, and every channel has the same input and output dimension.
    A singular output (min eigenvalue below 1e-12) is mixed with
    1e-10 * I/n_out: its eigenvalues shift and its eigenvectors stay. If it
    stays singular the trial is inconclusive.
    """
    n_out = channels[0][0].dim_out
    outputs = np.empty(points.shape[:-2] + (n_out, n_out), dtype=complex)
    out_dirs = np.empty_like(outputs)
    for channel, rows in channels:
        outputs[rows] = apply_channel(channel, points[rows])
        out_dirs[rows] = apply_channel(channel, mixtures[rows])
    out = spectral_decompose(hermitize(outputs))
    out_dir = out.to_eigenbasis(hermitize(out_dirs))
    lam = out.eigenvalues
    regularized = ~(lam.min(axis=-1) >= 1e-12)  # a NaN eigenvalue counts as singular
    lam = np.where(regularized[:, None], (lam + 1e-10 / lam.shape[-1]) / (1.0 + 1e-10), lam)
    inconclusive = lam.min(axis=-1) <= 0.0
    keep = ~inconclusive
    return _ContractionTrials(
        state,
        state.to_eigenbasis(mixtures),
        Spectrum(lam[keep], out.unitary[keep]),
        out_dir[keep],
        regularized,
        inconclusive,
    )


def relative_entropy(
    rho: Union[np.ndarray, Spectrum], sigma: Union[np.ndarray, Spectrum]
) -> Union[float, np.ndarray]:
    """S(rho | sigma) = Tr rho (log rho - log sigma); nonnegative, 0 iff equal.

    Either state may be given as its Spectrum. Stacks (m, n, n), or stacked
    Spectra, give an (m,) array; each state is checked as check_state checks it.
    """
    spec_r = check_state(rho)
    spec_s = check_state(sigma)
    log_r = (spec_r.unitary * np.log(spec_r.eigenvalues)[..., None, :]) @ _dagger(spec_r.unitary)
    log_s = (spec_s.unitary * np.log(spec_s.eigenvalues)[..., None, :]) @ _dagger(spec_s.unitary)
    out = np.trace(spec_r.matrix() @ (log_r - log_s), axis1=-2, axis2=-1).real
    return float(out) if out.ndim == 0 else out
