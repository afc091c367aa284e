"""Monotone metrics on positive matrices.

Operator monotone function specs with the Petz symmetry, the entrywise
metric kernels they induce, direct two-representation forms of the WYD and
BKM metrics, and the relative entropy. Channels and the contraction check
are in ``monotonicity``.
"""

from __future__ import annotations

import importlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .linalg import (
    CONFLUENT_RTOL,
    Spectrum,
    _check_stack,
    _dagger,
    _first_in_stack,
    check_hermitian,
    frechet_derivative,
)
from .manifold import (
    ChartJet,
    TangentVector,
    _pairs,
    check_state,
    check_weight,
    embedding_function,
)

__all__ = [
    "MonotoneFunctionSpec",
    "validate_function_spec",
    "wyd_function",
    "bkm_function",
    "bures_function",
    "rld_function",
    "builtin_functions",
    "matched_metric",
    "MetricKernel",
    "petz_kernel",
    "kernel_metric",
    "metric_eval",
    "wyd_direct",
    "bkm_direct",
    "relative_entropy",
]

# Dyadic grid on which the Petz symmetry f(t) = t f(1/t) is checked, to a
# relative tolerance; f(1) = 1 is checked to an absolute one.
_SYMMETRY_GRID = 2.0 ** np.arange(-6, 7)
_SYMMETRY_RTOL = 1e-10
_NORMALIZATION_TOL = 1e-12

_BASE_MATCH_TOL = 1e-9

# The benchmark's span tracer looks these up here; they load from ``monotonicity`` on first
# use, so importing metrics does not load the channel code.
_ELSEWHERE = {"apply_channel": "monotonicity", "monotonicity_check": "monotonicity"}


def __getattr__(name: str):
    if name in _ELSEWHERE:
        return getattr(importlib.import_module(f".{_ELSEWHERE[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    return MonotoneFunctionSpec(f"wyd(p={p:.15g})", f, deriv=deriv)


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


def matched_metric(alpha: float) -> MonotoneFunctionSpec:
    """Kernel profile of the order-alpha pairing: WYD at p = (1+alpha)/2, BKM at |alpha| = 1."""
    if abs(alpha) >= 1.0:
        return bkm_function()
    return wyd_function(0.5 * (1.0 + alpha))


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
    return MetricKernel(spec, _petz_coefficients(spec, f))


_Specs = Union[MonotoneFunctionSpec, Sequence[MonotoneFunctionSpec]]


def _profile_values(fs: _Specs, xs: Sequence[np.ndarray], derivative: bool = False) -> list:
    """f(x), or f'(x) where ``derivative``, as floats for every array x of ``xs``: x.shape for
    one spec f. K specs line up with the leading axis of each x, of length K or 1, as a power
    stack does: row i takes fs[i]. Each spec is called once, on its rows of every x joined end
    to end, or on its row of a lone x as it is. A derivative needs the spec's ``deriv``."""
    if isinstance(fs, MonotoneFunctionSpec):
        return [v[0] for v in _profile_values([fs], [x[None] for x in xs], derivative)]
    for x in xs:
        _check_stack(len(fs), x.shape, "kernel specs")
    shapes = [x.shape[1:] for x in xs]
    ends = list(itertools.accumulate(map(math.prod, shapes)))
    columns = []
    for i, f in enumerate(fs):
        profile = f.deriv if derivative else f.fn
        if profile is None:
            raise ValueError(f"{f.name}: the kernel's derivative needs f', and the spec has no "
                             "deriv")
        rows = [x[i if len(x) == len(fs) else 0] for x in xs]
        joined = rows[0] if len(rows) == 1 else np.concatenate([r.ravel() for r in rows])
        v = np.broadcast_to(np.asarray(profile(joined), dtype=float), joined.shape).reshape(-1)
        columns.append([v[a:b].reshape(shape) for a, b, shape in zip([0] + ends, ends, shapes)])
    return [np.stack(values) for values in zip(*columns)]


def _reject(bad: np.ndarray, fs: _Specs, message: str, name: str) -> None:
    """Raise ``message`` about the first spec with a flagged matrix (``bad`` is (K, ...) for K
    specs), adding that matrix's stack label and the spectrum's ``name``, when given."""
    if bad.any():
        if not isinstance(fs, MonotoneFunctionSpec):
            k = _first_in_stack(bad)[0][0]
            fs, bad = fs[k], bad[k]
        at = _first_in_stack(bad)[1] + (f" of {name}" if name else "")
        raise ValueError(message.format(fs.name) + at)


def _kernel_tables(
    spectra: Sequence[Spectrum], fs: _Specs, difference: bool = False, names: Sequence[str] = ()
) -> list:
    """The Petz coefficients c_ab = 1/(λb f(λa/λb)), symmetrized, at each positive Spectrum of
    ``spectra``, eigenvalues (..., n) with n free to differ: (..., n, n) for one spec f, as
    ``petz_kernel`` gives them. K specs line up with each spectrum's leading axis, so
    ``spec[None]`` gives each spec's own at every base. Each f.fn is called once, on the
    eigenvalue ratios of every spectrum, and every table is what its spectrum gets alone.

    Where ``difference``, each entry is (c, c1), c1[..., a, m, b] = (c_ab - c_mb)/(λa - λm) the
    divided difference of c(x, y) = 1/(y f(x/y)) in x; where |λa - λm| <= CONFLUENT_RTOL *
    max(λa, λm), a = m included, it is d1 c(x, y) = -f'(x/y) c(x, y)^2 taken as
    -f'(mid/λb) c_ab c_mb, second-order accurate in the gap, each f.deriv called once on the
    midpoint ratios of every spectrum. A c or c1 that is not finite, or a c not strictly
    positive, raises, naming the first such spec, its first failing matrix by its stack index
    within its spectrum, and that spectrum's entry of ``names``."""
    lams = [spec.eigenvalues for spec in spectra]
    values = _profile_values(fs, [lam[..., :, None] / lam[..., None, :] for lam in lams])
    if difference:
        eigen = [(lam[..., :, None, None], lam[..., None, :, None], lam[..., None, None, :])
                 for lam in lams]
        slopes = _profile_values(fs, [0.5 * (la + lm) / lb for la, lm, lb in eigen], True)
    tables = []
    for k, (lam, v) in enumerate(zip(lams, values)):
        name = names[k] if names else ""
        c = 1.0 / (lam[..., None, :] * v)
        c = 0.5 * (c + c.swapaxes(-1, -2))  # symmetric up to round-off by the Petz symmetry of f
        _reject(~(np.isfinite(c) & (c > 0.0)).all(axis=(-2, -1)), fs,
                "kernel of {} is not strictly positive on this spectrum", name)
        if difference:
            (la, lm, _), ca, cm = eigen[k], c[..., :, None, :], c[..., None, :, :]
            gap = la - lm
            confluent = np.abs(gap) <= CONFLUENT_RTOL * np.maximum(la, lm)
            with np.errstate(divide="ignore", invalid="ignore"):
                quotient = (ca - cm) / gap
            c1 = np.where(confluent, -slopes[k] * ca * cm, quotient)
            _reject(~np.isfinite(c1).all(axis=(-3, -2, -1)), fs,
                    "{}: the kernel's divided difference is not finite", name)
            c = (c, c1)
        tables.append(c)
    return tables


def _petz_coefficients(spec: Spectrum, fs: _Specs) -> np.ndarray:
    """The coefficients of the one-spectrum ``_kernel_tables``, (..., n, n) for one spec f."""
    return _kernel_tables([spec], fs)[0]


def _kernel_difference(spec: Spectrum, fs: _Specs) -> np.ndarray:
    """The divided differences c1 of the one-spectrum ``_kernel_tables``, (..., n, n, n)."""
    return _kernel_tables([spec], fs, difference=True)[0][1]


def _contract(coefficients: np.ndarray, at: np.ndarray, bt: np.ndarray):
    """sum conj(at) * c * bt over the last two axes, real part; a float for one matrix."""
    out = np.sum(at.conj() * coefficients * bt, axis=(-2, -1)).real
    return float(out) if out.ndim == 0 else out


def _tangent_gram(tangents: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """g_ab = sum conj(T_a) * c * T_b over eigenbasis tangents T and kernel coefficients c.

    Leading axes broadcast: tangents (..., d, n, n) against coefficients
    (..., n, n). Each pair a <= b is summed once and mirrored.
    """
    d = tangents.shape[-3]
    a, b = _pairs(d)
    upper = _contract(coefficients[..., None, :, :], tangents[..., a, :, :], tangents[..., b, :, :])
    out = np.empty(upper.shape[:-1] + (d, d))
    out[..., a, b] = upper
    out[..., b, a] = upper
    return out


def _metric_matrix(jet: ChartJet, f: _Specs) -> np.ndarray:
    """g_ab = f-metric of the coordinate tangents d_a sigma, d_b sigma at the theta of a chart's
    jet of order at least 1, (d, d), or (m, d, d) for a stacked jet.

    ``f`` may be a sequence of k specs for a stacked jet of k blocks of m rows each: block i
    takes f[i], each row as it gets it alone: the spectrum, reshaped to (k, m, n), lines the specs
    up with the blocks in one kernel stack, and one Gram contraction serves every block.
    """
    if isinstance(f, MonotoneFunctionSpec):
        coefficients = petz_kernel(jet.spectrum, f).coefficients
    else:
        spec = check_weight(jet.spectrum)
        shape = (len(f), -1, spec.dim)
        blocks = Spectrum(spec.eigenvalues.reshape(shape), spec.unitary.reshape(shape + shape[-1:]))
        coefficients = _petz_coefficients(blocks, f).reshape(spec.unitary.shape)
    return _tangent_gram(jet.tangents, coefficients)


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


def wyd_direct(rho: Union[np.ndarray, Spectrum], alpha: float, a, b) -> Union[float, np.ndarray]:
    """WYD metric as the trace pairing of +-alpha representations.

    Tr(A^(alpha) B^(-alpha)); agrees with the kernel form for
    f = wyd_function((1+alpha)/2). |alpha| = 1 is rejected: use bkm_direct.
    rho is checked positive definite and may be given as its Spectrum; the
    arguments are as in metric_eval. A stacked rho, or stacked arguments,
    give an (m,) array as kernel_metric does, each entry the pairing of its
    matrices alone; leading axes broadcast as in frechet_derivative.
    """
    alpha = float(alpha)
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (-1, 1), got {alpha!r}; use bkm_direct for the limits")
    spec = check_weight(rho)
    ra = frechet_derivative(spec, _mixture_of(a, rho), embedding_function(alpha))
    rb = frechet_derivative(spec, _mixture_of(b, rho), embedding_function(-alpha))
    return _scalar_out(np.trace(ra @ rb, axis1=-2, axis2=-1).real)


def bkm_direct(rho: Union[np.ndarray, Spectrum], a, b) -> Union[float, np.ndarray]:
    """BKM metric: Tr(A^(-1) B^(+1)), the alpha -> +-1 limit of the WYD pairing.

    rho is checked positive definite and may be given as its Spectrum; the
    arguments, and stacks of them, are as in wyd_direct.
    """
    spec = check_weight(rho)
    rb = frechet_derivative(spec, _mixture_of(b, rho), embedding_function(1.0))
    return _scalar_out(np.trace(_mixture_of(a, rho) @ rb, axis1=-2, axis2=-1).real)


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
