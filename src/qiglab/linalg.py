"""Dense Hermitian spectral calculus.

Eigendecomposition-backed matrix functions, first and second directional
(Frechet) derivatives via divided differences, and the Hilbert-Schmidt inner
product.

Everything works on plain complex numpy arrays; matrices are small and dense.
Matrix arguments may carry leading stack axes, (..., n, n), where a function
says so; a stack is then handled matrix by matrix with the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CONFLUENT_RTOL",
    "hermitize",
    "check_hermitian",
    "hs_inner",
    "Spectrum",
    "spectral_decompose",
    "ScalarFunction",
    "identity_function",
    "log_function",
    "exp_function",
    "power_function",
    "apply_scalar_function",
    "divided_difference_matrix",
    "frechet_derivative",
    "frechet_second_derivative",
]

# An eigenvalue triple whose spread is at most CONFLUENT_RTOL times its scale takes a confluent
# second divided difference in place of the quotient, and so does an eigenvalue pair in the
# first divided difference of a Petz kernel (metrics). The quotient loses about ulp/gap,
# relative, and a confluent value a power of the gap; against mpmath they meet near 3e-5.
CONFLUENT_RTOL = 3e-5

_HERMITIAN_TOL = 1e-12


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _first_in_stack(bad: np.ndarray) -> tuple:
    """(index, label) of the first flagged matrix; ``bad`` holds one flag per matrix of a stack.

    The label reads " at stack index k" and is empty for a single matrix.
    """
    bad = np.asarray(bad)
    where = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))
    if not where:
        return where, ""
    return where, f" at stack index {where[0] if len(where) == 1 else where}"


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize to (A + A†)/2, removing numerical skew; leading axes broadcast."""
    a = np.asarray(a)
    return 0.5 * (a + _dagger(a))


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a complex array, rejecting non-self-adjoint input.

    ``a`` is one square matrix or a stack of them, (..., n, n); the error
    names the worst entry with its stack index.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev = np.abs(a - _dagger(a))
    worst = float(dev.max()) if dev.size else 0.0
    if worst > _HERMITIAN_TOL:
        where = tuple(int(k) for k in np.unravel_index(int(dev.argmax()), dev.shape))
        raise ValueError(
            "matrix is not self-adjoint: |A - A†| reaches "
            f"{worst:.3e} at entry {where}, tolerance {_HERMITIAN_TOL:.1e}"
        )
    return a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(A† B).

    Real whenever both arguments are self-adjoint; returned as a complex
    scalar so that general arguments round-trip faithfully.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (real, ascending) and eigenvectors of a Hermitian matrix.

    A stack of matrices gives eigenvalues (..., n) and unitaries (..., n, n);
    the methods then work matrix by matrix.
    """

    eigenvalues: np.ndarray
    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[-1])

    def matrix(self) -> np.ndarray:
        """Reconstruct U diag(λ) U†."""
        return (self.unitary * self.eigenvalues[..., None, :]) @ _dagger(self.unitary)

    def to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        return _dagger(self.unitary) @ m @ self.unitary

    def from_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        return self.unitary @ m @ _dagger(self.unitary)

    def __getitem__(self, key) -> "Spectrum":
        """The spectra at ``key`` on the stack axes: an index gives one, a slice a stack."""
        return Spectrum(self.eigenvalues[key], self.unitary[key])

    def expand_dims(self) -> "Spectrum":
        """The same spectra with one more stack axis before the matrix axes.

        Each base point then broadcasts over a stack of directions: with
        eigenvalues (..., n), directions (..., d, n, n) pair row by row.
        """
        return Spectrum(self.eigenvalues[..., None, :], self.unitary[..., None, :, :])


def spectral_decompose(a: np.ndarray) -> Spectrum:
    """Eigendecomposition of a self-adjoint matrix, or of each matrix of a stack.

    Rejects input that check_hermitian rejects; the error reports the size
    and location of the worst entry.
    """
    a = check_hermitian(a)
    w, u = np.linalg.eigh(a)
    return Spectrum(w, u)


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function with its first two derivatives, for spectral calculus.

    ``fn``, ``deriv`` (f') and ``deriv2`` (f'') act elementwise on arrays of
    eigenvalues. ``pair`` is the first divided difference
    (f(x) - f(y))/(x - y), elementwise for x != y, in a cancellation-free
    form that stays exact as the gap shrinks.
    """

    name: str
    fn: Callable
    deriv: Callable
    deriv2: Callable
    pair: Callable

    def __call__(self, x):
        return self.fn(x)


def identity_function() -> ScalarFunction:
    return ScalarFunction(
        "identity",
        fn=lambda x: x,
        deriv=lambda x: np.ones_like(x, dtype=float),
        deriv2=lambda x: np.zeros_like(x, dtype=float),
        pair=lambda x, y: np.ones_like(x, dtype=float),
    )


def log_function() -> ScalarFunction:
    # pair: (log x - log y)/(x - y) = log1p((x-y)/y)/(x-y), exact for x ~ y
    return ScalarFunction(
        "log",
        fn=np.log,
        deriv=lambda x: 1.0 / x,
        deriv2=lambda x: -1.0 / (x * x),
        pair=lambda x, y: np.log1p((x - y) / y) / (x - y),
    )


def exp_function() -> ScalarFunction:
    return ScalarFunction(
        "exp",
        fn=np.exp,
        deriv=np.exp,
        deriv2=np.exp,
        pair=lambda x, y: np.exp(y) * np.expm1(x - y) / (x - y),
    )


def _is_stack(x) -> bool:
    """Whether ``x`` is a sequence of values (a list, a tuple or an array with an axis) rather
    than one; cheaper than np.ndim on a Python number."""
    return isinstance(x, (list, tuple)) or getattr(x, "ndim", 0) > 0


def _power_constants(exponent: float, scale: float) -> tuple:
    """The scales and exponents of c x^e, f' = ce x^(e-1) and f'' = ce(e-1) x^(e-2)."""
    e, c = float(exponent), float(scale)
    return c, e, c * e, e - 1.0, c * e * (e - 1.0), e - 2.0


def _check_stack(k: int, shape: tuple, members: str) -> None:
    """Reject an argument of ``shape`` that a stack of k ``members`` cannot line up with: its
    leading axis must have length k or 1."""
    if not shape or shape[0] not in (k, 1):
        raise ValueError(
            f"a stack of {k} {members} does not fit an argument of shape {shape}: "
            f"its leading axis must have length {k} or 1"
        )


def power_function(exponent, scale=1.0, name: str = None) -> ScalarFunction:
    """scale * x**exponent on (0, inf), with a stable divided difference.

    Powers use ``np.float_power``, the C library ``pow`` elementwise, so an
    array of eigenvalues gets bit for bit the values that each eigenvalue
    gets alone (``x ** e`` on an array may take a vectorized ``pow`` that
    differs in the last bit).

    ``exponent`` may be a sequence of k exponents, with ``scale`` one scale
    or k of them: a stack of k powers. A stack lines up with the leading axis
    of every argument, which must have length k or 1: row r takes exponent[r]
    and scale[r], and an argument whose leading axis has length 1 gets every
    power, so ``f(x[None])`` gives every power at every point of x. Each row
    is bit for bit the value of its power alone. An argument that does not
    fit raises before any power is taken.
    """
    if _is_stack(exponent):
        scales = scale if _is_stack(scale) else [scale] * len(exponent)
        label = name or f"{np.asarray(scales).tolist()}*x^{np.asarray(exponent).tolist()}"
        table = np.array(list(map(_power_constants, exponent, scales))).reshape(-1, 6).T  # (6, k)
        shaped = {}  # the rank of an argument -> the constants, shaped against its axes

        def at(x):
            shape = np.shape(x)
            _check_stack(table.shape[1], shape, "profiles")
            rank = len(shape)
            if rank not in shaped:
                shaped[rank] = tuple(table.reshape(table.shape + (1,) * (rank - 1)))
            return shaped[rank]
    else:
        constants = _power_constants(exponent, scale)
        label = name or f"{constants[0]:g}*x^{constants[1]:g}"

        def at(x):
            return constants

    def fn(x):
        c, e = at(x)[:2]
        return c * np.float_power(x, e)

    def deriv(x):
        ce, e1 = at(x)[2:4]
        return ce * np.float_power(x, e1)

    def deriv2(x):
        cee, e2 = at(x)[4:]
        return cee * np.float_power(x, e2)

    def pair(x, y):
        # c*(x^e - y^e)/(x - y) = c*y^e*expm1(e*log1p((x-y)/y))/(x-y)
        c, e = at(x)[:2]
        return c * np.float_power(y, e) * np.expm1(e * np.log1p((x - y) / y)) / (x - y)

    return ScalarFunction(label, fn=fn, deriv=deriv, deriv2=deriv2, pair=pair)


def _function_stack(parts: Sequence[tuple], size: int, name: str) -> ScalarFunction:
    """``size`` profiles as one ScalarFunction stack, lined up with the leading axis of its
    arguments as a power stack is (``power_function``).

    ``parts`` holds (rows, f) pairs that cover the members once: f is a stack of len(rows)
    profiles, or one profile that serves every one of those members. Each f is called once per
    call of the stack, on the argument rows ``rows``, or on the whole arguments where their
    leading axis has length 1, so those are not copied. Every method takes one argument but
    ``pair``, whose two share one shape.
    """

    def stacked(method):
        def apply(*args):
            shape = np.shape(args[0])
            _check_stack(size, shape, "profiles")
            whole = shape[0] == 1
            if not whole:
                args = [np.asarray(a) for a in args]
            out = np.empty((size,) + shape[1:])
            for rows, f in parts:
                picked = args if whole else [a[rows] for a in args]
                out[rows] = getattr(f, method)(*picked)
            return out

        return apply

    return ScalarFunction(name, *map(stacked, ("fn", "deriv", "deriv2", "pair")))


def apply_scalar_function(spec: Spectrum, f) -> np.ndarray:
    """Apply f eigenvalue-wise: U diag(f(λ)) U†, for one Spectrum or a stacked one.

    f is a ScalarFunction or a plain callable; it is called once, on the
    whole eigenvalue array, and must act elementwise. Raises a domain error
    naming the first offending eigenvalue if f is undefined (non-finite)
    there. Real-valued f yields a symmetrized Hermitian result;
    complex-valued f is returned as the general matrix it is.
    """
    name = f.name if isinstance(f, ScalarFunction) else getattr(f, "__name__", "f")
    lam = spec.eigenvalues
    with np.errstate(all="ignore"):
        try:
            values = np.asarray(f(lam))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(
                f"scalar function {name!r} undefined at eigenvalues {lam.tolist()!r}: {exc}"
            ) from exc
        finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"scalar function {name!r} undefined at eigenvalue {lam[~finite][0]!r}")
    out = (spec.unitary * values[..., None, :]) @ _dagger(spec.unitary)
    if not np.iscomplexobj(values) or np.abs(values.imag).max() == 0.0:
        out = hermitize(out)
    return out


def divided_difference_matrix(eigenvalues: np.ndarray, f: ScalarFunction) -> np.ndarray:
    """Matrix of first divided differences K[i, j] = f[λi, λj].

    Off the diagonal this is f.pair(max, min) of the two eigenvalues, so K
    is exactly symmetric; where λi == λj it is f'(λi). Stacked eigenvalues
    (..., n) give one matrix per row, (..., n, n), each as the row gets
    alone. An eigenvalue outside f's domain (a non-finite entry) raises a
    domain error.
    """
    if not isinstance(f, ScalarFunction):
        raise ValueError(
            f"scalar function {getattr(f, '__name__', 'f')!r} needs a derivative: "
            "the diagonal f[λi, λi] is f'(λi)"
        )
    lam = np.asarray(eigenvalues, dtype=float)
    x = np.maximum(lam[..., :, None], lam[..., None, :])
    y = np.minimum(lam[..., :, None], lam[..., None, :])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.where(x == y, f.deriv(lam)[..., :, None], f.pair(x, y))
    if not np.isfinite(k).all():
        raise ValueError(f"scalar function {f.name!r} undefined at eigenvalues {lam.tolist()!r}")
    return k


def _hermitize_self_adjoint(out: np.ndarray, *directions: np.ndarray) -> np.ndarray:
    """Symmetrize each matrix of ``out`` whose directions are all self-adjoint, one by one."""
    devs = [np.abs(a - _dagger(a)) for a in map(np.asarray, directions)]
    if max(dev.max(initial=0.0) for dev in devs) <= _HERMITIAN_TOL:  # the usual case
        return hermitize(out)
    flag = np.logical_and.reduce([dev.max(axis=(-2, -1)) <= _HERMITIAN_TOL for dev in devs])
    return np.where(flag[..., None, None], hermitize(out), out)


def frechet_derivative(spec: Spectrum, direction: np.ndarray, f) -> np.ndarray:
    """Directional derivative of the matrix function f at the decomposed point.

    Daleckii-Krein form: in the eigenbasis, entry (i, j) of the direction is
    scaled by the first divided difference f[λi, λj]. ``direction`` may be a
    stack (..., n, n) at the one point; the kernel is built once for it. A
    stacked Spectrum, eigenvalues (..., n), gets one kernel per base point,
    and its leading axes broadcast against the direction's.
    """
    d = np.asarray(direction, dtype=complex)
    n = spec.dim
    if d.shape[-2:] != (n, n):
        raise ValueError(f"direction shape {d.shape} does not match dim {n}")
    k = divided_difference_matrix(spec.eigenvalues, f)
    out = spec.from_eigenbasis(k * spec.to_eigenbasis(d))
    return _hermitize_self_adjoint(out, d)


def _triple_difference_tensor(
    lam: np.ndarray, fun: ScalarFunction, first: np.ndarray
) -> np.ndarray:
    """T[..., i, k, j] = f[λi, λk, λj] for eigenvalues (..., n) and their first divided
    differences ``first`` = divided_difference_matrix(lam, fun), (..., n, n); one (n, n, n)
    tensor per row.

    For a <= b <= c, f[a, b, c] = (f[a, b] - f[b, c])/(a - c), the quotient
    over the widest gap, which cancels only when all three points are close.
    A triple whose spread is at most CONFLUENT_RTOL times its scale,
    max(max|λ|, |f'/f''| at the mean), takes the Hermite-Genocchi integral
    of f'' over the triangle by its edge-midpoint rule,
    (f''((a+b)/2) + f''((a+c)/2) + f''((b+c)/2))/6, third-order accurate in
    the spread. Each value depends on the three eigenvalues alone and is
    symmetric in them.
    """
    li, lk, lj = lam[..., :, None, None], lam[..., None, :, None], lam[..., None, None, :]
    kik, kkj, kij = first[..., :, :, None], first[..., None, :, :], first[..., :, None, :]
    # the gap opposite each possible middle point: k, i and j
    gk, gi, gj = li - lj, lk - lj, li - lk
    lo = np.minimum(li, np.minimum(lk, lj))
    hi = np.maximum(li, np.maximum(lk, lj))
    mid = np.maximum(np.minimum(li, lk), np.minimum(np.maximum(li, lk), lj))
    spread = hi - lo  # bit for bit the widest of |gk|, |gi| and |gj|
    mean = (lo + mid + hi) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(
            np.abs(gk) == spread,
            (kik - kkj) / gk,
            np.where(np.abs(gi) == spread, (kik - kij) / gi, (kij - kkj) / gj),
        )
        # inf where f'' is 0 throughout, as for the identity, whose confluent value is exact
        reach = np.abs(fun.deriv(mean) / fun.deriv2(mean))
    scale = np.fmax(np.maximum(np.abs(lo), np.abs(hi)), reach)
    d2 = fun.deriv2
    confluent = (d2(0.5 * (lo + mid)) + d2(0.5 * (lo + hi)) + d2(0.5 * (mid + hi))) / 6.0
    return np.where(spread <= CONFLUENT_RTOL * scale, confluent, quotient)


def _tangent_products(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """P[..., i, k, j] = E[i, k] F[k, j] + F[i, k] E[k, j] for eigenbasis directions E, F
    (..., n, n), paired matrix by matrix: the part of D²f(A)[E, F] that does not depend on f."""
    return (
        first[..., :, :, None] * second[..., None, :, :]
        + second[..., :, :, None] * first[..., None, :, :]
    )


def _triple_contraction(t: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Σ_k T[..., i, k, j] P[..., i, k, j]: D²f(A)[E, F] in the eigenbasis, from the triple
    tensor T = f[λi, λk, λj] and the _tangent_products P; leading axes broadcast."""
    return np.einsum("...ikj,...ikj->...ij", t, products)


def frechet_second_derivative(
    spec: Spectrum, first: np.ndarray, second: np.ndarray, f
) -> np.ndarray:
    """Bilinear second directional derivative D²f(A)[E, F].

    In the eigenbasis,
    out[i, j] = Σ_k f[λi, λk, λj] (E[i,k] F[k,j] + F[i,k] E[k,j])
    with f[.,.,.] the second divided difference. E and F may be stacks
    (..., n, n) at the one point, paired matrix by matrix; the triple tensor
    is built once for them. A stacked Spectrum, eigenvalues (..., n), gets
    one triple tensor per base point, and its leading axes broadcast against
    the directions'.
    """
    lam = np.asarray(spec.eigenvalues, dtype=float)
    e = spec.to_eigenbasis(np.asarray(first, dtype=complex))
    g = spec.to_eigenbasis(np.asarray(second, dtype=complex))
    t = _triple_difference_tensor(lam, f, divided_difference_matrix(lam, f))
    out = spec.from_eigenbasis(_triple_contraction(t, _tangent_products(e, g)))
    return _hermitize_self_adjoint(out, first, second)
