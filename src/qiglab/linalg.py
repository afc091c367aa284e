"""Dense Hermitian spectral calculus.

Eigendecomposition-backed matrix functions, first and second directional
(Frechet) derivatives via divided differences, and the Hilbert-Schmidt inner
product.

Everything works on plain complex numpy arrays; matrices are small and dense.
Matrix arguments may carry leading stack axes, (..., n, n), where a function
says so; a stack is then handled matrix by matrix with the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DEGENERACY_RTOL",
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

# A pair x, y with |x - y| <= DEGENERACY_RTOL * max(1, |x|, |y|) is treated as
# coincident, and its first divided difference falls back to the derivative at
# the midpoint. For eigenvalues of a state (all below 1) the gap bound is the
# absolute 1e-10, not relative to the eigenvalues.
DEGENERACY_RTOL = 1e-10

# Looser threshold for second divided differences, where the cancellation in
# the recursive quotient is one order worse; scaled by max(1, ...) the same way.
_TRIPLE_RTOL = 1e-7

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
    """A scalar function with derivatives, for spectral calculus.

    ``fn`` must accept an array of eigenvalues and act elementwise.
    ``pair``, when present, evaluates the first divided difference
    (f(x) - f(y))/(x - y) for x != y in a cancellation-free form; without it
    the generic quotient with the coincidence threshold is used. ``deriv2``
    is needed only where coincident eigenvalue triples occur in second
    derivatives.
    """

    name: str
    fn: Callable
    deriv: Callable
    deriv2: Optional[Callable] = None
    pair: Optional[Callable] = None

    def __call__(self, x):
        return self.fn(x)


def identity_function() -> ScalarFunction:
    return ScalarFunction(
        "identity",
        fn=lambda x: x,
        deriv=lambda x: 1.0,
        deriv2=lambda x: 0.0,
        pair=lambda x, y: 1.0,
    )


def log_function() -> ScalarFunction:
    # pair: (log x - log y)/(x - y) = log1p((x-y)/y)/(x-y), exact for x ~ y
    return ScalarFunction(
        "log",
        fn=np.log,
        deriv=lambda x: 1.0 / x,
        deriv2=lambda x: -1.0 / (x * x),
        pair=lambda x, y: math.log1p((x - y) / y) / (x - y),
    )


def exp_function() -> ScalarFunction:
    return ScalarFunction(
        "exp",
        fn=np.exp,
        deriv=np.exp,
        deriv2=np.exp,
        pair=lambda x, y: math.exp(y) * math.expm1(x - y) / (x - y),
    )


def power_function(exponent: float, scale: float = 1.0, name: str = None) -> ScalarFunction:
    """scale * x**exponent on (0, inf), with a stable divided difference.

    ``fn`` uses ``np.float_power``, the C library ``pow`` elementwise, so an
    array of eigenvalues gets bit for bit the values that each eigenvalue
    gets alone (``x ** e`` on an array may take a vectorized ``pow`` that
    differs in the last bit).
    """
    e, c = float(exponent), float(scale)

    def pair(x, y):
        # c*(x^e - y^e)/(x - y) = c*y^e*expm1(e*log1p((x-y)/y))/(x-y)
        return c * y**e * math.expm1(e * math.log1p((x - y) / y)) / (x - y)

    return ScalarFunction(
        name or f"{c:g}*x^{e:g}",
        fn=lambda x: c * np.float_power(x, e),
        deriv=lambda x: c * e * x ** (e - 1.0),
        deriv2=lambda x: c * e * (e - 1.0) * x ** (e - 2.0),
        pair=pair,
    )


def _as_scalar_function(f) -> ScalarFunction:
    if isinstance(f, ScalarFunction):
        return f
    return ScalarFunction(getattr(f, "__name__", "f"), fn=f, deriv=None)


def apply_scalar_function(spec: Spectrum, f) -> np.ndarray:
    """Apply f eigenvalue-wise: U diag(f(λ)) U†, for one Spectrum or a stacked one.

    f is called once, on the whole eigenvalue array, and must act
    elementwise. Raises a domain error naming the first offending eigenvalue
    if f is undefined (non-finite) there. Real-valued f yields a symmetrized
    Hermitian result; complex-valued f is returned as the general matrix it is.
    """
    fun = _as_scalar_function(f)
    lam = spec.eigenvalues
    with np.errstate(all="ignore"):
        try:
            values = np.asarray(fun.fn(lam))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(
                f"scalar function {fun.name!r} undefined at eigenvalues {lam.tolist()!r}"
            ) from exc
        finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(
            f"scalar function {fun.name!r} undefined at eigenvalue {lam[~finite][0]!r}"
        )
    out = (spec.unitary * values[..., None, :]) @ _dagger(spec.unitary)
    if not np.iscomplexobj(values) or np.abs(values.imag).max() == 0.0:
        out = hermitize(out)
    return out


def _pair_difference(fun: ScalarFunction, x: float, y: float) -> float:
    if x == y:
        return fun.deriv(x)
    if fun.pair is not None:
        return fun.pair(x, y)
    if abs(x - y) <= DEGENERACY_RTOL * max(1.0, abs(x), abs(y)):
        if fun.deriv is None:
            raise ValueError(
                f"scalar function {fun.name!r} needs a derivative near the "
                f"coincident eigenvalue pair ({x!r}, {y!r})"
            )
        return fun.deriv(0.5 * (x + y))
    return (fun.fn(x) - fun.fn(y)) / (x - y)


def divided_difference_matrix(eigenvalues: np.ndarray, f) -> np.ndarray:
    """Matrix of first divided differences K[i, j] = f[λi, λj].

    Off the diagonal this is (f(λi) - f(λj))/(λi - λj), or f.pair(λi, λj)
    when f carries one. Without ``pair``, a coincident pair, one with
    |λi - λj| <= DEGENERACY_RTOL * max(1, |λi|, |λj|) (an absolute gap for
    eigenvalues up to 1), uses f' at the midpoint. The diagonal is f'(λi),
    so f must carry a derivative. Stacked eigenvalues (..., n) give one
    matrix per row, (..., n, n), each as the row gets alone.
    """
    fun = _as_scalar_function(f)
    if fun.deriv is None:
        raise ValueError(
            f"scalar function {fun.name!r} needs a derivative: the diagonal f[λi, λi] is f'(λi)"
        )
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.shape[-1]
    k = np.empty(lam.shape + (n,), dtype=float)
    for row, out in zip(lam.reshape(-1, n), k.reshape(-1, n, n)):
        for i in range(n):
            out[i, i] = fun.deriv(row[i])
            for j in range(i):
                out[i, j] = out[j, i] = _pair_difference(fun, row[i], row[j])
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


def _triple_difference(fun: ScalarFunction, x: float, y: float, z: float) -> float:
    """Second divided difference f[x, y, z], symmetric in its arguments."""
    a, b, c = sorted((x, y, z))
    tol = _TRIPLE_RTOL * max(1.0, abs(a), abs(c))
    if c - a <= tol:
        if fun.deriv2 is None:
            raise ValueError(
                f"scalar function {fun.name!r} needs a second derivative at the "
                f"coincident eigenvalue triple near {a!r}"
            )
        return 0.5 * fun.deriv2((a + b + c) / 3.0)
    if b - a <= tol:
        m = 0.5 * (a + b)
        return (_pair_difference(fun, m, c) - fun.deriv(m)) / (c - m)
    if c - b <= tol:
        m = 0.5 * (b + c)
        return (_pair_difference(fun, a, m) - fun.deriv(m)) / (a - m)
    return (_pair_difference(fun, a, b) - _pair_difference(fun, b, c)) / (a - c)


def _triple_difference_tensor(lam: np.ndarray, fun: ScalarFunction) -> np.ndarray:
    """T[..., i, k, j] = f[λi, λk, λj] for eigenvalues (..., n), one (n, n, n) tensor per row.

    Each row is built alone: its sorted-index cache is its own, so a row
    whose eigenvalues nearly coincide never lends its values to another.
    """
    n = lam.shape[-1]
    t = np.empty(lam.shape + (n, n), dtype=float)
    for row, out in zip(lam.reshape(-1, n), t.reshape(-1, n, n, n)):
        cache: dict = {}
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    key = tuple(sorted((i, k, j)))
                    if key not in cache:
                        cache[key] = _triple_difference(fun, row[i], row[k], row[j])
                    out[i, k, j] = cache[key]
    return t


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
    fun = _as_scalar_function(f)
    e = spec.to_eigenbasis(np.asarray(first, dtype=complex))
    g = spec.to_eigenbasis(np.asarray(second, dtype=complex))
    t = _triple_difference_tensor(np.asarray(spec.eigenvalues, dtype=float), fun)
    out = spec.from_eigenbasis(_triple_contraction(t, _tangent_products(e, g)))
    return _hermitize_self_adjoint(out, first, second)
