"""Seeded samplers for states, weights, tangents, unitaries and bases."""

from __future__ import annotations

import numpy as np

from .linalg import _dagger, hermitize

__all__ = [
    "rng_from",
    "haar_unitary",
    "random_hermitian",
    "random_traceless_hermitian",
    "random_state",
    "random_weight",
    "pauli_matrices",
    "hermitian_basis",
]


def rng_from(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _haar_unitaries(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Phase-fixed QR of the Ginibre matrices (re + i im)/sqrt(2), (..., n, n), in one call."""
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _conjugated(lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """hermitize(q diag(lam) q†) for spectra (..., n) and unitaries (..., n, n)."""
    return hermitize((q * lam[..., None, :]) @ _dagger(q))


def _states(weights: np.ndarray, floor, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Density matrices with spectra (1 - n floor) weights + floor in the Haar bases of (re, im).

    ``weights`` (..., n) lie on the simplex; ``floor`` broadcasts against them.
    """
    n = weights.shape[-1]
    return _conjugated((1.0 - n * floor) * weights + floor, _haar_unitaries(re, im))


def _weights(lam: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Positive matrices with spectra lam (..., n) in the Haar bases of (re, im)."""
    return _conjugated(lam, _haar_unitaries(re, im))


def _hermitians(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """hermitize(re + i im)/sqrt(2); stacks (..., n, n)."""
    return hermitize(re + 1j * im) * (1.0 / np.sqrt(2.0))


def _traceless_hermitians(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Traceless parts of _hermitians(re, im)."""
    h = _hermitians(re, im)
    n = h.shape[-1]
    return h - (np.trace(h, axis1=-2, axis2=-1)[..., None, None] / n) * np.eye(n)


def _ginibre_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """The standard normal parts (re, im) of one Ginibre matrix, (2, n, n), re drawn first."""
    return rng.standard_normal((2, n, n))


def _simplex(draws: np.ndarray) -> np.ndarray:
    """Raw standard_exponential rows (..., n), each times the reciprocal of its left-to-right
    sum, as numpy's dirichlet does: the bits of rng.dirichlet(np.ones(n)) on that stream."""
    acc = draws[..., 0]
    for j in range(1, draws.shape[-1]):
        acc = acc + draws[..., j]
    return draws * (1.0 / acc)[..., None]


def _check_floor(n: int, floor: float) -> None:
    """Reject a spectrum floor that no state of dimension n can keep."""
    if not 0.0 <= floor * n < 1.0:
        raise ValueError(f"floor {floor} infeasible for dimension {n}")


def _weight_draws(rng: np.random.Generator, n: int, lo: float, hi: float) -> tuple:
    """The draws of one ``random_weight``, in its order: spectrum (n,), then (re, im) (2, n, n)."""
    return rng.uniform(lo, hi, size=n), _ginibre_draws(rng, n)


def _states_with_tangents(rngs, n: int, floor: float, tangents: int) -> tuple:
    """For each rng of ``rngs`` in turn, the draws of random_state(rng, n, floor) and then of
    ``tangents`` random_traceless_hermitian(rng, n), in that rng order, each kind built in one
    stacked call: states (k, n, n) and tangents (k, tangents, n, n).

    A sample's normals follow its simplex draw on one generator, so one
    ``standard_normal((1 + tangents, 2, n, n))`` call draws them all, the same
    numbers in the same order."""
    _check_floor(n, floor)
    draws, normals = [], []
    for rng in rngs:
        draws.append(rng.standard_exponential(n))
        normals.append(rng.standard_normal((1 + tangents, 2, n, n)))
    normals = np.stack(normals)
    states = _states(_simplex(np.stack(draws)), floor, normals[:, 0, 0], normals[:, 0, 1])
    return states, _traceless_hermitians(normals[:, 1:, 0], normals[:, 1:, 1])


def _random_weights(rngs, count: int, n: int, lo: float, hi: float):
    """For each rng of ``rngs`` in turn, ``count`` draws of random_weight(rng, n, lo, hi), in its
    rng order, all built in one stacked call: (len(rngs) * count, n, n)."""
    lam, normals = zip(*(_weight_draws(rng, n, lo, hi) for rng in rngs for _ in range(count)))
    normals = np.stack(normals)
    return _weights(np.stack(lam), normals[:, 0], normals[:, 1])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return _haar_unitaries(*_ginibre_draws(rng, n))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return _hermitians(*_ginibre_draws(rng, n))


def random_traceless_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return _traceless_hermitians(*_ginibre_draws(rng, n))


def random_state(rng: np.random.Generator, n: int, floor: float = 0.05) -> np.ndarray:
    """Random density matrix with all eigenvalues >= floor.

    Eigenvalues are a uniform simplex draw shrunk toward the maximally mixed
    point so the floor holds, conjugated by a Haar unitary.
    """
    _check_floor(n, floor)
    return _states(_simplex(rng.standard_exponential(n)), floor, *_ginibre_draws(rng, n))


def random_weight(
    rng: np.random.Generator, n: int, lo: float = 0.3, hi: float = 2.0
) -> np.ndarray:
    """Random positive-definite matrix with spectrum in [lo, hi]."""
    lam, normals = _weight_draws(rng, n, lo, hi)
    return _weights(lam, *normals)


def pauli_matrices():
    """(I, X, Y, Z) as complex arrays."""
    i2 = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return i2, sx, sy, sz


def hermitian_basis(n: int) -> list:
    """Hilbert-Schmidt orthonormal basis of the n x n self-adjoint matrices.

    Diagonal units E_kk, then (E_kl + E_lk)/sqrt(2) and i(E_kl - E_lk)/sqrt(2)
    for k < l; n*n elements in total.
    """
    out = []
    for k in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0
        out.append(e)
    s = 1.0 / np.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = e[l, k] = s
            out.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = -1j * s
            e[l, k] = 1j * s
            out.append(e)
    return out
