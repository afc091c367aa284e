import os
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from qiglab.linalg import frechet_derivative, frechet_second_derivative, hermitize
from qiglab.manifold import (
    _central_stencil,
    embedding_function,
    representation_convert,
    sphere_project,
)

# Child interpreters do not read pytest's ``pythonpath``; they get this checkout's src explicitly.
SRC = str(Path(__file__).resolve().parents[1] / "src")

ACCEPTANCE_LINES = []


def child_env() -> dict:
    """The current environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class CallLog:
    """The calls made to watched functions: per key, the shape of one argument of each call."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.shapes = defaultdict(list)

    def watch(self, owner, name: str, key=None, arg: int = 0):
        """Log each call of owner.name under ``key`` (default ``name``) with the shape of its
        positional argument ``arg``, until the test ends; returns owner."""
        fn = getattr(owner, name)
        shapes = self.shapes[key or name]

        def wrapper(*args, **kwargs):
            shapes.append(np.shape(args[arg]))
            return fn(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, wrapper)
        return owner

    def eig(self) -> "CallLog":
        """Watch numpy's eigh and eigvalsh; a stacked call logs once, with its stack's shape."""
        self.watch(np.linalg, "eigh")
        self.watch(np.linalg, "eigvalsh")
        return self

    def count(self, *keys: str) -> int:
        return sum(len(self.shapes[key]) for key in keys)

    def matrices(self, *keys: str) -> int:
        """The matrices the calls under ``keys`` took, each matrix of a stack once."""
        return sum(int(np.prod(shape[:-2])) for key in keys for shape in self.shapes[key])

    def clear(self) -> None:
        for shapes in self.shapes.values():
            shapes.clear()


@pytest.fixture
def calls(monkeypatch) -> CallLog:
    """Counts calls of the functions a test watches; see CallLog."""
    return CallLog(monkeypatch)


# Central second differences, the oracle for analytic chart Hessians, take steps
# SECOND_DERIVATIVE_STEP * max(1, |theta_i|).
SECOND_DERIVATIVE_STEP = 1e-3


def _scalar_hessian(fn, x: np.ndarray, step: float = SECOND_DERIVATIVE_STEP) -> np.ndarray:
    """Central-difference Hessian of fn at x (d,), or at every row of a stack x (k, d).

    fn maps a stack of points (m, d) to values (m, ...); the whole stencil,
    1 + 2d + 2d(d - 1) points per row, goes to fn in one call. The steps are
    h_i = step * max(1, |x_i|). The result is (..., d, d, ...): x's stack
    axes, the two directions, then the axes of fn's values.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    axial, h = _central_stencil(x, step)
    # per row: x, then the axial rows, then for each pair j < i the four
    # corners (+ +), (+ -), (- +), (- -) of (i, j)
    i, j = np.tril_indices(d, -1)
    ii, jj = np.repeat(i, 4), np.repeat(j, 4)
    corners = np.arange(len(ii))
    mixed = np.repeat(x[..., None, :], len(ii), axis=-2)
    mixed[..., corners, ii] += np.tile([1.0, 1.0, -1.0, -1.0], len(i)) * h[..., ii]
    mixed[..., corners, jj] += np.tile([1.0, -1.0, 1.0, -1.0], len(i)) * h[..., jj]
    stencil = np.concatenate([x[..., None, :], axial, mixed], axis=-2)
    values = np.asarray(fn(stencil.reshape(-1, d)))
    tail = values.shape[1:]
    # one trailing axis for the values, so scalar and matrix values share the arithmetic
    values = values.reshape(stencil.shape[:-1] + (int(np.prod(tail)),))
    f0 = values[..., :1, :]
    up, dn = values[..., 1 : 1 + 2 * d : 2, :], values[..., 2 : 2 + 2 * d : 2, :]
    pp, pm, mp, mm = (values[..., 1 + 2 * d + c :: 4, :] for c in range(4))
    h = h[..., None]
    axes = np.arange(d)
    out = np.empty(x.shape[:-1] + (d, d, values.shape[-1]), dtype=values.dtype)
    out[..., axes, axes, :] = (up - 2.0 * f0 + dn) / (h * h)
    cross = (pp - pm - mp + mm) / (4.0 * h[..., i, :] * h[..., j, :])
    out[..., i, j, :] = out[..., j, i, :] = cross
    return out.reshape(x.shape[:-1] + (d, d) + tail)


# The eigenbasis covariant-derivative sets agree with standard_basis_covariant_set to this
# multiple of the larger of 1 and the oracle's largest entry: round-off of a few rotations.
ORACLE_RTOL = 1e-12


def standard_basis_covariant_set(family, theta, alpha: float, on_extended: bool) -> np.ndarray:
    """nabla^(alpha)_i T_j at one theta (d,), in mixture form and the standard basis, (d, d, n, n),
    by the chain of public functions: the embedded chart's second partials as
    frechet_second_derivative of the tangents plus frechet_derivative of the chart Hessian,
    then sphere_project on the unit-trace manifold, representation_convert to the mixture form
    and, after the projection, the trace removed."""
    theta, _, spec = family.point_and_spectrum(theta)
    fun = embedding_function(alpha)
    d, n = family.param_dim, spec.dim
    i, j = np.triu_indices(d)
    tangents = family.tangent_matrices(theta)
    hess = family.hessians(theta)[i, j]
    d2 = frechet_second_derivative(spec, tangents[i], tangents[j], fun)
    d2 = hermitize(d2 + frechet_derivative(spec, hess, fun))
    if not on_extended:
        d2 = sphere_project(spec, alpha, d2)
    mixture = representation_convert(spec, d2, alpha, -1.0)
    if not on_extended:
        mixture = mixture - (np.trace(mixture, axis1=-2, axis2=-1) / n)[:, None, None] * np.eye(n)
    out = np.empty((d, d, n, n), dtype=complex)
    out[i, j] = out[j, i] = mixture
    return out
