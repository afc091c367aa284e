"""Channels and the contraction of monotone metrics under them.

CPTP channels as closed-form maps (depolarizing, partial trace, random
Stinespring), the contraction check of one metric length through one
channel, and the seeded Monte-Carlo scan of the built-in kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .linalg import Spectrum, _dagger, _first_in_stack, hermitize, spectral_decompose
from .manifold import TangentVector, check_state
from .metrics import (
    MonotoneFunctionSpec,
    _contract,
    _mixture_of,
    _kernel_tables,
    builtin_functions,
)
from .sampling import _simplex, _states, _traceless_hermitians, rng_from

__all__ = [
    "KrausChannel",
    "apply_channel",
    "depolarizing_channel",
    "partial_trace_channel",
    "random_stinespring_channel",
    "MonotonicityReport",
    "monotonicity_check",
    "monotonicity_scan",
]


@dataclass(frozen=True, eq=False, init=False)
class KrausChannel:
    """Completely positive trace-preserving map X -> sum_k K_k X K_k†, held as one isometry.

    The Kraus operators are stacked into V, (..., r*n_out, n_in): row k*n_out + i of V is
    row i of K_k, so the map is Tr_env(V X V†). Each operator is (n_out, n_in), or a stack
    (m, n_out, n_in) for m channels with the same Kraus count; the completeness check
    V†V = I names the first failing channel by its stack index.
    """

    isometry: np.ndarray
    dim_out: int

    def __init__(self, kraus_ops: Sequence):
        ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) < 2 or any(k.shape != shape for k in ops):
            raise ValueError("all Kraus operators must share one shape, (..., n_out, n_in)")
        self._hold(np.concatenate(ops, axis=-2), shape[-2])

    @classmethod
    def _of_isometry(cls, v: np.ndarray, dim_out: int) -> "KrausChannel":
        """The channel Tr_env(V X V†) of an isometry V, (..., r*dim_out, n_in), taken as it is."""
        channel = cls.__new__(cls)
        channel._hold(v, dim_out)
        return channel

    def _hold(self, v: np.ndarray, dim_out: int) -> None:
        dev = np.abs(_dagger(v) @ v - np.eye(v.shape[-1])).max(axis=(-2, -1))
        bad = ~(dev <= 1e-10)  # a NaN deviation fails
        if bad.any():
            where, at = _first_in_stack(bad)
            raise ValueError(
                f"Kraus completeness sum deviates from identity by {dev[where]:.3e}{at}"
            )
        v = v.view()
        v.setflags(write=False)
        object.__setattr__(self, "isometry", v)
        object.__setattr__(self, "dim_out", dim_out)

    @property
    def dim_in(self) -> int:
        return self.isometry.shape[-1]

    @property
    def kraus_ops(self) -> tuple:
        """The Kraus operators in order, read-only views of the isometry's row blocks."""
        n = self.dim_out
        return tuple(self.isometry[..., k : k + n, :] for k in range(0, self.isometry.shape[-2], n))


@dataclass(frozen=True, eq=False)
class _Depolarizing:
    """X -> (1 - t) X + t Tr(X) I/n; a weight array t, (m,), is a stack of m channels."""

    dim_in: int
    t: np.ndarray

    @property
    def dim_out(self) -> int:
        return self.dim_in


def apply_channel(channel: Union[KrausChannel, _Depolarizing], x: np.ndarray) -> np.ndarray:
    """The channel on x in closed form; stacks of channels and of inputs broadcast.

    A KrausChannel gives Tr_env(V X V†), a depolarizing channel (1 - t) X + t Tr(X) I/n.
    """
    x = np.asarray(x, dtype=complex)
    n = channel.dim_in
    if x.shape[-2:] != (n, n):
        raise ValueError(f"input shape {x.shape} does not match channel input dim {n}")
    depolarizing = isinstance(channel, _Depolarizing)
    stack = channel.t.shape if depolarizing else channel.isometry.shape[:-2]
    try:
        np.broadcast_shapes(stack, x.shape[:-2])
    except ValueError:
        raise ValueError(
            f"channel stack {stack} does not broadcast against input stack {x.shape[:-2]}"
        ) from None
    if depolarizing:
        t = channel.t[..., None, None]
        trace = np.trace(x, axis1=-2, axis2=-1)[..., None, None]
        return (1.0 - t) * x + (t * trace / n) * np.eye(n)
    v, m = channel.isometry, channel.dim_out
    joint = v @ x @ _dagger(v)  # output x environment, rows and columns (k, i) = k*m + i
    r = joint.shape[-1] // m
    return np.trace(joint.reshape(joint.shape[:-2] + (r, m, r, m)), axis1=-4, axis2=-2)


def depolarizing_channel(n: int, t: Union[float, np.ndarray]) -> _Depolarizing:
    """rho -> (1 - t) rho + t I/n on n x n matrices.

    An array of weights t, (m,), gives a stack of m channels; the error
    names the first weight outside [0, 1] by its stack index.
    """
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n!r}")
    t = np.array(t, dtype=float)
    bad = ~((0.0 <= t) & (t <= 1.0))
    if bad.any():
        where, at = _first_in_stack(bad)
        raise ValueError(f"mixing weight t must lie in [0, 1], got {float(t[where])!r}{at}")
    return _Depolarizing(n, t)


@functools.cache
def partial_trace_channel(dim_keep: int, dim_drop: int) -> KrausChannel:
    """Trace out the second tensor factor of dim_keep * dim_drop.

    The isometry is the permutation that sends input row (i, k) = i*dim_drop + k to row
    (k, i) = k*dim_keep + i, so Tr_env(V X V†) sums X[(i, k), (j, k)] over k. Built and checked on first use per
    (dim_keep, dim_drop) and shared read-only.
    """
    if dim_keep < 1 or dim_drop < 1:
        raise ValueError(
            f"dims must be at least 1, got dim_keep={dim_keep!r}, dim_drop={dim_drop!r}"
        )
    n = dim_keep * dim_drop
    swap = np.eye(n, dtype=complex).reshape(dim_keep, dim_drop, n).swapaxes(0, 1).reshape(n, n)
    return KrausChannel._of_isometry(swap, dim_keep)


def _stinespring_channels(re: np.ndarray, im: np.ndarray) -> KrausChannel:
    """Channels whose isometries are the Q factors of re + i im, (..., n*n, n), in one QR.

    Each isometry maps into output x environment, both of dimension n.
    """
    v, _ = np.linalg.qr(re + 1j * im)  # isometry: v† v = I
    return KrausChannel._of_isometry(v, v.shape[-1])


def random_stinespring_channel(rng: np.random.Generator, n: int) -> KrausChannel:
    """Random channel on n x n matrices from a Haar-ish isometry into output x environment."""
    return _stinespring_channels(*rng.standard_normal((2, n * n, n)))


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
    channel: Union[KrausChannel, _Depolarizing],
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
    lhs, rhs = (float(v[0, 0]) for v in _lengths([trial], [f])[0])
    if trial.inconclusive[0]:
        return MonotonicityReport(lhs, rhs, float("nan"), True, True)
    return MonotonicityReport(lhs, rhs, rhs - lhs, bool(trial.regularized[0]), False)


@dataclass(frozen=True)
class _ContractionTrials:
    """Contraction trials of one input and one output dimension, ready for any kernels.

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


def _lengths(stacks: Sequence[_ContractionTrials], fs: Sequence[MonotoneFunctionSpec]) -> list:
    """(lhs, rhs) of every trial of each stack under each of the K specs ``fs``, (K, m) each,
    from one kernel table over the states and outputs of every stack; row k is what spec k
    gives alone, and lhs is nan where the trial is inconclusive."""
    tables = _kernel_tables([s for t in stacks for s in (t.state[None], t.output[None])], fs)
    out = []
    for t, state, output in zip(stacks, tables[::2], tables[1::2]):
        rhs = _contract(state, t.mixture, t.mixture)
        lhs = np.full(rhs.shape, np.nan)
        lhs[:, ~t.inconclusive] = _contract(output, t.out_dir, t.out_dir)
        out.append((lhs, rhs))
    return out


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
    inputs = np.stack([points, mixtures])
    outputs, out_dirs = np.empty(inputs.shape[:-2] + (n_out, n_out), dtype=complex)
    for channel, rows in channels:  # each state and its direction in one call
        outputs[rows], out_dirs[rows] = apply_channel(channel, inputs[:, rows])
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


@functools.cache
def _scan_kernels() -> tuple:
    """The scan's six validated kernels, built on first use and shared read-only."""
    return tuple(builtin_functions(wyd_exponents=(0.2, 0.5, 0.8)))


def monotonicity_scan(seed=0, trials: int = 1000) -> list:
    """Monte-Carlo contraction margins for the built-in kernels.

    Each trial draws one of three channel kinds (depolarizing, random
    Stinespring, two-qubit partial trace) with a matching state and traceless
    tangent; the kernels (WYD at p = 0.2, 0.5, 0.8 with the other built-ins)
    are evaluated on the same seeded triples. A row's depolarizing strict
    fraction is None when no conclusive trial is depolarizing.
    """
    rng = rng_from(seed)
    # draw: each trial makes the rng calls of random_state, random_traceless_hermitian and its
    # channel builder, in that order; the linear algebra waits for the build. The simplex draw
    # stays raw, and the normals of the state, the tangent and a Stinespring isometry follow
    # one another, so one standard_normal call draws them, the same numbers in the same order
    kinds, groups = [], {}
    for t in range(trials):
        kind = int(rng.integers(0, 3))
        n = int(rng.integers(2, 4)) if kind < 2 else 4
        draws = rng.standard_exponential(n)
        normals = rng.standard_normal((4 + 2 * n if kind == 1 else 4, n, n))
        if kind == 0:
            param = float(rng.uniform(0.05, 0.95))
        elif kind == 1:
            param = normals[4:].reshape(2, n * n, n)  # random_stinespring_channel's (re, im)
        else:
            param = None
        kinds.append(kind)
        dims = (n, 2 if kind == 2 else n)
        groups.setdefault(dims, []).append((t, kind, draws, normals[:4], param))
    # build: one stacked call per layer and (input, output)-dimension group, one channel stack
    # per kind; states, outputs and rotated directions do not depend on the kernel, so one
    # stacked decomposition per group serves every kernel
    stacks = []
    for group in groups.values():
        index, kind, draws, normals, params = zip(*group)
        kind = np.array(kind)
        n = len(draws[0])
        normals = np.stack(normals)  # per trial: the state's (re, im), then the tangent's
        floor = np.where(kind == 2, 0.05, 0.1)[:, None]  # partial-trace states keep 0.05
        rho = _states(_simplex(np.stack(draws)), floor, normals[:, 0], normals[:, 1])
        channels = []
        for k in sorted(set(kind.tolist())):  # the group's kinds in ascending order
            members = np.flatnonzero(kind == k)
            drawn = [params[r] for r in members]
            if k == 0:
                channel = depolarizing_channel(n, np.array(drawn))
            elif k == 1:
                channel = _stinespring_channels(*np.stack(drawn, axis=1))
            else:
                channel = partial_trace_channel(2, 2)
            channels.append((channel, members))
        a = _traceless_hermitians(normals[:, 2], normals[:, 3])
        stacks.append((np.array(index), _contraction_trials(channels, check_state(rho), rho, a)))
    regularized = np.zeros(trials, dtype=bool)
    inconclusive = np.zeros(trials, dtype=bool)
    for index, stack in stacks:
        regularized[index] = stack.regularized
        inconclusive[index] = stack.inconclusive
    conclusive = ~inconclusive
    depolarizing = conclusive & (np.array(kinds, dtype=int) == 0)
    kernels = _scan_kernels()
    margins = np.empty((len(kernels), trials))
    for (index, _), (lhs, rhs) in zip(stacks, _lengths([stack for _, stack in stacks], kernels)):
        margins[:, index] = rhs - lhs
    rows = []
    for f, margin in zip(kernels, margins):
        rows.append(
            {
                "metric": f.name,
                "trials": trials,
                # builtin min keeps the first of equal minima (0.0, -0.0) in trial order
                "min_margin": float(min(margin[conclusive], default=np.inf)),
                "depolarizing_strict_fraction": (
                    int(np.sum(margin[depolarizing] > 0.0)) / int(np.sum(depolarizing))
                    if depolarizing.any() else None
                ),
                "regularized": int(np.sum(regularized & conclusive)),
                "inconclusive": int(np.sum(inconclusive)),
            }
        )
    return rows
