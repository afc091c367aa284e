"""A stack of trials gives, matrix by matrix, the bits of one trial at a time.

The monotonicity scan draws every trial first and then builds its states,
tangents and channels in stacked calls. Here the stacked samplers, channel
builders and `apply_channel` are held to the one-matrix public calls exactly,
at n = 2-4, and the stacked depolarizing channel to its closed form.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from qiglab.monotonicity import (
    KrausChannel,
    _stinespring_channels,
    apply_channel,
    depolarizing_channel,
    partial_trace_channel,
    random_stinespring_channel,
)
from qiglab.sampling import (
    _haar_unitaries,
    _states,
    _traceless_hermitians,
    haar_unitary,
    random_hermitian,
    random_state,
    random_traceless_hermitian,
    rng_from,
)

SEEDS = range(6)


def _floor(seed):
    return 0.05 if seed % 2 else 0.1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_samplers_equal_the_one_matrix_samplers(n):
    draws = []
    for seed in SEEDS:
        rng = rng_from(seed)
        # the draws of random_state, then of random_traceless_hermitian
        draws.append((rng.dirichlet(np.ones(n)), *(rng.standard_normal((n, n)) for _ in range(4))))
    weights, g_re, g_im, a_re, a_im = (np.stack(x) for x in zip(*draws))
    floors = np.array([_floor(seed) for seed in SEEDS])[:, None]
    states = _states(weights, floors, g_re, g_im)
    unitaries = _haar_unitaries(g_re, g_im)
    tangents = _traceless_hermitians(a_re, a_im)
    for k, seed in enumerate(SEEDS):
        rng = rng_from(seed)
        assert_array_equal(states[k], random_state(rng, n, _floor(seed)))
        assert_array_equal(tangents[k], random_traceless_hermitian(rng, n))
        rng = rng_from(seed)
        rng.dirichlet(np.ones(n))
        assert_array_equal(unitaries[k], haar_unitary(rng, n))
        # column j of Q times the phase of R_jj, which leaves R's diagonal positive
        q, r = np.linalg.qr((g_re[k] + 1j * g_im[k]) / np.sqrt(2.0))
        d = np.diagonal(r)
        assert_array_equal(unitaries[k], q * (d / np.abs(d)))


def _one_matrix_channels(n):
    """(stacked channel, its one-matrix channels) for every channel kind of the scan."""
    t = np.linspace(0.0, 1.0, 5)
    depolarizing = [depolarizing_channel(n, float(tk)) for tk in t]
    normals = []
    for seed in SEEDS:
        rng = rng_from(seed)
        normals.append((rng.standard_normal((n * n, n)), rng.standard_normal((n * n, n))))
    re, im = (np.stack(x) for x in zip(*normals))
    stinespring = [random_stinespring_channel(rng_from(seed), n) for seed in SEEDS]
    return [
        (depolarizing_channel(n, t), depolarizing),
        (_stinespring_channels(re, im), stinespring),
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_channels_equal_the_one_matrix_builders(n):
    for stacked, singles in _one_matrix_channels(n):
        assert (stacked.dim_in, stacked.dim_out) == (n, n)
        for k, single in enumerate(singles):
            assert len(stacked.kraus_ops) == len(single.kraus_ops)
            for op, one in zip(stacked.kraus_ops, single.kraus_ops):
                assert_array_equal(op[k], one)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_apply_channel_equals_per_matrix_calls(n):
    rng = rng_from(10 + n)
    for stacked, singles in _one_matrix_channels(n):
        x = np.stack([random_hermitian(rng, n) for _ in singles])
        out = apply_channel(stacked, x)
        for k, single in enumerate(singles):
            assert_array_equal(out[k], apply_channel(single, x[k]))
    # one channel acts on a whole stack of inputs
    trace_out = partial_trace_channel(2, 2)
    x = np.stack([random_state(rng, 4) for _ in SEEDS])
    out = apply_channel(trace_out, x)
    for k in range(len(x)):
        assert_array_equal(out[k], apply_channel(trace_out, x[k]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_depolarizing_matches_its_closed_form(n):
    rng = rng_from(20 + n)
    t = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=6)])
    x = np.stack([random_hermitian(rng, n) for _ in t])
    trace = np.trace(x, axis1=-2, axis2=-1)
    want = (1.0 - t)[:, None, None] * x + (t * trace / n)[:, None, None] * np.eye(n)
    out = apply_channel(depolarizing_channel(n, t), x)
    np.testing.assert_allclose(out, want, rtol=0.0, atol=1e-13)


def test_stacked_completeness_failure_names_the_stack_index():
    ops = depolarizing_channel(2, np.full(4, 0.3)).kraus_ops
    broken = ops[0].copy()
    broken[2] *= 1.0 + 1e-8  # off by about 1.6e-8, above the 1e-10 tolerance
    with pytest.raises(ValueError, match="completeness .* at stack index 2$"):
        KrausChannel((broken,) + ops[1:])


def test_stacked_depolarizing_weight_outside_the_unit_interval_names_the_stack_index():
    with pytest.raises(ValueError, match=r"got 1\.2 at stack index 3$"):
        depolarizing_channel(3, np.array([0.1, 0.5, 0.9, 1.2]))
    with pytest.raises(ValueError, match=r"got -0\.1$"):
        depolarizing_channel(3, -0.1)


def test_apply_channel_rejects_a_stack_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="input dim 3"):
        apply_channel(depolarizing_channel(3, np.full(2, 0.5)), np.zeros((2, 2, 2)))


def test_partial_trace_channel_is_built_once_and_shared_read_only():
    channel = partial_trace_channel(2, 2)
    assert partial_trace_channel(2, 2) is channel
    for op in channel.kraus_ops:
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 2.0
    assert_array_equal(apply_channel(channel, np.eye(4) / 4), np.eye(2) / 2)
