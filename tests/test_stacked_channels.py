"""A stack of trials gives, matrix by matrix, the bits of one trial at a time.

The monotonicity scan draws every trial first and then builds its states,
tangents and channels in stacked calls. Here the stacked samplers, channel
builders and `apply_channel` are held to the one-matrix public calls exactly,
at n = 2-4, and each channel's closed form to the Kraus-loop sum of its Kraus
operators.
"""

import ast
import pathlib

import numpy as np
import pytest
from conftest import depolarizing_kraus, kraus_loop
from numpy.testing import assert_array_equal

import qiglab
from qiglab.monotonicity import (
    KrausChannel,
    _Depolarizing,
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


def _held(channel):
    """The arrays a channel holds: its weight if depolarizing, else its Kraus operators."""
    return (channel.t,) if isinstance(channel, _Depolarizing) else channel.kraus_ops


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_channels_equal_the_one_matrix_builders(n):
    for stacked, singles in _one_matrix_channels(n):
        assert (stacked.dim_in, stacked.dim_out) == (n, n)
        for k, single in enumerate(singles):
            assert len(_held(stacked)) == len(_held(single))
            for op, one in zip(_held(stacked), _held(single)):
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
    ops = depolarizing_kraus(2, np.full(4, 0.3))
    broken = ops[0].copy()
    broken[2] *= 1.0 + 1e-8  # off by about 1.6e-8, above the 1e-10 tolerance
    with pytest.raises(ValueError, match="completeness .* at stack index 2$"):
        KrausChannel((broken,) + ops[1:])


def test_stacked_depolarizing_weight_outside_the_unit_interval_names_the_stack_index():
    with pytest.raises(ValueError, match=r"got 1\.2 at stack index 3$"):
        depolarizing_channel(3, np.array([0.1, 0.5, 0.9, 1.2]))
    with pytest.raises(ValueError, match=r"got -0\.1$"):
        depolarizing_channel(3, -0.1)


def test_completeness_check_fails_nan_operators():
    with pytest.raises(ValueError, match="completeness sum deviates from identity by nan$"):
        KrausChannel((np.full((2, 2), np.nan),))
    ops = depolarizing_kraus(2, np.full(3, 0.3))
    broken = ops[0].copy()
    broken[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="by nan at stack index 1$"):
        KrausChannel((broken,) + ops[1:])


def test_channel_builders_reject_empty_dimensions():
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        depolarizing_channel(0, 0.5)
    with pytest.raises(ValueError, match="dim_keep=0, dim_drop=2"):
        partial_trace_channel(0, 2)
    with pytest.raises(ValueError, match="dim_keep=2, dim_drop=0"):
        partial_trace_channel(2, 0)


def test_apply_channel_rejects_a_stack_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="input dim 3"):
        apply_channel(depolarizing_channel(3, np.full(2, 0.5)), np.zeros((2, 2, 2)))


def test_apply_channel_names_both_stacks_when_they_do_not_broadcast():
    rng = rng_from(7)
    x = np.stack([random_state(rng, 2) for _ in range(4)])
    stinespring = _stinespring_channels(*rng.standard_normal((2, 2, 3, 4, 2)))
    for channel, stack in ((depolarizing_channel(2, np.full(3, 0.5)), r"\(3,\)"),
                           (stinespring, r"\(2, 3\)")):
        with pytest.raises(ValueError, match=rf"channel stack {stack} .* input stack \(4,\)$"):
            apply_channel(channel, x)


def test_partial_trace_channel_is_built_once_and_shared_read_only():
    channel = partial_trace_channel(2, 2)
    assert partial_trace_channel(2, 2) is channel
    for op in channel.kraus_ops:
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 2.0
    assert_array_equal(apply_channel(channel, np.eye(4) / 4), np.eye(2) / 2)


# The closed forms round in another order than the Kraus loop: depolarizing replaces the n^2
# Weyl terms by one trace, and an isometry multiplies whole blocks and adds the environment
# terms in numpy's reduction order. They agree with the loop to this multiple of the output's
# largest entry; the worst over these stacks at n = 2-4 was 5.6e-16 (depolarizing), 2.6e-16
# (Stinespring) and 8.7e-17 (the Weyl Kraus set as a KrausChannel).
CLOSED_FORM_RTOL = 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_forms_equal_the_kraus_loop(n):
    for seed in range(6):
        rng = rng_from(100 * n + seed)
        t = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=6)])
        x = np.stack([random_hermitian(rng, n) for _ in t])
        re, im = rng.standard_normal((2, len(t), n * n, n))
        v = np.linalg.qr(re + 1j * im)[0]
        for channel, ops in (
            (depolarizing_channel(n, t), depolarizing_kraus(n, t)),
            (_stinespring_channels(re, im), [v[:, k * n : (k + 1) * n] for k in range(n)]),
            (KrausChannel(depolarizing_kraus(n, t)), depolarizing_kraus(n, t)),
        ):
            want = kraus_loop(ops, x)
            got = apply_channel(channel, x)
            assert np.abs(got - want).max() <= CLOSED_FORM_RTOL * np.abs(want).max()


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (1, 2), (4, 1), (2, 3), (1, 4)])
def test_partial_trace_keeps_the_bits_of_the_kraus_loop(dims):
    # the isometry is a permutation, so V X V† moves entries without rounding; the trace over
    # an environment of two adds the loop's two terms in the loop's order, which is the scan's
    # case, while from three terms on numpy's reduction groups them its own way
    dim_keep, dim_drop = dims
    rng = rng_from(sum(dims))
    x = np.stack([random_hermitian(rng, dim_keep * dim_drop) for _ in SEEDS])
    bras = np.eye(dim_drop)[:, None]
    want = kraus_loop([np.kron(np.eye(dim_keep), bra) for bra in bras], x)
    got = apply_channel(partial_trace_channel(*dims), x)
    if dim_drop <= 2:
        assert_array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= CLOSED_FORM_RTOL * np.abs(want).max()


def test_no_kraus_loop_and_no_weyl_set_in_the_library():
    # every channel applies in closed form: apply_channel loops over nothing, and the Weyl
    # Kraus set lives only in the tests, as the oracle for the depolarizing map
    root = pathlib.Path(qiglab.__file__).parent
    tree = ast.parse((root / "monotonicity.py").read_text())
    apply = next(f for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) and f.name == "apply_channel")
    assert not any(isinstance(node, (ast.For, ast.comprehension)) for node in ast.walk(apply))
    for path in sorted(root.glob("*.py")):
        assert "_weyl_operators" not in path.read_text(), path.name
