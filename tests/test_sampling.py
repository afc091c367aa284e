import numpy as np
import pytest

from qiglab.sampling import (
    _random_weights,
    _simplex,
    _states,
    _states_with_tangents,
    _traceless_hermitians,
    haar_unitary,
    hermitian_basis,
    pauli_matrices,
    random_hermitian,
    random_state,
    random_traceless_hermitian,
    random_weight,
    rng_from,
)


def test_rng_from_is_deterministic_and_accepts_sequences():
    a = rng_from(3).standard_normal(4)
    b = rng_from(3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = rng_from([3, 7]).standard_normal(4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hermitian_basis_is_orthonormal(n):
    basis = hermitian_basis(n)
    assert len(basis) == n * n
    for i, x in enumerate(basis):
        np.testing.assert_allclose(x, x.conj().T, atol=1e-14)
        for j, y in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert np.trace(x.conj().T @ y).real == pytest.approx(want, abs=1e-13)


def test_pauli_matrices_square_to_identity():
    i2, sx, sy, sz = pauli_matrices()
    for s in (sx, sy, sz):
        np.testing.assert_allclose(s @ s, i2, atol=1e-15)
    np.testing.assert_allclose(sx @ sy, 1j * sz, atol=1e-15)


def test_haar_unitary_is_unitary():
    u = haar_unitary(rng_from(1), 4)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_random_hermitian_and_traceless():
    rng = rng_from(2)
    h = random_hermitian(rng, 3)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
    t = random_traceless_hermitian(rng, 3)
    assert abs(np.trace(t)) < 1e-13
    np.testing.assert_allclose(t, t.conj().T, atol=1e-14)


def test_random_state_spectrum_floor():
    rng = rng_from(4)
    for n in (2, 3, 4):
        rho = random_state(rng, n, floor=0.05)
        lam = np.linalg.eigvalsh(rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert lam.min() >= 0.05 / n - 1e-12


def test_random_weight_respects_bounds():
    rng = rng_from(5)
    w = random_weight(rng, 3, lo=0.5, hi=2.0)
    lam = np.linalg.eigvalsh(w)
    assert lam.min() >= 0.5 - 1e-12
    assert lam.max() <= 2.0 + 1e-12


def _sample_rngs(shared: bool, samples: int) -> list:
    """One generator for every sample, or one per sample."""
    if shared:
        return [rng_from(11)] * samples
    return [rng_from([11, k]) for k in range(samples)]


@pytest.mark.parametrize("shared", [False, True], ids=["rng-per-sample", "shared-rng"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fused_state_and_tangent_draws_equal_one_matrix_at_a_time(n, shared):
    # each sample's normals come from one standard_normal call: the same numbers in the same
    # order as random_state and then random_traceless_hermitian, one matrix per call
    states, tangents = _states_with_tangents(_sample_rngs(shared, 4), n, 0.05, 2)
    rngs = _sample_rngs(shared, 4)
    for k, rng in enumerate(rngs):
        np.testing.assert_array_equal(states[k], random_state(rng, n, floor=0.05))
        for y in tangents[k]:
            np.testing.assert_array_equal(y, random_traceless_hermitian(rng, n))


@pytest.mark.parametrize("shared", [False, True], ids=["rng-per-sample", "shared-rng"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fused_weight_draws_equal_one_matrix_at_a_time(n, shared):
    weights = _random_weights(_sample_rngs(shared, 3), 2, n, 0.5, 2.0)
    one_at_a_time = [random_weight(rng, n, 0.5, 2.0) for rng in _sample_rngs(shared, 3)
                     for _ in range(2)]
    np.testing.assert_array_equal(weights, one_at_a_time)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_matrix_samplers_keep_the_stream_of_one_normal_matrix_per_call(n):
    # the stream every seeded record rests on: a Dirichlet draw, then re and im of the Haar
    # basis, then re and im of the tangent, each (n, n) in its own standard_normal call
    rng = rng_from(3)
    state = random_state(rng, n, floor=0.05)
    tangent = random_traceless_hermitian(rng, n)
    raw = rng_from(3)
    weights = raw.dirichlet(np.ones(n))
    g_re, g_im, a_re, a_im = (raw.standard_normal((n, n)) for _ in range(4))
    np.testing.assert_array_equal(state, _states(weights, 0.05, g_re, g_im))
    np.testing.assert_array_equal(tangent, _traceless_hermitians(a_re, a_im))


def _after(rng):
    """The next draws of a generator, which tell its state."""
    return rng.standard_normal(), int(rng.integers(0, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplex_of_raw_exponentials_is_the_flat_dirichlet_draw_bit_for_bit(n):
    # numpy's dirichlet at a flat concentration draws n standard exponentials, sums them left
    # to right and scales each by the reciprocal: one row and a stack of rows, each from one
    # standard_exponential call, give its bits and leave the generator where it leaves it
    for seed in range(200):
        want = rng_from(seed)
        one = want.dirichlet(np.ones(n))
        stacked = np.stack([want.dirichlet(np.ones(n)) for _ in range(3)])
        got = rng_from(seed)
        assert _simplex(got.standard_exponential(n)).tobytes() == one.tobytes()
        assert _simplex(got.standard_exponential((3, n))).tobytes() == stacked.tobytes()
        assert _after(got) == _after(want)
