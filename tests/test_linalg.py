import numpy as np
import pytest

from qiglab.linalg import (
    Spectrum,
    apply_scalar_function,
    check_hermitian,
    divided_difference_matrix,
    exp_function,
    frechet_derivative,
    frechet_second_derivative,
    hermitize,
    hs_inner,
    identity_function,
    log_function,
    power_function,
    spectral_decompose,
)
from qiglab.manifold import embedding_function, inverse_embedding_function
from qiglab.sampling import haar_unitary, random_hermitian, rng_from


def test_hermitize_symmetrizes():
    rng = rng_from(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = hermitize(a)
    np.testing.assert_allclose(h, h.conj().T)


def test_check_hermitian_reports_worst_entry():
    a = np.eye(2, dtype=complex)
    a[0, 1] = 1e-3
    with pytest.raises(ValueError, match="not self-adjoint"):
        check_hermitian(a)


def test_check_hermitian_names_the_stack_index():
    stack = np.stack([np.eye(2, dtype=complex)] * 3)
    stack[1, 0, 1] = 1e-3
    with pytest.raises(ValueError, match=r"at entry \(1, 0, 1\)"):
        check_hermitian(stack)
    ok = np.stack([np.eye(2, dtype=complex)] * 2)
    np.testing.assert_array_equal(check_hermitian(ok), ok)


def test_hs_inner_and_schatten():
    a = np.diag([1.0, -2.0]).astype(complex)
    assert hs_inner(a, a) == pytest.approx(5.0)
    singular = np.linalg.svd(a, compute_uv=False)
    assert np.sum(singular**1) == pytest.approx(3.0)
    assert np.sum(singular**2) ** 0.5 == pytest.approx(np.sqrt(5.0))
    with pytest.raises(ValueError):
        hs_inner(a, np.eye(3, dtype=complex))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectral_decompose_roundtrip(n):
    rng = rng_from(n)
    a = random_hermitian(rng, n)
    spec = spectral_decompose(a)
    np.testing.assert_allclose(spec.matrix(), a, atol=1e-12)
    m = random_hermitian(rng, n)
    np.testing.assert_allclose(spec.from_eigenbasis(spec.to_eigenbasis(m)), m, atol=1e-12)


def test_scalar_function_values_and_pairs():
    """Built-in scalar profiles and their cancellation-free pair forms."""
    sq = power_function(2.0)
    assert sq(3.0) == pytest.approx(9.0)
    assert sq.pair(2.0, 5.0) == pytest.approx(7.0)  # (x^2-y^2)/(x-y) = x+y
    lg = log_function()
    assert lg.pair(1.0, np.e) == pytest.approx(1.0 / (np.e - 1.0))
    ex = exp_function()
    assert ex.pair(0.0, 1.0) == pytest.approx(np.e - 1.0)
    ident = identity_function()
    assert ident(7.5) == 7.5
    # pair forms stay accurate when the gap is far below sqrt(eps)
    x, y = 1.0, 1.0 + 1e-12
    assert sq.pair(y, x) == pytest.approx(x + y, rel=1e-13)
    assert lg.pair(y, x) == pytest.approx(1.0 / np.sqrt(x * y), rel=1e-6)


def test_divided_difference_matrix_square():
    eig = np.array([1.0, 2.0, 4.0])
    dd = divided_difference_matrix(eig, power_function(2.0))
    np.testing.assert_allclose(dd, eig[:, None] + eig[None, :])


def test_divided_difference_matrix_coincident_uses_derivative():
    eig = np.array([2.0, 2.0, 3.0])
    dd = divided_difference_matrix(eig, log_function())
    assert dd[0, 1] == pytest.approx(0.5)


def test_divided_difference_matrix_needs_a_derivative():
    # a plain callable carries no derivative, and the diagonal f[x, x] = f'(x) needs one
    with pytest.raises(ValueError, match="'sqrt' needs a derivative"):
        divided_difference_matrix(np.array([1.0, 2.0]), np.sqrt)


def test_divided_difference_matrix_domain_error_names_eigenvalues():
    # the elementwise pair forms give nan outside the domain; the kernel must not pass it on
    with pytest.raises(ValueError, match=r"'log' undefined at eigenvalues \[1\.0, -2\.0\]"):
        frechet_derivative(Spectrum(np.array([1.0, -2.0]), np.eye(2)), np.eye(2), log_function())


def test_apply_scalar_function_log():
    rng = rng_from(3)
    a = random_hermitian(rng, 3)
    a = a @ a.conj().T + np.eye(3)
    spec = spectral_decompose(a)
    lg = apply_scalar_function(spec, log_function())
    np.testing.assert_allclose(apply_scalar_function(spectral_decompose(lg), exp_function()), a, atol=1e-10)


def test_apply_scalar_function_calls_f_once_per_stack():
    seen = []

    def f(x):
        seen.append(np.shape(x))
        return np.sqrt(x)

    rng = rng_from(4)
    factors = [random_hermitian(rng, 3) for _ in range(2)]
    stack = np.stack([hermitize(a @ a.conj().T) + np.eye(3) for a in factors])
    out = apply_scalar_function(spectral_decompose(stack), f)
    assert seen == [(2, 3)]
    for k in range(2):
        alone = apply_scalar_function(spectral_decompose(stack[k]), f)
        np.testing.assert_array_equal(out[k], alone)


def test_apply_scalar_function_domain_error_names_eigenvalue():
    spec = spectral_decompose(np.diag([1.0, -2.0]).astype(complex))
    with pytest.raises(ValueError, match="-2"):
        apply_scalar_function(spec, log_function())


def test_frechet_derivative_square_is_anticommutator():
    rng = rng_from(4)
    a = random_hermitian(rng, 3)
    e = random_hermitian(rng, 3)
    spec = spectral_decompose(a)
    got = frechet_derivative(spec, e, power_function(2.0))
    np.testing.assert_allclose(got, a @ e + e @ a, atol=1e-12)


@pytest.mark.parametrize("fun", [log_function(), exp_function(), power_function(0.5)])
def test_frechet_derivative_matches_finite_difference(fun):
    rng = rng_from(5)
    a = random_hermitian(rng, 3)
    a = a @ a.conj().T + 2.0 * np.eye(3)
    e = random_hermitian(rng, 3)
    spec = spectral_decompose(a)
    got = frechet_derivative(spec, e, fun)
    h = 1e-6

    def f_of(m):
        return apply_scalar_function(spectral_decompose(m), fun)

    fd = (f_of(a + h * e) - f_of(a - h * e)) / (2.0 * h)
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-8)


def test_frechet_second_derivative_cube():
    # D^2(A^3)[E, F] = sum of the six orderings with one A and E, F.
    # Base kept positive definite: the stable power pair form lives on (0, inf).
    rng = rng_from(6)
    a = random_hermitian(rng, 3)
    a = a @ a.conj().T + np.eye(3)
    e = random_hermitian(rng, 3)
    f = random_hermitian(rng, 3)
    spec = spectral_decompose(a)
    got = frechet_second_derivative(spec, e, f, power_function(3.0))
    want = e @ f @ a + f @ e @ a + e @ a @ f + f @ a @ e + a @ e @ f + a @ f @ e
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("eigs", [[1.0, 2.0, 4.0], [1.0, 1.0, 3.0], [2.0, 2.0, 2.0]])
def test_frechet_second_derivative_matches_fd(eigs):
    """Second divided differences, including degenerate eigenvalue clusters."""
    rng = rng_from(7)
    u = haar_unitary(rng, 3)
    a = hermitize((u * np.array(eigs)) @ u.conj().T)
    e = random_hermitian(rng, 3)
    fun = exp_function()
    spec = spectral_decompose(a)
    got = frechet_second_derivative(spec, e, e, fun)
    h = 1e-4

    def f_of(m):
        return apply_scalar_function(spectral_decompose(m), fun)

    fd = (f_of(a + h * e) - 2.0 * f_of(a) + f_of(a - h * e)) / (h * h)
    np.testing.assert_allclose(got, fd, atol=5e-6)


def test_frechet_second_symmetric_in_directions():
    rng = rng_from(8)
    a = random_hermitian(rng, 4)
    a = a @ a.conj().T + np.eye(4)
    e = random_hermitian(rng, 4)
    f = random_hermitian(rng, 4)
    spec = spectral_decompose(a)
    fun = log_function()
    np.testing.assert_allclose(
        frechet_second_derivative(spec, e, f, fun),
        frechet_second_derivative(spec, f, e, fun),
        atol=1e-12,
    )


def _power_profiles():
    """name -> (ScalarFunction, exponent) for the embedding profiles and their inverses, each
    c x^e with e = (1 - alpha)/2 or its reciprocal, at the orders that build connections."""
    out = {}
    for alpha in (-0.9, -0.5, 0.0, 0.5, 0.9):
        s = 0.5 * (1.0 - alpha)
        out[f"embed({alpha:g})"] = (embedding_function(alpha), s)
        out[f"unembed({alpha:g})"] = (inverse_embedding_function(alpha), 1.0 / s)
    return out


POWER_PROFILES = _power_profiles()
POSITIVE_SCALES = (1e-6, 1e-3, 0.3, 1.0, 2.0)


@pytest.mark.parametrize("name", list(POWER_PROFILES) + ["log", "exp"])
def test_second_divided_difference_matches_mpmath(name):
    # f[x, y, z] against 50 digits, for triples x0 + |x0| s (0, t, 1), t in {0.3, 0.5}, and
    # (x0, x0 + |x0| s, x0 + 1), spreads s from 1e-12 to 1e-2, four per decade: across the
    # confluent window and the quotient beyond it, and two eigenvalues close with the third far.
    # At diag(x, y, z), with E = e0 e1^T and F = e1 e2^T (not self-adjoint, so nothing is
    # symmetrized), entry (0, 2) of D^2 f[E, F] is f[x, y, z] exactly.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    scales, factor = POSITIVE_SCALES, 1.0
    if name == "log":
        fun, mp_f = log_function(), mp.log
    elif name == "exp":
        fun, mp_f = exp_function(), mp.exp
        scales = (-10.0, -1e-3) + POSITIVE_SCALES
    else:
        fun, e = POWER_PROFILES[name]
        factor = fun.fn(1.0)  # the profile is factor * x^e

        def mp_f(x):
            return x ** mp.mpf(e)

    triples = []
    for x0 in scales:
        for s in 10.0 ** np.arange(-12.0, -1.75, 0.25):
            step = abs(x0) * s
            triples += [(x0, x0 + 0.3 * step, x0 + step), (x0, x0 + 0.5 * step, x0 + step)]
            triples.append((x0, x0 + step, x0 + 1.0))
    lam = np.array(triples)
    assert (np.diff(lam, axis=1) > 0.0).all()
    first, second = np.zeros((3, 3)), np.zeros((3, 3))
    first[0, 1] = second[1, 2] = 1.0
    eye = np.broadcast_to(np.eye(3, dtype=complex), lam.shape + (3,))
    got = frechet_second_derivative(Spectrum(lam, eye), first, second, fun)[:, 0, 2].real

    def second_difference(x, y, z):
        x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
        fx, fy, fz = mp_f(x), mp_f(y), mp_f(z)
        return ((fx - fy) / (x - y) - (fy - fz) / (y - z)) / (x - z)

    worst = 0.0
    for g, t in zip(got, triples):
        want = second_difference(*t)
        worst = max(worst, abs(float((g / factor - want) / want)))
    # worst recorded: 3.5e-11 (unembed(-0.5)); an absolute 1e-7 coincidence window with a
    # first-order midpoint value was off by up to 6.7e-4 here (unembed(0.9))
    assert worst <= 1e-8
