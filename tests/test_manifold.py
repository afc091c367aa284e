import numpy as np
import pytest
from conftest import _scalar_hessian

from qiglab.gibbs import gibbs_family
from qiglab.linalg import apply_scalar_function, hs_inner, spectral_decompose
from qiglab.manifold import (
    _scalar_gradient,
    affine_coordinates,
    alpha_representation,
    check_state,
    check_weight,
    embedding_function,
    inverse_embedding_function,
    linear_family,
    representation_convert,
    simplex_family,
    sphere_project,
    state_tangent,
    weight_tangent,
    xi_affine_family,
)
from qiglab.sampling import (
    hermitian_basis,
    pauli_matrices,
    random_state,
    random_traceless_hermitian,
    random_weight,
    rng_from,
)

I2, SX, SY, SZ = pauli_matrices()


def _embed(sigma, alpha):
    return apply_scalar_function(check_weight(sigma), embedding_function(alpha))


def test_alpha_embed_zero_is_twice_sqrt():
    rho = np.diag([0.75, 0.25]).astype(complex)
    np.testing.assert_allclose(_embed(rho, 0.0), 2.0 * np.diag(np.sqrt([0.75, 0.25])), atol=1e-14)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_embedded_state_lands_on_sphere(alpha):
    # ||embed(rho)||_r = r with r = 2/(1 - alpha), for every density matrix
    rng = rng_from(20)
    rho = random_state(rng, 3)
    r = 2.0 / (1.0 - alpha)
    singular = np.linalg.svd(_embed(rho, alpha), compute_uv=False)
    assert np.sum(singular**r) ** (1.0 / r) == pytest.approx(r, rel=1e-12)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7])
def test_embedding_inverse_roundtrip(alpha):
    rng = rng_from(21)
    sigma = random_state(rng, 3) * 1.7  # weight, not unit trace
    embedded = _embed(sigma, alpha)
    back = apply_scalar_function(spectral_decompose(embedded), inverse_embedding_function(alpha))
    np.testing.assert_allclose(back, sigma, atol=1e-12)


def test_alpha_representation_oracle():
    # at I/2 every profile acts by its scalar derivative at 1/2; for the
    # order-0 embedding 2*sqrt(x) that derivative is sqrt(2)
    v = state_tangent(I2 / 2, SZ)
    np.testing.assert_allclose(alpha_representation(v, 0.0), np.sqrt(2.0) * SZ, atol=1e-14)


def test_alpha_representation_mixture_is_identity():
    rng = rng_from(22)
    rho = random_state(rng, 3)
    x = random_traceless_hermitian(rng, 3)
    v = state_tangent(rho, x)
    np.testing.assert_allclose(alpha_representation(v, -1.0), x, atol=1e-12)


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_alpha_representation_rejects_a_base_off_the_positive_cone(alpha):
    # diag(1, -0.5): the identity embedding at alpha = -1 would pass it through
    v = weight_tangent(np.diag([1.0, -0.5]).astype(complex), SZ)
    with pytest.raises(ValueError, match=r"not positive definite \(off the positive cone\)"):
        alpha_representation(v, alpha)


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_alpha_representation_tangency(alpha):
    # Tr(rho^((1+alpha)/2) A) = 0 for the representation of a state tangent
    rng = rng_from(23)
    rho = random_state(rng, 3)
    v = state_tangent(rho, random_traceless_hermitian(rng, 3))
    a = alpha_representation(v, alpha)
    spec = spectral_decompose(rho)
    p_plus = apply_scalar_function(spec, lambda x: x ** (0.5 * (1.0 + alpha)))
    assert abs(hs_inner(p_plus, a)) < 1e-12


def test_representation_convert_oracle():
    got = representation_convert(I2 / 2, SX, -1.0, 0.0)
    np.testing.assert_allclose(got, np.sqrt(2.0) * SX, atol=1e-14)


@pytest.mark.parametrize("pair", [(-1.0, 0.5), (0.0, 1.0), (-0.3, 0.9)])
def test_representation_convert_roundtrip(pair):
    a, b = pair
    rng = rng_from(24)
    rho = random_state(rng, 3)
    w = random_traceless_hermitian(rng, 3)
    back = representation_convert(rho, representation_convert(rho, w, a, b), b, a)
    np.testing.assert_allclose(back, w, atol=1e-11)
    # a base given as its Spectrum converts exactly like the matrix
    np.testing.assert_allclose(
        representation_convert(spectral_decompose(rho), w, a, b),
        representation_convert(rho, w, a, b),
        rtol=0.0,
        atol=1e-14,
    )


def test_representation_convert_matches_alpha_representation():
    rng = rng_from(25)
    rho = random_state(rng, 3)
    v = state_tangent(rho, random_traceless_hermitian(rng, 3))
    direct = alpha_representation(v, 0.5)
    converted = representation_convert(rho, alpha_representation(v, -1.0), -1.0, 0.5)
    np.testing.assert_allclose(direct, converted, atol=1e-12)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0])
def test_sphere_project_idempotent_and_kernel(alpha):
    rng = rng_from(26)
    rho = random_state(rng, 3)
    a = np.asarray(rng.standard_normal((3, 3)), dtype=complex)
    a = 0.5 * (a + a.conj().T)
    once = sphere_project(rho, alpha, a)
    twice = sphere_project(rho, alpha, once)
    np.testing.assert_allclose(twice, once, atol=1e-12)
    from_spectrum = sphere_project(spectral_decompose(rho), alpha, a)
    np.testing.assert_allclose(from_spectrum, once, rtol=0.0, atol=1e-14)
    # the embedded radial direction rho^((1-alpha)/2) is annihilated
    radial = apply_scalar_function(spectral_decompose(rho), lambda x: x ** (0.5 * (1.0 - alpha)))
    np.testing.assert_allclose(sphere_project(rho, alpha, radial), 0.0, atol=1e-12)


def test_sphere_project_fixes_tangent_representations():
    rng = rng_from(27)
    rho = random_state(rng, 3)
    v = state_tangent(rho, random_traceless_hermitian(rng, 3))
    rep = alpha_representation(v, 0.5)
    np.testing.assert_allclose(sphere_project(rho, 0.5, rep), rep, atol=1e-12)


def test_state_and_weight_validation_per_matrix_of_a_stack():
    states = np.stack([np.diag([0.5, 0.5]), np.diag([0.3, 0.7])]).astype(complex)
    spec = check_state(states)  # each matrix has unit trace; the stack as a whole does not
    np.testing.assert_array_equal(spec.eigenvalues, [[0.5, 0.5], [0.3, 0.7]])
    assert check_state(spec) is spec
    with pytest.raises(ValueError, match=r"unit-trace state at stack index 1: trace 2\.0 "):
        check_state(np.stack([states[0], 2.0 * states[1], states[1]]))
    with pytest.raises(ValueError, match=r"positive cone\) at stack index 2: min eigenvalue -1"):
        check_weight(np.stack([states[0], states[1], np.diag([1.0, -0.1]).astype(complex)]))
    with pytest.raises(ValueError, match=r"at stack index \(1, 0\)"):
        check_weight(np.stack([states, -states]))


def test_state_and_weight_validation():
    with pytest.raises(ValueError, match="trace"):
        check_state(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError, match="positive definite"):
        check_weight(np.diag([1.0, -0.1]).astype(complex))
    # an existing Spectrum is validated as it is
    with pytest.raises(ValueError, match="unit-trace"):
        check_state(spectral_decompose(np.diag([0.7, 0.7]).astype(complex)))
    with pytest.raises(ValueError, match="positive definite"):
        check_weight(spectral_decompose(np.diag([1.0, -0.1]).astype(complex)))
    spec = check_state(np.diag([0.75, 0.25]).astype(complex))
    np.testing.assert_array_equal(spec.eigenvalues, [0.25, 0.75])
    with pytest.raises(ValueError, match="traceless"):
        state_tangent(I2 / 2, np.diag([1.0, 0.0]).astype(complex))
    # weight tangents carry no trace constraint
    weight_tangent(np.diag([1.0, 2.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex))


def test_affine_coordinates_oracle():
    basis = [I2, SZ]
    xi = affine_coordinates(np.diag([1.0, 4.0]).astype(complex), 0.0, basis)
    np.testing.assert_allclose(xi, [3.0, -1.0], atol=1e-13)


def test_affine_coordinates_rejects_dependent_basis():
    with pytest.raises(ValueError, match="independent"):
        affine_coordinates(I2, 0.0, [SZ, 2.0 * SZ])


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_xi_affine_family_roundtrip(alpha):
    rng = rng_from(28)
    basis = [I2, SX, SY, SZ]
    sigma = random_state(rng, 2) * 1.3
    xi = affine_coordinates(sigma, alpha, basis)
    fam = xi_affine_family(basis, alpha)
    np.testing.assert_allclose(fam.point(xi), sigma, atol=1e-12)


def test_xi_affine_family_rejects_nonpositive_combination():
    fam = xi_affine_family([I2, SZ], 0.0)
    with pytest.raises(ValueError, match="positive cone"):
        fam.point(np.array([1.0, 2.0]))


def test_xi_affine_family_analytic_matches_fd():
    basis = [I2, SX, SZ]
    xi0 = affine_coordinates(np.diag([0.8, 0.6]).astype(complex), 0.3, basis)
    exact = xi_affine_family(basis, 0.3)
    # the stencil sees only the chart values, never the chart's jacobian
    fd = _scalar_gradient(exact.point, xi0)
    for i in range(3):
        np.testing.assert_allclose(exact.tangent_matrices(xi0)[i], fd[i], atol=1e-8)


def test_tangent_matrix_is_chart_derivative():
    fam = simplex_family(3)
    theta = np.array([0.5, 0.3])
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0], want[2, 2] = 1.0, -1.0
    np.testing.assert_allclose(fam.tangent_matrices(theta)[0], want, atol=1e-14)
    np.testing.assert_allclose(fam.point(theta), np.diag([0.5, 0.3, 0.2]), atol=1e-14)


def test_point_and_spectrum_decomposes_the_chart_value():
    fam = simplex_family(3)
    theta, sigma, spec = fam.point_and_spectrum([0.5, 0.3])
    np.testing.assert_array_equal(theta, [0.5, 0.3])
    np.testing.assert_array_equal(sigma, fam.point(theta))
    np.testing.assert_allclose(spec.eigenvalues, [0.2, 0.3, 0.5], atol=1e-15)
    np.testing.assert_allclose(spec.matrix(), sigma, atol=1e-15)


def test_linear_family_hessian_is_zero():
    fam = linear_family(I2, [SX / 2, SZ / 2])
    theta = np.array([0.1, -0.2])
    np.testing.assert_array_equal(fam.hessians(theta), np.zeros((2, 2, 2, 2)))
    np.testing.assert_allclose(fam.point(theta), I2 + 0.05 * SX - 0.1 * SZ, atol=1e-15)


def _xi_affine_chart(alpha):
    basis = hermitian_basis(3)
    sigma = random_weight(rng_from(23), 3, 0.5, 2.0)
    return xi_affine_family(basis, alpha), affine_coordinates(sigma, alpha, basis)


def _gibbs_chart():
    rng = rng_from(71)
    gibbs = gibbs_family([random_traceless_hermitian(rng, 3) for _ in range(2)])
    return gibbs.family, np.array([0.4, -0.1])


ANALYTIC_CHARTS = {
    "linear": lambda: (linear_family(I2 / 2, [SX / 4, SZ / 4]), np.array([0.3, -0.2])),
    **{f"xi-affine({a:g})": (lambda a=a: _xi_affine_chart(a)) for a in (-1.0, -0.5, 0.5, 1.0)},
    "gibbs": _gibbs_chart,
}


@pytest.mark.parametrize("name", list(ANALYTIC_CHARTS))
def test_analytic_hessians_match_the_central_stencil(name):
    # an independent oracle: the stencil sees only the chart, never its hessians
    fam, theta = ANALYTIC_CHARTS[name]()
    d = fam.param_dim
    hessians = fam.hessians(theta)
    assert hessians.shape == (d, d) + fam.point(theta).shape
    np.testing.assert_allclose(hessians, _scalar_hessian(fam.point, theta), rtol=0, atol=1e-6)
