"""The chart jet: sigma, its Spectrum, and the eigenbasis tangents and Hessians of one evaluation.

Oracles independent of the jet's calculus: central differences of the
chart values (``point``) for the derivatives, and ``eigvalsh`` of the chart
value for the spectrum. Counters show one decomposition and one
divided-difference matrix per profile and evaluation.
"""

import numpy as np
import pytest
from conftest import _scalar_hessian

import qiglab.manifold
from qiglab.gibbs import gibbs_family
from qiglab.manifold import (
    _scalar_gradient,
    affine_coordinates,
    linear_family,
    xi_affine_family,
)
from qiglab.sampling import (
    hermitian_basis,
    random_traceless_hermitian,
    random_weight,
    rng_from,
)


def _linear():
    rng = rng_from(41)
    directions = [0.2 * random_traceless_hermitian(rng, 3) for _ in range(3)]
    family = linear_family(random_weight(rng, 3, 0.6, 1.4), directions)
    return family, np.array([[0.3, -0.2, 0.1], [-0.1, 0.25, 0.4], [0.0, 0.0, 0.0]])


def _xi_affine(alpha):
    basis = hermitian_basis(3)
    rng = rng_from(43)
    sigmas = np.stack([random_weight(rng, 3, 0.4, 1.8) for _ in range(3)])
    return xi_affine_family(basis, alpha), affine_coordinates(sigmas, alpha, basis)


def _gibbs():
    rng = rng_from(47)
    gibbs = gibbs_family([random_traceless_hermitian(rng, 3) for _ in range(3)])
    return gibbs.family, np.array([[0.4, -0.1, 0.2], [-0.3, 0.5, 0.0], [0.1, 0.1, -0.6]])


CHARTS = {
    "linear": _linear,
    **{f"xi-affine({a:g})": (lambda a=a: _xi_affine(a)) for a in (-0.5, 0.0, 0.5, 1.0)},
    "gibbs": _gibbs,
}


def _standard(jet, eigenbasis):
    """U X U† at each point of a jet for eigenbasis matrices X with one or two direction axes."""
    u = jet.spectrum.unitary
    for _ in range(eigenbasis.ndim - u.ndim):
        u = u[..., None, :, :]
    return u @ eigenbasis @ u.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("name", list(CHARTS))
def test_jet_derivatives_match_central_differences_of_the_chart_values(name):
    family, points = CHARTS[name]()
    jet = family.jet(points, 2)
    d, n = family.param_dim, jet.sigma.shape[-1]
    assert jet.tangents.shape == (len(points), d, n, n)
    assert jet.hessians.shape == (len(points), d, d, n, n)
    tangents, hessians = _standard(jet, jet.tangents), _standard(jet, jet.hessians)
    # the stencils see only the chart values; first differences are O(h^2) = 1e-8 off
    scale = max(1.0, np.abs(tangents).max())
    np.testing.assert_allclose(
        tangents, _scalar_gradient(family.point, points), rtol=0, atol=1e-7 * scale
    )
    scale = max(1.0, np.abs(hessians).max())
    np.testing.assert_allclose(
        hessians, _scalar_hessian(family.point, points), rtol=0, atol=1e-6 * scale
    )
    # and the rotated jet is the standard-basis view of the chart
    np.testing.assert_allclose(tangents, family.tangent_matrices(points), rtol=0, atol=1e-14)
    np.testing.assert_allclose(hessians, family.hessians(points), rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("name", list(CHARTS))
def test_jet_spectrum_is_the_ascending_spectrum_of_the_chart_value(name):
    family, points = CHARTS[name]()
    jet = family.jet(points)
    lam, u = jet.spectrum.eigenvalues, jet.spectrum.unitary
    assert np.all(np.diff(lam, axis=-1) >= 0.0)
    largest = np.abs(lam).max(axis=-1, keepdims=True)
    assert (np.abs(lam - np.linalg.eigvalsh(jet.sigma)) <= 1e-12 * largest).all()
    n = lam.shape[-1]
    eye = np.broadcast_to(np.eye(n), u.shape)
    np.testing.assert_allclose(u.conj().swapaxes(-1, -2) @ u, eye, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        (u * lam[..., None, :]) @ u.conj().swapaxes(-1, -2), jet.sigma, rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("name", list(CHARTS))
def test_stacked_jet_equals_its_rows_bit_for_bit(name):
    family, points = CHARTS[name]()
    for order in (0, 1, 2):
        stacked = family.jet(points, order)
        for k, row in enumerate(points):
            one = family.jet(row, order)
            for field in ("theta", "sigma", "tangents", "hessians"):
                whole, single = getattr(stacked, field), getattr(one, field)
                if order < {"tangents": 1, "hessians": 2}.get(field, 0):
                    assert whole is None and single is None
                else:
                    np.testing.assert_array_equal(whole[k], single)
            for part in ("eigenvalues", "unitary"):
                whole, single = getattr(stacked.spectrum, part), getattr(one.spectrum, part)
                np.testing.assert_array_equal(whole[k], single)
            # a row of the stacked jet is that row's jet
            np.testing.assert_array_equal(stacked[k].sigma, one.sigma)


def test_jet_rejects_an_order_past_two():
    family, points = _linear()
    with pytest.raises(ValueError, match="order 0, 1 or 2"):
        family.jet(points, 3)


@pytest.mark.parametrize(
    "name, differences", [("linear", 0), ("xi-affine(0.5)", 1), ("xi-affine(1)", 1), ("gibbs", 1)]
)
@pytest.mark.parametrize("stacked", [False, True])
def test_jet_takes_one_eigh_and_one_divided_difference_matrix_per_profile(
    calls, name, differences, stacked
):
    # one decomposition per theta stack serves sigma, the Spectrum, the guard, the tangents and
    # the Hessians; the profile's K serves the tangents and the triple tensor
    family, points = CHARTS[name]()
    theta = points if stacked else points[0]
    calls.watch(qiglab.manifold, "divided_difference_matrix")
    calls.watch(qiglab.manifold, "_triple_difference_tensor")
    calls.eig()
    for order in (0, 1, 2):
        calls.clear()
        family.jet(theta, order)
        assert (calls.count("eigh"), calls.count("eigvalsh")) == (1, 0)
        assert calls.count("divided_difference_matrix") == (differences if order else 0)
        assert calls.count("_triple_difference_tensor") == (differences if order == 2 else 0)


@pytest.mark.parametrize("name", list(CHARTS))
def test_standard_basis_views_are_the_jet(calls, name):
    # point, point_and_spectrum, tangent_matrices and hessians are each one jet call
    family, points = CHARTS[name]()
    calls.watch(family, "jet")
    theta, sigma, spec = family.point_and_spectrum(points)
    np.testing.assert_array_equal(family.point(points), sigma)
    family.tangent_matrices(points)
    family.hessians(points)
    assert calls.count("jet") == 4
    jet = family.jet(points)
    np.testing.assert_array_equal(spec.unitary, jet.spectrum.unitary)
    np.testing.assert_array_equal(theta, points)
