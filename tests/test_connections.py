import re

import numpy as np
import pytest
from conftest import ORACLE_RTOL, _scalar_hessian, standard_basis_covariant_set

from qiglab.connections import (
    CurveSpec,
    covariant_derivative_on_M,
    covariant_derivative_set,
    ext_covariant_derivative,
    parallel_transport_on_M,
)
from qiglab.duality import (
    convexity_failure_check,
    qubit_bloch_family,
    qubit_weight_family,
    qutrit_state_family,
    sample_grid,
    standard_witness_families,
)
from qiglab.gibbs import gibbs_family
from qiglab.linalg import (
    CONFLUENT_RTOL,
    _tangent_products,
    _triple_contraction,
    _triple_difference_tensor,
    apply_scalar_function,
    divided_difference_matrix,
    hermitize,
    spectral_decompose,
)
from qiglab.manifold import (
    _project_in_eigenbasis,
    affine_coordinates,
    alpha_representation,
    embedding_function,
    linear_family,
    representation_convert,
    simplex_family,
    sphere_project,
    state_tangent,
    xi_affine_family,
)
from qiglab.sampling import pauli_matrices, random_traceless_hermitian, random_weight, rng_from

I2, SX, SY, SZ = pauli_matrices()
QUBIT_BASIS = [I2, SX, SY, SZ]


def _bloch_family():
    return linear_family(I2 / 2.0, [SX / 2.0, SY / 2.0])


def _bloch_curve(start, end, step_count=256):
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    return CurveSpec(_bloch_family(), lambda t: start + t * (end - start), step_count)


# ------------------------------------------------- flat covariant derivative


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_ext_derivative_vanishes_in_matched_affine_chart(alpha):
    sigma = np.diag([0.7, 0.5]).astype(complex)
    xi0 = affine_coordinates(sigma, alpha, QUBIT_BASIS)
    fam = xi_affine_family(QUBIT_BASIS, alpha)
    for i in range(4):
        for j in range(i, 4):
            res = ext_covariant_derivative(fam, xi0, i, j, alpha)
            assert np.abs(res.vector.mixture).max() < 1e-10


def test_ext_derivative_nonzero_in_mismatched_chart():
    sigma = np.diag([0.7, 0.5]).astype(complex)
    xi0 = affine_coordinates(sigma, 0.0, QUBIT_BASIS)
    fam = xi_affine_family(QUBIT_BASIS, 0.0)
    res = ext_covariant_derivative(fam, xi0, 1, 1, 0.8)
    assert np.abs(res.vector.mixture).max() > 1e-3


def _embedded_second_partials(fam, theta, alpha):
    """Central second differences of the embedded chart at theta, (d, d, n, n): the stencil
    sees only the chart values, never the chart's derivatives."""
    fun = embedding_function(alpha)

    def embedded(t):
        return apply_scalar_function(spectral_decompose(fam.point(t)), fun)

    return hermitize(_scalar_hessian(embedded, theta))


def test_ext_derivative_analytic_matches_fd_chart():
    basis = [I2, SX, SZ]
    xi0 = affine_coordinates(np.diag([0.8, 0.6]).astype(complex), 0.4, basis)
    exact = xi_affine_family(basis, 0.4)
    base = exact.point(xi0)
    fd = representation_convert(base, _embedded_second_partials(exact, xi0, -0.2), -0.2, -1.0)
    for i in range(3):
        for j in range(i, 3):
            a = ext_covariant_derivative(exact, xi0, i, j, -0.2)
            np.testing.assert_allclose(a.vector.mixture, fd[i, j], atol=1e-5)


def test_ext_derivative_decomposes_the_chart_point_once(calls):
    # a linear chart: the jet's one eigh of the base point, which also serves the chart guard
    # and rotates the chart's tangents, is the only one
    fam = linear_family(I2 / 2.0, [SX / 2.0, SZ / 2.0])
    calls.eig()
    res = ext_covariant_derivative(fam, np.array([0.2, -0.1]), 1, 1, 0.3)
    assert (calls.count("eigh"), calls.count("eigvalsh")) == (1, 0)
    assert np.abs(res.vector.mixture).max() > 1e-3


@pytest.mark.parametrize("on_extended", [False, True])
def test_covariant_derivative_set_matches_single_derivatives(on_extended):
    # every order of one call, rotated out of the eigenbasis, is the one-pair derivative's bits
    fam = linear_family(I2 / 2.0, [SX / 2.0, SY / 2.0, SZ / 2.0])
    theta = np.array([0.2, -0.1, 0.15])
    single = ext_covariant_derivative if on_extended else covariant_derivative_on_M
    jet = fam.jet(theta, 2)
    spec = jet.spectrum
    alphas = (-0.5, 0.0, 1.0)
    sets = covariant_derivative_set(jet, alphas, on_extended)
    assert sets.shape == (3, 3, 3, 2, 2)
    for alpha, nabla in zip(alphas, sets):
        for i in range(3):
            for j in range(i, 3):
                expected = single(fam, theta, i, j, alpha).vector.mixture
                standard = hermitize(spec.from_eigenbasis(nabla[i, j]))
                np.testing.assert_array_equal(standard, expected)
                np.testing.assert_array_equal(nabla[j, i], nabla[i, j])


def _qutrit_gibbs_chart():
    rng = rng_from(37)
    return gibbs_family([random_traceless_hermitian(rng, 3) for _ in range(8)]).family


@pytest.mark.parametrize("chart", [qutrit_state_family, _qutrit_gibbs_chart])
@pytest.mark.parametrize("points", [1, 3])
def test_covariant_derivative_set_takes_every_hessian_from_one_call(calls, chart, points):
    # a qutrit chart has 36 pairs i <= j; one order-2 jet, for one theta or a stack, holds them,
    # and the set makes no chart call and no decomposition of its own
    fam = chart()
    stack = 0.05 * np.sin(np.arange(1.0, 1.0 + points * fam.param_dim)).reshape(points, -1)
    theta = stack if points > 1 else stack[0]
    calls.watch(fam, "jet")
    jet = fam.jet(theta, 2)
    calls.eig()
    covariant_derivative_set(jet, [0.5, -0.5])
    assert calls.shapes["jet"] == [theta.shape]
    assert calls.count("eigh", "eigvalsh") == 0


def _witness_cases():
    """(witness, on_extended) for every documented witness family: the flat set on every
    chart, and the projected one on the unit-trace charts."""
    witnesses = standard_witness_families(2) + standard_witness_families(3)
    return [
        (w, on_ext) for w in witnesses for on_ext in (True, False) if on_ext or not w.on_extended
    ]


def _assert_stack_matches_points(fam, points, alphas, on_extended):
    """A stacked covariant_derivative_set equals, point by point, the one-point call's bits."""
    jet = fam.jet(points, 2)
    stacked = covariant_derivative_set(jet, alphas, on_extended)
    d, n = fam.param_dim, jet.spectrum.dim
    assert stacked.shape == (len(alphas), len(points), d, d, n, n)
    for k, theta in enumerate(points):
        single = covariant_derivative_set(fam.jet(theta, 2), alphas, on_extended)
        assert np.array_equal(stacked[:, k], single)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize(
    "witness, on_extended", _witness_cases(), ids=lambda c: getattr(c, "name", str(c))
)
def test_stacked_covariant_derivative_set_equals_point_by_point(witness, on_extended, alpha):
    points = np.stack(sample_grid(witness, [7, witness.family.param_dim], 3))
    _assert_stack_matches_points(witness.family, points, [alpha], on_extended)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_stacked_covariant_derivative_set_on_an_analytic_affine_chart(alpha):
    rng = rng_from(23)
    fam = xi_affine_family(QUBIT_BASIS, alpha)
    sigmas = np.stack([random_weight(rng, 2, 0.6, 1.8) for _ in range(3)])
    points = affine_coordinates(sigmas, alpha, QUBIT_BASIS)
    # the flat set vanishes in a matched affine chart, so use mismatched orders too
    _assert_stack_matches_points(fam, points, [alpha, -alpha, 0.9], True)


@pytest.mark.parametrize("on_extended", [True, False])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_stacked_covariant_derivative_set_on_a_gibbs_chart(alpha, on_extended):
    fam = gibbs_family([SX, SZ]).family
    points = np.array([[0.3, -0.2], [-0.5, 0.1], [0.05, 0.4]])
    _assert_stack_matches_points(fam, points, [alpha], on_extended)


@pytest.mark.parametrize("on_extended", [True, False])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_stacked_covariant_derivative_set_keeps_each_points_triple_differences(alpha, on_extended):
    # the first point's eigenvalue gap, 1e-9, is below CONFLUENT_RTOL times its eigenvalues: its
    # triple differences take the confluent value, which must not leak into the generic point's
    fam = qubit_bloch_family()
    points = np.array([[1e-9, 0.0, 0.0], [0.2, -0.1, 0.15]])
    lam = np.linalg.eigvalsh(fam.point(points[0]))
    assert 0.0 < lam[1] - lam[0] < CONFLUENT_RTOL * lam[0]
    _assert_stack_matches_points(fam, points, [alpha], on_extended)
    _assert_stack_matches_points(fam, points[::-1], [alpha], on_extended)


def _assert_matches_oracle(fam, points, alphas, on_extended):
    """Each order of one stacked covariant_derivative_set call, rotated out of each point's
    eigenbasis, agrees with the standard-basis chain at that point to ORACLE_RTOL."""
    jet = fam.jet(points, 2)
    sets = covariant_derivative_set(jet, alphas, on_extended)
    standard = jet.spectrum.expand_dims().expand_dims().from_eigenbasis(sets)
    for alpha, got in zip(alphas, standard):
        for k, theta in enumerate(points):
            want = standard_basis_covariant_set(fam, theta, alpha, on_extended)
            atol = ORACLE_RTOL * max(1.0, np.abs(want).max())
            np.testing.assert_allclose(got[k], want, rtol=0.0, atol=atol)


ORACLE_ALPHAS = [-1.0, -0.5, 0.0, 0.5, 1.0]


@pytest.mark.parametrize(
    "witness, on_extended", _witness_cases(), ids=lambda c: getattr(c, "name", str(c))
)
def test_covariant_derivative_set_matches_the_standard_basis_chain(witness, on_extended):
    points = np.stack(sample_grid(witness, [7, witness.family.param_dim], 3))
    _assert_matches_oracle(witness.family, points, ORACLE_ALPHAS, on_extended)


def test_covariant_derivative_set_matches_the_standard_basis_chain_on_charts():
    rng = rng_from(29)
    sigmas = np.stack([random_weight(rng, 2, 0.6, 1.8) for _ in range(2)])
    fam = xi_affine_family(QUBIT_BASIS, 0.5)
    points = affine_coordinates(sigmas, 0.5, QUBIT_BASIS)
    _assert_matches_oracle(fam, points, ORACLE_ALPHAS, True)
    gibbs = gibbs_family([SX, SZ]).family
    points = np.array([[0.3, -0.2], [-0.5, 0.1]])
    for on_extended in (True, False):
        _assert_matches_oracle(gibbs, points, ORACLE_ALPHAS, on_extended)
    # eigenvalue gap 1e-9: the triple differences take their coincident branches
    bloch = qubit_bloch_family()
    for on_extended in (True, False):
        _assert_matches_oracle(bloch, np.array([[1e-9, 0.0, 0.0]]), ORACLE_ALPHAS, on_extended)


def _per_order_set(jet, alphas, on_extended):
    """The set order by order: each order's own profile, divided differences, triple tensor,
    contraction and sphere projection, one loop iteration per order."""
    spec, tangents = jet.spectrum, jet.tangents
    d, n = tangents.shape[-3], spec.dim
    lam = spec.eigenvalues
    i, j = np.triu_indices(d)
    products = _tangent_products(tangents[..., i, :, :], tangents[..., j, :, :])
    hess = jet.hessians[..., i, j, :, :]
    diag = np.arange(n)
    out = np.empty((len(alphas),) + tangents.shape[:-3] + (d, d, n, n), dtype=complex)
    for alpha, nabla in zip(alphas, out):
        fun = embedding_function(alpha)
        k = divided_difference_matrix(lam, fun)
        t = _triple_difference_tensor(lam, fun, k)
        k = k[..., None, :, :]
        d2 = hermitize(_triple_contraction(t[..., None, :, :, :], products) + k * hess)
        if on_extended:
            mixture = d2 / k
        else:
            mixture = _project_in_eigenbasis(spec.expand_dims(), alpha, d2) / k
            trace = mixture[..., diag, diag].sum(axis=-1)
            mixture[..., diag, diag] -= (trace / n)[..., None]
        nabla[..., i, j, :, :] = nabla[..., j, i, :, :] = mixture
    return out


# the signed orders of a duality check, a uniqueness-scan witness, convexity_failure_check's
# [alpha, 1, -1], and each limit alone
ORDER_LISTS = [[-0.5, 0.0, 0.5], [0.5, -0.5], [0.5, 1.0, -1.0], [1.0], [-1.0], [0.0]]


def _assert_equals_per_order(jet, alphas, on_extended):
    got = covariant_derivative_set(jet, alphas, on_extended)
    assert got.shape == (len(alphas),) + jet.tangents.shape[:-3] + jet.hessians.shape[-4:]
    assert np.array_equal(got, _per_order_set(jet, alphas, on_extended))


@pytest.mark.parametrize("alphas", ORDER_LISTS, ids=str)
@pytest.mark.parametrize("on_extended", [True, False])
@pytest.mark.parametrize(
    "witness",
    standard_witness_families(2) + standard_witness_families(3),
    ids=lambda w: w.name,
)
def test_stacked_orders_equal_the_per_order_set_bit_for_bit(witness, on_extended, alphas):
    # every order of one call is bit for bit the set of that order alone, at a stack of points
    # and at one point; a weight chart's base is off the unit-trace manifold, so there both
    # the stack and the per-order set refuse the projected set
    fam = witness.family
    points = np.stack(sample_grid(witness, [11, fam.param_dim], 3))
    for jet in (fam.jet(points, 2), fam.jet(points[1], 2)):
        if on_extended or not witness.on_extended:
            _assert_equals_per_order(jet, alphas, on_extended)
            continue
        for build in (covariant_derivative_set, _per_order_set):
            with pytest.raises(ValueError, match="not a unit-trace state"):
                build(jet, alphas, on_extended)


@pytest.mark.parametrize("alphas", ORDER_LISTS, ids=str)
@pytest.mark.parametrize("on_extended", [True, False])
def test_stacked_orders_equal_the_per_order_set_on_a_clustered_spectrum(on_extended, alphas):
    # eigenvalue gap 1e-8: the triple differences take their confluent value
    fam = qubit_bloch_family()
    points = np.array([[1e-8, 0.0, 0.0], [0.2, -0.1, 0.15]])
    lam = np.linalg.eigvalsh(fam.point(points[0]))
    assert 0.0 < lam[1] - lam[0] < CONFLUENT_RTOL * lam[0]
    _assert_equals_per_order(fam.jet(points, 2), alphas, on_extended)
    _assert_equals_per_order(fam.jet(points[0], 2), alphas, on_extended)


def _watch_set_steps(calls):
    import qiglab.connections

    for name in ("divided_difference_matrix", "_triple_difference_tensor",
                 "_triple_contraction", "_project_in_eigenbasis"):
        calls.watch(qiglab.connections, name)


@pytest.mark.parametrize("on_extended", [True, False])
@pytest.mark.parametrize("alphas", [[0.5], [0.5, -0.5], [-0.5, 0.0, 0.5], [0.5, 1.0, -1.0]])
def test_covariant_derivative_set_takes_one_step_of_each_kind_for_all_its_orders(
    calls, alphas, on_extended
):
    witness = standard_witness_families(2, "state")[0]
    jet = witness.family.jet(np.stack(sample_grid(witness, [0, 2], 3)), 2)
    _watch_set_steps(calls)
    covariant_derivative_set(jet, alphas, on_extended)
    assert calls.count("divided_difference_matrix") == 1
    assert calls.count("_triple_difference_tensor") == 1
    assert calls.count("_triple_contraction") == 1
    assert calls.count("_project_in_eigenbasis") == (0 if on_extended else 1)


@pytest.mark.parametrize("on_extended", [True, False])
def test_covariant_derivative_set_of_no_order_is_empty(on_extended):
    fam = qubit_bloch_family()
    points = np.array([[0.1, 0.2, -0.1], [0.0, 0.3, 0.1]])
    assert covariant_derivative_set(fam.jet(points, 2), [], on_extended).shape == (
        0, 2, 3, 3, 2, 2
    )
    assert covariant_derivative_set(fam.jet(points[0], 2), (), on_extended).shape == (
        0, 3, 3, 2, 2
    )


@pytest.mark.parametrize("alphas", [[1.5], [0.5, -1.25], [0.0, 0.5, float("nan")]])
def test_covariant_derivative_set_checks_every_order_before_any_divided_difference(
    calls, alphas
):
    fam = qubit_bloch_family()
    jet = fam.jet(np.array([0.1, 0.2, -0.1]), 2)
    _watch_set_steps(calls)
    bad = next(a for a in alphas if not -1.0 <= a <= 1.0)
    with pytest.raises(ValueError, match=re.escape(f"alpha must lie in [-1, 1], got {bad!r}")):
        covariant_derivative_set(jet, alphas)
    assert calls.count("divided_difference_matrix", "_triple_difference_tensor") == 0


def test_projected_covariant_derivative_set_rejects_a_base_off_the_unit_trace_manifold():
    fam = qubit_weight_family()
    points = np.array([[0.1, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.0]])
    jet = fam.jet(points, 2)
    covariant_derivative_set(jet, [0.5], on_extended=True)
    with pytest.raises(ValueError, match="not a unit-trace state"):
        covariant_derivative_set(jet, [0.5], on_extended=False)
    with pytest.raises(ValueError, match="order-2 jet"):
        covariant_derivative_set(fam.jet(points, 1), [0.5], on_extended=True)


@pytest.mark.parametrize("alphas", [[0.5], [0.5, -0.5]], ids=["one-order", "two-orders"])
def test_off_manifold_error_names_the_point_alone(alphas):
    # the base was checked after the order and pair axes were added: "at stack index (0, 0)"
    # for one order on this grid, "(0, 0, 0)" for two
    fam = qubit_weight_family()
    points = np.array([[0.1, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.0], [0.0, 0.0, 0.1, 0.3]])
    jet = fam.jet(points, 2)
    with pytest.raises(ValueError, match=re.escape("not a unit-trace state at stack index 0:")):
        covariant_derivative_set(jet, alphas, False)
    with pytest.raises(ValueError, match=re.escape("not a unit-trace state: trace")):
        covariant_derivative_set(jet[1], alphas, False)
    with pytest.raises(ValueError, match=re.escape("not a unit-trace state: trace")):
        covariant_derivative_on_M(fam, points[1], 0, 1, alphas[0])


# -------------------------------------------- projected covariant derivative


@pytest.mark.parametrize("alpha", [-1.0, -0.3, 0.0, 0.6, 1.0])
def test_on_m_derivative_is_state_tangent(alpha):
    fam = _bloch_family()
    theta = np.array([0.2, -0.15])
    res = covariant_derivative_on_M(fam, theta, 0, 1, alpha)
    assert abs(np.trace(res.vector.mixture)) < 1e-12
    # its alpha representation is fixed by the tangent-space projection
    rep = alpha_representation(res.vector, alpha)
    np.testing.assert_allclose(sphere_project(res.base, alpha, rep), rep, atol=1e-10)


@pytest.mark.parametrize("i, j", [(-1, 0), (3, 0), (0, -1), (1, 3)])
def test_ext_derivative_rejects_a_direction_index_out_of_range(i, j):
    # -1 would index the last direction and 3 end in a bare IndexError
    with pytest.raises(ValueError, match="direction index -?[13] out of range for param_dim 3"):
        ext_covariant_derivative(qubit_bloch_family(), np.array([0.1, 0.0, 0.2]), i, j, 0.5)


@pytest.mark.parametrize("i, j", [(-1, 0), (3, 0), (0, -1), (1, 3)])
def test_on_m_derivative_rejects_a_direction_index_out_of_range(i, j):
    with pytest.raises(ValueError, match="direction index -?[13] out of range for param_dim 3"):
        covariant_derivative_on_M(qubit_bloch_family(), np.array([0.1, 0.0, 0.2]), i, j, 0.5)


def test_on_m_rejects_weight_family():
    fam = linear_family(np.diag([1.0, 2.0]).astype(complex), [SX])
    with pytest.raises(ValueError, match="unit-trace"):
        covariant_derivative_on_M(fam, np.array([0.1]), 0, 0, 0.0)


@pytest.mark.parametrize("alpha", [-1.0, 1.0])
def test_convex_mixture_matches_endpoints(alpha):
    # at alpha = +-1 the mixture is the order-alpha derivative itself
    rep = convexity_failure_check(alpha, _bloch_family(), [np.array([0.25, 0.1])])
    assert rep.max_difference <= 1e-12


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_convex_mixture_exact_on_simplex(alpha):
    # commuting (classical) case: the order-alpha derivative is exactly the
    # convex combination of the two extreme ones
    rep = convexity_failure_check(alpha, simplex_family(3), [np.array([0.5, 0.3])])
    assert rep.max_difference <= 1e-12


def test_convex_mixture_differs_for_noncommuting_witness():
    rep = convexity_failure_check(0.0, _bloch_family(), [np.array([0.25, 0.1])])
    assert rep.per_point[0, 0, 1] > 1e-4


# ------------------------------------------------------------ flat transport


def _flat_transport(end, v, alpha):
    # the flat connection carries the alpha representation unchanged
    return representation_convert(end, alpha_representation(v, alpha), alpha, -1.0)


def test_parallel_transport_ext_oracle():
    # I/2 -> diag(3/4, 1/4), carrying sigma_x at order 0: the representation
    # sqrt(2)*sigma_x is reinterpreted through the divided-difference kernel
    # 2(sqrt(3) - 1) of 2*sqrt(x)
    v = state_tangent(I2 / 2.0, SX)
    out = _flat_transport(np.diag([0.75, 0.25]).astype(complex), v, 0.0)
    want = (np.sqrt(2.0) / (2.0 * (np.sqrt(3.0) - 1.0))) * SX
    np.testing.assert_allclose(out, want, atol=1e-13)


def test_parallel_transport_ext_mixture_order_is_identity():
    curve = _bloch_curve([0.3, 0.0], [0.0, 0.3])
    v = state_tangent(curve.point(0.0), SZ / 3.0)
    out = _flat_transport(curve.point(1.0), v, -1.0)
    np.testing.assert_allclose(out, v.mixture, atol=1e-14)


def test_transport_rejects_foreign_start():
    curve = _bloch_curve([0.3, 0.0], [0.0, 0.3])
    v = state_tangent(I2 / 2.0, SZ)  # base is not curve.point(0)
    with pytest.raises(ValueError, match="start point"):
        parallel_transport_on_M(curve, v, 0.0)


# ------------------------------------------------------- projected transport


def _plain_transport(curve, v, alpha, steps):
    # one plain first-order run, one point at a time: carry the alpha representation to
    # each point t = k/steps and re-project it there
    w = alpha_representation(v, alpha)
    for k in range(1, steps + 1):
        sigma = curve.point(k / steps)
        w = sphere_project(sigma, alpha, w)
    mixture = representation_convert(sigma, w, alpha, -1.0)
    n = sigma.shape[0]
    return mixture - (np.trace(mixture) / n) * np.eye(n)


def test_projected_transport_richardson_converges():
    # tangent mixes the in-plane and out-of-plane sectors; a pure sigma_z
    # tangent would transport exactly at any step count by reflection symmetry
    v = state_tangent(_bloch_curve([0.35, 0.0], [0.0, 0.35]).point(0.0), (SX + 0.8 * SZ) / 2.0)
    fine = parallel_transport_on_M(_bloch_curve([0.35, 0.0], [0.0, 0.35], 256), v, 0.0)
    ref = parallel_transport_on_M(_bloch_curve([0.35, 0.0], [0.0, 0.35], 4096), v, 0.0)
    np.testing.assert_allclose(fine.mixture, ref.mixture, atol=1e-7)
    # plain first-order runs halve their gap to the extrapolated answer
    curve = _bloch_curve([0.35, 0.0], [0.0, 0.35])
    p256 = _plain_transport(curve, v, 0.0, 256)
    p512 = _plain_transport(curve, v, 0.0, 512)
    e256 = np.abs(p256 - ref.mixture).max()
    e512 = np.abs(p512 - ref.mixture).max()
    assert 1e-6 < e256  # plain runs genuinely carry discretization error
    assert e512 < 0.6 * e256


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_projected_transport_is_richardson_of_point_by_point_runs(alpha):
    # the coarse run reuses every other point of the fine run's stack, bit for bit
    curve = _bloch_curve([0.35, 0.0], [0.0, 0.35], 64)
    v = state_tangent(curve.point(0.0), (SX + 0.8 * SZ) / 2.0)
    fine, coarse = (_plain_transport(curve, v, alpha, steps) for steps in (64, 32))
    out = parallel_transport_on_M(curve, v, alpha)
    assert np.array_equal(out.mixture, 2.0 * fine - coarse)
    assert np.array_equal(out.base, curve.point(1.0))


def test_projected_transport_decomposes_the_curve_in_one_stacked_call(calls):
    # one eigh over the step_count + 1 curve points serves both Richardson runs
    curve = _bloch_curve([0.35, 0.0], [0.0, 0.35], 64)
    v = state_tangent(curve.point(0.0), SZ / 2.0)
    calls.eig()
    parallel_transport_on_M(curve, v, 0.5)
    assert calls.shapes["eigh"] == [(65, 2, 2)]
    assert calls.count("eigvalsh") == 0


def test_projected_transport_result_is_tangent():
    curve = _bloch_curve([0.35, 0.0], [0.0, 0.35])
    v = state_tangent(curve.point(0.0), SZ / 2.0)
    out = parallel_transport_on_M(curve, v, 0.5)
    assert abs(np.trace(out.mixture)) < 1e-12
    np.testing.assert_allclose(out.base, curve.point(1.0), atol=1e-13)


def test_projected_transport_continuity_guard():
    # one step across Frobenius distance 0.707 exceeds the 0.5 bound; the odd step_count
    # would also fail Richardson, but the continuity error comes first
    curve = CurveSpec(_bloch_family(), lambda t: np.array([1.0 - 2.0 * t, 0.0]) * 0.5, step_count=1)
    v = state_tangent(curve.point(0.0), SZ / 2.0)
    with pytest.raises(ValueError, match="too small"):
        parallel_transport_on_M(curve, v, 0.0)


def test_continuity_error_names_the_first_jump():
    # the curve jumps by 0.849 at step 2 and back at step 3; the error names step 2
    def path(t):
        return np.array([-0.6 if 0.25 < t <= 0.5 else 0.6, 0.0])

    curve = CurveSpec(_bloch_family(), path, step_count=4)
    v = state_tangent(curve.point(0.0), SZ / 2.0)
    with pytest.raises(ValueError, match=r"curve moves 0\.849 at step 2/4 \(> 0\.5\)"):
        parallel_transport_on_M(curve, v, 0.0)


def test_projected_transport_odd_steps_reject_richardson():
    curve = _bloch_curve([0.3, 0.0], [0.0, 0.3], step_count=3)
    v = state_tangent(curve.point(0.0), SZ / 2.0)
    with pytest.raises(ValueError, match="even step_count"):
        parallel_transport_on_M(curve, v, 0.0)


def test_projected_transport_is_path_dependent():
    # straight chord in the x-y plane vs a detour through a z-axis point;
    # an in-plane detour would give zero gap by reflection symmetry
    fam = linear_family(I2 / 2.0, [SX / 2.0, SY / 2.0, SZ / 2.0])
    start, end = np.array([0.35, 0.0, 0.0]), np.array([0.0, 0.35, 0.0])
    pole = np.array([0.0, 0.0, 0.35])

    def straight(t):
        return start + t * (end - start)

    def detour(t):
        if t <= 0.5:
            return start + 2.0 * t * (pole - start)
        return pole + (2.0 * t - 1.0) * (end - pole)

    v = state_tangent(fam.point(start), SZ / 2.0)
    direct = parallel_transport_on_M(CurveSpec(fam, straight, 256), v, 0.0)
    around = parallel_transport_on_M(CurveSpec(fam, detour, 256), v, 0.0)
    gap = np.linalg.norm(direct.mixture - around.mixture)
    assert gap > 1e-3


def test_curve_spec_rejects_zero_steps():
    with pytest.raises(ValueError, match="at least 1"):
        CurveSpec(_bloch_family(), lambda t: np.array([0.0, 0.0]), step_count=0)
