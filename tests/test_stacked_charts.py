"""A stack of chart parameters gives, row by row, the bits of one parameter at a time.

Property tests over the library charts: the xi-affine chart at five
embedding orders, two linear witness charts and a Gibbs chart, with generic
spectra, near-degenerate spectra and spectra just above the chart guard. The
same holds for the chart partials (`tangent_matrices`), the analytic second
partials (`hessians`), the metric matrix built on them, the central first
differences (`_scalar_gradient`) and the affine coordinates of a stack of
matrices.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qiglab.duality import qubit_bloch_family, qubit_weight_family
from qiglab.gibbs import _gibbs_evaluation, gibbs_family
from qiglab.linalg import hermitize, hs_inner
from qiglab.manifold import (
    CHART_MIN_EIGENVALUE,
    FIRST_DERIVATIVE_STEP,
    _scalar_gradient,
    affine_coordinates,
    embedding_function,
    linear_family,
    xi_affine_family,
)
from qiglab.metrics import _metric_matrix, matched_metric
from qiglab.sampling import (
    haar_unitary,
    hermitian_basis,
    pauli_matrices,
    random_traceless_hermitian,
    rng_from,
)

PAULI = pauli_matrices()
PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def qubit_weights(draw):
    """A 2x2 positive matrix: generic, near-degenerate or with its low eigenvalue near the guard."""
    kind = draw(st.sampled_from(["generic", "degenerate", "guard"]))
    lam = draw(st.lists(st.floats(0.05, 3.0), min_size=2, max_size=2))
    if kind == "degenerate":
        lam[1] = lam[0] * (1.0 + draw(st.floats(0.0, 1e-9)))
    elif kind == "guard":
        lam[0] = draw(st.floats(2.0 * CHART_MIN_EIGENVALUE, 20.0 * CHART_MIN_EIGENVALUE))
    q = haar_unitary(rng_from(draw(st.integers(0, 2**32 - 1))), 2)
    return hermitize((q * np.array(lam)) @ q.conj().T)


def _xi_case(alpha):
    basis = hermitian_basis(2)
    return xi_affine_family(basis, alpha), lambda w: affine_coordinates(w, alpha, basis)


def _bloch_case():
    # the state w / Tr w has Bloch vector Tr(rho P_k)
    return qubit_bloch_family(), lambda w: np.array(
        [np.trace(w @ p).real / np.trace(w).real for p in PAULI[1:]]
    )


def _weight_case():
    family = qubit_weight_family()
    base = family.point(np.zeros(4))
    # base + sum theta_k P_k / 2 = w
    return family, lambda w: np.array([np.trace((w - base) @ p).real for p in PAULI])


CHARTS = {
    **{f"xi-affine({a:g})": (lambda a=a: _xi_case(a)) for a in (-1.0, -0.5, 0.0, 0.5, 1.0)},
    "qubit-bloch": _bloch_case,
    "qubit-weight": _weight_case,
}


def _bits(family, face, theta):
    """The arrays that one face of the chart evaluation returns at theta."""
    if face == "point":
        return [family.point(theta)]
    theta, sigma, spec = family.point_and_spectrum(theta)
    return [theta, sigma, spec.eigenvalues, spec.unitary]


def _single_error(family, theta, face="point"):
    try:
        _bits(family, face, theta)
    except ValueError as exc:
        return str(exc)
    return None


def _check_stack(family, stack):
    """For ``point`` and for ``point_and_spectrum``: rows that pass alone give the same bits
    stacked; otherwise the stack raises the first failing row's error."""
    for face in ("point", "point_and_spectrum"):
        failing = [e for e in (_single_error(family, row, face) for row in stack) if e is not None]
        if failing:
            with pytest.raises(ValueError) as exc:
                _bits(family, face, stack)
            assert str(exc.value) == failing[0]
            continue
        stacked = _bits(family, face, stack)
        for k, row in enumerate(stack):
            for whole, one in zip(stacked, _bits(family, face, row)):
                assert len(whole) == len(stack)
                np.testing.assert_array_equal(whole[k], one)


@pytest.mark.parametrize("name", list(CHARTS))
@PROPERTY
@given(weights=st.lists(qubit_weights(), min_size=1, max_size=6))
def test_stacked_chart_equals_row_by_row(name, weights):
    family, coordinates = CHARTS[name]()
    _check_stack(family, np.stack([coordinates(w) for w in weights]))


@PROPERTY
@given(
    rows=st.lists(
        st.one_of(
            st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
            st.tuples(st.floats(-1e-9, 1e-9), st.floats(-1e-9, 1e-9)),  # near I/3
        ),
        min_size=1,
        max_size=6,
    )
)
def test_stacked_gibbs_chart_equals_row_by_row(rows):
    # large |theta| pushes the smallest eigenvalue of exp(B - psi I) below the guard
    rng = rng_from(71)
    gibbs = gibbs_family([random_traceless_hermitian(rng, 3) for _ in range(2)])
    stack = np.array(rows, dtype=float)
    _check_stack(gibbs.family, stack)
    log_partition = [gibbs.log_partition(row) for row in stack]
    np.testing.assert_array_equal(
        log_partition, _gibbs_evaluation(stack, np.stack(gibbs.observables), 0)[0]
    )


def test_stack_error_names_the_first_row_below_the_guard():
    family = qubit_bloch_family()
    # the Bloch point (x, 0, 0) has eigenvalues (1 +- x)/2: the last two rows fall below 1e-6
    stack = np.array([[0.3, 0.0, 0.0], [0.9999995, 0.0, 0.0], [0.9999999, 0.0, 0.0]])
    for face in (family.point, family.point_and_spectrum):
        with pytest.raises(ValueError, match="below guard") as exc:
            face(stack)
        assert "theta=[0.9999995, 0.0, 0.0]" in str(exc.value)


def test_chart_that_ignores_the_stack_is_rejected():
    i2, sx, _, sz = PAULI
    linear = linear_family(i2 / 2.0, [sx / 4.0, sz / 4.0])
    # a chart that evaluates the first row of a stack only
    fam = dataclasses.replace(
        linear, evaluate=lambda t, order: linear.evaluate(t.reshape(-1, 2)[0], order)
    )
    fam.point(np.array([0.2, -0.1]))  # one parameter at a time works
    with pytest.raises(ValueError, match="chart evaluation failed"):
        fam.point(np.array([[0.2, -0.1], [0.1, 0.1], [0.0, 0.3]]))


def _one_direction_difference(family, theta, i):
    """The central difference of one direction, two chart calls, as partials were taken before."""
    h = FIRST_DERIVATIVE_STEP * max(1.0, abs(theta[i]))
    up, dn = theta.copy(), theta.copy()
    up[i] += h
    dn[i] -= h
    return hermitize((family.point(up) - family.point(dn)) / (2.0 * h))


def _check_stacked_hessians(family, stack):
    """Row k of one stacked ``hessians`` call has the bits of the call at row k alone."""
    hessians = family.hessians(stack)
    d, n = family.param_dim, hessians.shape[-1]
    assert hessians.shape == (len(stack), d, d, n, n)
    for k, row in enumerate(stack):
        np.testing.assert_array_equal(hessians[k], family.hessians(row))


@pytest.mark.parametrize("name", list(CHARTS))
@PROPERTY
@given(weights=st.lists(qubit_weights(), min_size=1, max_size=4))
def test_stacked_partials_equal_row_by_row(name, weights):
    family, coordinates = CHARTS[name]()
    stack = np.stack([coordinates(w) for w in weights])
    if any(_single_error(family, row) for row in stack):
        return  # rows off the chart are _check_stack's business
    d = family.param_dim
    partials = family.tangent_matrices(stack)
    assert partials.shape == (len(stack), d, 2, 2)
    _check_stacked_hessians(family, stack)
    for k, row in enumerate(stack):
        np.testing.assert_array_equal(partials[k], family.tangent_matrices(row))
    metric = _metric_matrix(family.jet(stack, 1), matched_metric(0.0))
    for k, row in enumerate(stack):
        one = _metric_matrix(family.jet(row, 1), matched_metric(0.0))
        np.testing.assert_array_equal(metric[k], one)


@PROPERTY
@given(weights=st.lists(qubit_weights(), min_size=1, max_size=4))
def test_stacked_scalar_gradient_equals_row_by_row(weights):
    # the central differences dual_coordinate_check takes, here of the xi-affine chart itself
    family, coordinates = _xi_case(0.5)
    stack = np.stack([coordinates(w) for w in weights])
    try:
        partials = hermitize(_scalar_gradient(family.point, stack))
    except ValueError:  # a stencil point left the chart
        return
    assert partials.shape == (len(stack), family.param_dim, 2, 2)
    for k, row in enumerate(stack):
        np.testing.assert_array_equal(partials[k], hermitize(_scalar_gradient(family.point, row)))
        for i in range(family.param_dim):
            np.testing.assert_array_equal(partials[k, i], _one_direction_difference(family, row, i))


@PROPERTY
@given(rows=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=5))
def test_stacked_gibbs_partials_equal_row_by_row(rows):
    rng = rng_from(71)
    gibbs = gibbs_family([random_traceless_hermitian(rng, 3) for _ in range(2)])
    stack = np.array(rows, dtype=float)
    partials = gibbs.family.tangent_matrices(stack)
    assert partials.shape == (len(stack), 2, 3, 3)
    _check_stacked_hessians(gibbs.family, stack)
    for k, row in enumerate(stack):
        np.testing.assert_array_equal(partials[k], gibbs.family.tangent_matrices(row))


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 1.0])
@PROPERTY
@given(weights=st.lists(qubit_weights(), min_size=1, max_size=6))
def test_stacked_affine_coordinates_equal_one_matrix_at_a_time(alpha, weights):
    basis = hermitian_basis(2)
    stack = np.stack(weights)
    coordinates = affine_coordinates(stack, alpha, basis)
    assert coordinates.shape == (len(weights), len(basis))
    # the Gram-matrix solve of one matrix, built from hs_inner as before
    gram = np.array([[hs_inner(x, y).real for y in basis] for x in basis])
    embed = embedding_function(alpha)
    for k, w in enumerate(weights):
        one = affine_coordinates(w, alpha, basis)
        np.testing.assert_array_equal(coordinates[k], one)
        q = np.linalg.eigh(w)
        target = hermitize((q[1] * embed.fn(q[0])) @ q[1].conj().T)
        rhs = np.array([hs_inner(x, target).real for x in basis])
        np.testing.assert_array_equal(one, np.linalg.solve(gram, rhs))
