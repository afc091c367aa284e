"""`qiglab potential` runs every alpha of a dim in one stacked pass, bit for bit the per-alpha loop.

The oracle is the loop the stacked pass replaced: per alpha, its own rng's weights one
``random_weight`` at a time, its own xi-affine chart, and the one-order potential and dual
checks written out as they ran before the pass was stacked (one order-2 jet of the grid, one
order-1 jet of the dual points, one stencil jet and one Newton solve per alpha). Every residual
the CLI prints must equal the oracle's with ``==``. The row-order pieces the pass is built from
(profiles, affine coordinates and the xi-affine chart with one order per row) are checked row by
row against the one-order ones.
"""

import json

import numpy as np
import pytest

from qiglab.cli import main
from qiglab.linalg import _row_power_function, power_function
from qiglab.manifold import (
    _row_profile,
    _scalar_gradient,
    affine_coordinates,
    embedding_function,
    inverse_embedding_function,
    xi_affine_family,
)
from qiglab.metrics import _metric_matrix, matched_metric
from qiglab.newton import _damped_newton, _row_dot
from qiglab.sampling import hermitian_basis, random_weight, rng_from


def _trace(a):
    return np.trace(a, axis1=-2, axis2=-1).real


def _oracle_potential(family, alpha, points, basis):
    """(hessian residual, gradient residual) of one order's grid, as one order's check took them."""
    jet = family.jet(points, 2)
    zetas = affine_coordinates(jet.spectrum, -alpha, basis)
    metric = _metric_matrix(jet, matched_metric(alpha))
    c = 2.0 / (1.0 + alpha)
    hess = c * _trace(jet.hessians)
    etas = c * _trace(jet.tangents)
    design = np.hstack([zetas, np.ones((len(points), 1))])
    coeffs, *_ = np.linalg.lstsq(design, etas, rcond=None)
    return float(np.abs(hess - metric).max()), float(np.abs(design @ coeffs - etas).max())


def _oracle_dual(family, alpha, points, seed):
    """(jacobian residual, legendre residual) of one order's dual points, as one order's check
    took them: its own order-1 jet and metric, stencil jet and Newton solve."""
    c = 2.0 / (1.0 + alpha)

    def potential(jet):
        return c * jet.spectrum.eigenvalues.sum(axis=-1), c * _trace(jet.tangents)

    jet = family.jet(points, 1)
    metric = _metric_matrix(jet, matched_metric(alpha))
    psi0, eta0 = potential(jet)
    jac = _scalar_gradient(lambda x: potential(family.jet(x, 1))[1], points)

    def evaluate(x, rows):
        at = family.jet(x, 2)
        psi, eta = potential(at)
        return psi - _row_dot(x, eta0[rows]), eta - eta0[rows], c * _trace(at.hessians)

    start = points + 0.05 * rng_from(seed).standard_normal(points.shape)
    _, value_min, _, _ = _damped_newton(evaluate, start, tol=1e-9, max_iter=50)
    gap = psi0 - _row_dot(points, eta0) - value_min
    return float(np.abs(jac - metric).max()), float(np.abs(gap).max())


def _oracle_cases(seed, dim, alphas, n_points, n_dual):
    basis = hermitian_basis(dim)
    cases = []
    for alpha in alphas:
        rng = rng_from([seed, dim, int(round((alpha + 1) * 1000))])
        weights = np.stack([random_weight(rng, dim, 0.7, 1.5) for _ in range(n_points)])
        family = xi_affine_family(basis, alpha)
        points = affine_coordinates(weights, alpha, basis)
        hessian, gradient = _oracle_potential(family, alpha, points, basis)
        jacobian, legendre = _oracle_dual(family, alpha, points[:n_dual], [seed, 99])
        cases.append((alpha, dim, hessian, gradient, jacobian, legendre))
    return cases


FIELDS = ("alpha", "dim", "hessian_residual", "gradient_residual", "jacobian_residual",
          "legendre_residual")
ALPHA_SETS = {"default": (-0.5, 0.0, 0.5), "wide": (-0.9, 0.0, 0.5, 1.0)}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("alphas", list(ALPHA_SETS))
@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_potential_equals_the_per_alpha_loop(capsys, seed, alphas, dim):
    orders = ALPHA_SETS[alphas]
    n_points = max(dim * dim + 3, 6)  # the grid size --points 0 picks
    for n_dual in (1, n_points):
        argv = ["potential", f"--alpha={','.join(map(str, orders))}", "--dim", str(dim),
                "--dual-points", str(n_dual), "--seed", str(seed)]
        assert main(argv) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        printed = [tuple(rec[f] for f in FIELDS) for rec in records if rec["record"] == "case"]
        assert printed == _oracle_cases(seed, dim, orders, n_points, n_dual), argv


ORDERS = (0.5, 1.0, -0.5, -1.0, 0.0, 1.0, 0.9)


@pytest.mark.parametrize("inverse", [False, True])
def test_row_profile_gives_each_row_its_own_orders_values(inverse):
    # row r of the argument takes order r; the powers, log/exp and identity rows come from their
    # own members, and each row equals its order's profile alone, bit for bit
    orders = ORDERS if not inverse else tuple(a for a in ORDERS if a > -1.0)
    one = inverse_embedding_function if inverse else embedding_function
    rows = _row_profile(orders, inverse)
    lam = rng_from(3).uniform(0.2, 2.0, size=(len(orders), 3))
    # the pairs of unequal eigenvalues, larger first, as divided_difference_matrix takes them
    x, y = lam[:, [1, 2, 2]], lam[:, [0, 0, 1]]
    x, y = np.maximum(x, y), np.minimum(x, y)
    for method, args in (("fn", (lam,)), ("deriv", (lam,)), ("deriv2", (lam,)),
                         ("pair", (x, y))):
        stacked = getattr(rows, method)(*args)
        assert stacked.shape == args[0].shape
        for r, alpha in enumerate(orders):
            alone = getattr(one(alpha), method)(*(a[r] for a in args))
            np.testing.assert_array_equal(stacked[r], alone)


def test_row_powers_align_where_power_stacks_lead():
    # one body, two alignments: a power stack adds a leading axis, a row power takes the
    # argument's own rows
    exponents, scales = [0.5, 2.0, 0.25], [2.0, 1.0, 4.0]
    x = rng_from(5).uniform(0.1, 3.0, size=(3, 4))
    leading = power_function(exponents, scales).fn(x)
    assert leading.shape == (3, 3, 4)
    aligned = _row_power_function(exponents, scales, "rows").fn(x)
    np.testing.assert_array_equal(aligned, leading[[0, 1, 2], [0, 1, 2]])


def _row_case(dim=2, orders=(0.5, 1.0, -0.5, 0.0, 0.9)):
    basis = hermitian_basis(dim)
    rng = rng_from(17)
    weights = np.stack([random_weight(rng, dim, 0.7, 1.5) for _ in orders])
    return basis, np.array(orders), weights


def test_affine_coordinates_take_one_order_per_matrix():
    basis, orders, weights = _row_case()
    stacked = affine_coordinates(weights, orders, basis)
    for r, alpha in enumerate(orders):
        np.testing.assert_array_equal(stacked[r], affine_coordinates(weights[r], alpha, basis))
    with pytest.raises(ValueError, match="4 orders do not match a stack of shape"):
        affine_coordinates(weights, orders[:4], basis)


def _jet_arrays(jet):
    return [jet.sigma, jet.spectrum.eigenvalues, jet.spectrum.unitary, jet.tangents, jet.hessians]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_xi_affine_chart_of_row_orders_equals_each_orders_chart(order):
    basis, orders, weights = _row_case(dim=3)
    points = affine_coordinates(weights, orders, basis)
    jet = xi_affine_family(basis, orders).jet(points, order)
    for r, alpha in enumerate(orders):
        alone = xi_affine_family(basis, alpha).jet(points[r], order)
        for whole, one in zip(_jet_arrays(jet), _jet_arrays(alone)):
            if one is None:
                assert whole is None
            else:
                np.testing.assert_array_equal(whole[r], one)


def test_xi_affine_chart_of_row_orders_takes_only_its_own_stack_size():
    basis, orders, weights = _row_case()
    family = xi_affine_family(basis, orders)
    points = affine_coordinates(weights, orders, basis)
    with pytest.raises(ValueError, match="a chart of 5 row orders got parameter shape"):
        family.jet(points[:3])


def test_xi_affine_chart_of_row_orders_names_the_row_off_the_cone():
    # Y = sum xi_i X_i must be positive except on the log rows, whose exp inverse takes any Y;
    # the chart cannot evaluate a row alone, so its own error names the row
    basis = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    family = xi_affine_family(basis, [1.0, 0.0, 0.5])
    xi = np.array([[0.0, 2.0], [1.0, 0.5], [0.0, 2.0]])  # rows 0 and 2 have Y = diag(2, -2)
    with pytest.raises(ValueError, match="not positive definite .* at stack index 2"):
        family.jet(xi)
