"""`qiglab potential` runs every alpha of a dim in one stacked pass, bit for bit the per-alpha loop.

The oracle is the loop the stacked pass replaced: per alpha, its own rng's weights one
``random_weight`` at a time, its own xi-affine chart, and the one-order potential and dual
checks written out as they ran before the pass was stacked (one order-2 jet of the grid, one
order-1 jet of the dual points, one stencil jet and one Newton solve per alpha). Every residual
the CLI prints must equal the oracle's with ``==``.

The pass rests on one stacking rule: a stack of k profiles or k kernel specs lines up with the
leading axis of its argument, which has length k or 1. Each stack kind is checked member by
member against its members alone, on both lengths, and an argument that fits neither must raise
before any work. The row-order affine coordinates and xi-affine chart are checked row by row
against the one-order ones, and the affine check takes one order per point.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

import qiglab.connections
import qiglab.manifold
from qiglab.cli import main
from qiglab.linalg import Spectrum, power_function
from qiglab.manifold import (
    _scalar_gradient,
    affine_coordinates,
    embedding_function,
    inverse_embedding_function,
    xi_affine_family,
)
from qiglab.metrics import (
    _kernel_tables,
    _metric_matrix,
    bkm_function,
    builtin_functions,
    matched_metric,
)
from qiglab.newton import _damped_newton, _row_dot
from qiglab.potential import potential_check
from qiglab.sampling import hermitian_basis, random_weight, rng_from


def _trace(a):
    return np.trace(a, axis1=-2, axis2=-1).real


def _oracle_potential(family, alpha, points, basis):
    """(hessian residual, gradient residual) of one order's grid, as one order's check took them."""
    jet = family.jet(points, 2)
    zetas = affine_coordinates(jet.spectrum, -alpha, basis)
    metric = _metric_matrix(jet, [matched_metric(alpha)])
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
    metric = _metric_matrix(jet, [matched_metric(alpha)])
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
EXPONENTS, SCALES = (0.5, 2.0, 0.25), (2.0, 1.0, 4.0)


def _profile_stack(kind):
    """(stack, its members alone) of each kind of profile stack."""
    if kind == "power":
        members = [power_function(e, c) for e, c in zip(EXPONENTS, SCALES)]
        return power_function(EXPONENTS, SCALES), members
    one = embedding_function if kind == "embedding" else inverse_embedding_function
    return one(ORDERS), [one(alpha) for alpha in ORDERS]


PROFILE_STACKS = ["power", "embedding", "inverse embedding"]


@pytest.mark.parametrize("kind", PROFILE_STACKS)
def test_a_profile_stack_lines_up_with_its_arguments_leading_axis(kind):
    # a leading axis of k gives row r member r; a leading axis of 1 gives every member on every
    # row; each value equals its member's alone, bit for bit (the embeddings' log, exp and
    # identity rows come from members of their own)
    stack, members = _profile_stack(kind)
    k = len(members)
    lam = rng_from(3).uniform(0.2, 2.0, size=(k, 3))
    # the pairs of unequal eigenvalues, larger first, as divided_difference_matrix takes them
    x, y = lam[:, [1, 2, 2]], lam[:, [0, 0, 1]]
    x, y = np.maximum(x, y), np.minimum(x, y)
    for method, args in (("fn", (lam,)), ("deriv", (lam,)), ("deriv2", (lam,)),
                         ("pair", (x, y))):
        aligned = getattr(stack, method)(*args)
        every = getattr(stack, method)(*(a[None] for a in args))
        assert aligned.shape == args[0].shape
        assert every.shape == (k,) + args[0].shape
        for r, member in enumerate(members):
            alone = getattr(member, method)
            np.testing.assert_array_equal(aligned[r], alone(*(a[r] for a in args)))
            np.testing.assert_array_equal(every[r], alone(*args))


def _bases(count, n=3):
    rng = rng_from(29)
    spec = Spectrum(*np.linalg.eigh(np.stack([random_weight(rng, n, 0.3, 2.0)
                                              for _ in range(count)])))
    spec.eigenvalues[0, 1] = spec.eigenvalues[0, 0] * (1.0 + 1e-7)  # a confluent pair
    return spec


def test_a_spec_stack_lines_up_with_the_spectrums_leading_axis():
    # spec i on row i of k bases, or every spec at every base of spec[None]: the kernel and its
    # divided difference each equal the spec's alone, bit for bit
    specs = builtin_functions()
    k = len(specs)
    bases = _bases(k)
    for spec, rows, shape in ((bases, lambda i: bases[i], (k, 3, 3)),
                              (bases[None], lambda i: bases, (k, k, 3, 3))):
        c, c1 = _kernel_tables([spec], specs, difference=True)[0]
        assert c.shape == shape and c1.shape == shape + (3,)
        for i, f in enumerate(specs):
            alone_c, alone_c1 = _kernel_tables([rows(i)[None]], [f], difference=True)[0]
            np.testing.assert_array_equal(c[i], alone_c[0])
            np.testing.assert_array_equal(c1[i], alone_c1[0])


def _spec_stack_call(called):
    bkm = bkm_function()
    watched = dataclasses.replace(bkm, fn=lambda x: called.append(x) or bkm.fn(x))
    return lambda lam: _kernel_tables([Spectrum(lam, None)], [watched] * 3)[0]


@pytest.mark.parametrize("kind", PROFILE_STACKS + ["mixed embedding", "kernel specs"])
def test_a_stack_that_does_not_fit_its_argument_raises_naming_both(calls, kind):
    # a leading axis of neither k nor 1, or none at all, raises before any member runs: no
    # float_power, and no spec called; a kernel spec stack meets the eigenvalue ratios
    called = []
    lam = rng_from(4).uniform(0.2, 2.0, size=(2, 5))
    if kind == "kernel specs":
        k, members, apply = 3, "kernel specs", _spec_stack_call(called)
        cases = [(lam, (2, 5, 5)), (lam[0], (5, 5))]
    else:
        if kind == "mixed embedding":
            stack, k = embedding_function((0.5, 1.0, -1.0, 0.0)), 4
        else:
            stack, alone = _profile_stack(kind)
            k = len(alone)
        members, apply = "profiles", stack.fn
        cases = [(lam, (2, 5)), (lam[0, 0], ())]
    calls.watch(np, "float_power")
    for bad, shape in cases:
        with pytest.raises(ValueError, match=re.escape(
                f"a stack of {k} {members} does not fit an argument of shape {shape}: "
                f"its leading axis must have length {k} or 1")):
            apply(bad)
    assert calls.count("float_power") == 0 and not called


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
    with pytest.raises(ValueError, match=re.escape("a stack of 4 profiles does not fit an "
                                                   "argument of shape (5, 2)")):
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
    with pytest.raises(ValueError, match=re.escape("a stack of 5 profiles does not fit an "
                                                   "argument of shape (3, 2)")):
        family.jet(points[:3])
    with pytest.raises(ValueError, match=r"chart output shape \(5, 2, 2\) does not follow"):
        family.jet(points[:1])


def test_xi_affine_chart_of_row_orders_names_the_row_off_the_cone():
    # Y = sum xi_i X_i must be positive except on the log rows, whose exp inverse takes any Y;
    # the chart cannot evaluate a row alone, so its own error names the row
    basis = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    family = xi_affine_family(basis, [1.0, 0.0, 0.5])
    xi = np.array([[0.0, 2.0], [1.0, 0.5], [0.0, 2.0]])  # rows 0 and 2 have Y = diag(2, -2)
    with pytest.raises(ValueError, match="not positive definite .* at stack index 2"):
        family.jet(xi)


@pytest.mark.parametrize("alphas", ["-0.5,0,0.5", "-0.9,0,0.5,1", "0.5"])
@pytest.mark.parametrize("dim", [2, 3])
def test_affine_check_takes_one_order_per_point(capsys, monkeypatch, dim, alphas):
    # the affine check's triple tensor has one row per order, (k, n, n, n), where taking every
    # order at every point made (k, k, n, n, n)
    shapes = []
    # the connections' order-2 step lives in manifold, which the xi-affine chart jets call too:
    # log the triple tensors made inside the connections' calls of it
    tensor, step = qiglab.manifold._triple_difference_tensor, qiglab.connections._function_jet
    inside = []

    def watched(*args):
        out = tensor(*args)
        if inside:
            shapes.append(out.shape)
        return out

    def stepped(*args):
        inside.append(True)
        try:
            return step(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(qiglab.manifold, "_triple_difference_tensor", watched)
    monkeypatch.setattr(qiglab.connections, "_function_jet", stepped)
    assert main(["potential", f"--alpha={alphas}", "--dim", str(dim)]) == 0
    capsys.readouterr()
    assert shapes == [(len(alphas.split(",")), dim, dim, dim)]


def test_affine_check_names_the_order_and_the_point_that_fail():
    basis, _, weights = _row_case(dim=2, orders=(0.5,) * 6)
    points = affine_coordinates(weights, 0.5, basis)
    with pytest.raises(ValueError, match=re.escape(
            f"coordinates are not affine for embedding order -0.5 at theta={points[0].tolist()} "
            "(flat covariant derivative has norm")):
        potential_check(xi_affine_family(basis, 0.5), -0.5, points, basis)
