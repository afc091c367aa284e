"""The stacked checks equal, bit for bit, the per-sample loops they replaced.

Each oracle below is the check as it was written sample by sample, point by
point and kernel by kernel, through the one-matrix public API: the
kernel-vs-direct consistency, the metric-table's demo values and ordering
check, the classical reduction and the flatness scan. The stacked checks must
give the values they give, compared with ==.
"""

import numpy as np
import pytest

from qiglab.connections import covariant_derivative_set
from qiglab.consistency import _ordering_violations, _reference_values, kernel_direct_consistency
from qiglab.duality import classical_reduction_check, flatness_scan
from qiglab.manifold import (
    _standard_basis,
    affine_coordinates,
    check_state,
    simplex_family,
    xi_affine_family,
)
from qiglab.metrics import (
    _contract,
    _metric_matrix,
    bkm_direct,
    bkm_function,
    builtin_functions,
    bures_function,
    metric_eval,
    petz_kernel,
    rld_function,
    wyd_direct,
    wyd_function,
)
from qiglab.sampling import (
    hermitian_basis,
    pauli_matrices,
    random_state,
    random_traceless_hermitian,
    random_weight,
    rng_from,
)

SEEDS = range(6)
DIMS = (2, 3, 4, 5)
ALPHAS = (-0.9, -0.5, 0.0, 0.5, 0.9)


def _per_sample_consistency(seed, dims, alphas, samples, floor):
    rows = []
    for n in dims:
        for alpha in alphas:
            rng = rng_from([seed, n, int(round((alpha + 1) * 1000))])
            f = wyd_function(0.5 * (1.0 + alpha))
            worst = 0.0
            for _ in range(samples):
                rho = check_state(random_state(rng, n, floor))
                a = random_traceless_hermitian(rng, n)
                b = random_traceless_hermitian(rng, n)
                direct = wyd_direct(rho, alpha, a, b)
                at, bt = rho.to_eigenbasis(np.stack([a, b]))
                c = petz_kernel(rho, f).coefficients
                ab, aa, bb = _contract(c, np.stack([at, at, bt]), np.stack([bt, at, bt]))
                worst = max(worst, float(abs(direct - ab) / np.sqrt(aa * bb)))
            rows.append({"dim": n, "alpha": alpha, "max_rel_dev": worst, "samples": samples})
    return rows


def _per_sample_ordering(seed, dims, samples, floor):
    middle = [wyd_function(0.25), wyd_function(0.5), wyd_function(0.75), bkm_function()]
    out = []
    for n in dims:
        rng = rng_from([seed, 1000 + n])
        violation = 0.0
        for _ in range(samples):
            spec = check_state(random_state(rng, n, floor))
            a = random_traceless_hermitian(rng, n)
            lo = metric_eval(spec, bures_function(), a, a)
            hi = metric_eval(spec, rld_function(), a, a)
            for f in middle:
                g = metric_eval(spec, f, a, a)
                violation = max(violation, lo - g, g - hi)
        out.append(violation)
    return out


def _per_point_classical_reduction(seed):
    dim = 3
    rng = rng_from(seed)
    fam = simplex_family(dim)
    d = fam.param_dim
    worst_metric = 0.0
    worst_alpha = 0.0
    for _ in range(3):
        p = rng.dirichlet(np.ones(dim)) * 0.6 + 0.4 / dim
        jet = fam.jet(p[:-1], 1)
        spec = check_state(jet.spectrum)
        tangents = _standard_basis(jet.spectrum, jet.tangents)
        dp = np.diagonal(tangents, axis1=-2, axis2=-1).real
        fisher = (dp / p) @ dp.T
        for f in builtin_functions():
            worst_metric = max(worst_metric, float(np.abs(_metric_matrix(jet, f) - fisher).max()))
        for alpha in (-0.5, 0.0, 0.5):
            for i in range(d):
                for j in range(d):
                    g = wyd_direct(spec, alpha, tangents[i], tangents[j])
                    worst_alpha = max(worst_alpha, abs(g - fisher[i, j]))
    return {"max_fisher_dev": worst_metric, "max_alpha_dev": worst_alpha}


def _per_point_flatness(alpha, dim, seed):
    rng = rng_from(seed)
    basis = hermitian_basis(dim)
    fam = xi_affine_family(basis, alpha)
    worst = 0.0
    for _ in range(2):
        sigma = random_weight(rng, dim, 0.5, 2.0)
        xi = affine_coordinates(sigma, alpha, basis)
        nabla = covariant_derivative_set(fam.jet(xi, 2), [alpha], on_extended=True)
        worst = max(worst, float(np.linalg.norm(nabla, axis=(-2, -1)).max()))
    return worst


@pytest.mark.parametrize("floor", [0.0, 0.05])
@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_direct_consistency_equals_the_per_sample_loop(seed, floor):
    args = (seed, DIMS, ALPHAS, 10, floor)
    assert kernel_direct_consistency(*args) == _per_sample_consistency(*args)


@pytest.mark.parametrize("floor", [0.0, 0.05])
@pytest.mark.parametrize("seed", SEEDS)
def test_ordering_violations_equal_the_per_sample_loop(seed, floor):
    args = (seed, DIMS, 25, floor)
    assert _ordering_violations(*args) == _per_sample_ordering(*args)


def test_reference_values_equal_one_metric_at_a_time():
    rho = check_state(np.diag([0.75, 0.25]).astype(complex))
    sx = pauli_matrices()[1]
    specs = [bures_function(), wyd_function(0.25), wyd_function(0.5), wyd_function(0.75),
             bkm_function(), rld_function()]
    assert _reference_values() == [(f.name, metric_eval(rho, f, sx, sx)) for f in specs]


@pytest.mark.parametrize("seed", SEEDS)
def test_classical_reduction_check_equals_the_per_point_loop(seed):
    assert classical_reduction_check(seed) == _per_point_classical_reduction(seed)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_flatness_scan_equals_the_per_point_loop(seed, dim):
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
        args = (alpha, dim, [seed, dim])
        assert flatness_scan(*args) == _per_point_flatness(*args)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_direct_pairings_of_a_stack_equal_one_matrix_at_a_time(n):
    # a stacked base and stacked arguments give an (m,) array, each entry bit for bit the
    # pairing of its matrices alone; one matrix gives a float
    rng = rng_from([21, n])
    rho = np.stack([random_state(rng, n) for _ in range(4)])
    a, b = (np.stack([random_traceless_hermitian(rng, n) for _ in range(4)]) for _ in range(2))
    for pairing in (lambda base, x, y: wyd_direct(base, 0.3, x, y), bkm_direct):
        stacked = pairing(rho, a, b)
        singles = [pairing(r, x, y) for r, x, y in zip(rho, a, b)]
        assert stacked.shape == (4,) and all(type(v) is float for v in singles)
        assert stacked.tolist() == singles
        # one base for a stack of arguments, and a stack of bases for one argument pair
        assert pairing(rho[0], a, b).tolist() == [pairing(rho[0], x, y) for x, y in zip(a, b)]
        assert pairing(rho, a[0], b[0]).tolist() == [pairing(r, a[0], b[0]) for r in rho]
