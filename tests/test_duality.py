import collections
import dataclasses
import json
import sys
import types

import numpy as np
import pytest
from conftest import SECOND_DERIVATIVE_STEP, _scalar_hessian, standard_basis_covariant_set

from qiglab.linalg import (
    apply_scalar_function,
    frechet_derivative,
    frechet_second_derivative,
    spectral_decompose,
)
from qiglab.bands import FALSIFICATION_GAP, POSITIVE_TOL, band
from qiglab.connections import covariant_derivative_set
from qiglab.duality import (
    DefectGrid,
    DualityReport,
    WitnessFamily,
    classical_reduction_check,
    convexity_failure_check,
    duality_defect,
    flatness_scan,
    path_dependence_witness,
    perturbed_wyd,
    qubit_bloch_family,
    qubit_weight_family,
    qutrit_state_family,
    qutrit_weight_family,
    sample_grid,
    standard_witness_families,
    transport_duality_check,
    uniqueness_scan,
    witness_curve,
)
from qiglab.gibbs import (
    entropy_projection,
    entropy_projections,
    gibbs_family,
    relative_entropy_curvature_gap,
)
from qiglab.manifold import (
    CHART_MIN_EIGENVALUE,
    _scalar_gradient,
    affine_coordinates,
    alpha_representation,
    embedding_function,
    linear_family,
    representation_convert,
    simplex_family,
    state_tangent,
    xi_affine_family,
)
from qiglab.metrics import (
    MonotoneFunctionSpec,
    _metric_matrix,
    bkm_direct,
    bkm_function,
    builtin_functions,
    bures_function,
    kernel_metric,
    matched_metric,
    metric_eval,
    petz_kernel,
    relative_entropy,
    rld_function,
    validate_function_spec,
    wyd_function,
)
from qiglab.consistency import kernel_direct_consistency
from qiglab.monotonicity import (
    depolarizing_channel,
    monotonicity_check,
    monotonicity_scan,
    partial_trace_channel,
    random_stinespring_channel,
)
from qiglab.newton import _damped_newton
from qiglab.potential import dual_coordinate_check, potential_check
from qiglab.sampling import (
    hermitian_basis,
    pauli_matrices,
    random_state,
    random_traceless_hermitian,
    random_weight,
    rng_from,
)

I2, SX, SY, SZ = pauli_matrices()


def _bloch_grid(seed=0, n_points=2):
    witness = standard_witness_families(2, "state")[0]
    return witness.family, sample_grid(witness, seed, n_points)


def _trace_potential(sigma, alpha):
    """The trace potential (2/(1+alpha)) Tr sigma of each matrix of a stack (..., n, n)."""
    return 2.0 / (1.0 + alpha) * np.trace(sigma, axis1=-2, axis2=-1).real


# ------------------------------------------------------------ duality defect


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_matched_metric_has_tiny_defect(alpha):
    family, grid = _bloch_grid()
    rep = duality_defect(family, grid, wyd_function(0.5 * (1.0 + alpha)), alpha)
    assert rep.defect <= 5e-5


def test_bures_defect_breaks_duality():
    family, grid = _bloch_grid()
    rep = duality_defect(family, grid, bures_function(), 0.0)
    assert rep.defect >= 1e-2


def test_defect_alpha_reflection_symmetry():
    # swapping alpha -> -alpha transposes the last two tensor slots
    family, grid = _bloch_grid()
    spec = bures_function()
    plus = duality_defect(family, grid, spec, 0.4)
    minus = duality_defect(family, grid, spec, -0.4)
    np.testing.assert_allclose(
        plus.per_triple, np.transpose(minus.per_triple, (0, 1, 3, 2)), atol=1e-8
    )


def test_duality_report_metadata():
    family, grid = _bloch_grid()
    rep = duality_defect(family, grid, bures_function(), 0.0, family_name="qubit-bloch")
    assert rep.metric_name == "bures"
    assert rep.family_name == "qubit-bloch"
    assert rep.per_triple.shape == (len(grid), 3, 3, 3)


# Richardson-extrapolated central differences of the metric matrix, steps h, h/2 and h/4 with
# h = 1e-2 * max(1, |theta_i|), reproduce the exact d_i g_jk to 4.2e-13 of max(1, |d_i g_jk|)
# on the grids below (recorded over the four witness families and the six kernels); the
# per-triple reference is held to this multiple of max(1, its largest entry).
DERIVATIVE_ORACLE_RTOL = 1e-11


def _metric_matrix_reference(family, theta, f):
    """g_ab at one theta in the standard basis: kernel_metric of every tangent pair."""
    d = family.param_dim
    kernel = petz_kernel(family.point(theta), f)
    tangents = family.tangent_matrices(theta)
    g = np.empty((d, d))
    for a in range(d):
        for b in range(a, d):
            g[a, b] = g[b, a] = kernel_metric(kernel, tangents[a], tangents[b])
    return g


def _metric_derivative_reference(family, theta, f, i):
    """d_i g at theta by central differences with steps h, h/2, h/4 and Richardson
    extrapolation (error O(h^6)); it shares no divided difference with DefectGrid."""

    def central(h):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        g_up = _metric_matrix_reference(family, up, f)
        return (g_up - _metric_matrix_reference(family, dn, f)) / (2.0 * h)

    h = 1e-2 * max(1.0, abs(theta[i]))
    table = [central(h / 2**k) for k in range(3)]
    for level in (1, 2):
        w = 4.0**level
        table = [(w * fine - coarse) / (w - 1.0) for coarse, fine in zip(table, table[1:])]
    return table[0]


def _reference_per_triple(family, grid, f, alpha, on_extended):
    """Per-triple defect loop: the standard-basis covariant-derivative set per sign,
    kernel_metric per pairing, and a Richardson-extrapolated difference of the metric matrix."""
    d = family.param_dim
    tensors = []
    for theta in grid:
        kernel = petz_kernel(family.point(theta), f)
        tangents = family.tangent_matrices(theta)
        plus = standard_basis_covariant_set(family, theta, alpha, on_extended)
        minus = standard_basis_covariant_set(family, theta, -alpha, on_extended)
        dg = np.stack([_metric_derivative_reference(family, theta, f, i) for i in range(d)])
        t = np.empty((d, d, d))
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    t[i, j, k] = (
                        dg[i, j, k]
                        - kernel_metric(kernel, plus[i, j], tangents[k])
                        - kernel_metric(kernel, tangents[j], minus[i, k])
                    )
        tensors.append(t)
    return np.stack(tensors)


@pytest.mark.parametrize(
    "dim, manifold", [(2, "state"), (2, "weight"), (3, "state"), (3, "weight")]
)
def test_defect_grid_equals_per_triple_reference(dim, manifold):
    # one grid serves every kernel and alpha, as the per-triple loop does up to round-off
    # (the loop builds a unit-trace chart's projected connections, the grid the flat ones)
    witness = standard_witness_families(dim, manifold)[0]
    grid = sample_grid(witness, [0, dim], 2)
    shared = DefectGrid(witness.family, grid)
    kernels = [bures_function(), rld_function()]
    cases = [(f, a) for a in (-0.5, 0.0, 0.5) for f in [matched_metric(a)] + kernels]
    cases += [(bkm_function(), -1.0), (bkm_function(), 1.0)]
    for (f, alpha), rep in zip(cases, shared.defects(cases)):
        expected = _reference_per_triple(witness.family, grid, f, alpha, witness.on_extended)
        atol = DERIVATIVE_ORACLE_RTOL * max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(rep.per_triple, expected, rtol=0.0, atol=atol)
        assert rep.defect == float(np.abs(rep.per_triple).max())
        np.testing.assert_array_equal(
            duality_defect(witness.family, grid, f, alpha).per_triple,
            rep.per_triple,
        )


# The state-manifold defect is the positive-cone defect on a unit-trace chart's tangents: the
# projected connections differ from the flat ones by a multiple of the transversal rho, and
# f(1) = 1 gives g_f(rho, T) = Tr T, which is 0 for every tangent T of a unit-trace chart.
# DefectGrid builds the flat connections alone; the projected ones are the oracle here.


def _state_witness_grid(dim, seed=0):
    witness = standard_witness_families(dim, "state")[0]
    return witness, sample_grid(witness, [seed, dim], 3)


@pytest.mark.parametrize("dim", [2, 3])
def test_state_witness_charts_have_unit_trace_points_and_traceless_derivatives(dim):
    # what the "state" label rests on: the defect path no longer runs check_state
    witness, grid = _state_witness_grid(dim)
    family = witness.family
    jet = family.jet(np.stack([np.zeros(family.param_dim)] + grid), 2)
    traces = np.trace(jet.sigma, axis1=-2, axis2=-1)
    np.testing.assert_allclose(traces, 1.0, rtol=0.0, atol=1e-15)
    assert np.abs(np.trace(jet.tangents, axis1=-2, axis2=-1)).max() <= 1e-15
    assert np.abs(np.trace(jet.hessians, axis1=-2, axis2=-1)).max() <= 1e-15


@pytest.mark.parametrize("dim", [2, 3])
def test_projected_connections_differ_from_the_flat_ones_by_a_multiple_of_rho(dim):
    witness, grid = _state_witness_grid(dim)
    jet = witness.family.jet(np.stack(grid), 2)
    orders = [-1.0, -0.5, 0.0, 0.5, 1.0]
    flat = covariant_derivative_set(jet, orders, on_extended=True)
    diff = covariant_derivative_set(jet, orders, on_extended=False) - flat
    # in the eigenbasis rho is diag(λ), of trace 1, so the multiple is the trace of the difference
    rho = np.eye(dim) * jet.spectrum.eigenvalues[:, None, None, None, :]
    multiple = np.trace(diff, axis1=-2, axis2=-1)[..., None, None]
    assert np.abs(diff - multiple * rho).max() <= 1e-15 * np.abs(flat).max()
    assert np.abs(multiple).max() >= 1e-2  # the projection does move the connections


@pytest.mark.parametrize("dim", [2, 3])
def test_every_builtin_kernel_pairs_rho_with_a_state_tangent_to_zero(dim):
    # c_aa = 1/(λa f(1)), so g_f(rho, T) = Σ_a T_aa = Tr T for every kernel with f(1) = 1
    witness, grid = _state_witness_grid(dim)
    for theta in grid:
        rho, tangents = witness.family.point(theta), witness.family.tangent_matrices(theta)
        for f in builtin_functions():
            kernel = petz_kernel(rho, f)
            pairings = [kernel_metric(kernel, rho, t) for t in tangents]
            assert np.abs(pairings).max() <= 1e-15, f.name


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_state_defect_equals_the_projected_connections_defect(monkeypatch, dim, seed):
    import qiglab.duality

    witness, grid = _state_witness_grid(dim, seed)
    cases = [(f, alpha) for alpha in (-0.5, 0.0, 0.5) for f in builtin_functions()]
    cases += [(bkm_function(), -1.0), (bkm_function(), 1.0)]
    # every flat set is built before the projected ones take its place
    reports = DefectGrid(witness.family, grid).defects(cases)
    flat = dict(zip(cases, reports))
    build = qiglab.duality.covariant_derivative_set
    built = []  # the orders of each projected set

    def projected(jet, alphas, on_extended):
        built.append(tuple(alphas))
        return build(jet, alphas, on_extended=False)

    monkeypatch.setattr(qiglab.duality, "covariant_derivative_set", projected)
    for size in (0.5, 0.0, 1.0):  # a fresh grid per |alpha|: one projected set of -alpha, alpha
        at_size = [(f, a) for f, a in cases if abs(a) == size]
        oracle = DefectGrid(witness.family, grid).defects(at_size)
        assert built[-1] == ((-size, size) if size else (0.0,))
        for (f, a), want in zip(at_size, oracle):
            np.testing.assert_allclose(flat[f, a].per_triple, want.per_triple, rtol=0.0,
                                       atol=1e-14, err_msg=f"{f.name} at alpha {a}")
    assert len(built) == 3


@pytest.mark.parametrize("argv, grids", [(["duality"], 4), (["uniqueness-scan"], 2)],
                         ids=["duality", "uniqueness-scan"])
def test_defects_build_one_flat_connection_set_per_grid_and_no_projection(
    capsys, monkeypatch, argv, grids
):
    import qiglab.duality
    from qiglab.cli import main

    build = qiglab.duality.covariant_derivative_set
    flags = []  # on_extended of each connection call

    def logged(jet, alphas, on_extended):
        flags.append(on_extended)
        return build(jet, alphas, on_extended)

    monkeypatch.setattr(qiglab.duality, "covariant_derivative_set", logged)
    assert main(argv) == 0
    capsys.readouterr()
    assert flags == [True] * grids


def test_duality_defect_takes_family_name_by_keyword_only():
    # a stale positional on_extended=True, or a metric scale, would otherwise become the name
    family, grid = _bloch_grid()
    with pytest.raises(TypeError):
        duality_defect(family, grid, bures_function(), 0.0, True)
    with pytest.raises(TypeError):
        duality_defect(family, grid, bures_function(), 0.0, scale=3.0)
    fields = {f.name for f in dataclasses.fields(DualityReport)}
    assert not fields & {"on_extended", "scale", "grid"}


def test_defect_grid_builds_each_connection_set_once(calls, capsys):
    import qiglab.manifold
    from qiglab.cli import main

    def count(run):
        calls.clear()
        run()
        return calls.count("_triple_difference_tensor"), calls.count("covariant_derivative_set")

    # one triple tensor per covariant-derivative set, for all its orders, points and pairs
    # the witness charts are linear, so manifold's order-2 step runs for the sets alone
    calls.watch(qiglab.manifold, "_triple_difference_tensor")
    calls.watch(qiglab.duality, "covariant_derivative_set")
    witnesses = standard_witness_families(2, "state")
    battery = count(lambda: uniqueness_scan(0.5, witnesses=witnesses, n_points=1))
    single = count(
        lambda: uniqueness_scan(
            0.5, witnesses=witnesses, n_points=1, candidates=[(wyd_function(0.75), 1.0, True)]
        )
    )
    # nabla^(0.5) and nabla^(-0.5) in one call and one triple tensor, for 7 candidates as for 1
    assert battery == single == (1, 1)
    argv = ["duality", "--alpha=-0.5,0,0.5", "--dim", "2", "--manifold", "state", "--points", "1"]
    # the signed orders -0.5, 0 and 0.5: three sets, in one call and one triple tensor
    assert count(lambda: main(argv)) == (1, 1)
    capsys.readouterr()


def test_defect_grid_builds_each_signed_alpha_in_one_stacked_call(capsys, monkeypatch):
    import qiglab.duality
    from qiglab.cli import main

    shapes, orders = [], []  # the theta of each call's jet, and its alphas
    build = qiglab.duality.covariant_derivative_set

    def logged(jet, alphas, *args, **kwargs):
        shapes.append(jet.theta.shape)
        orders.append(np.shape(alphas))
        return build(jet, alphas, *args, **kwargs)

    monkeypatch.setattr(qiglab.duality, "covariant_derivative_set", logged)
    witness = standard_witness_families(2, "state")[0]
    shared = DefectGrid(witness.family, sample_grid(witness, 5, 3))
    shared.defects([(wyd_function(0.5 * (1.0 + alpha)), alpha) for alpha in (0.5, -0.5, 0.0)])
    # nabla at 0.5, -0.5 and 0 in one call, for all three points at once
    assert shapes == [(3, 3)]
    assert orders == [(3,)]
    shapes.clear()
    orders.clear()
    # default duality: 2 dims x 2 manifolds of 3-point grids, alpha -0.5, 0 and 0.5
    assert main(["duality"]) == 0
    capsys.readouterr()
    assert len(shapes) == 4
    assert all(shape[0] == 3 for shape in shapes)
    assert orders == [(3,)] * 4  # per grid: -0.5, 0.5 and 0 in one call


@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("dim, manifold", [(2, "state"), (3, "weight")])
def test_defect_grid_evaluates_and_decomposes_in_two_stacked_calls(calls, points, dim, manifold):
    # one order-2 jet and one eigh for all grid points, which also serves the chart guard; the
    # defects of every kernel and alpha add neither
    witness = standard_witness_families(dim, manifold)[0]
    family = calls.watch(dataclasses.replace(witness.family), "jet")
    grid = sample_grid(witness, [4, dim], points)
    calls.eig()
    shared = DefectGrid(family, grid)
    for alpha in (0.5, 0.0):
        for f in (matched_metric(alpha), bures_function()):
            shared.defects([(f, alpha)])
    assert calls.count("jet") == 1
    assert (calls.count("eigh"), calls.count("eigvalsh")) == (1, 0)


def test_defects_call_each_kernel_profile_and_derivative_once_per_grid():
    # fn on the grid's eigenvalue ratios and deriv on its midpoint ratios, once per spec for
    # every case that uses it, each call for all grid points
    shapes = {}

    def logged(fn, key):
        def call(x):
            shapes.setdefault(key, []).append(np.shape(x))
            return fn(x)

        return call

    specs = [
        dataclasses.replace(f, fn=logged(f.fn, (f.name, "fn")), deriv=logged(f.deriv, (f.name, "d")))
        for f in (matched_metric(0.5), bures_function(), rld_function())
    ]
    witness = standard_witness_families(3, "state")[0]
    shared = DefectGrid(witness.family, sample_grid(witness, 5, 3))
    shared.defects([(f, a) for f in specs for a in (0.5, 0.0)])
    assert shapes == {
        key: [shape] for f in specs for key, shape in (((f.name, "fn"), (3, 3, 3)),
                                                       ((f.name, "d"), (3, 3, 3, 3)))
    }


def test_defect_needs_the_kernel_derivative():
    family, grid = _bloch_grid()
    underived = dataclasses.replace(bures_function(), name="bures-without-deriv", deriv=None)
    with pytest.raises(ValueError, match="bures-without-deriv: .* no deriv"):
        duality_defect(family, grid, underived, 0.0)


def _report_bits(rep) -> tuple:
    """A DualityReport's fields, each array as its (shape, bytes)."""

    def bits(v):
        return (v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v

    return tuple(tuple(map(bits, v)) if isinstance(v, tuple) else bits(v)
                 for v in dataclasses.astuple(rep))


@pytest.mark.parametrize(
    "dim, manifold", [(2, "state"), (2, "weight"), (3, "state"), (3, "weight")]
)
def test_defects_battery_equals_one_case_calls_bit_for_bit(dim, manifold):
    witness = standard_witness_families(dim, manifold)[0]
    grid = sample_grid(witness, [3, dim], 3)
    specs = builtin_functions() + [perturbed_wyd(0.75, 0.2, 0.9, 0.4),
                                   perturbed_wyd(0.25, 0.3, 0.6, 0.7)]
    cases = [(f, alpha) for alpha in (-0.5, 0.0, 0.5) for f in specs]
    battery = DefectGrid(witness.family, grid, witness.name).defects(cases)
    assert len(battery) == len(cases)
    for (f, alpha), rep in zip(cases, battery):
        alone = duality_defect(witness.family, grid, f, alpha, family_name=witness.name)
        assert _report_bits(rep) == _report_bits(alone)
        assert rep.family_name == witness.name


def test_defects_battery_names_the_spec_without_deriv():
    family, grid = _bloch_grid()
    underived = dataclasses.replace(rld_function(), name="rld-without-deriv", deriv=None)
    battery = [(f, 0.5) for f in (bures_function(), underived, matched_metric(0.5))]
    with pytest.raises(ValueError, match="^rld-without-deriv: .* no deriv"):
        DefectGrid(family, grid).defects(battery)


# Bloch radii 0.05, 0.3 and 0.1: of the largest eigenvalue ratios (1 + r)/(1 - r), 1.11,
# 1.86 and 1.22, only the second grid point's passes 1.5
_RADII_GRID = [np.array([0.05, 0.0, 0.0]), np.array([0.0, 0.3, 0.0]), np.array([0.0, 0.0, 0.1])]


def test_defects_battery_names_the_spec_whose_kernel_is_not_positive_and_its_grid_point():
    bures = bures_function()
    cut = dataclasses.replace(
        bures, name="bures-cut", fn=lambda x: np.where(np.asarray(x) > 1.5, -1.0, bures.fn(x))
    )
    battery = [(f, 0.5) for f in (matched_metric(0.5), cut, rld_function())]
    shared = DefectGrid(qubit_bloch_family(), _RADII_GRID)
    with pytest.raises(ValueError, match="^kernel of bures-cut is not strictly positive on this "
                                         "spectrum at stack index 1$"):
        shared.defects(battery)


def test_defects_battery_names_the_spec_whose_kernel_difference_is_not_finite():
    # f' is NaN past 1.5, which only the second point's confluent entries a = m reach, at λa/λb
    rld = rld_function()
    cut = dataclasses.replace(
        rld, name="rld-cut", deriv=lambda x: np.where(np.asarray(x) > 1.5, np.nan, rld.deriv(x))
    )
    battery = [(f, 0.0) for f in (bures_function(), cut)]
    shared = DefectGrid(qubit_bloch_family(), _RADII_GRID)
    with pytest.raises(ValueError, match=r"^rld-cut: .* not finite at stack index 1$"):
        shared.defects(battery)


def test_defects_of_an_empty_battery_is_empty():
    family, grid = _bloch_grid()
    assert DefectGrid(family, grid).defects([]) == []


@pytest.mark.parametrize("seed", range(10))
def test_a_battery_over_several_grids_equals_one_defects_call_per_grid(seed):
    # one kernel table for grids of n = 2 and 3 gives each grid the reports its own call gives
    from qiglab.duality import _defects

    witnesses = [(dim, w) for dim in (2, 3) for w in standard_witness_families(dim)]
    specs = builtin_functions() + [perturbed_wyd(0.75, 0.2, 0.9, 0.4),
                                   perturbed_wyd(0.25, 0.3, 0.6, 0.7)]
    batteries = []
    for dim, w in witnesses:
        cases = [(f, alpha) for alpha in (-0.5, 0.0, 0.5) for f in specs]
        batteries.append((w, sample_grid(w, [seed, dim], 3), cases))
    shared = _defects([(DefectGrid(w.family, grid, w.name), cases)
                       for w, grid, cases in batteries])
    assert [len(reports) for reports in shared] == [len(cases) for _, _, cases in batteries]
    for (w, grid, cases), reports in zip(batteries, shared):
        alone = DefectGrid(w.family, grid, w.name).defects(cases)
        assert list(map(_report_bits, reports)) == list(map(_report_bits, alone))


def _cut_rld(part: str):
    """RLD with f = -1, or f' = NaN, past 1.87: of the largest eigenvalue ratios of the
    _RADII_GRID points (1.86 at most) and of the qutrit-weight grid of seed [1, 3] (1.42, 1.88
    and 1.60), only that grid's second point passes it, in f and in the confluent f'."""
    rld = rld_function()
    cut = {"fn": -1.0, "deriv": np.nan}[part]
    profile = getattr(rld, part)
    return dataclasses.replace(
        rld, name="rld-cut", **{part: lambda x: np.where(np.asarray(x) > 1.87, cut, profile(x))}
    )


@pytest.mark.parametrize("part, message", [
    ("fn", "kernel of rld-cut is not strictly positive on this spectrum"),
    ("deriv", "rld-cut: the kernel's divided difference is not finite"),
])
def test_a_battery_over_several_grids_names_the_grid_whose_kernel_fails(part, message):
    # the stack index is the point's within its grid (1), not within the joined ratios (4)
    from qiglab.duality import _defects

    cut = _cut_rld(part)
    qutrit = standard_witness_families(3, "weight")[0]
    grids = [DefectGrid(qubit_bloch_family(), _RADII_GRID, "qubit-bloch"),
             DefectGrid(qutrit.family, sample_grid(qutrit, [1, 3], 3), "qutrit-weight")]
    batteries = [(grid, [(f, 0.5) for f in (bures_function(), cut)]) for grid in grids]
    assert len(batteries[0][0].defects(batteries[0][1])) == 2  # the first grid alone passes
    with pytest.raises(ValueError, match=f"^{message} at stack index 1$"):
        batteries[1][0].defects(batteries[1][1])  # alone, the second names no grid
    with pytest.raises(ValueError, match=f"^{message} at stack index 1 of qutrit-weight$"):
        _defects(batteries)


def _count_profile_calls(monkeypatch) -> collections.Counter:
    """Counts, by (spec name, "fn" or "deriv"), the profile calls that the kernel code makes
    (those from ``metrics._profile_values``) on every spec built until the test ends. A spec's
    validation, and a bump profile's calls of its base profile, are not counted."""
    counts = collections.Counter()
    init = MonotoneFunctionSpec.__init__

    def counted(profile, key):
        def call(x):
            if sys._getframe(1).f_code.co_name == "_profile_values":
                counts[key] += 1
            return profile(x)

        return None if profile is None else call

    def counting_init(self, name, fn, claimed_monotone=True, deriv=None):
        init(self, name, counted(fn, (name, "fn")), claimed_monotone,
             counted(deriv, (name, "deriv")))

    monkeypatch.setattr(MonotoneFunctionSpec, "__init__", counting_init)
    return counts


@pytest.mark.parametrize("command, kernels", [("duality", 3), ("uniqueness-scan", 6)])
def test_a_default_run_calls_each_kernel_profile_and_derivative_once(
    capsys, monkeypatch, command, kernels
):
    # one kernel table for all the run's grids, 4 in duality (2 dims x 2 manifolds) and 2 in
    # uniqueness-scan (the state charts), so each spec is called once, not once per grid
    from qiglab.cli import main

    counts = _count_profile_calls(monkeypatch)
    assert main([command]) == 0
    capsys.readouterr()
    names = {name for name, _ in counts}
    assert len(names) == kernels
    assert counts == {(name, part): 1 for name in names for part in ("fn", "deriv")}


@pytest.mark.parametrize("build", [qubit_bloch_family, qutrit_state_family, qubit_weight_family,
                                   qutrit_weight_family])
def test_witness_charts_are_built_once_and_sealed(build):
    family = build()
    assert build() is family
    arrays = [c.cell_contents for c in family.evaluate.__closure__
              if isinstance(c.cell_contents, np.ndarray)]
    assert len(arrays) >= 2 and not any(a.flags.writeable for a in arrays)


def test_linear_family_does_not_alias_its_base():
    base = np.diag([0.6, 0.4]).astype(complex)
    family = linear_family(base, [np.diag([1.0, -1.0]).astype(complex)])
    base[0, 0] = 5.0
    np.testing.assert_array_equal(family.point(np.zeros(1)), np.diag([0.6, 0.4]))


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_matched_defect_stays_at_round_off_near_the_bloch_boundary(alpha):
    # at Bloch radius 0.999 the eigenvalues are 5e-4 and 0.9995; a central difference of the
    # metric with step 1e-4 read a defect of 2.6e3 here, a false falsification
    family = qubit_bloch_family()
    direction = np.array([1.0, 2.0, -0.5]) / np.linalg.norm([1.0, 2.0, -0.5])
    matched, bures = DefectGrid(family, [0.999 * direction]).defects(
        [(matched_metric(alpha), alpha), (bures_function(), alpha)])
    assert matched.defect <= 1e-8
    assert bures.defect >= 1.0


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_matched_defect_is_round_off_on_a_full_chart_at_the_eigenvalue_guard(alpha):
    # the full linear chart of Herm(3) through U diag(1e-6, 2e-6, 0.5) U†, with the rotation
    # carried by the directions (U† X U for the basis X), so the base spectrum is exact and its
    # smallest eigenvalue sits on CHART_MIN_EIGENVALUE; a difference stencil leaves the chart
    rng = rng_from(3)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    basis = [u.conj().T @ x @ u for x in hermitian_basis(3)]
    family = linear_family(np.diag([1e-6, 2e-6, 0.5]).astype(complex), basis)
    matched, bures = DefectGrid(family, [np.zeros(9)]).defects(
        [(matched_metric(alpha), alpha), (bures_function(), alpha)])
    assert bures.defect >= 1e9
    assert matched.defect <= 1e-13 * bures.defect


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_matched_defect_is_round_off_where_two_small_eigenvalues_nearly_coincide(alpha):
    # the full linear chart of P_3 through U diag(1e-5, 1.005e-5, 0.8) U†, directions the
    # Hermitian basis scaled by 0.01: the two small eigenvalues lie 5e-8 apart, inside an
    # absolute 1e-7 coincidence window whose first-order value read a matched defect of
    # 1.06e-2 (1.22e-2 at alpha = 0.5), beyond FALSIFICATION_GAP: a false falsification
    rng = rng_from(3)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    base = (u * np.array([1e-5, 1.005e-5, 0.8])) @ u.conj().T
    family = linear_family(0.5 * (base + base.conj().T), [0.01 * x for x in hermitian_basis(3)])
    matched, bures = DefectGrid(family, [np.zeros(9)]).defects(
        [(matched_metric(alpha), alpha), (bures_function(), alpha)])
    assert matched.defect <= 1e-8
    assert bures.defect >= FALSIFICATION_GAP


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_matched_defect_is_round_off_on_a_curved_affine_chart(alpha):
    # an affine chart for another order has nonzero chart Hessians H: the linear witness
    # families cannot tell whether d_i g_jk keeps its g(H_ij, T_k) + g(T_j, H_ik) terms
    chart_alpha = 0.3
    family, points, _ = _potential_grid(chart_alpha, n_points=3)
    f = matched_metric(alpha)
    (rep,) = DefectGrid(family, points).defects([(f, alpha)])
    assert rep.defect <= 1e-12
    largest = 0.0  # of g(H_ij, T_k) + g(T_j, H_ik); dropping them would fail the matched pair
    d = family.param_dim
    for theta in points:
        kernel = petz_kernel(family.point(theta), f)
        tangents, hess = family.tangent_matrices(theta), family.hessians(theta)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    term = kernel_metric(kernel, hess[i, j], tangents[k])
                    term += kernel_metric(kernel, tangents[j], hess[i, k])
                    largest = max(largest, abs(term))
    assert largest >= 0.1


def test_defect_grid_rejects_an_empty_grid():
    witness = standard_witness_families(2, "state")[0]
    with pytest.raises(ValueError, match="at least one point"):
        DefectGrid(witness.family, [])


def test_standard_witness_families():
    both = standard_witness_families(2, "both")
    assert {w.on_extended for w in both} == {False, True}
    with pytest.raises(ValueError, match="manifold"):
        standard_witness_families(2, "spectral")
    with pytest.raises(ValueError, match="dimension"):
        standard_witness_families(7, "state")


def test_sample_grid_is_seeded_and_bounded():
    witness = standard_witness_families(3, "state")[0]
    a = sample_grid(witness, 5, n_points=4)
    b = sample_grid(witness, 5, n_points=4)
    assert a.shape == (4, witness.family.param_dim)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa, pb)
        assert np.abs(pa).max() <= witness.grid_halfwidth + 1e-12


@pytest.mark.parametrize("halfwidth, dim, points", [(0.35, 3, 3), (0.4, 4, 3), (0.5, 8, 5)])
def test_sample_grid_draws_the_numbers_of_one_uniform_call_per_point(
    monkeypatch, halfwidth, dim, points
):
    # one (points, dim) draw is the per-point draws, bit for bit, and leaves the generator
    # where they leave it
    import qiglab.duality

    made = []
    monkeypatch.setattr(qiglab.duality, "rng_from", lambda seed: made.append(rng_from(seed))
                        or made[-1])
    witness = WitnessFamily("box", types.SimpleNamespace(param_dim=dim), halfwidth, False)
    for seed in range(200):
        grid = sample_grid(witness, seed, points)
        rng = rng_from(seed)
        per_point = [rng.uniform(-halfwidth, halfwidth, size=dim) for _ in range(points)]
        assert grid.shape == (points, dim)
        assert grid.tobytes() == np.stack(per_point).tobytes()
        assert made[-1].bit_generator.state == rng.bit_generator.state


# --------------------------------------------------------- transport duality


def test_transport_duality_matched_is_constant():
    curve = witness_curve(128)
    base = curve.point(0.0)
    y = state_tangent(base, (SX + 0.5 * SZ) / 2.0)
    z = state_tangent(base, (SY + 0.8 * SZ) / 2.0)
    rep = transport_duality_check(curve, wyd_function(0.5), 0.0, y, z)
    assert rep.deviation <= 1e-12


def test_transport_duality_mismatched_drifts():
    curve = witness_curve(128)
    base = curve.point(0.0)
    y = state_tangent(base, (SX + 0.5 * SZ) / 2.0)
    z = state_tangent(base, (SY + 0.8 * SZ) / 2.0)
    rep = transport_duality_check(curve, bures_function(), 0.0, y, z)
    assert rep.deviation >= 1e-3


def _transport_duality_reference(curve, f, alpha, y, z):
    # one point at a time: the flat transports keep each alpha representation fixed, so
    # every point converts the two start representations back to mixtures and pairs them
    wy, wz = alpha_representation(y, alpha), alpha_representation(z, -alpha)
    values = [metric_eval(curve.point(0.0), f, y.mixture, z.mixture)]
    for k in range(1, curve.step_count + 1):
        sigma = curve.point(k / curve.step_count)
        my = representation_convert(sigma, wy, alpha, -1.0)
        mz = representation_convert(sigma, wz, -alpha, -1.0)
        values.append(metric_eval(sigma, f, my, mz))
    return np.array(values)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("matched", [True, False])
def test_transport_duality_matches_a_point_by_point_reference(alpha, matched):
    curve = witness_curve(32)
    base = curve.point(0.0)
    y = state_tangent(base, (SX + 0.5 * SZ) / 2.0)
    z = state_tangent(base, (SY + 0.8 * SZ) / 2.0)
    f = matched_metric(alpha) if matched else bures_function()
    rep = transport_duality_check(curve, f, alpha, y, z)
    assert np.array_equal(rep.values, _transport_duality_reference(curve, f, alpha, y, z))
    assert rep.initial_value == rep.values[0]


def test_transport_duality_decomposes_the_curve_in_one_stacked_call(calls):
    curve = witness_curve(64)
    base = curve.point(0.0)
    y = state_tangent(base, (SX + 0.5 * SZ) / 2.0)
    z = state_tangent(base, (SY + 0.8 * SZ) / 2.0)
    calls.eig()
    transport_duality_check(curve, bures_function(), 0.5, y, z)
    assert calls.shapes["eigh"] == [(65, 2, 2)]
    assert calls.count("eigvalsh") == 0


def test_transport_duality_rejects_foreign_tangents():
    curve = witness_curve(64)
    y = state_tangent(I2 / 2.0, SX)  # not the curve start
    with pytest.raises(ValueError, match="start point"):
        transport_duality_check(curve, wyd_function(0.5), 0.0, y, y)


# ------------------------------------------------------ potential and duals


def _potential_grid(alpha, dim=2, n_points=7, seed=44):
    rng = rng_from(seed)
    basis = hermitian_basis(dim)
    family = xi_affine_family(basis, alpha)
    points = [
        affine_coordinates(random_weight(rng, dim, 0.7, 1.5), alpha, basis)
        for _ in range(n_points)
    ]
    return family, points, basis


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_potential_hessian_matches_metric(alpha):
    family, points, basis = _potential_grid(alpha)
    rep = potential_check(family, alpha, points, basis)
    assert rep.residual <= 1e-5
    assert rep.gradient_residual <= 1e-6
    assert rep.n_points == len(points)
    np.testing.assert_allclose(rep.hessian, rep.hessian.T, atol=1e-8)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0])
def test_potential_stencils_agree_with_the_exact_traces(alpha):
    # the central differences of psi that potential_check used to take, as oracles for
    # (2/(1+alpha)) Tr of the chart's analytic second and first partials, at the check's old
    # bounds; the stencils see only the chart values
    family, points, _ = _potential_grid(alpha)
    points = np.stack(points)
    c = 2.0 / (1.0 + alpha)

    def psi(xi):
        return _trace_potential(family.point(xi), alpha)

    exact_hessian = c * np.trace(family.hessians(points), axis1=-2, axis2=-1).real
    exact_gradient = c * np.trace(family.tangent_matrices(points), axis1=-2, axis2=-1).real
    np.testing.assert_allclose(_scalar_hessian(psi, points), exact_hessian, rtol=0, atol=1e-5)
    np.testing.assert_allclose(_scalar_gradient(psi, points), exact_gradient, rtol=0, atol=1e-6)


def test_potential_check_rejects_mismatched_chart():
    family, points, basis = _potential_grid(0.0)
    with pytest.raises(ValueError, match="not affine"):
        potential_check(family, 0.8, points, basis)


def test_potential_check_needs_enough_points():
    family, points, basis = _potential_grid(0.0)
    with pytest.raises(ValueError, match="grid points"):
        potential_check(family, 0.0, points[:3], basis)


@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_dual_coordinates_jacobian_and_legendre(alpha):
    family, points, basis = _potential_grid(alpha)
    rep = dual_coordinate_check(family, alpha, points[:3], seed=9)
    assert rep.jacobian_residual <= 1e-5
    assert rep.legendre_residual <= 1e-5


def test_dual_coordinate_check_needs_points():
    family, points, basis = _potential_grid(0.0)
    with pytest.raises(ValueError, match="at least one point"):
        dual_coordinate_check(family, 0.0, [])


def test_metric_matrix_decomposes_the_chart_parameter_once(calls):
    # the chart's own decomposition gives the point's Spectrum, which also serves the guard,
    # and the eigenbasis tangents
    family, points, _ = _potential_grid(0.5)
    calls.eig()
    _metric_matrix(family.jet(points[0], 1), [matched_metric(0.5)])
    assert (calls.count("eigh"), calls.count("eigvalsh")) == (1, 0)


def test_potential_check_evaluates_each_stencil_in_one_chart_call(calls):
    # one chart jet on the grid: the xi-affine chart decomposes it (one eigh), and that
    # decomposition gives the grid's Spectrum, which serves the guard, the coordinates and the
    # metric, and the tangents and Hessians, whose first row serves the affine check
    family, points, basis = _potential_grid(0.5)
    calls.eig()
    rep = potential_check(family, 0.5, points, basis)
    assert rep.residual <= 1e-12
    assert (calls.count("eigh"), calls.count("eigvalsh")) == (1, 0)


def test_dual_coordinate_check_evaluates_each_stencil_in_one_chart_call(calls):
    family, points, _ = _potential_grid(0.5)
    calls.eig()
    rep = dual_coordinate_check(family, 0.5, points[:2], seed=9)
    assert rep.jacobian_residual <= 1e-5
    assert 0 < calls.count("eigh", "eigvalsh") <= 100


# ------------------------------------------------------------ uniqueness scan


def test_uniqueness_scan_default_battery():
    entries = uniqueness_scan(0.0)
    bands = {e.name: band(e.defect, POSITIVE_TOL, FALSIFICATION_GAP) for e in entries}
    assert "inconclusive" not in bands.values()
    assert bands["bures"] == bands["rld"] == bands["bkm"] == "fail"
    matched = [e for e in entries if e.expected_dual and e.scale == 1.0]
    scaled = [e for e in entries if e.expected_dual and e.scale != 1.0]
    assert len(matched) == 1 and bands[matched[0].name] == "pass"
    assert len(scaled) == 1 and bands[scaled[0].name] == "pass"
    # the defect of c g is c times the defect of g, and rounding keeps it exactly so
    assert scaled[0].defect == 3.0 * matched[0].defect
    assert all(matched[0].defect <= e.defect for e in entries)  # the matched WYD is minimal
    bumps = [e for e in entries if "bump" in e.name]
    assert len(bumps) == 2
    assert all(bands[e.name] == "fail" for e in bumps)


def test_band_fails_nan():
    # a NaN bound is no evidence either way; it read "inconclusive"
    assert band(float("nan"), 1e-6, 1e-2) == "fail"
    assert band(np.nan, 0.0, np.inf) == "fail"
    assert [band(v, 1.0, 2.0) for v in (1.0, 1.5, 2.0)] == ["pass", "inconclusive", "fail"]


def test_uniqueness_scan_rejects_a_kernel_derivative_that_is_not_finite():
    # f'(x) = (x log x - x + 1)/(x log^2 x), the BKM derivative with its removable 0/0 at
    # x = 1 unguarded: the scan took max(0.0, nan) = 0.0 and read the spec as dual, with
    # defect 0.0 and status "pass". The scan's two grids share one kernel table, so the
    # error names the grid as well as the point
    def deriv(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return (x * np.log(x) - x + 1.0) / (x * np.log(x) ** 2)

    spec = MonotoneFunctionSpec("bkm-unguarded", bkm_function().fn, deriv=deriv)
    with pytest.raises(ValueError, match=r"^bkm-unguarded: .* not finite at stack index 0 "
                                         r"of qubit-bloch$"):
        uniqueness_scan(0.5, n_points=1, candidates=[(spec, 1.0, False)])


def test_uniqueness_scan_rejects_endpoint_alpha():
    with pytest.raises(ValueError, match="strictly inside"):
        uniqueness_scan(1.0)


def test_perturbed_wyd_is_admissible_but_not_dual():
    spec = perturbed_wyd(0.5, amplitude=0.2, center=0.8, width=0.5)
    validate_function_spec(spec)  # normalized and symmetric by construction
    assert not spec.claimed_monotone
    assert spec(2.0) != pytest.approx(wyd_function(0.5)(2.0), rel=1e-3)


# ------------------------------------------- convexity, flatness, curvature


def test_convexity_identity_on_diagonal_family():
    fam = simplex_family(3)
    grid = [np.array([0.5, 0.3]), np.array([0.25, 0.45])]
    rep = convexity_failure_check(0.5, fam, grid, family_name="simplex")
    assert rep.max_difference <= 1e-8


def test_convexity_fails_on_noncommuting_family():
    family, grid = _bloch_grid()
    rep = convexity_failure_check(0.5, family, grid)
    assert rep.max_difference >= 1e-4
    assert rep.per_point.shape[0] == len(grid)


@pytest.mark.parametrize(
    "family, grid",
    [
        (qubit_bloch_family(), [np.array([0.1, -0.2, 0.05]), np.array([-0.3, 0.1, 0.2])]),
        (simplex_family(3), [np.array([0.5, 0.3]), np.array([0.25, 0.45]), np.array([0.3, 0.3])]),
    ],
    ids=["qubit-bloch", "simplex-3"],
)
def test_convexity_check_decomposes_each_grid_point_once(calls, family, grid):
    # one stacked Spectrum for the whole grid, which serves the chart guard and the sets at
    # alpha, +1 and -1: each point is decomposed once
    calls.eig()
    convexity_failure_check(0.5, family, grid)
    assert (calls.count("eigh"), calls.count("eigvalsh")) == (1, 0)
    assert calls.matrices("eigh") == len(grid)


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_flatness_scan_affine_charts_are_flat(dim, alpha):
    # the second partials come from the chart's analytic derivatives: round-off, not a floor
    assert flatness_scan(alpha, dim) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_flatness_scan_evaluates_each_point_in_one_chart_call(calls, monkeypatch, dim):
    # both points in one order-2 jet, whose decomposition serves the second partials
    import qiglab.duality

    build = qiglab.duality.xi_affine_family
    # watch the jet of each family flatness_scan builds
    monkeypatch.setattr(
        qiglab.duality, "xi_affine_family", lambda *a, **k: calls.watch(build(*a, **k), "jet")
    )
    assert flatness_scan(0.5, dim) <= 1e-12
    d = dim * dim
    assert calls.shapes["jet"] == [(2, d)]


def test_path_dependence_witness_value():
    assert path_dependence_witness() >= 1e-3


def _embedding_trace_identity_gap(basis, alpha, xi):
    # In the chart where the order-alpha embedding is linear with directions
    # X_i, Tr(l_a * d2 l_{-a} / dxi_i dxi_j) = (2 alpha/(1-alpha)) * g_ij with
    # g_ij = Tr(X_i * d l_{-a}/dxi_j): the potential Hessian equals the metric
    fam = xi_affine_family(basis, alpha)
    spec = spectral_decompose(fam.point(xi))
    emb_m = embedding_function(-alpha)
    ell_a = apply_scalar_function(spec, embedding_function(alpha))
    i, j = np.triu_indices(fam.param_dim)
    jacs = fam.tangent_matrices(xi)  # all partials, (d, n, n)
    hess = fam.hessians(xi)[i, j]
    d2_m = frechet_second_derivative(spec, jacs[i], jacs[j], emb_m) + frechet_derivative(spec, hess, emb_m)
    d_ell_m = frechet_derivative(spec, jacs, emb_m)
    lhs = np.trace(ell_a @ d2_m, axis1=-2, axis2=-1).real
    rhs = (2.0 * alpha / (1.0 - alpha)) * np.trace(np.stack(basis)[i] @ d_ell_m[j], axis1=-2, axis2=-1).real
    return float(np.abs(lhs - rhs).max())


@pytest.mark.parametrize("alpha", [-0.7, -0.3, 0.3, 0.7])
def test_embedding_trace_identity(alpha):
    rng = rng_from(50)
    basis = hermitian_basis(2)
    xi = affine_coordinates(random_weight(rng, 2, 0.7, 1.5), alpha, basis)
    assert _embedding_trace_identity_gap(basis, alpha, xi) <= 1e-12


# --------------------------------------------------------------- scan rows


def test_kernel_direct_consistency_rows():
    rows = kernel_direct_consistency(seed=0, dims=(2,), alphas=(-0.5, 0.5), samples=10)
    assert len(rows) == 2
    for row in rows:
        assert row["max_rel_dev"] <= 1e-8
        assert row["samples"] == 10


def test_kernel_direct_consistency_is_round_off_where_a_pairing_nearly_vanishes():
    # sample 19 of seed 10, dim 3, alpha 0.9 pairs to 1.05e-3 from O(1) terms: divided by that
    # pairing, a 1-2 ulp move of the divided differences read 5.3e-12; the Cauchy-Schwarz scale
    # sqrt(g(a, a) g(b, b)) reads round-off
    (row,) = kernel_direct_consistency(seed=10, dims=(3,), alphas=(0.9,))
    assert row["max_rel_dev"] <= 1e-14


def test_monotonicity_scan_rows():
    rows = monotonicity_scan(seed=0, trials=60)
    assert {r["metric"] for r in rows} >= {"bkm", "bures", "rld"}
    for row in rows:
        assert row["min_margin"] >= -1e-9
        assert row["inconclusive"] == 0
        assert 0.0 <= row["depolarizing_strict_fraction"] <= 1.0


def test_monotonicity_scan_decomposes_each_trial_once(calls):
    # states, tangents, channels, outputs and their spectra are stacked across trials and
    # shared by all kernels
    import qiglab.monotonicity

    calls.eig()
    calls.watch(np.linalg, "qr")
    calls.watch(qiglab.monotonicity, "apply_channel")
    calls.watch(qiglab.monotonicity, "_kernel_tables")
    trials = 40
    monotonicity_scan(seed=0, trials=trials)
    # trials are stacked per (input, output) dimension: (2, 2), (3, 3) and (4, 2)
    groups = 3
    # channels per kind and dimension: depolarizing and Stinespring at 2 and 3, partial trace
    channel_groups = 5
    assert 0 < calls.count("eigh", "eigvalsh") <= 2 * groups
    # one Haar QR per group for the states and one per Stinespring stack
    assert 0 < calls.count("qr") <= 2 * groups
    # one call per channel group for the states and their directions, not per trial
    assert 0 < calls.count("apply_channel") <= channel_groups
    # one table of every kernel for the states and the outputs of every group, not one per
    # group, kernel or trial
    assert calls.count("_kernel_tables") == 1


def test_monotonicity_scan_calls_each_kernel_profile_once(monkeypatch):
    # the states and outputs of all three dimension groups share one kernel table, so each
    # kernel is called once, not once per group and side
    import qiglab.monotonicity

    counts = _count_profile_calls(monkeypatch)
    kernels = tuple(builtin_functions(wyd_exponents=(0.2, 0.5, 0.8)))
    monkeypatch.setattr(qiglab.monotonicity, "_scan_kernels", lambda: kernels)
    monotonicity_scan(seed=0, trials=40)
    assert counts == {(f.name, "fn"): 1 for f in kernels}


def _monotonicity_scan_reference(seed, trials):
    """monotonicity_scan one trial and one kernel at a time through monotonicity_check."""
    rng = rng_from(seed)
    triples = []
    for _ in range(trials):
        kind = rng.integers(0, 3)
        if kind == 0:
            n = int(rng.integers(2, 4))
            rho = random_state(rng, n, floor=0.1)
            a = random_traceless_hermitian(rng, n)
            ch = depolarizing_channel(n, float(rng.uniform(0.05, 0.95)))
        elif kind == 1:
            n = int(rng.integers(2, 4))
            rho = random_state(rng, n, floor=0.1)
            a = random_traceless_hermitian(rng, n)
            ch = random_stinespring_channel(rng, n)
        else:
            rho = random_state(rng, 4, floor=0.05)
            a = random_traceless_hermitian(rng, 4)
            ch = partial_trace_channel(2, 2)
        triples.append((int(kind), rho, a, ch))
    rows = []
    for f in builtin_functions(wyd_exponents=(0.2, 0.5, 0.8)):
        min_margin = np.inf
        depol_total = depol_strict = regularized = inconclusive = 0
        for kind, rho, a, ch in triples:
            rep = monotonicity_check(f, rho, a, ch)
            if rep.inconclusive:
                inconclusive += 1
                continue
            regularized += int(rep.regularized)
            min_margin = min(min_margin, rep.margin)
            if kind == 0:
                depol_total += 1
                depol_strict += int(rep.margin > 0.0)
        rows.append(
            {
                "metric": f.name,
                "trials": trials,
                "min_margin": float(min_margin),
                "depolarizing_strict_fraction": depol_strict / max(depol_total, 1),
                "regularized": regularized,
                "inconclusive": inconclusive,
            }
        )
    return rows


@pytest.mark.parametrize(
    "seed, trials",
    [pytest.param(seed, 60, id=str(seed)) for seed in (0, 1, 2)]
    + [pytest.param(3, 200, id="3-200"), pytest.param(4, 1000, id="4-1000")],
)
def test_monotonicity_scan_equals_per_trial_checks(seed, trials):
    got = monotonicity_scan(seed=seed, trials=trials)
    assert json.dumps(got) == json.dumps(_monotonicity_scan_reference(seed, trials))


class _CountingGenerator:
    """Forwards every method of a Generator and counts its calls by name."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self._counts[name] += 1
            return method(*args, **kwargs)

        return call


def test_monotonicity_scan_draws_each_trials_normals_in_one_call(monkeypatch):
    # a trial's normals (state, tangent and any Stinespring isometry) follow one another, so
    # one standard_normal call draws them; its simplex draw is one raw standard_exponential
    # call, the stream of dirichlet at a flat concentration, and no trial calls dirichlet;
    # integers and uniform keep their calls. Drawn one matrix at a time, seed 0 made 942
    # standard_normal calls, 1541 generator calls in all
    import collections

    import qiglab.monotonicity

    counts = collections.Counter()
    monkeypatch.setattr(qiglab.monotonicity, "rng_from",
                        lambda seed: _CountingGenerator(rng_from(seed), counts))
    trials = 200
    monotonicity_scan(seed=0, trials=trials)
    assert counts == {"integers": 335, "standard_exponential": trials, "standard_normal": trials,
                      "uniform": 64}
    assert sum(counts.values()) == 799


def test_classical_reduction_check_values():
    out = classical_reduction_check(seed=0)
    assert out["max_fisher_dev"] <= 1e-9
    assert out["max_alpha_dev"] <= 1e-9


def test_classical_reduction_check_decomposes_each_point_once(calls):
    # one stacked eigh of the three simplex points, shared by the chart guard, six kernels and
    # 3 x 12 WYD pairings
    calls.eig()
    classical_reduction_check(seed=0)
    assert (calls.count("eigh"), calls.count("eigvalsh")) == (1, 0)
    assert calls.matrices("eigh") == 3


def test_kernel_direct_consistency_decomposes_each_sample_once(calls):
    # one stacked eigh per (dim, alpha) row
    calls.eig()
    rows = kernel_direct_consistency(seed=0, dims=(2, 3), alphas=(-0.5, 0.5), samples=5)
    assert len(rows) == 4
    assert (calls.count("eigh"), calls.matrices("eigh")) == (4, 4 * 5)


# ------------------------------------------------------ entropy projection


def _qutrit_gibbs(seed=60):
    rng = rng_from(seed)
    ys = [random_traceless_hermitian(rng, 3), random_traceless_hermitian(rng, 3)]
    return gibbs_family(ys), rng


def test_gibbs_family_partition_and_means():
    gibbs, _ = _qutrit_gibbs()
    assert gibbs.log_partition(np.zeros(2)) == pytest.approx(np.log(3.0))
    theta = np.array([0.3, -0.2])
    sigma = gibbs.state(theta)
    assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)
    # means are the gradient of the log partition
    h = 1e-6
    for i in range(2):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fd = (gibbs.log_partition(up) - gibbs.log_partition(dn)) / (2.0 * h)
        assert gibbs.means(theta)[i] == pytest.approx(fd, abs=1e-8)


def test_gibbs_family_analytic_jacobian_matches_fd():
    gibbs, _ = _qutrit_gibbs()
    theta = np.array([0.4, 0.1])
    # the stencil sees only the chart values, never the chart's jacobian
    fd = _scalar_gradient(gibbs.family.point, theta)
    np.testing.assert_allclose(gibbs.family.tangent_matrices(theta), fd, atol=1e-7)
    # hessian symmetry comes along for free from the analytic form
    hess = gibbs.family.hessians(theta)
    np.testing.assert_allclose(hess[0, 1], hess[1, 0], atol=1e-11)


def test_gibbs_family_rejects_dependent_observables():
    with pytest.raises(ValueError, match="independent"):
        gibbs_family([SZ, 2.0 * SZ])
    with pytest.raises(ValueError, match="independent"):
        gibbs_family([np.eye(2, dtype=complex)])
    with pytest.raises(ValueError, match="at least one"):
        gibbs_family([])


def test_entropy_projection_converges_and_is_optimal():
    gibbs, rng = _qutrit_gibbs()
    rho = random_state(rng, 3, floor=0.1)
    report = entropy_projection(rho, gibbs)
    assert report.converged
    assert report.mean_residual <= 1e-7
    assert report.orthogonality_residual <= 1e-6
    sigma_star = gibbs.state(report.theta_star)
    best = relative_entropy(rho, sigma_star)
    assert best == pytest.approx(report.relative_entropy_value, rel=1e-9)
    for _ in range(5):
        nearby = report.theta_star + 0.1 * rng.standard_normal(2)
        assert relative_entropy(rho, gibbs.state(nearby)) >= best - 1e-12


def test_entropy_projection_does_not_stall_at_rounding_level():
    # instance 13 of `entropy-projection --dim 3 --instances 25 --seed 101426367`:
    # the Armijo decrease falls below the float spacing of the objective
    # while the gradient is still above tol
    rng = rng_from([101426367, 13])
    rho = random_state(rng, 3, floor=0.05)
    gibbs = gibbs_family([random_traceless_hermitian(rng, 3) for _ in range(2)])
    report = entropy_projection(rho, gibbs, tol=1e-9)
    assert report.converged
    assert report.iterations < 20
    assert report.gradient_norm <= 1e-9


def test_entropy_projection_decomposes_each_theta_once(calls):
    # instance 0 of `entropy-projection --dim 3 --seed 5`: four iterations; the
    # chart, its derivatives, the means and the log partition share one
    # decomposition per theta
    rng = rng_from([5, 0])
    rho = random_state(rng, 3, floor=0.05)
    gibbs = gibbs_family([random_traceless_hermitian(rng, 3) for _ in range(2)])
    calls.eig()
    report = entropy_projection(rho, gibbs)
    assert report.converged and report.iterations == 4
    assert 0 < calls.count("eigh", "eigvalsh") <= 16


def _serial_projection(rho, gibbs, tol=1e-9, max_iter=200):
    """One instance at a time, as the projection ran before it was stacked.

    Returns (theta*, iterations, converged).
    """
    ys = gibbs.observables
    target = np.array([np.trace(rho @ y).real for y in ys])

    def objective(th):
        return gibbs.log_partition(th) - th @ target

    def gradient(th):
        return gibbs.means(th) - target

    def hessian(th):
        dsig = gibbs.family.tangent_matrices(th)
        hess = np.array([[np.trace(dsig[j] @ y).real for j in range(len(ys))] for y in ys])
        return 0.5 * (hess + hess.T)

    x = np.zeros(len(ys))
    grad = gradient(x)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.abs(grad).max() <= tol:
            break
        try:
            delta = -np.linalg.solve(hessian(x), grad)
        except np.linalg.LinAlgError:
            delta = -grad
        f0 = objective(x)
        slope = grad @ delta
        slack = 4.0 * np.spacing(abs(f0))
        t = 1.0
        while t > 1e-12 and objective(x + t * delta) > f0 + 0.25 * t * slope + slack:
            t *= 0.5
        x = x + t * delta
        grad = gradient(x)
    return x, iterations, bool(np.abs(grad).max() <= tol)


def _projection_instances(seed, k, dim, n_obs):
    rhos, observables = [], []
    for r in range(k):
        rng = rng_from([seed, r])
        rhos.append(random_state(rng, dim, floor=0.05))
        observables.append([random_traceless_hermitian(rng, dim) for _ in range(n_obs)])
    return np.stack(rhos), np.array(observables)


@pytest.mark.parametrize("dim,n_obs", [(2, 1), (3, 2), (4, 2), (4, 3)])
def test_stacked_projection_matches_serial_solve_row_by_row(dim, n_obs):
    rhos, observables = _projection_instances(31, 8, dim, n_obs)
    reports = entropy_projections(rhos, observables)
    assert len(reports) == 8
    for rho, ys, rep in zip(rhos, observables, reports):
        gibbs = gibbs_family(ys)
        theta, iterations, converged = _serial_projection(rho, gibbs)
        assert (rep.iterations, rep.converged) == (iterations, converged)
        np.testing.assert_allclose(rep.theta_star, theta, rtol=0.0, atol=1e-12)
        # the one-row call is the same function: every field agrees exactly
        one = entropy_projection(rho, gibbs)
        assert np.array_equal(one.theta_star, rep.theta_star)
        assert dataclasses.astuple(one)[1:] == dataclasses.astuple(rep)[1:]
        # residual and entropy come from spectra the solve already holds; the
        # parent definitions decompose sigma* and rho again
        sigma = gibbs.state(rep.theta_star)
        segment = state_tangent(sigma, rho - sigma)
        orth = max(
            abs(bkm_direct(sigma, segment, partial))
            for partial in gibbs.family.tangent_matrices(rep.theta_star)
        )
        assert rep.orthogonality_residual == pytest.approx(orth, rel=0.0, abs=1e-13)
        assert rep.relative_entropy_value == pytest.approx(
            relative_entropy(rho, sigma), rel=0.0, abs=1e-13
        )


def test_stacked_projection_decomposes_each_newton_pass_once(calls):
    # the ten instances of `entropy-projection --dim 3 --instances 10 --seed 5`
    # take 3-4 steps each (4-5 passes), every one accepted at t = 1: one stacked eigh
    # for the states, one at the start and one per step, each shared by the value, the
    # gradient and the Hessian of every row it evaluates
    rhos, observables = _projection_instances(5, 10, 3, 2)
    calls.eig()
    reports = entropy_projections(rhos, observables)
    assert max(r.iterations for r in reports) == 5
    assert calls.count("eigh", "eigvalsh") == 1 + 1 + 4


def test_stacked_projection_errors_name_the_stack_index():
    rhos, observables = _projection_instances(9, 4, 3, 2)
    bad = rhos.copy()
    bad[2] = 2.0 * bad[2]
    with pytest.raises(ValueError, match="not a unit-trace state at stack index 2"):
        entropy_projections(bad, observables)
    dependent = observables.copy()
    dependent[1, 1] = 2.0 * dependent[1, 0]
    with pytest.raises(ValueError, match="independent at stack index 1"):
        entropy_projections(rhos, dependent)
    with pytest.raises(ValueError, match="do not stack"):
        entropy_projections(rhos, observables[:3])
    # the projection of diag(1 - 1e-9, 1e-9) onto exp(theta Z) is itself, below the chart guard
    z = np.diag([1.0, -1.0]).astype(complex)
    states = np.stack([np.diag([0.6, 0.4]), np.diag([1.0 - 1e-9, 1e-9])]).astype(complex)
    with pytest.raises(ValueError, match="stack index 1, theta=.*below guard"):
        entropy_projections(states, np.array([[z], [z]]))


def test_projection_guard_reads_kept_steps_only():
    # rho = diag(0.99, 0.01/15, ...) on n = 16 with the one observable |0><0|: from theta = 0
    # the full Newton step is (0.99 - 1/16) n^2 / (n - 1), where sigma's smallest eigenvalue
    # is below the chart guard; the Armijo test rejects that trial and the halved step, far
    # above the guard, is kept, so the projection converges
    n = 16
    full = (0.99 - 1.0 / n) * n * n / (n - 1)
    assert 1.0 / (np.exp(full) + n - 1) < CHART_MIN_EIGENVALUE
    y = np.zeros((1, 1, n, n), dtype=complex)
    y[0, 0, 0, 0] = 1.0
    rho = np.diag([0.99] + [0.01 / (n - 1)] * (n - 1)).astype(complex)
    (report,) = entropy_projections(rho[None], y)
    assert report.converged
    # theta* = log(0.99 (n - 1) / 0.01), within tol over the curvature 0.99 * 0.01
    theta_star = np.log(0.99 * (n - 1) / 0.01)
    np.testing.assert_allclose(report.theta_star, [theta_star], rtol=0.0, atol=1e-9 / 0.0099)


def _quadratic_rows(curvatures, hessians, centers, noisy=None):
    """The callback for rows f_r(x) = (x - c_r) . A_r (x - c_r) / 2, whose Newton Hessian is
    H_r, and its log: the rows and points of each call. ``noisy(x, f)``, when given, is the
    value the callback reports in place of f."""
    log = []

    def evaluate(x, rows):
        log.append((rows.copy(), x.copy()))
        diff = x - centers[rows]
        value = 0.5 * np.einsum("ri,rij,rj->r", diff, curvatures[rows], diff)
        gradient = np.einsum("rij,rj->ri", curvatures[rows], diff)
        return value if noisy is None else noisy(x, value), gradient, hessians[rows]

    return evaluate, log


def test_damped_newton_falls_back_to_gradient_only_on_the_singular_row():
    curvatures = np.array([np.diag([2.0, 3.0]), np.eye(2), np.diag([4.0, 1.0])])
    hessians = curvatures.copy()
    hessians[1] = [[1.0, 1.0], [1.0, 1.0]]  # singular: row 1 steps along -grad
    centers = np.array([[1.0, -2.0], [0.5, 0.25], [-1.0, 3.0]])
    evaluate, log = _quadratic_rows(curvatures, hessians, centers)
    x0 = np.zeros((3, 2))
    x, _, grad, iterations = _damped_newton(evaluate, x0, tol=1e-12, max_iter=50)
    # the first line-search trial of every row is x0 + delta: Newton's exact minimizer
    # for rows 0 and 2, x0 - grad for row 1 (with A = I that is its minimizer as well)
    rows, trial = log[1]
    assert rows.tolist() == [0, 1, 2]
    np.testing.assert_array_equal(trial[1], x0[1] + np.eye(2) @ centers[1])
    np.testing.assert_allclose(trial[[0, 2]], centers[[0, 2]], rtol=0.0, atol=1e-15)
    assert iterations.tolist() == [2, 2, 2]
    np.testing.assert_allclose(x, centers, rtol=0.0, atol=1e-15)
    assert np.abs(grad).max() <= 1e-12


def test_damped_newton_caps_one_row_while_the_others_converge():
    # row 1's Newton Hessian is a tenth of its curvature, so its steps overshoot and
    # backtrack; at max_iter = 6 it is still short of tol while rows 0 and 2 converge
    curvatures = np.array([np.diag([2.0, 3.0]), np.diag([50.0, 20.0]), np.diag([4.0, 1.0])])
    hessians = curvatures.copy()
    hessians[1] = 0.1 * curvatures[1]
    centers = np.array([[1.0, -2.0], [0.5, 0.25], [-1.0, 3.0]])
    evaluate, log = _quadratic_rows(curvatures, hessians, centers)
    x, _, grad, iterations = _damped_newton(evaluate, np.zeros((3, 2)), tol=1e-12, max_iter=6)
    assert iterations.tolist() == [2, 6, 2]
    gnorm = np.abs(grad).max(axis=-1)
    assert gnorm[1] > 1e-12 and gnorm[[0, 2]].max() <= 1e-12
    # rows 0 and 2 converge at their first trial, and a converged row is not evaluated again.
    # Row 1's step is 10 (c - x), so at t its offset from c is scaled by 1 - 10 t: every pass
    # tries t = 1, 1/2 and 1/4 and keeps t = 1/8, which scales the offset by -1/4
    assert [r.tolist() for r, _ in log] == [[0, 1, 2]] * 2 + [[1]] * 3 + [[1]] * 4 * 5
    offsets = -centers[1] * (-0.25) ** np.arange(6)[:, None, None]
    trials = centers[1] + offsets * (1.0 - 10.0 * np.array([1.0, 0.5, 0.25, 0.125]))[:, None]
    points = [p[1] if len(r) == 3 else p[0] for r, p in log[1:]]
    np.testing.assert_allclose(points, trials.reshape(-1, 2), rtol=0.0, atol=1e-15)


def test_damped_newton_takes_full_steps_once_the_decrease_is_below_the_slack():
    # quadratic rows near 2.9 whose values carry up to 40 ulps of deterministic noise, more
    # than the sixteen-ulp slack: Newton's exact step converges in two passes, and no row is
    # evaluated at t < 1 once its predicted decrease is within the slack
    curvatures = np.array([np.diag([2.0, 3.0]), [[2.0, 0.5], [0.5, 1.0]], np.diag([4.0, 1.0])])
    centers = np.array([[1.0, -2.0], [0.5, 0.25], [-1.0, 3.0]])
    ulp = np.spacing(2.9)

    def noisy(x, value):
        noise = 40.0 * ulp * np.cos(1e9 * x.sum(axis=-1))  # fixed by the point
        return 2.9 + value + noise

    evaluate, log = _quadratic_rows(curvatures, curvatures.copy(), centers, noisy)
    x0 = centers + 1e-8 * np.array([[1.0, -1.0], [2.0, 1.0], [-1.0, 0.5]])
    x, _, grad, iterations = _damped_newton(evaluate, x0, tol=1e-12, max_iter=50)
    assert iterations.tolist() == [2, 2, 2]
    np.testing.assert_allclose(x, centers, rtol=0.0, atol=1e-15)
    assert np.abs(grad).max() <= 1e-12
    # one pass: the evaluation at x0, then one trial of every row at x0 + delta (t = 1)
    assert [rows.tolist() for rows, _ in log] == [[0, 1, 2], [0, 1, 2]]
    np.testing.assert_allclose(log[1][1], centers, rtol=0.0, atol=1e-15)


def test_damped_newton_keeps_a_halved_step_once_its_decrease_is_below_the_slack():
    # one row whose predicted decrease at t = 1 is 24 ulps of its value, above the sixteen-ulp
    # slack, while its values away from x0 read 80 ulps high: the full step is rejected, and
    # at t = 1/2 the predicted decrease is within the slack, so the row keeps that step
    # without another trial; the next pass's full step is kept without a comparison
    ulp = np.spacing(2.9)
    center = np.array([[0.5, -0.25]])
    x0 = center + [[np.sqrt(96.0 * ulp), 0.0]]  # 0.25 |slope| = 0.25 |x0 - center|^2 = 24 ulps

    def noisy(x, value):
        return 2.9 + value + 80.0 * ulp * np.any(x != x0, axis=-1)

    evaluate, log = _quadratic_rows(np.eye(2)[None], np.eye(2)[None], center, noisy)
    x, _, grad, iterations = _damped_newton(evaluate, x0, tol=1e-12, max_iter=50)
    assert iterations.tolist() == [3]
    np.testing.assert_allclose(x, center, rtol=0.0, atol=1e-15)
    # pass 1: the evaluation at x0, the trial t = 1 and the kept half step, evaluated once
    # without a comparison; pass 2: the trial t = 1
    points = [p[0] for _, p in log]
    half = 0.5 * (x0[0] + center[0])
    np.testing.assert_allclose(points, [x0[0], center[0], half, center[0]], rtol=0.0, atol=1e-15)


def test_damped_newton_evaluates_each_accepted_step_once():
    # separable rows f_r(x) = sum_i exp(x_i) - c_ri x_i from x = 0: every Newton step passes the
    # Armijo test at t = 1, so a row is evaluated at its start and once per step, and a row
    # that has converged is not evaluated again
    centers = np.array([[2.0, 0.5], [1.0, 1.0], [1.5, 0.8], [0.6, 1.9]])
    log = []

    def evaluate(x, rows):
        log.append(rows.copy())
        return (
            np.sum(np.exp(x) - centers[rows] * x, axis=-1),
            np.exp(x) - centers[rows],
            np.exp(x)[:, :, None] * np.eye(2),
        )

    x, _, grad, iterations = _damped_newton(evaluate, np.zeros((4, 2)), tol=1e-12, max_iter=50)
    np.testing.assert_allclose(x, np.log(centers), rtol=0.0, atol=1e-12)
    assert iterations.tolist() == [6, 1, 6, 6]
    assert len(log) == max(iterations)
    for r, count in enumerate(iterations):
        seen = [k for k, rows in enumerate(log) if r in rows]
        assert seen == list(range(count))


# Per-row Newton passes of the CLI solves, recorded before the solves took one callback per
# point: `potential` gives [4, 4], [2, 2] and [4, 4] for its three alphas at every seed from 0
# to 299, now as the rows of one solve, and these are
# `entropy-projection --instances 10` at seeds 0-9, instance by instance.
RECORDED_PROJECTION_PASSES = {
    3: ["4544544444", "5455445445", "4455444544", "4444455554", "4545454444",
        "4545544544", "4454554543", "4455444354", "4445454544", "5444454544"],
    4: ["5444544444", "5455445444", "4444444444", "4544444454", "4545444444",
        "4544544444", "4444544444", "4454444454", "4444544445", "4444444444"],
}


def test_newton_passes_match_the_recorded_ones(capsys, monkeypatch):
    import qiglab.gibbs
    import qiglab.newton
    import qiglab.potential
    from qiglab.cli import main

    runs = []
    newton = qiglab.newton._damped_newton

    def logged(*args, **kwargs):
        out = newton(*args, **kwargs)
        runs.append(out[-1].tolist())  # the per-row iteration counts
        return out

    # the Legendre solve and the projections each call the solver they imported
    monkeypatch.setattr(qiglab.potential, "_damped_newton", logged)
    monkeypatch.setattr(qiglab.gibbs, "_damped_newton", logged)
    for seed in range(0, 300, 15):
        runs.clear()
        assert main(["potential", "--seed", str(seed)]) == 0
        assert runs == [[4, 4, 2, 2, 4, 4]]
    for dim, recorded in RECORDED_PROJECTION_PASSES.items():
        for seed, passes in enumerate(recorded):
            runs.clear()
            argv = ["entropy-projection", "--dim", str(dim), "--instances", "10"]
            assert main(argv + ["--seed", str(seed)]) == 0
            assert runs == [[int(c) for c in passes]]
    capsys.readouterr()


def _loop_hessian(fn, x):
    """The one-point central-difference Hessian the stacked stencil replaced.

    fn's values may carry trailing axes; the result is then (d, d, ...).
    """
    d = x.shape[0]
    h = SECOND_DERIVATIVE_STEP * np.maximum(1.0, np.abs(x))

    def shifted(*moves):
        y = x.copy()
        for k, sign in moves:
            y[k] += sign * h[k]
        return y

    f0 = fn(x[None])[0]
    out = np.empty((d, d) + np.shape(f0), dtype=np.asarray(f0).dtype)
    for i in range(d):
        up, dn = fn(np.stack([shifted((i, 1)), shifted((i, -1))]))
        out[i, i] = (up - 2.0 * f0 + dn) / (h[i] * h[i])
        for j in range(i):
            corners = [shifted((i, s), (j, t)) for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
            pp, pm, mp, mm = fn(np.stack(corners))
            out[i, j] = out[j, i] = (pp - pm - mp + mm) / (4.0 * h[i] * h[j])
    return out


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_stacked_scalar_hessian_equals_the_one_point_stencil(alpha):
    rng = rng_from(88)
    basis = hermitian_basis(2)
    family = xi_affine_family(basis, alpha)
    sigmas = np.stack([random_weight(rng, 2, 0.7, 1.5) for _ in range(4)])
    points = affine_coordinates(sigmas, alpha, basis)

    def psi(xi):
        return _trace_potential(family.point(xi), alpha)

    stacked = _scalar_hessian(psi, points)
    assert stacked.shape == (4, 4, 4)
    # a matrix-valued fn: the chart itself, whose Hessian carries the matrix axes
    charted = _scalar_hessian(family.point, points)
    assert charted.shape == (4, 4, 4, 2, 2)
    for k, xi in enumerate(points):
        np.testing.assert_array_equal(stacked[k], _loop_hessian(psi, xi))
        np.testing.assert_array_equal(stacked[k], _scalar_hessian(psi, xi))
        np.testing.assert_array_equal(charted[k], _loop_hessian(family.point, xi))
        np.testing.assert_array_equal(charted[k], _scalar_hessian(family.point, xi))


def test_potential_check_makes_the_same_chart_calls_for_any_grid(calls):
    # one order-2 jet for the whole grid: its decomposition serves the affine check, the
    # coordinates, the metric and the exact derivatives of the potential
    basis = hermitian_basis(2)
    counts = []
    for n_points in (6, 12):
        family = xi_affine_family(basis, 0.5)
        rng = rng_from(3)
        sigmas = np.stack([random_weight(rng, 2, 0.7, 1.5) for _ in range(n_points)])
        points = affine_coordinates(sigmas, 0.5, basis)
        calls.watch(family, "jet", key=n_points)
        rep = potential_check(family, 0.5, points, basis)
        assert rep.residual <= 1e-12
        counts.append(calls.count(n_points))
    assert counts == [1, 1]


def test_relative_entropy_curvature_gap_decomposes_rho_once(calls):
    # rho once, shared by the state check, the BKM pairing and the relative entropy; then rho + tD
    rng = rng_from(61)
    rho = random_state(rng, 3, floor=0.1)
    x = random_traceless_hermitian(rng, 3)
    calls.eig()
    relative_entropy_curvature_gap(rho, 0.25 * x / np.linalg.norm(x, 2))
    assert (calls.count("eigh"), calls.count("eigvalsh")) == (2, 0)


def test_relative_entropy_curvature_gap():
    rng = rng_from(61)
    rho = random_state(rng, 3, floor=0.1)
    x = random_traceless_hermitian(rng, 3)
    x = 0.25 * x / np.linalg.norm(x, 2)
    assert relative_entropy_curvature_gap(rho, x, t=1e-2) <= 1e-4
    with pytest.raises(ValueError, match="traceless"):
        relative_entropy_curvature_gap(rho, np.eye(3, dtype=complex), t=1e-2)
