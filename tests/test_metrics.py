import numpy as np
import pytest

from qiglab.duality import perturbed_wyd
from qiglab.linalg import CONFLUENT_RTOL, Spectrum, spectral_decompose
from qiglab.manifold import check_state, state_tangent
from qiglab.metrics import (
    MonotoneFunctionSpec,
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
    wyd_direct,
    wyd_function,
    _kernel_tables,
)
from qiglab.monotonicity import (
    KrausChannel,
    apply_channel,
    depolarizing_channel,
    monotonicity_check,
    partial_trace_channel,
    random_stinespring_channel,
)
from qiglab.sampling import pauli_matrices, random_state, random_traceless_hermitian, rng_from

I2, SX, SY, SZ = pauli_matrices()
SIGMA = np.diag([0.75, 0.25]).astype(complex)


# ---------------------------------------------------------------- functions


def test_function_normalization_and_scalar_values():
    assert wyd_function(0.5)(4.0) == pytest.approx(9.0 / 4.0)
    assert bures_function()(3.0) == pytest.approx(2.0)
    assert rld_function()(3.0) == pytest.approx(1.5)
    assert bkm_function()(np.e) == pytest.approx(np.e - 1.0)
    for spec in builtin_functions():
        assert spec(1.0) == pytest.approx(1.0, abs=1e-14)


def test_wyd_series_joins_smoothly():
    f = wyd_function(0.3)
    # branches on either side of the |x - 1| = 1e-6 switchover must agree to
    # far better than the slope (1/2) times the 2e-10 gap between the points
    lo, hi = f(1.0 + 9.999e-7), f(1.0 + 1.0001e-6)
    assert abs(hi - lo) < 1e-9
    assert f(1.0 + 1e-7) == pytest.approx(1.0 + 0.5e-7, abs=1e-13)
    # main branch against the naive quotient where that is well conditioned
    p, x = 0.3, 1.01
    naive = p * (1.0 - p) * (x - 1.0) ** 2 / ((x**p - 1.0) * (x ** (1.0 - p) - 1.0))
    assert f(x) == pytest.approx(naive, rel=1e-11)


_BUMP = (0.75, 0.3, 0.53, 0.31)  # perturbed_wyd's p, amplitude, center and width


def _wyd_mp(p):
    def f(mp, x):
        return p * (1 - p) * (x - 1) ** 2 / ((x**p - 1) * (x ** (1 - p) - 1))

    return f


def _bump_mp(mp, x):
    p, a, c, w = _BUMP

    def h(s):
        return mp.exp(-((s - c) ** 2) / w) + mp.exp(-((s + c) ** 2) / w)

    return _wyd_mp(p)(mp, x) * (1 + a * h(mp.log(x))) / (1 + a * h(0))


# every spec that carries f', with its profile f(mp, x) in the arithmetic of the mpmath module mp
PROFILES = {
    spec.name: (spec, mp_f)
    for spec, mp_f in [
        *[(wyd_function(p), _wyd_mp(p)) for p in (0.25, 0.3, 0.5, 0.75)],
        (bkm_function(), lambda mp, x: (x - 1) / mp.log(x)),
        (bures_function(), lambda mp, x: (1 + x) / 2),
        (rld_function(), lambda mp, x: 2 * x / (1 + x)),
        (perturbed_wyd(*_BUMP), _bump_mp),
    ]
}


def _mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    return mpmath


# x over [1e-3, 1e3], without 1 itself, where the mpmath profiles are 0/0, and x = 1 +- 10^-k
# for |x - 1| from 1e-9 to 1e-2
NEAR_ONE = np.geomspace(1e-9, 1e-2, 15)
DERIV_POINTS = np.concatenate([np.geomspace(1e-3, 1e3, 60), 1.0 + NEAR_ONE, 1.0 - NEAR_ONE])


@pytest.mark.parametrize("name", PROFILES)
def test_profile_derivative_matches_mpmath(name):
    mp = _mpmath()
    spec, mp_f = PROFILES[name]
    got = spec.deriv(DERIV_POINTS)
    assert got.shape == DERIV_POINTS.shape
    want = [float(mp.diff(lambda x: mp_f(mp, x), mp.mpf(float(x)))) for x in DERIV_POINTS]
    # worst recorded: 6.1e-15 relative (bkm at x = 1.26e-3)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    for x, value in zip(DERIV_POINTS[::10], got[::10]):
        assert spec.deriv(float(x)) == value  # a scalar gets what it gets in an array


@pytest.mark.parametrize("name", PROFILES)
def test_profile_derivative_is_one_half_at_one_and_keeps_the_petz_symmetry(name):
    spec = PROFILES[name][0]
    assert spec.deriv(1.0) == 0.5
    # f(t) = t f(1/t) gives f'(t) = f(1/t) - f'(1/t)/t, held to the round-off of the right side
    t = DERIV_POINTS
    value, slope = spec(1.0 / t), spec.deriv(1.0 / t) / t
    bound = 1e-14 * (np.abs(value) + np.abs(slope))
    assert (np.abs(spec.deriv(t) - (value - slope)) <= bound).all()


def _kernel_difference(spec, f):
    """The divided differences c1 of f's kernel at a Spectrum, (..., n, n, n): the lone spec f
    at ``spec[None]``, as ``petz_kernel`` takes its coefficients."""
    return _kernel_tables([spec[None]], [f], difference=True)[0][1][0]


def test_kernel_difference_that_is_not_finite_names_the_first_failing_matrix():
    # f' is NaN above x = 10: of the two spectra only the second, with ratio 19, reaches it
    bkm = bkm_function()
    spec = MonotoneFunctionSpec(
        "bkm-cut", bkm.fn, deriv=lambda x: np.where(np.asarray(x) > 10.0, np.nan, bkm.deriv(x))
    )
    unitary = np.eye(2, dtype=complex)
    first = petz_kernel(Spectrum(np.array([0.5, 0.5]), unitary), spec)
    assert np.isfinite(_kernel_difference(first.spectrum, spec)).all()
    lam = np.array([[0.5, 0.5], [0.05, 0.95]])
    kernel = petz_kernel(Spectrum(lam, np.stack([unitary, unitary])), spec)
    with pytest.raises(ValueError, match=r"^bkm-cut: .* not finite at stack index 1$"):
        _kernel_difference(kernel.spectrum, spec)


@pytest.mark.parametrize("name", ["wyd(p=0.25)", "bkm"])
@pytest.mark.parametrize(
    "gap", [0.0, 1e-9, 1e-7, 0.5 * CONFLUENT_RTOL, 2.0 * CONFLUENT_RTOL, 1e-3]
)
def test_kernel_difference_matches_mpmath_across_the_confluent_switch(name, gap):
    # c1[a, m, b] = (c(la, lb) - c(lm, lb))/(la - lm) for c(x, y) = 1/(y f(x/y)), against 40
    # digits; the pair (0.3, 0.3 (1 + gap)) takes the quotient above CONFLUENT_RTOL and
    # the midpoint derivative below it, where a first-order rule would be off by about the gap
    mp = _mpmath()
    spec, mp_f = PROFILES[name]
    lam = np.array([0.3, 0.3 * (1.0 + gap), 2e-4])
    kernel = petz_kernel(Spectrum(lam, np.eye(3, dtype=complex)), spec)
    got = _kernel_difference(kernel.spectrum, spec)

    def c(x, z):
        return 1 / (z * mp_f(mp, x / z)) if x != z else 1 / z

    def c1(a, m, b):
        x, y, z = (mp.mpf(float(lam[k])) for k in (a, m, b))
        if x != y:
            return (c(x, z) - c(y, z)) / (x - y)
        # d1 c(x, z) = -f'(x/z) c(x, z)^2, with f'(1) = 1/2
        slope = mp.mpf(0.5) if x == z else mp.diff(lambda r: mp_f(mp, r), x / z)
        return -slope * c(x, z) ** 2

    want = [[[float(c1(a, m, b)) for b in range(3)] for m in range(3)] for a in range(3)]
    # worst recorded: 7.3e-15 relative up to gap 1e-7, and 1.7e-10 (bkm, the quotient at
    # twice the switch) beyond
    np.testing.assert_allclose(got, want, rtol=1e-13 if gap <= 1e-7 else 1e-9, atol=0.0)


@pytest.mark.parametrize(
    "alpha, name",
    [(-0.9, "wyd(p=0.05)"), (-0.5, "wyd(p=0.25)"), (0.0, "wyd(p=0.5)"), (0.9, "wyd(p=0.95)")],
)
def test_wyd_names_carry_fifteen_digits_and_keep_the_default_names(alpha, name):
    # p = (1 + alpha)/2 reads 0.04999999999999999 at alpha = -0.9, named to 15 digits as 0.05
    assert matched_metric(alpha).name == name
    assert wyd_function(0.7500001).name == "wyd(p=0.7500001)"
    assert wyd_function(0.123456789012345).name == "wyd(p=0.123456789012345)"


def test_wyd_rejects_exponent_outside_unit_interval():
    for p in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError, match="exponent"):
            wyd_function(p)


def test_validate_function_spec_rejects_bad_candidates():
    with pytest.raises(ValueError, match="not 1"):
        validate_function_spec(MonotoneFunctionSpec("off", lambda x: 2.0 * x))
    with pytest.raises(ValueError, match="symmetry"):
        validate_function_spec(MonotoneFunctionSpec("skew", lambda x: np.sqrt(x) * 0 + (1.0 + 0.3 * (x - 1.0))))
    # a dent on (0.2, 0.3) breaks the symmetry at t = 0.25 and t = 4; the error names the first
    dent = MonotoneFunctionSpec(
        "dent", lambda x: 0.5 * (1.0 + x) * np.where((x > 0.2) & (x < 0.3), 1.1, 1.0)
    )
    with pytest.raises(ValueError, match=r"symmetry .* fails at t = 0\.25: 0\.6875 vs 0\.625$"):
        validate_function_spec(dent)


# ------------------------------------------------------------------ kernels


def test_petz_kernel_bkm_oracle():
    kern = petz_kernel(SIGMA, bkm_function())
    # eigenvalues ascend (1/4, 3/4); cross coefficient = log(3)/(3/4 - 1/4)
    np.testing.assert_allclose(kern.coefficients[0, 1], 2.0 * np.log(3.0), atol=1e-12)
    np.testing.assert_allclose(kern.coefficients[1, 0], 2.0 * np.log(3.0), atol=1e-12)
    np.testing.assert_allclose(np.diag(kern.coefficients), [4.0, 4.0 / 3.0], atol=1e-12)


@pytest.mark.parametrize(
    "spec,expected",
    [
        (bkm_function(), 4.0 * np.log(3.0)),
        (wyd_function(0.5), 2.0 * (16.0 - 8.0 * np.sqrt(3.0))),
        (bures_function(), 4.0),
        (rld_function(), 16.0 / 3.0),
    ],
)
def test_metric_oracles_offdiagonal_tangent(spec, expected):
    assert metric_eval(SIGMA, spec, SX, SX) == pytest.approx(expected, rel=1e-12)
    v = state_tangent(SIGMA, SX)
    assert metric_eval(spectral_decompose(SIGMA), spec, v, v) == pytest.approx(
        metric_eval(SIGMA, spec, SX, SX), rel=0.0, abs=1e-14
    )


@pytest.mark.parametrize("spec", builtin_functions())
def test_metric_diagonal_tangent_is_fisher(spec):
    # commuting direction: every normalized kernel reduces to 1/lambda weights
    assert metric_eval(SIGMA, spec, SZ, SZ) == pytest.approx(16.0 / 3.0, rel=1e-12)


def test_bkm_maximally_mixed():
    assert metric_eval(I2 / 2.0, bkm_function(), SZ, SZ) == pytest.approx(4.0)


@pytest.mark.parametrize("spec", builtin_functions())
def test_metric_positive_definite(spec):
    rng = rng_from(30)
    rho = random_state(rng, 3)
    x = random_traceless_hermitian(rng, 3)
    assert metric_eval(rho, spec, x, x) > 0.0


def test_metric_ordering_bures_below_rld():
    rng = rng_from(31)
    rho = random_state(rng, 3)
    x = random_traceless_hermitian(rng, 3)
    g_bures = metric_eval(rho, bures_function(), x, x)
    g_rld = metric_eval(rho, rld_function(), x, x)
    g_bkm = metric_eval(rho, bkm_function(), x, x)
    g_wyd = metric_eval(rho, wyd_function(0.5), x, x)
    assert g_bures <= g_bkm <= g_rld
    assert g_bures <= g_wyd <= g_rld


def test_metric_eval_rejects_foreign_base():
    v = state_tangent(I2 / 2.0, SX)
    with pytest.raises(ValueError, match="does not match"):
        metric_eval(SIGMA, bkm_function(), v, v)


def test_kernel_metric_is_symmetric_bilinear():
    rng = rng_from(32)
    rho = random_state(rng, 3)
    kern = petz_kernel(rho, wyd_function(0.25))
    a = random_traceless_hermitian(rng, 3)
    b = random_traceless_hermitian(rng, 3)
    assert kernel_metric(kern, a, b) == pytest.approx(kernel_metric(kern, b, a), rel=1e-12)
    assert kernel_metric(kern, 2.0 * a, b) == pytest.approx(2.0 * kernel_metric(kern, a, b), rel=1e-12)


def test_petz_kernel_rejects_singular_base():
    with pytest.raises(ValueError, match="positive definite"):
        petz_kernel(np.diag([1.0, 0.0]).astype(complex), bkm_function())


# -------------------------------------------------- direct vs kernel forms


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.3, 0.8])
def test_wyd_direct_equals_kernel_form(alpha):
    rng = rng_from(33)
    rho = random_state(rng, 3)
    a = state_tangent(rho, random_traceless_hermitian(rng, 3))
    b = state_tangent(rho, random_traceless_hermitian(rng, 3))
    direct = wyd_direct(rho, alpha, a, b)
    # at the point's Spectrum, the same bits
    assert wyd_direct(spectral_decompose(rho), alpha, a, b) == direct
    kernel = metric_eval(rho, wyd_function(0.5 * (1.0 + alpha)), a, b)
    assert direct == pytest.approx(kernel, rel=1e-10)


def test_wyd_direct_rejects_alpha_one():
    v = state_tangent(I2 / 2.0, SX)
    with pytest.raises(ValueError, match="strictly inside"):
        wyd_direct(I2 / 2.0, 1.0, v, v)


def test_bkm_direct_equals_kernel_form():
    rng = rng_from(34)
    rho = random_state(rng, 3)
    a = state_tangent(rho, random_traceless_hermitian(rng, 3))
    assert bkm_direct(rho, a, a) == pytest.approx(metric_eval(rho, bkm_function(), a, a), rel=1e-10)
    assert bkm_direct(spectral_decompose(rho), a, a) == bkm_direct(rho, a, a)


@pytest.mark.parametrize(
    "direct", [lambda rho, a: wyd_direct(rho, 0.5, a, a), lambda rho, a: bkm_direct(rho, a, a)]
)
def test_direct_pairings_reject_a_base_off_the_positive_cone(direct):
    with pytest.raises(ValueError, match="not positive definite"):
        direct(np.diag([1.0, -0.5]).astype(complex), SX)


# ----------------------------------------------------------------- channels


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel((0.5 * np.eye(2, dtype=complex),))


def test_depolarizing_channel_endpoints():
    rng = rng_from(35)
    rho = random_state(rng, 3)
    np.testing.assert_allclose(apply_channel(depolarizing_channel(3, 0.0), rho), rho, atol=1e-12)
    np.testing.assert_allclose(
        apply_channel(depolarizing_channel(3, 1.0), rho), np.eye(3) / 3.0, atol=1e-12
    )
    mid = apply_channel(depolarizing_channel(3, 0.4), rho)
    np.testing.assert_allclose(mid, 0.6 * rho + 0.4 * np.eye(3) / 3.0, atol=1e-12)


def test_partial_trace_channel_splits_product():
    rng = rng_from(36)
    rho = random_state(rng, 2)
    tau = random_state(rng, 3)
    joint = np.kron(rho, tau)
    np.testing.assert_allclose(apply_channel(partial_trace_channel(2, 3), joint), rho, atol=1e-12)


def test_random_stinespring_channel_preserves_trace():
    rng = rng_from(37)
    ch = random_stinespring_channel(rng, 3)
    rho = random_state(rng, 3)
    out = apply_channel(ch, rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert float(np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min()) > -1e-12


# ------------------------------------------------------------- monotonicity


@pytest.mark.parametrize("spec", builtin_functions())
def test_monotonicity_margin_nonnegative(spec):
    rng = rng_from(38)
    rho = random_state(rng, 3)
    v = state_tangent(rho, random_traceless_hermitian(rng, 3))
    report = monotonicity_check(spec, rho, v, depolarizing_channel(3, 0.3))
    assert not report.inconclusive
    assert not report.regularized
    assert report.margin >= 0.0
    assert report.lhs == pytest.approx(report.rhs - report.margin)
    from_spectrum = monotonicity_check(spec, spectral_decompose(rho), v, depolarizing_channel(3, 0.3))
    assert from_spectrum.margin == pytest.approx(report.margin, rel=0.0, abs=1e-12)


def test_monotonicity_identity_channel_is_tight():
    rng = rng_from(39)
    rho = random_state(rng, 2)
    v = state_tangent(rho, random_traceless_hermitian(rng, 2))
    report = monotonicity_check(bkm_function(), rho, v, KrausChannel((np.eye(2),)))
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_monotonicity_regularizes_singular_output():
    # the replace channel K_i = |0><i| sends every state to a pure state
    k0 = np.zeros((2, 2), dtype=complex)
    k0[0, 0] = 1.0
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = 1.0
    channel = KrausChannel((k0, k1))
    rng = rng_from(40)
    rho = random_state(rng, 2)
    v = state_tangent(rho, random_traceless_hermitian(rng, 2))
    report = monotonicity_check(bkm_function(), rho, v, channel)
    assert report.regularized
    assert not report.inconclusive
    assert report.margin >= 0.0


def test_monotonicity_inconclusive_when_output_stays_singular(monkeypatch):
    # no channel output falls this far below zero, so patch the channel's action on the state
    import qiglab.monotonicity

    rng = rng_from(41)
    rho = random_state(rng, 2)
    v = state_tangent(rho, random_traceless_hermitian(rng, 2))
    apply = qiglab.monotonicity.apply_channel

    def negative_output(channel, x):
        # the state and its direction may come in one stack: replace the state's output alone
        out = apply(channel, x)
        out[np.abs(np.trace(x, axis1=-2, axis2=-1) - 1.0) < 1e-9] = np.diag([1.1, -0.1])
        return out

    monkeypatch.setattr(qiglab.monotonicity, "apply_channel", negative_output)
    report = monotonicity_check(bkm_function(), rho, v, depolarizing_channel(2, 0.3))
    assert report.inconclusive and report.regularized
    assert np.isnan(report.lhs) and np.isnan(report.margin)
    assert report.rhs == metric_eval(rho, bkm_function(), v, v)


# ---------------------------------------------------------------- entropies


def test_von_neumann_entropy_values():
    def entropy(rho):
        lam = check_state(rho).eigenvalues
        return -np.sum(lam * np.log(lam))

    assert entropy(I2 / 2.0) == pytest.approx(np.log(2.0))
    assert entropy(SIGMA) == pytest.approx(-(0.75 * np.log(0.75) + 0.25 * np.log(0.25)))


def test_relative_entropy_properties():
    rng = rng_from(41)
    rho = random_state(rng, 3)
    sigma = random_state(rng, 3)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    val = relative_entropy(rho, sigma)
    assert val > 0.0
    want = float(np.trace(rho @ (_logm(rho) - _logm(sigma))).real)
    assert val == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError, match="positive"):
        relative_entropy(np.diag([1.0, 0.0]).astype(complex), sigma[:2, :2] * 0 + I2 / 2)



def test_relative_entropy_of_stacks_and_spectra_equals_one_pair_at_a_time():
    rng = rng_from(44)
    rhos = np.stack([random_state(rng, 3, floor=0.05) for _ in range(4)])
    sigmas = np.stack([random_state(rng, 3, floor=0.05) for _ in range(4)])
    stacked = relative_entropy(rhos, sigmas)
    assert stacked.shape == (4,)
    for k in range(4):
        one = relative_entropy(rhos[k], sigmas[k])
        assert isinstance(one, float) and stacked[k] == one
        assert relative_entropy(check_state(rhos[k]), check_state(sigmas[k])) == one
    with pytest.raises(ValueError, match="at stack index 1"):
        relative_entropy(rhos, np.stack([sigmas[0], 2.0 * sigmas[1]]))

def _logm(a):
    w, u = np.linalg.eigh(a)
    return (u * np.log(w)) @ u.conj().T
