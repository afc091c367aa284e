"""A stack of directions at one base point gives, matrix by matrix, the bits of one direction at a time.

Property tests over the spectral-calculus layers, at n = 2-4: stacked `frechet_derivative`, `frechet_second_derivative`,
`representation_convert` and `sphere_project` equal the per-matrix calls
exactly. Base spectra are generic, near-degenerate (a pair or a cluster of
three within CONFLUENT_RTOL, relative) or have a tiny eigenvalue. Directions
mix self-adjoint and general matrices, so the self-adjointness test that
decides the final symmetrization runs per matrix.
`frechet_derivative` and `frechet_second_derivative` also take a stack of
base points, each paired with its own stack of directions, and
`divided_difference_matrix` a stack of spectra.
"""

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qiglab.linalg import (
    CONFLUENT_RTOL,
    Spectrum,
    _triple_difference_tensor,
    divided_difference_matrix,
    exp_function,
    frechet_derivative,
    frechet_second_derivative,
    hermitize,
    spectral_decompose,
)
from qiglab.manifold import embedding_function, representation_convert, sphere_project
from qiglab.sampling import haar_unitary, random_hermitian, rng_from

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALPHAS = [-1.0, -0.5, 0.0, 0.3, 0.9, 1.0]


@st.composite
def base_and_directions(draw, unit_trace=False, self_adjoint_only=False, n=None, m=None):
    """(Spectrum of one base point, stacks of m directions), n in 2..4 and m in 1..5.

    Each direction is self-adjoint or, unless ``self_adjoint_only``, a
    general complex matrix; two independent stacks are drawn.
    """
    n = draw(st.integers(2, 4)) if n is None else n
    m = draw(st.integers(1, 5)) if m is None else m
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    lam = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["generic", "pair", "triple", "tiny"]))
    if kind == "pair":
        lam[1] = lam[0] * (1.0 + draw(st.floats(0.0, 0.5 * CONFLUENT_RTOL)))
    elif kind == "triple":
        for k in range(1, min(n, 3)):
            lam[k] = lam[0] * (1.0 + draw(st.floats(0.0, 0.5 * CONFLUENT_RTOL)))
    elif kind == "tiny":
        lam[0] = draw(st.floats(1e-8, 1e-5))
    if unit_trace:
        lam = lam / lam.sum()
    q = haar_unitary(rng, n)
    spec = spectral_decompose(hermitize((q * lam) @ q.conj().T))

    def direction():
        if self_adjoint_only or draw(st.booleans()):
            return random_hermitian(rng, n)
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    first = np.stack([direction() for _ in range(m)])
    second = np.stack([direction() for _ in range(m)])
    return spec, first, second


def _functions():
    return st.sampled_from(ALPHAS).map(embedding_function) | st.just(exp_function())


@PROPERTY
@given(case=base_and_directions(), f=_functions())
def test_stacked_frechet_derivative_equals_matrix_by_matrix(case, f):
    spec, first, _ = case
    out = frechet_derivative(spec, first, f)
    assert out.shape == first.shape
    for k, e in enumerate(first):
        assert np.array_equal(out[k], frechet_derivative(spec, e, f))


@PROPERTY
@given(case=base_and_directions(), f=_functions())
def test_stacked_frechet_second_derivative_equals_matrix_by_matrix(case, f):
    spec, first, second = case
    out = frechet_second_derivative(spec, first, second, f)
    assert out.shape == first.shape
    for k, (e, g) in enumerate(zip(first, second)):
        assert np.array_equal(out[k], frechet_second_derivative(spec, e, g, f))


@PROPERTY
@given(case=base_and_directions(), f=_functions())
def test_triple_tensor_depends_on_the_three_eigenvalues_alone(case, f):
    # f[λi, λk, λj] is symmetric in its arguments, and each entry is the same bits in whatever
    # order the spectrum lists its eigenvalues, inside and outside the confluent window
    lam = case[0].eigenvalues
    t = _triple_difference_tensor(lam, f, divided_difference_matrix(lam, f))
    for axes in itertools.permutations(range(3)):
        assert np.array_equal(t, t.transpose(axes))
    flipped = lam[::-1]
    t_flipped = _triple_difference_tensor(flipped, f, divided_difference_matrix(flipped, f))
    assert np.array_equal(t_flipped, t[::-1, ::-1, ::-1])


@PROPERTY
@given(
    case=base_and_directions(),
    from_alpha=st.sampled_from(ALPHAS),
    to_alpha=st.sampled_from(ALPHAS),
)
def test_stacked_representation_convert_equals_matrix_by_matrix(case, from_alpha, to_alpha):
    spec, w, _ = case
    out = representation_convert(spec, w, from_alpha, to_alpha)
    assert out.shape == w.shape
    for k, one in enumerate(w):
        assert np.array_equal(out[k], representation_convert(spec, one, from_alpha, to_alpha))


@PROPERTY
@given(
    case=base_and_directions(unit_trace=True, self_adjoint_only=True),
    alpha=st.sampled_from(ALPHAS),
)
def test_stacked_sphere_project_equals_matrix_by_matrix(case, alpha):
    spec, a, _ = case
    out = sphere_project(spec, alpha, a)
    assert out.shape == a.shape
    for k, one in enumerate(a):
        assert np.array_equal(out[k], sphere_project(spec, alpha, one))


@st.composite
def bases_and_directions(draw):
    """A stacked Spectrum of k base points (k in 1..4) and two stacks (k, m, n, n) of directions.

    Each base point draws its own spectrum kind, so a stack may mix a
    near-degenerate point with generic ones.
    """
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    cases = draw(st.lists(base_and_directions(n=n, m=m), min_size=1, max_size=4))
    spec = Spectrum(
        np.stack([c[0].eigenvalues for c in cases]), np.stack([c[0].unitary for c in cases])
    )
    first, second = (np.stack([c[k] for c in cases]) for k in (1, 2))
    return spec, [c[0] for c in cases], first, second


@PROPERTY
@given(case=bases_and_directions(), f=_functions())
def test_frechet_derivative_on_stacked_bases_equals_base_by_base(case, f):
    spec, bases, directions, _ = case
    out = frechet_derivative(spec.expand_dims(), directions, f)
    kernels = divided_difference_matrix(spec.eigenvalues, f)
    assert out.shape == directions.shape
    assert kernels.shape == spec.eigenvalues.shape + (spec.dim,)
    for k, base in enumerate(bases):
        assert np.array_equal(out[k], frechet_derivative(base, directions[k], f))
        assert np.array_equal(kernels[k], divided_difference_matrix(base.eigenvalues, f))


@PROPERTY
@given(case=bases_and_directions(), f=_functions())
def test_frechet_second_derivative_on_stacked_bases_equals_base_by_base(case, f):
    spec, bases, first, second = case
    # each base point with its own stack of directions, and with one direction pair each
    out = frechet_second_derivative(spec.expand_dims(), first, second, f)
    rows = frechet_second_derivative(spec, first[:, 0], second[:, 0], f)
    assert out.shape == first.shape
    assert rows.shape == first[:, 0].shape
    for k, base in enumerate(bases):
        assert np.array_equal(out[k], frechet_second_derivative(base, first[k], second[k], f))
        one = frechet_second_derivative(base, first[k, 0], second[k, 0], f)
        assert np.array_equal(rows[k], one)
