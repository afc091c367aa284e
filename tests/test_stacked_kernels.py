"""A stack of base points gives, matrix by matrix, the bits of one base point at a time.

Property tests over the Petz-kernel layer at n = 2-4: stacked `petz_kernel`
coefficients and stacked `kernel_metric` values equal the per-matrix results
exactly, for generic spectra, near-degenerate spectra (where the WYD and BKM
profiles switch to their series form) and spectra with a tiny eigenvalue.
The batched monotonicity scan rests on this.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qiglab.linalg import Spectrum, hermitize, spectral_decompose
from qiglab.metrics import (
    MonotoneFunctionSpec,
    builtin_functions,
    kernel_metric,
    petz_kernel,
    wyd_function,
)
from qiglab.sampling import haar_unitary, random_hermitian, rng_from

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KERNELS = builtin_functions(wyd_exponents=(0.2, 0.5, 0.8)) + [wyd_function(0.25)]


@st.composite
def weight_stacks(draw):
    """(m, n, n) positive matrices, one spectrum class per matrix, n in 2..4 and m in 1..5."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 5))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(m):
        kind = draw(st.sampled_from(["generic", "degenerate", "tiny"]))
        lam = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)))
        if kind == "degenerate":
            lam[1] = lam[0] * (1.0 + draw(st.floats(0.0, 1e-7)))
        elif kind == "tiny":
            lam[0] = draw(st.floats(1e-8, 1e-5))
        q = haar_unitary(rng, n)
        out.append(hermitize((q * lam) @ q.conj().T))
    return np.stack(out), rng


def _rows(spec: Spectrum) -> list:
    return [Spectrum(lam, u) for lam, u in zip(spec.eigenvalues, spec.unitary)]


@pytest.mark.parametrize("f", KERNELS, ids=lambda f: f.name)
@PROPERTY
@given(case=weight_stacks())
def test_stacked_petz_kernel_equals_matrix_by_matrix(f, case):
    stack, _ = case
    spec = spectral_decompose(stack)
    coefficients = petz_kernel(spec, f).coefficients
    assert coefficients.shape == stack.shape
    for k, row in enumerate(_rows(spec)):
        assert np.array_equal(coefficients[k], petz_kernel(row, f).coefficients)


@pytest.mark.parametrize("f", KERNELS, ids=lambda f: f.name)
@PROPERTY
@given(case=weight_stacks())
def test_stacked_kernel_metric_equals_matrix_by_matrix(f, case):
    stack, rng = case
    spec = spectral_decompose(stack)
    n = stack.shape[-1]
    a = np.stack([random_hermitian(rng, n) for _ in stack])
    b = np.stack([random_hermitian(rng, n) for _ in stack])
    values = kernel_metric(petz_kernel(spec, f), a, b)
    assert values.shape == (len(stack),)
    for k, row in enumerate(_rows(spec)):
        single = kernel_metric(petz_kernel(row, f), a[k], b[k])
        assert isinstance(single, float)
        assert values[k] == single


def test_petz_kernel_error_names_the_stack_index():
    # f is negative above ratio 3: only the second spectrum (ratio 9) fails
    f = MonotoneFunctionSpec("negative-tail", lambda x: np.where(x > 3.0, -1.0, 1.0), False)
    spec = spectral_decompose(np.stack([np.diag([0.5, 0.5]), np.diag([0.1, 0.9])]).astype(complex))
    with pytest.raises(ValueError, match="not strictly positive on this spectrum at stack index 1"):
        petz_kernel(spec, f)
