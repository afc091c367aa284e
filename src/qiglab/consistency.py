"""The two forms of the WYD metric agree: the direct two-representation pairing and the
kernel form of the matched profile, on seeded states and tangents. Also the metric-table's
reference values and its Petz ordering check, Bures <= f <= RLD."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .manifold import check_state
from .metrics import _contract, _petz_coefficients, builtin_functions, wyd_direct, wyd_function
from .sampling import _states_with_tangents, pauli_matrices, rng_from

__all__ = ["kernel_direct_consistency"]

# the built-in metrics with Bures, the lowest Petz metric, first and RLD, the highest, last: WYD at
# p = 0.25, 0.5 and 0.75 and BKM lie between
*_BETWEEN, _BURES, _RLD = builtin_functions()
_ORDERED = [_BURES, *_BETWEEN, _RLD]


def kernel_direct_consistency(
    seed=0,
    dims: Sequence[int] = (2, 3, 4),
    alphas: Sequence[float] = (-0.9, -0.5, 0.0, 0.5, 0.9),
    samples: int = 50,
    floor: float = 0.05,
) -> list:
    """Compare the direct two-representation WYD pairing with the kernel form.

    Returns one row per (dim, alpha): the worst value of
    |direct - g(a, b)| / sqrt(g(a, a) g(b, b)) over the sampled (state,
    tangent, tangent) triples, with g the kernel metric of the matched
    profile f_p, p = (1+alpha)/2. The Cauchy-Schwarz scale bounds |g(a, b)|
    and does not vanish where a and b are nearly g-orthogonal. Each row's
    samples are drawn in their rng order and built, decomposed and paired in
    one stacked pass; one Petz kernel gives all three pairings.
    """
    rows = []
    for n in dims:
        for alpha in alphas:
            rng = rng_from([seed, n, int(round((alpha + 1) * 1000))])
            states, t = _states_with_tangents([rng] * samples, n, floor, 2)
            rho, a, b = check_state(states), t[:, 0], t[:, 1]
            direct = wyd_direct(rho, alpha, a, b)
            at, bt = rho.to_eigenbasis(np.stack([a, b]))
            c = _petz_coefficients(rho, wyd_function(0.5 * (1.0 + alpha)))
            ab, aa, bb = _contract(c, np.stack([at, at, bt]), np.stack([bt, at, bt]))
            worst = float(np.max(np.abs(direct - ab) / np.sqrt(aa * bb)))
            rows.append({"dim": n, "alpha": alpha, "max_rel_dev": worst, "samples": samples})
    return rows


def _reference_values() -> list:
    """(name, g(sigma_x, sigma_x)) at diag(3/4, 1/4) for each metric of _ORDERED, from one
    decomposition and one kernel stack."""
    rho = check_state(np.diag([0.75, 0.25]).astype(complex))
    sx = rho.to_eigenbasis(pauli_matrices()[1])
    values = _contract(_petz_coefficients(rho[None], _ORDERED), sx, sx).tolist()
    return [(f.name, value) for f, value in zip(_ORDERED, values)]


def _ordering_violations(seed, dims: Sequence[int], samples: int, floor: float) -> list:
    """Per dim, the worst violation max(0, g_bures - g_f, g_f - g_rld) of the Petz ordering,
    with f each metric between them in _ORDERED and g_f = g(a, a), over ``samples`` seeded
    (state, traceless tangent) pairs, built in one stacked pass per dim."""
    out = []
    for n in dims:
        states, a = _states_with_tangents([rng_from([seed, 1000 + n])] * samples, n, floor, 1)
        rho = check_state(states)
        at = rho.to_eigenbasis(a[:, 0])
        g = _contract(_petz_coefficients(rho[None], _ORDERED), at, at)
        lo, middle, hi = g[0], g[1:-1], g[-1]
        out.append(max(0.0, float(np.max([lo - middle, middle - hi]))))
    return out
