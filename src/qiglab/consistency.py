"""The two forms of the WYD metric agree: the direct two-representation pairing and the
kernel form of the matched profile, on seeded states and tangents."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .manifold import check_state
from .metrics import _contract, petz_kernel, wyd_direct, wyd_function
from .sampling import random_state, random_traceless_hermitian, rng_from

__all__ = ["kernel_direct_consistency"]


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
    and does not vanish where a and b are nearly g-orthogonal; one Petz
    kernel per sample gives all three pairings.
    """
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
