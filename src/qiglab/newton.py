"""Damped Newton minimization of a stack of smooth convex objectives, row by row.

The Legendre solve of the potential's dual check (``potential._dual_check``,
behind ``dual_coordinate_check`` and ``qiglab potential``, one row per
(alpha, point)) and the relative-entropy projections of
``gibbs.entropy_projections`` run on it.
"""

from __future__ import annotations

import numpy as np

__all__ = []


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_r . y_r of each row of two stacks (k, d), each summed as a 1-d ``x @ y`` sums it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _newton_steps(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """-H^-1 g of each row of a stack; a row whose Hessian is singular steps along -g."""
    try:
        return -np.linalg.solve(hessian, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.empty_like(grad)
        for r, (h, g) in enumerate(zip(hessian, grad)):
            try:
                steps[r] = -np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                steps[r] = -g
        return steps


def _damped_newton(evaluate, x, tol: float, max_iter: int, accepted=None):
    """Minimize smooth convex objectives by Newton steps with Armijo backtracking, row by row.

    x is a stack of starting points (k, d). ``evaluate`` is asked about some
    rows at a time: it takes their points (r, d) and their indices into the
    stack (r,), and returns their values (r,), gradients (r, d) and Hessians
    (r, d, d). It is asked once at each new point, so a step kept at its
    first trial costs one call; a row whose gradient reached ``tol`` is not
    evaluated again, and a row whose Hessian is singular steps along
    -gradient. Each row has its own convergence test, step length and
    iteration count. ``accepted``, when given, is called with the points
    (r, d) and indices (r,) of rows evaluated at their start and, after each
    pass, at the steps they keep; it may raise. A trial the line search
    rejects is not passed to it.

    A row keeps its step t without comparing values once the predicted
    decrease t * |slope| / 4 is within the slack, sixteen ulps of the value at
    the row's point: an objective known only to its rounding cannot confirm a
    smaller decrease, and halving t for it would stall the row (the trace
    potential of ``dual_coordinate_check`` reads up to about 8 ulps off).
    Other rows halve t until the Armijo test passes (or t falls below 1e-12).
    Convergence is the gradient test alone.

    Returns (x, value at x, gradient at x, iterations), iterations (k,): a
    row's count is max_iter when its gradient never reached ``tol``.
    """
    x = np.array(x, dtype=float)
    active = np.arange(len(x))
    value, grad, hess = (np.array(a, dtype=float) for a in evaluate(x, active))
    accepted = accepted or (lambda points, rows: None)
    accepted(x, active)
    iterations = np.zeros(len(x), dtype=int)

    def move(rows):  # rows (indices into active) to xa + t delta, evaluated there
        at = active[rows]
        x[at] = xa[rows] + t[rows, None] * delta[rows]
        value[at], grad[at], hess[at] = evaluate(x[at], at)

    for it in range(1, max_iter + 1):
        iterations[active] = it
        active = active[~(np.abs(grad[active]).max(axis=-1) <= tol)]
        if not active.size:
            break
        xa, f0 = x[active], value[active]
        delta = _newton_steps(hess[active], grad[active])
        slope = _row_dot(grad[active], delta)
        slack = 16.0 * np.spacing(np.abs(f0))
        t = np.ones(len(active))

        def measurable(rows):  # the predicted decrease t |slope| / 4 exceeds the slack
            return -0.25 * t[rows] * slope[rows] > slack[rows]

        trying = np.arange(len(active))  # rows whose step t is still being halved
        unevaluated = []  # rows whose last halved t is kept without a trial
        while trying.size:
            move(trying)
            tt = t[trying]
            trial = value[active[trying]]
            rejected = trial > f0[trying] + 0.25 * tt * slope[trying] + slack[trying]
            halved = trying[rejected & measurable(trying)]
            t[halved] *= 0.5
            again = measurable(halved) & (t[halved] > 1e-12)
            trying = halved[again]
            unevaluated.append(halved[~again])
        kept = np.concatenate(unevaluated)
        if kept.size:
            move(kept)
        accepted(x[active], active)
    return x, value, grad, iterations
