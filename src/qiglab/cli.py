"""Reproducible command-line experiment driver.

Every check in the library is runnable as one subcommand emitting JSON lines
(default) or CSV with fixed per-subcommand columns.  All randomness is
seeded, the effective configuration is echoed as the first record, and the
wall-clock time appears only as the final field of the final summary record
so repeated runs are byte-identical up to that field.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error,
3 no failures but at least one inconclusive check.

Each subcommand imports the check module it runs (``consistency``, ``duality``,
``potential``, ``monotonicity`` or ``gibbs``) when it runs, so a launch loads only that one.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from .bands import FALSIFICATION_GAP, POSITIVE_TOL, band
from .manifold import simplex_family, state_tangent
from .metrics import bkm_function, bures_function, matched_metric, rld_function, wyd_function
from .sampling import (
    _random_weights,
    _simplex,
    _states_with_tangents,
    hermitian_basis,
    pauli_matrices,
    random_state,
    random_traceless_hermitian,
    rng_from,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Serialization


def _format_float(x) -> str:
    """17-significant-digit literal; round-trips float64 exactly."""
    f = float(x)
    if not math.isfinite(f):
        return json.dumps(repr(f))
    return "%.17g" % f


@functools.cache
def _json_key(k) -> str:
    """The escaped key text of json.dumps(str(k)), made once per key."""
    return encode_basestring_ascii(str(k))


def _json_value(v) -> str:
    # floats and strings, most of every record, first; no bool or int is either
    if isinstance(v, (float, np.floating)):
        return _format_float(v)
    if isinstance(v, str):
        return encode_basestring_ascii(v)  # the text of json.dumps(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return "null"
    if isinstance(v, np.ndarray):
        return _json_value(v.tolist())
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{_json_key(k)}:{_json_value(x)}" for k, x in v.items()) + "}"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return repr(f) if not math.isfinite(f) else "%.17g" % f
    return str(v)


def _render(records, fmt: str, columns) -> str:
    if fmt == "jsonl":
        return "\n".join("{" + ",".join(
            f"{_json_key(k)}:{_json_value(v)}" for k, v in rec.items()
        ) + "}" for rec in records) + "\n"
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = list(columns) + ["wall_clock_s"]
    writer.writerow(cols)
    for rec in records:
        if rec.get("record") == "config":
            buf.write("# config " + " ".join(
                f"{k}={_csv_cell(v)}" for k, v in rec.items() if k != "record"
            ) + "\n")
            continue
        writer.writerow([_csv_cell(rec.get(c)) for c in cols])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Option handling


def _value(text, option: str, kind=float):
    """``text`` as a ``kind`` value; text that does not parse, or NaN, is a usage error that
    names ``option``."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan  # refused below, as a NaN given as such is
    if value != value:  # NaN
        wanted = "an integer" if kind is int else "a number"
        raise ValueError(f"{option} must be {wanted}, got {text!r}")
    return value


def _real(opt, key) -> float:
    """Option ``key`` as a float; see _value."""
    return _value(opt[key], "--" + key.replace("_", "-"))


def _bound(opt, key) -> float:
    """Option ``key`` as a float in [0, inf); see _value. A negative or infinite bound would
    empty the check it bounds, so it is a usage error that names the option."""
    value = _real(opt, key)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"--{key.replace('_', '-')} must be finite and at least 0, got {value!r}")
    return value


def _list(opt, key, kind, single=False, floor=None):
    """Option ``key`` as a tuple of ``kind`` values from a comma-separated list; a value that
    _value rejects, an empty list, more than one value where ``single``, a value below
    ``floor``, or a value given twice (compared as parsed, so -0 is 0), is a usage error that
    names the option."""
    name = "--" + key.replace("_", "-")
    tokens = [tok.strip() for tok in str(opt[key]).split(",") if tok.strip() != ""]
    values = tuple(_value(tok, f"each {name} value", kind) for tok in tokens)
    if not values or (single and len(values) > 1):
        wanted = "one value" if single else "at least one value"
        raise ValueError(f"{name} takes {wanted}, got {len(values)}: {opt[key]!r}")
    if floor is not None and min(values) < floor:
        raise ValueError(f"{name} values must be at least {floor}, got {min(values)}")
    for k, value in enumerate(values):
        if value in values[:k]:
            twice = values[values.index(value)]
            raise ValueError(f"each {name} value may be given once, got {twice!r} twice")
    return values


def _alphas(opt, key="alpha", single=False, strict=False):
    """Option ``key`` as _list's tuple of orders; an order outside [-1, 1], or outside (-1, 1)
    where ``strict``, is a usage error that names the option. Runners check before any work."""
    values = _list(opt, key, float, single)
    span = "strictly inside (-1, 1)" if strict else "in [-1, 1]"
    for alpha in values:
        if not (-1.0 < alpha < 1.0 if strict else -1.0 <= alpha <= 1.0):
            raise ValueError(f"--{key} must lie {span}, got {alpha!r}")
    return values


def _count(opt, key, floor=1):
    """Option ``key`` as an int; a value that is not an integer, or is below ``floor``, is a
    usage error that names the option."""
    name = key.replace("_", "-")
    value = _value(opt[key], f"--{name}", int)
    if value < floor:
        raise ValueError(f"--{name} must be at least {floor}, got {value}")
    return value


def _check_output(path: str) -> None:
    """A nonempty --output must name a file this process can create or overwrite; anything
    else is a usage error that names the option. Checked before any work, writing nothing."""
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent!r}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ValueError(f"--output cannot be written to {path!r}: {reason}")


_COMMON_DEFAULTS = {"seed": "0", "format": "jsonl", "output": ""}


def _read_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merge_options(command: str, args: argparse.Namespace, parser) -> dict:
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_COMMANDS[command].defaults)
    if getattr(args, "config", None):
        try:
            loaded = _read_config(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        for key, value in loaded.items():
            if key not in merged:
                parser.error(f"config key {key!r} is not an option of {command!r}")
            merged[key] = value
    for key in merged:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
    return merged


def _tol_gap(opt) -> tuple:
    """(--tol, --gap) as _bound's floats, so 0 <= tol <= gap < inf; a gap below the tol is a
    usage error that names both."""
    tol, gap = _bound(opt, "tol"), _bound(opt, "gap")
    if gap < tol:
        raise ValueError(f"--gap must be at least --tol, got --gap {gap!r} below --tol {tol!r}")
    return tol, gap


def _metric_from_token(token: str, alpha: float):
    """Resolve a --metric token; bare 'wyd' matches the embedding order."""
    token = token.strip().lower()
    if token == "wyd":
        return matched_metric(alpha)
    if token.startswith("wyd:"):
        p = _value(token[4:], f"the exponent of --metric {token}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"the exponent of --metric {token} must lie in (0, 1), got {p!r}")
        return wyd_function(p)
    if token == "bkm":
        return bkm_function()
    if token == "bures":
        return bures_function()
    if token == "rld":
        return rld_function()
    raise ValueError(f"unknown metric {token!r} (use wyd, wyd:<p>, bkm, bures or rld)")


def _metric_key(f) -> str:
    """The metric a resolved profile defines: its name, but WYD at p and at 1 - p, whose
    profiles agree, both by min(p, 1 - p) to the name's 15 significant digits."""
    if not f.name.startswith("wyd(p="):
        return f.name
    p = float(f.name[6:-1])
    return f"wyd(p={min(p, 1.0 - p):.15g})"


def _metric_pairs(opt, alphas) -> list:
    """(alpha, metric) for each of ``alphas`` and each --metric token, in that order; two tokens
    that resolve to one metric at one alpha are a usage error that names both. Runners resolve
    every pair before any work."""
    tokens = _list(opt, "metric", str.lower)
    pairs, seen = [], {}  # seen: (alpha, metric key) -> the token and the profile it resolved to
    for alpha in alphas:
        for token in tokens:
            f = _metric_from_token(token, alpha)
            key = (alpha, _metric_key(f))
            if key in seen:
                first, g = seen[key]
                same = f.name if f.name == g.name else f"{g.name} = {f.name}"
                raise ValueError(f"--metric {first} and {token} both resolve to {same} at "
                                 f"--alpha {alpha!r}")
            seen[key] = token, f
            pairs.append((alpha, f))
    return pairs


# ---------------------------------------------------------------------------
# Status rule: every case status is a duality.band, or the worst of several


def _verdict(statuses) -> str:
    """The worst of several bands: fail over inconclusive over pass."""
    if any(s == "fail" for s in statuses):
        return "fail"
    if any(s == "inconclusive" for s in statuses):
        return "inconclusive"
    return "pass"


def _at_most(value, bound) -> str:
    """Band of an upper bound: pass up to ``bound``, fail above it or at NaN."""
    return band(value, bound, bound)


def _at_least(value, bound) -> str:
    """Band of a lower-bound witness: pass from ``bound`` on, fail below it or at NaN. It is
    the band of the negated value, which IEEE negation keeps exact."""
    return band(-value, -bound, -bound)


def _case(status: str, **fields) -> dict:
    """A case record: ``record`` first, then ``fields`` in order, then ``status``."""
    return {"record": "case", **fields, "status": status}


_EXIT = {"pass": 0, "fail": 1, "inconclusive": 3}


# ---------------------------------------------------------------------------
# Subcommand bodies (each returns its case records and the summary's extra fields)


def _run_metric_table(opt, seed):
    from .consistency import _ordering_violations, _reference_values, kernel_direct_consistency

    dims = _list(opt, "dims", int, floor=2)  # a 1 x 1 state has no nonzero traceless tangent
    # the matched WYD exponent (1 + alpha)/2 must lie in (0, 1)
    alphas = _alphas(opt, "alphas", strict=True)
    samples = _count(opt, "samples")
    floor = _real(opt, "floor")
    for n in dims:  # every state draw keeps floor on each of its n simplex weights
        if not 0.0 <= floor * n < 1.0:
            raise ValueError(f"--floor must lie in [0, 1/dim) at every --dims value, got {floor!r} "
                             f"at --dims {n}")
    n_ord = _count(opt, "ordering_samples")
    rows = kernel_direct_consistency(seed, dims, alphas, samples, floor)
    records = [
        _case(_at_most(row["max_rel_dev"], 1e-8), check="kernel_vs_direct", dim=row["dim"],
              alpha=row["alpha"], metric=matched_metric(row["alpha"]).name,
              value=row["max_rel_dev"])
        for row in rows
    ]
    # demo table: metric values of the sigma_x tangent at diag(3/4, 1/4), shown for reference,
    # so any value but NaN passes
    records += [_case(_at_most(value, math.inf), check="value_at_diag(3/4,1/4)", dim=2,
                      metric=name, value=value) for name, value in _reference_values()]
    # ordering: bures <= every built-in metric <= rld, entrywise on samples
    violations = _ordering_violations(seed, dims, n_ord, floor)
    records += [_case(_at_most(v, 1e-10), check="ordering_bures<=f<=rld", dim=n, value=v)
                for n, v in zip(dims, violations)]
    extra = {"worst_rel_dev": max(row["max_rel_dev"] for row in rows),
             "worst_ordering_violation": max(violations)}
    return records, extra


def _run_duality(opt, seed):
    from .duality import DefectGrid, _defects, sample_grid, standard_witness_families

    tol, gap = _tol_gap(opt)
    n_points = _count(opt, "points")
    dims = _list(opt, "dim", int)
    alphas = _alphas(opt)
    outside = [dim for dim in dims if dim not in (2, 3)]
    if outside:  # checked before any grid is built
        raise ValueError(
            f"--dim values must be 2 or 3, the dimensions with documented witness families, "
            f"got {outside[0]}"
        )
    if opt["manifold"] not in ("state", "weight", "both"):
        raise ValueError(f"--manifold must be 'state', 'weight' or 'both', got {opt['manifold']!r}")
    pairs = _metric_pairs(opt, alphas)  # before any grid is built
    witnesses = [(w, dim) for dim in dims for w in standard_witness_families(dim, opt["manifold"])]
    batteries = [(DefectGrid(w.family, sample_grid(w, [seed, dim], n_points)),
                  [(f, alpha, 1.0, w.name) for alpha, f in pairs]) for w, dim in witnesses]
    witness_reports = list(zip(witnesses, _defects(batteries)))  # each grid's, one per pair
    records = []
    worst = 0.0
    for p, (alpha, f) in enumerate(pairs):
        for (witness, _), reports in witness_reports:
            rep = reports[p]
            worst = max(worst, rep.defect)
            manifold = "weight" if witness.on_extended else "state"
            records.append(
                _case(band(rep.defect, tol, gap), metric=f.name, alpha=alpha,
                      family=witness.name, manifold=manifold, defect=rep.defect)
            )
    return records, {"max_defect": worst}


def _run_transport_duality(opt, seed):  # the transport draws nothing at random
    from .duality import transport_duality_check, witness_curve

    tol, gap = _tol_gap(opt)
    pairs = _metric_pairs(opt, _alphas(opt))  # before any transport
    curve = witness_curve()
    start = curve.point(0.0)
    # tangent pair chosen to break the z-reflection symmetry of the curve,
    # so a mismatched kernel shows a genuine drift
    _, sx, sy, sz = pauli_matrices()
    y = state_tangent(start, 0.5 * (sx + 0.5 * sz))
    z = state_tangent(start, 0.5 * (sy + 0.8 * sz))
    records = []
    worst = 0.0
    for alpha, f in pairs:
        rep = transport_duality_check(curve, f, alpha, y, z)
        worst = max(worst, rep.deviation)
        records.append(
            _case(band(rep.deviation, tol, gap), metric=f.name, alpha=alpha,
                  initial_value=rep.initial_value, deviation=rep.deviation)
        )
    return records, {"max_deviation": worst}


def _run_potential(opt, seed):
    from .potential import _potential_checks

    n_dual = _count(opt, "dual_points")
    points_option = _count(opt, "points", floor=0)  # 0 picks the size per dim
    dims = _list(opt, "dim", int, floor=1)
    alphas = _alphas(opt)
    sizes = {}
    for dim in dims:  # every grid size is checked before any work
        d = dim * dim
        sizes[dim] = points_option or max(d + 3, 6)
        if sizes[dim] < d + 2:  # the affine regression fits d + 1 coefficients
            raise ValueError(f"--points must be at least {d + 2} at --dim {dim}, got {sizes[dim]}")
        if n_dual > sizes[dim]:
            raise ValueError(
                f"--dual-points must be at most the {sizes[dim]} grid points at --dim {dim}, "
                f"got {n_dual}"
            )
    tol = 1e-5  # of the Hessian and the Jacobian residual
    records = []
    for dim in dims:  # every alpha's grid in one pass
        rngs = [rng_from([seed, dim, int(round((alpha + 1) * 1000))]) for alpha in alphas]
        weights = _random_weights(rngs, sizes[dim], dim, 0.7, 1.5)
        checks = _potential_checks(hermitian_basis(dim), alphas, weights, n_dual, seed=[seed, 99])
        for alpha, (rep, dual) in zip(alphas, checks):
            status = _verdict([
                _at_most(rep.residual, tol),
                _at_most(rep.gradient_residual, 1e-6),
                _at_most(dual.jacobian_residual, tol),
                _at_most(dual.legendre_residual, 1e-5),
            ])
            records.append(
                _case(status, alpha=alpha, dim=dim, hessian_residual=rep.residual,
                      gradient_residual=rep.gradient_residual,
                      jacobian_residual=dual.jacobian_residual,
                      legendre_residual=dual.legendre_residual)
            )
    return records, {}


def _run_uniqueness_scan(opt, seed):
    from .duality import uniqueness_scan

    alpha = _alphas(opt, single=True, strict=True)[0]
    tol, gap = _tol_gap(opt)
    result = uniqueness_scan(
        alpha, seed=seed, n_points=_count(opt, "points"), tol=tol, gap=gap
    )
    # a dual candidate's case is its band; a non-dual one's is the mirrored band, passing from
    # gap on and failing up to tol. When every case passes, the matched defect is at most tol
    # <= gap and every other at least it (the scaled copy is 3 times it), so WYD is minimal
    # and the verdict needs no rule of its own.
    records = [
        _case(band(e.defect, tol, gap) if e.expected_dual else band(-e.defect, -gap, -tol),
              candidate=e.name, defect=e.defect, band=e.status, expected_dual=e.expected_dual)
        for e in result.entries
    ]
    extra = {
        "alpha": result.alpha,
        "wyd_minimal": result.wyd_minimal,
        "uniqueness_supported": result.uniqueness_supported,
    }
    return records, extra


def _run_monotonicity(opt, seed):
    from .monotonicity import monotonicity_scan

    trials = _count(opt, "trials")
    margin_tol = _bound(opt, "margin_tol")
    records = []
    for row in monotonicity_scan(seed, trials):
        fraction = row["depolarizing_strict_fraction"]  # None when no trial was depolarizing
        status = _verdict([
            _at_least(row["min_margin"], -margin_tol),
            "inconclusive" if fraction is None else _at_least(fraction, 0.99),
            band(row["inconclusive"], 0, math.inf),  # trials the scan could not decide
        ])
        records.append(_case(status, **row))
    return records, {}


def _run_flatness(opt, seed):
    from .duality import flatness_scan, path_dependence_witness

    steps = _count(opt, "steps", floor=2)
    if steps % 2:  # the transport is Richardson-extrapolated from a half-resolution run
        raise ValueError(f"--steps must be even, got {steps}")
    dims = _list(opt, "dim", int, floor=1)
    alphas = _alphas(opt)
    records = []
    for dim in dims:
        for alpha in alphas:
            value = flatness_scan(alpha, dim, seed=[seed, dim])
            records.append(
                _case(_at_most(value, 1e-6), check=f"affine_chart_flatness(dim={dim})",
                      alpha=alpha, value=value)
            )
    witness = path_dependence_witness(0.0, steps)
    records.append(
        _case(_at_least(witness, 1e-3), check="projected_transport_path_dependence",
              alpha=0.0, value=witness)
    )
    return records, {}


def _run_convexity_failure(opt, seed):
    from .duality import (
        classical_reduction_check,
        convexity_failure_check,
        duality_defect,
        sample_grid,
        standard_witness_families,
    )

    # at |alpha| = 1 the order-alpha connection is an end order and BKM the matched metric
    alpha = _alphas(opt, single=True, strict=True)[0]
    records = []

    rng = rng_from([seed, 3])
    fam = simplex_family(3)
    grid = _simplex(rng.standard_exponential((3, 3)))[:, :2] * 0.6 + 0.4 / 3
    value = convexity_failure_check(alpha, fam, grid, family_name="simplex-3").max_difference
    records.append(
        _case(_at_most(value, 1e-8), check="diagonal_family_identity", alpha=alpha, value=value)
    )

    worst_quantum = 0.0
    for witness in standard_witness_families(2, "state") + standard_witness_families(3, "state"):
        grid = sample_grid(witness, [seed, witness.family.param_dim], 2)
        rep = convexity_failure_check(alpha, witness.family, grid, family_name=witness.name)
        worst_quantum = max(worst_quantum, rep.max_difference)
    records.append(
        _case(_at_least(worst_quantum, 1e-4),
              check="noncommuting_witness_gap", alpha=alpha, value=worst_quantum)
    )

    fisher = classical_reduction_check(seed)
    value = max(fisher["max_fisher_dev"], fisher["max_alpha_dev"])
    records.append(
        _case(_at_most(value, 1e-9), check="classical_fisher_reduction",
              alpha=alpha, value=value)
    )

    worst_bkm = 0.0
    for witness in standard_witness_families(2, "state"):
        grid = sample_grid(witness, [seed, 11], 2)
        rep = duality_defect(
            witness.family, grid, bkm_function(), alpha, family_name=witness.name
        )
        worst_bkm = max(worst_bkm, rep.defect)
    records.append(
        _case(_at_least(worst_bkm, FALSIFICATION_GAP), check="bkm_not_dual_at_alpha",
              alpha=alpha, value=worst_bkm)
    )
    return records, {}


def _run_entropy_projection(opt, seed):
    from .gibbs import entropy_projections, relative_entropy_curvature_gap

    dim = _count(opt, "dim", floor=2)
    n_obs = _count(opt, "observables")
    if n_obs > dim * dim - 1:  # with I they would span more than the dim^2 Hermitian matrices
        raise ValueError(
            f"--observables must be at most dim^2 - 1 = {dim * dim - 1} at --dim {dim}, got {n_obs}"
        )
    instances = _count(opt, "instances")
    records = []
    rngs = (rng_from([seed, k]) for k in range(instances))  # instance k's state and observables
    reports = entropy_projections(*_states_with_tangents(rngs, dim, 0.05, n_obs))
    for k, rep in enumerate(reports):
        # converged is mean_residual <= 1e-9, the Newton tolerance: the mean residual is the
        # Newton gradient norm
        status = _verdict([
            _at_most(rep.mean_residual, 1e-9),
            _at_most(rep.orthogonality_residual, 1e-6),
        ])
        records.append(
            _case(status, instance=k, converged=rep.converged, iterations=rep.iterations,
                  mean_residual=rep.mean_residual,
                  orthogonality_residual=rep.orthogonality_residual,
                  relative_entropy=rep.relative_entropy_value)
        )
    # aggregate rows: instance -1 is the mean of mean residuals, -2 the
    # second-order relative-entropy expansion gap
    mean_of_means = float(np.mean([rep.mean_residual for rep in reports]))
    records.append(
        _case(_at_most(mean_of_means, 1e-7), instance=-1, mean_residual=mean_of_means)
    )
    rng = rng_from([seed, 777])
    rho = random_state(rng, dim, floor=0.1)
    direction = random_traceless_hermitian(rng, dim)
    direction = direction / (4.0 * np.linalg.norm(direction, 2))
    gap_value = relative_entropy_curvature_gap(rho, direction)
    records.append(
        _case(_at_most(gap_value, 1e-4), instance=-2, mean_residual=gap_value)
    )
    extra = {
        "mean_of_mean_residuals": mean_of_means,
        "max_orthogonality": max(rep.orthogonality_residual for rep in reports),
        "taylor_gap": gap_value,
    }
    return records, extra


# ---------------------------------------------------------------------------
# The subcommand table: help line, runner, CSV columns and option defaults


class _Command(NamedTuple):
    help: str
    run: Callable  # (merged options, --seed as an int) -> (case records, summary fields)
    columns: tuple
    defaults: dict


_COMMANDS = {
    "metric-table": _Command(
        "kernel-vs-direct pairing consistency and the metric ordering",
        _run_metric_table,
        ("record", "check", "dim", "alpha", "metric", "value", "status"),
        {"dims": "2,3,4", "alphas": "-0.9,-0.5,0,0.5,0.9", "samples": "50", "floor": "0.05",
         "ordering_samples": "25"},
    ),
    "duality": _Command(
        "duality defect of a metric against the +-alpha connection pair",
        _run_duality,
        ("record", "metric", "alpha", "family", "manifold", "defect", "status"),
        {"metric": "wyd", "alpha": "-0.5,0,0.5", "dim": "2,3", "manifold": "both", "points": "3",
         "tol": str(POSITIVE_TOL), "gap": str(FALSIFICATION_GAP)},
    ),
    "transport-duality": _Command(
        "invariance of the pairing under the two flat transports",
        _run_transport_duality,
        ("record", "metric", "alpha", "initial_value", "deviation", "status"),
        {"metric": "wyd", "alpha": "0.5", "tol": "1e-9", "gap": "1e-4"},
    ),
    "potential": _Command(
        "trace potential Hessian, gradient coordinates, Legendre pairing",
        _run_potential,
        ("record", "alpha", "dim", "hessian_residual", "gradient_residual", "jacobian_residual",
         "legendre_residual", "status"),
        {"alpha": "-0.5,0,0.5", "dim": "2", "points": "0", "dual_points": "2"},
    ),
    "uniqueness-scan": _Command(
        "falsification battery over candidate metric kernels",
        _run_uniqueness_scan,
        ("record", "candidate", "defect", "band", "expected_dual", "status"),
        {"alpha": "0.5", "points": "3", "tol": str(POSITIVE_TOL), "gap": str(FALSIFICATION_GAP)},
    ),
    "monotonicity": _Command(
        "Monte-Carlo contraction margins under quantum channels",
        _run_monotonicity,
        ("record", "metric", "trials", "min_margin", "depolarizing_strict_fraction",
         "regularized", "inconclusive", "status"),
        {"trials": "1000", "margin_tol": "1e-9"},
    ),
    "flatness": _Command(
        "flatness of affine charts and projected-transport path dependence",
        _run_flatness,
        ("record", "check", "alpha", "value", "status"),
        {"alpha": "-0.5,0,0.5", "dim": "2", "steps": "256"},
    ),
    "convexity-failure": _Command(
        "order-alpha connection vs convex combination of the end orders",
        _run_convexity_failure,
        ("record", "check", "alpha", "value", "status"),
        {"alpha": "0.5"},
    ),
    "entropy-projection": _Command(
        "relative-entropy projection onto Gibbs families",
        _run_entropy_projection,
        ("record", "instance", "converged", "iterations", "mean_residual",
         "orthogonality_residual", "relative_entropy", "status"),
        {"instances": "20", "dim": "3", "observables": "2"},
    ),
}

_CSV_NOTE = (
    """\
CSV columns per subcommand (a trailing wall_clock_s column is filled on the
summary row only; the effective configuration becomes a '# config' comment
line right after the header; negative list values need the --key=v1,v2 form):
"""
    + "".join(f"  {name:<18} {','.join(cmd.columns)}\n" for name, cmd in _COMMANDS.items())
    + """
Config files hold 'key = value' lines ('#' comments allowed) with the same
keys as the long options (dashes or underscores); precedence is
command line > config file > built-in defaults.
"""
)


@functools.cache
def _build_parser(command) -> argparse.ArgumentParser:
    """The argument parser: only ``command``'s subparser, with its options, when it names a
    subcommand; otherwise, for --help and unknown commands, every subcommand with its help line.
    Built once per command and process; main passes None for every word that names none."""
    parser = argparse.ArgumentParser(
        prog="qiglab",
        description="Numerical laboratory for information geometry on density matrices.",
        epilog=_CSV_NOTE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in [command] if command in _COMMANDS else _COMMANDS:
        p = sub.add_parser(
            name,
            help=_COMMANDS[name].help,
            description=_COMMANDS[name].help,
            epilog=_CSV_NOTE,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        if name != command:
            continue
        p.add_argument("--seed", help="base RNG seed (default 0)")
        p.add_argument("--config", help="key = value file; overridden by explicit options")
        p.add_argument("--format", choices=["jsonl", "csv"], dest="format", help="output format")
        p.add_argument("--output", help="write to this file instead of stdout")
        for key, value in _COMMANDS[name].defaults.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=f"default {value}")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option but --help, so the first other word names the command
    word = next((a for a in argv if not a.startswith("-")), None)
    parser = _build_parser(word if word in _COMMANDS else None)
    args = parser.parse_args(argv)
    command = args.command
    opt = _merge_options(command, args, parser)
    if opt["format"] not in ("jsonl", "csv"):
        parser.error(f"format must be 'jsonl' or 'csv', got {opt['format']!r}")

    started = time.perf_counter()
    # the merged options hold the common keys, then the subcommand's, in that order
    config_record = {"record": "config", "command": command}
    config_record.update((key, value) for key, value in opt.items() if key != "output")
    try:
        seed = _count(opt, "seed", floor=0)
        _check_output(opt["output"])
        cases, extra = _COMMANDS[command].run(opt, seed)
    except ValueError as exc:
        parser.error(str(exc))

    verdict = _verdict([rec["status"] for rec in cases])
    summary = {"record": "summary", "command": command, "cases": len(cases)}
    summary.update(extra)
    summary["verdict"] = verdict
    summary["status"] = verdict  # mirrors the CSV status column
    summary["wall_clock_s"] = time.perf_counter() - started

    records = [config_record] + cases + [summary]
    text = _render(records, opt["format"], _COMMANDS[command].columns)
    if opt["output"]:
        with open(opt["output"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT[verdict]


if __name__ == "__main__":
    sys.exit(main())
