"""The benchmark's four workloads and the check applied to every op's output.

An op is the list of CLI invocations one seed produces. Each invocation has
the exit code it must end with; the check re-derives every acceptance bound
from the record values (never from the ``status`` fields) and counts the work
the op did in the workload's unit.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Callable
from dataclasses import dataclass

# Acceptance bounds, as documented in the README's criteria table.
POSITIVE_TOL = 5e-5
FALSIFICATION_GAP = 1e-2
_EXIT = {"pass": 0, "fail": 1, "inconclusive": 3}

WALL_CLOCK = re.compile(r'"wall_clock_s":[^,}]+')

# In-process op sizes.
MONOTONICITY_TRIALS = 200
PROJECTION_INSTANCES = 10
POTENTIAL_POINTS = 7  # the CLI's own default at dim 2, pinned so work is known


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    expect: int  # exit code a correct program returns


@dataclass
class Outcome:
    ok: bool  # exit code, records and re-checked bounds as expected
    consistent: bool  # statuses and exit code agree with the re-checked bounds
    work: int
    problem: str = ""


COLD_COMMANDS = ("convexity-failure", "entropy-projection", "transport-duality")


def _cold_start(k, s):
    return [Invocation((COLD_COMMANDS[k % len(COLD_COMMANDS)], "--seed", s), 0)]


def _channel_scan(k, s):
    return [Invocation(("monotonicity", "--trials", str(MONOTONICITY_TRIALS), "--seed", s), 0)]


def _defect_grid(k, s):
    return [
        Invocation(("duality", "--seed", s), 0),
        Invocation(
            ("duality", "--metric", "bures,rld,wyd:0.75", "--alpha", "0", "--dim", "2",
             "--manifold", "state", "--seed", s),
            1,
        ),
        Invocation(
            ("duality", "--metric", "bkm", "--alpha=-0.5,0.5", "--dim", "2", "--manifold", "state",
             "--seed", s),
            1,
        ),
        Invocation(("uniqueness-scan", "--seed", s), 0),
    ]


def _gibbs_solve(k, s):
    n = str(PROJECTION_INSTANCES)
    return [
        Invocation(("entropy-projection", "--dim", "3", "--instances", n, "--seed", s), 0),
        Invocation(("entropy-projection", "--dim", "4", "--instances", n, "--seed", s), 0),
        Invocation(("potential", "--points", str(POTENTIAL_POINTS), "--seed", s), 0),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    launches: bool  # ops are fresh interpreters rather than in-process calls
    build: Callable  # (op index, CLI seed as text) -> the op's invocations

    def invocations(self, k: int, seed: int) -> list:
        """Invocations of op k, which runs with CLI seed ``seed``."""
        return self.build(k, str(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-start", "launches", True, _cold_start),
        Workload("channel-scan", "contraction checks", False, _channel_scan),
        Workload("defect-grid", "defect grid points", False, _defect_grid),
        Workload("gibbs-solve", "projections + potential points", False, _gibbs_solve),
    )
}


def op_seed(run_seed: int, workload: str, k: int) -> int:
    """CLI seed of op k; a fixed function of the run's seed."""
    digest = hashlib.sha256(f"{run_seed}:{workload}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % 1_000_000_000


def strip_wall_clock(text: str) -> str:
    return WALL_CLOCK.sub('"wall_clock_s":0', text)


# ---------------------------------------------------------------------------
# Re-checking records


def _band(value, tol, gap):
    if value <= tol:
        return "pass"
    if value >= gap:
        return "fail"
    return "inconclusive"


def _verdict(bands):
    if "fail" in bands:
        return "fail"
    if "inconclusive" in bands:
        return "inconclusive"
    return "pass"


def _bands_duality(cases):
    return [_band(c["defect"], POSITIVE_TOL, FALSIFICATION_GAP) for c in cases]


def _bands_uniqueness(cases):
    bands = []
    for c in cases:
        band = _band(c["defect"], POSITIVE_TOL, FALSIFICATION_GAP)
        if band != "inconclusive":
            band = "pass" if band == ("pass" if c["expected_dual"] else "fail") else "fail"
        bands.append(band)
    matched = [c for c in cases if c["expected_dual"] and "*" not in c["candidate"]]
    minimal = bool(matched) and all(matched[0]["defect"] <= c["defect"] for c in cases)
    if not minimal and _verdict(bands) == "pass":
        bands.append("fail")
    return bands


def _bands_monotonicity(cases):
    bands = []
    for c in cases:
        ok = c["min_margin"] >= -1e-9 and c["depolarizing_strict_fraction"] >= 0.99
        bands.append("fail" if not ok else "inconclusive" if c["inconclusive"] > 0 else "pass")
    return bands


def _bands_projection(cases):
    bands = []
    for c in cases:
        if c["instance"] >= 0:
            ok = c["mean_residual"] <= 1e-9 and c["orthogonality_residual"] <= 1e-6
        elif c["instance"] == -1:
            ok = c["mean_residual"] <= 1e-7
        else:
            ok = c["mean_residual"] <= 1e-4
        bands.append("pass" if ok else "fail")
    return bands


def _bands_potential(cases):
    return [
        "pass"
        if c["hessian_residual"] <= 1e-5
        and c["gradient_residual"] <= 1e-6
        and c["jacobian_residual"] <= 1e-5
        and c["legendre_residual"] <= 1e-5
        else "fail"
        for c in cases
    ]


_CONVEXITY_BOUNDS = {
    "diagonal_family_identity": ("<=", 1e-8),
    "noncommuting_witness_gap": (">=", 1e-4),
    "classical_fisher_reduction": ("<=", 1e-9),
    "bkm_not_dual_at_alpha": (">=", FALSIFICATION_GAP),
}


def _bands_convexity(cases):
    bands = []
    for c in cases:
        op, bound = _CONVEXITY_BOUNDS[c["check"]]
        ok = c["value"] <= bound if op == "<=" else c["value"] >= bound
        bands.append("pass" if ok else "fail")
    return bands


def _bands_transport(cases):
    return [_band(c["deviation"], 1e-9, 1e-4) for c in cases]


_BANDS = {
    "duality": _bands_duality,
    "uniqueness-scan": _bands_uniqueness,
    "monotonicity": _bands_monotonicity,
    "entropy-projection": _bands_projection,
    "potential": _bands_potential,
    "convexity-failure": _bands_convexity,
    "transport-duality": _bands_transport,
}


def _work(command, config, cases, n_families):
    if command == "monotonicity":
        return sum(c["trials"] for c in cases)
    if command == "duality":
        return len(cases) * int(config["points"])
    if command == "uniqueness-scan":
        return len(cases) * n_families * int(config["points"])
    if command == "entropy-projection":
        return sum(1 for c in cases if c["instance"] >= 0)
    if command == "potential":
        return len(cases) * int(config["points"])
    return 0


def check(workload: Workload, inv: Invocation, code: int, text: str, n_families: int) -> Outcome:
    """Check one invocation's exit code and records; count its work."""
    cmd = " ".join(inv.argv)
    try:
        records = [json.loads(line) for line in text.splitlines()]
        config, cases, summary = records[0], records[1:-1], records[-1]
        if config.get("record") != "config" or summary.get("record") != "summary":
            raise ValueError("stream does not open with config and close with summary")
        if any(c.get("record") != "case" for c in cases) or not cases:
            raise ValueError("no case records between config and summary")
        command = config["command"]
        bands = _BANDS[command](cases)
        work = 1 if workload.launches else _work(command, config, cases, n_families)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        last = text.strip().splitlines()[-1:] or [""]
        return Outcome(False, False, 0, f"{cmd}: unreadable records ({exc}); exit {code}, last line {last[0]!r}")
    verdict = _verdict(bands)
    consistent = (
        command == inv.argv[0]
        and summary.get("verdict") == verdict
        and summary.get("cases") == len(cases)
        and code == _EXIT[verdict]
    )
    ok = consistent and code == inv.expect
    if inv.expect == 1:  # a falsification run: every case must clear the gap
        ok = ok and all(b == "fail" for b in bands)
    problem = ""
    if not consistent:
        problem = f"{cmd}: exit {code} and verdict {summary.get('verdict')} disagree with re-checked {verdict}"
    elif code != inv.expect:
        problem = f"{cmd}: exit {code}, expected {inv.expect} (re-checked verdict {verdict})"
    elif not ok:
        problem = f"{cmd}: not every case clears the falsification gap (bands {bands})"
    return Outcome(ok, consistent, work, problem)
