"""Benchmark of the qiglab command-line checks, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: one op at a time, each op
being the CLI invocations of one seed derived from ``--seed``. Timings are
reported in normalized seconds (see refkernel.py) with raw seconds beside
them. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
op untraced and traced, checks both give the same bytes, and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import tomllib
import traceback
from pathlib import Path

import numpy as np

import refkernel
import tracer as tracing
from workloads import WORKLOADS, check, op_seed, strip_wall_clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_LAUNCHES = 5
TAIL_BEYOND = 10
REPEAT_OP = -2  # op id of the repeated op 0's spans
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# Running ops


class Runner:
    """Runs one invocation in process or as a fresh interpreter."""

    def __init__(self, cli, env):
        self.cli = cli
        self.env = env
        self.peak_rss_mb = 0.0  # largest launched child

    def in_process(self, argv):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(argv))  # looked up now, so tracing sees it
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that crashes is a failed op, not a crashed run
            return -1, traceback.format_exc()
        return code, buf.getvalue()

    def launch(self, argv, traced=False):
        """Returns (exit code, stdout, child trace dump or None).

        The child's peak resident memory goes to ``peak_rss_mb``; it is read
        from the child's own rusage, so the reference and set-up launches,
        which also are children of this process, do not count.
        """
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_child.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "qiglab", *argv]
        with subprocess.Popen(cmd, env=self.env, cwd=str(ROOT), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            err = []
            drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            drain.start()
            out = proc.stdout.read()
            drain.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        dump = None
        if traced and err[0].strip():
            try:
                dump = json.loads(err[0].strip().splitlines()[-1])
            except ValueError:
                dump = None
        return proc.returncode, out, dump


def import_split(stderr):
    """numpy, scipy and qiglab import seconds from `-X importtime` output.

    numpy_s and scipy_s are the cumulative times of their outermost modules
    (numpy modules that scipy imports count as scipy); qiglab_s is what the
    outermost qiglab modules take beyond those two.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2  # "| " then 2 per level
        rows.append((depth, int(cumulative), name.strip().split(".")[0]))
    totals = {"numpy": 0, "scipy": 0, "qiglab": 0}
    stack = []
    for depth, cumulative, package in reversed(rows):  # parents come before children
        del stack[depth:]
        if package in totals and not set(stack) & ({package, "numpy", "scipy"}):
            totals[package] += cumulative
            if "qiglab" in stack:
                totals["qiglab"] -= cumulative
        stack.append(package)
    return {k: v * 1e-6 for k, v in totals.items()}


# ---------------------------------------------------------------------------
# Statistics


def tail(values):
    """(value, percentile): the highest whole percentile with >= 10 ops beyond it.

    Nearest-rank percentile. A run with 20 ops or fewer has no such
    percentile above the median, and reports the median (p50) instead, so
    the tail is never below op_p50_s.
    """
    xs = sorted(values)
    n = len(xs)
    p = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    if p == 50:
        return statistics.median(xs), p
    return xs[math.ceil(p * n / 100) - 1], p


# ---------------------------------------------------------------------------
# Run record


def run_record(args, norm, setup_raw, ops):
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "process_threads": threads,
        "src_lines": src_lines,
        "dependencies": len(deps),
        "kernel_nominal_s": {"compute": refkernel.NOMINAL_COMPUTE_S, "launch": refkernel.NOMINAL_LAUNCH_S},
        "kernel_raw_s": {"compute": norm.raw_compute, "launch": norm.raw_launch},
        "setup_raw_s": setup_raw,
        "op_raw_s": [op["wall"] for op in ops],
    }


# ---------------------------------------------------------------------------
# One workload


def run_workload(args):
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import qiglab.cli
    import qiglab.duality

    if Path(qiglab.__file__).resolve().parent != SRC / "qiglab":
        raise RuntimeError(f"imported qiglab from {qiglab.__file__}, not from {SRC}")
    n_families = sum(len(qiglab.duality.standard_witness_families(d, "state")) for d in (2, 3))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runner = Runner(qiglab.cli, env)
    norm = refkernel.Normalizer(env, str(ROOT))
    trace = bool(args.trace)

    # Set-up: fresh interpreters up to `import qiglab.cli`.
    setup_raw, setup_norm, imports = [], [], []
    for _ in range(SETUP_LAUNCHES):
        factor = norm.launch_factor()
        flags = ["-X", "importtime"] if trace else []
        seconds, stderr = refkernel.time_to_import("qiglab.cli", env, str(ROOT), flags)
        setup_raw.append(seconds)
        setup_norm.append(seconds * factor)
        if trace:
            imports.append(import_split(stderr))

    tracer = tracing.Tracer()
    ops = []  # one dict per op
    problems = []
    consistent = True

    def run_op(k, traced, span_op=None):
        """Time op k's invocations; returns (factor, wall, [(inv, code, text)]).

        Spans of a traced op carry op id ``span_op`` (default k).
        """
        span_op = k if span_op is None else span_op
        invs = workload.invocations(k, op_seed(args.seed, workload.name, k))
        factor = norm.launch_factor() if workload.launches else norm.in_process_factor()
        results = []
        t0 = time.perf_counter()
        if workload.launches:
            for inv in invs:
                code, text, dump = runner.launch(inv.argv, traced)
                results.append((inv, code, text))
                if traced and dump is not None:
                    tracer.extend(dump, span_op)
        elif traced:
            tracer.op_id = span_op
            with tracer.patched():
                results = [(inv, *runner.in_process(inv.argv)) for inv in invs]
        else:
            results = [(inv, *runner.in_process(inv.argv)) for inv in invs]
        wall = time.perf_counter() - t0
        if traced:
            for _, _, text in results:
                tracer.counters[span_op, "cli.bytes_out"] += len(text.encode())
        return factor, wall, results

    def texts(results):
        return [strip_wall_clock(text) for _, _, text in results]

    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        factor, wall, results = run_op(k, traced=False)
        op = {"factor": factor, "wall": wall, "ok": True, "consistent": True, "work": 0}
        for inv, code, text in results:
            outcome = check(workload, inv, code, text, n_families)
            op["ok"] &= outcome.ok
            op["consistent"] &= outcome.consistent
            op["work"] += outcome.work
            if outcome.problem:
                problems.append(f"op {k}: {outcome.problem}")
        if trace:
            t_factor, t_wall, t_results = run_op(k, traced=True)
            op["traced"] = t_wall * t_factor
            op["traced_factor"] = t_factor
            if texts(t_results) != texts(results):
                op["consistent"] = op["ok"] = False
                problems.append(f"op {k}: traced output differs from untraced output")
        if k == 0:
            first = texts(results)
        ops.append(op)
        k += 1

    # Criterion 9: op 0 again, byte-identical apart from wall_clock_s. In a
    # traced run the repeat is traced too and its layer counts must match.
    _, _, again = run_op(0, traced=trace, span_op=REPEAT_OP)
    if texts(again) != first:
        ops[0]["consistent"] = ops[0]["ok"] = False
        problems.append("op 0 repeated: output differs from the first run")
    per_op = None
    if trace:
        per_op = tracer.per_op({i: op["traced_factor"] for i, op in enumerate(ops)})
        counted = [n for n in per_op[0] if n.endswith(".calls") or n.startswith("duality.newton")]
        mismatched = [n for n in counted if per_op[0][n] != per_op[REPEAT_OP].get(n)]
        if mismatched or set(per_op[REPEAT_OP]) - set(per_op[0]):
            consistent = False
            problems.append(f"op 0 traced twice: counts differ for {sorted(mismatched)}")

    record = run_record(args, norm, setup_raw, ops)
    print("run_record " + json.dumps(record))
    for p in problems:
        print("problem " + p)
    consistent &= all(op["consistent"] for op in ops)
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["consistent"])
    missed = sum(1 for op in ops if op["consistent"] and not op["ok"])
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.start)} spans)")
        metrics = layer_metrics(ops, per_op, imports)
    else:
        metrics = end_to_end(workload, runner, ops, setup_raw, setup_norm)
    print(f"fail_frac    {(missed + failed) / attempted:.6g}  ({missed} of {attempted} ops missed an "
          f"acceptance bound or expected exit code, {failed} gave wrong output)")
    print(json.dumps({"correct": consistent, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(workload, runner, ops, setup_raw, setup_norm):
    raw = [op["wall"] for op in ops]
    normed = [op["wall"] * op["factor"] for op in ops]
    work = sum(op["work"] for op in ops)
    tail_norm, pct = tail(normed)
    tail_raw, _ = tail(raw)
    if workload.launches:
        rss_mb = runner.peak_rss_mb
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(ops)
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s", statistics.median(setup_raw)),
        "op_p50_s": (statistics.median(normed), "s", statistics.median(raw)),
        "op_tail_s": (tail_norm, "s", tail_raw),
        "work_per_s": (work / sum(normed), "1/s", work / sum(raw)),
        "peak_rss_mb": (rss_mb, "MB", None),
    }
    print(f"workload {workload.name}: {n} ops, {work} {workload.unit}")
    for name, (value, unit, raw_value) in metrics.items():
        beside = f"  (raw {raw_value:.6g} {unit})" if raw_value is not None else ""
        print(f"{name:<12} {value:.6g} {unit}{beside}")
    beyond = sum(1 for x in normed if x > tail_norm)
    print(f"op_tail_s is p{pct} of {n} ops ({beyond} beyond it); work_per_s counts {workload.unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def layer_metrics(ops, per_op, imports):
    n = len(ops)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        for suffix, unit in ((".calls", "count"), (".self_s", "s")):
            total = sum(per_op[i].get(name + suffix, 0.0) for i in range(n))
            metrics[name + suffix] = {"value": total / n, "unit": unit}
    for name in tracing.COUNTER_NAMES:
        unit = "B" if name == "cli.bytes_out" else "count"
        metrics[name] = {"value": sum(per_op[i].get(name, 0.0) for i in range(n)) / n, "unit": unit}
    for package in ("numpy", "scipy", "qiglab"):
        value = statistics.median(split[package] for split in imports)
        metrics[f"setup.import.{package}_s"] = {"value": value, "unit": "s"}
    overhead = sum(op["traced"] for op in ops) / sum(op["wall"] * op["factor"] for op in ops)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    metrics["check.fail_frac"] = {"value": sum(1 for op in ops if not op["ok"]) / n, "unit": "ratio"}
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    return metrics


# ---------------------------------------------------------------------------
# Entry point


def run_all(args):
    """Every workload in its own process, so peak memory stays per workload."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qiglab" / "cli.py").is_file():
        print(f"error: no qiglab sources at {SRC}; run from a qiglab checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
