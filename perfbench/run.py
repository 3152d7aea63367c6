"""psdorder benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload small-batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; psdorder is imported from ``src/``
only.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass plus its overhead against an untraced
replay of the same operations.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the sample counts, failure reasons and the environment stamp.
``--selfcheck`` checks the tracer against the eigendecomposition counts of
the seed commit and exits non-zero on a mismatch.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import cliaudit
import library
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("small-batch", "dense", "cli-audit")
# Standard percentiles for the tail.  99.9 is left out: with the ~10 samples
# beyond it that a run yields, it moved by 20% between runs on a shared
# 2-core machine, while 99 moved by 5%.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

# np.linalg.eigh calls per operation at the seed commit, on the
# instances of `selfcheck`.  Kadison's witness takes its shared-range
# branch there and calls `strength` twice through lattice's own binding.
SEED_EIGH_COUNTS = {
    "comparable": 2,
    "strength": 1,
    "ac_part": 3,
    "parallel_sum": 1,
    "inf_exists:exists": 10,
    "inf_exists:witness": 18,
    "kadison_witness": 12,
}
SEED_KADISON_STRENGTH_CALLS = 2


def import_psdorder():
    if not (SRC / "psdorder" / "__init__.py").is_file():
        sys.exit(f"benchmark: no psdorder sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import psdorder
    import psdorder.cli  # noqa: F401 - traced runs wrap its bindings too
    import psdorder.sampling  # noqa: F401

    if SRC.resolve() not in Path(psdorder.__file__).resolve().parents:
        sys.exit(f"benchmark: psdorder was imported from {psdorder.__file__}, not {SRC}")
    return psdorder


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail(latencies: list) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it, and its value."""
    n = len(latencies)
    p = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0), 50.0)
    return p, float(np.percentile(latencies, p))


def end_to_end(out) -> tuple[dict, dict]:
    lat = out.latencies
    p, tail_s = tail(lat)
    n = len(lat)
    # Throughput over whole passes of the schedule, so every run weighs the
    # operations (or CLI jobs) in the same proportions.
    whole = n - n % out.pass_len if n >= out.pass_len else n
    metrics = {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "ops_per_s": (whole / sum(lat[:whole]), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": ((n - out.failed) / n, "ratio"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }
    samples = {name: n for name in metrics}
    samples.update(ops_per_s=whole, setup_s=len(out.setup_s), peak_rss_mb=1)
    detail = {"tail_percentile": p, "failed_ratio": out.failed / n, "failures": out.failures}
    if isinstance(out, cliaudit.Outcome):
        samples["peak_rss_mb"] = max(1, whole // out.pass_len)  # one per whole pass
        # Shown beside the result: the result line carries only metrics that
        # every workload has.
        detail["cli_wall_p50_ms"] = statistics.median(out.cli_wall) * 1e3
        detail["reverify_p50_ms"] = statistics.median(out.reverify) * 1e3
        samples.update(cli_wall_p50_ms=n, reverify_p50_ms=n)
    detail["samples"] = samples
    return metrics, detail


def selfcheck(po) -> dict:
    """eigh calls per operation on fixed 2x2 instances, against the seed counts."""
    a, b, c = np.diag([2.0, 1.0]), np.diag([1.0, 2.0]), np.diag([1.0, 1.0])
    cases = {
        "comparable": lambda: po.comparable(a, b),
        "strength": lambda: po.strength(a, np.ones(2)),
        "ac_part": lambda: po.ac_part(b, a),
        "parallel_sum": lambda: po.parallel_sum(a, b),
        "inf_exists:exists": lambda: po.inf_exists(a, c),
        "inf_exists:witness": lambda: po.inf_exists(a, b),
        "kadison_witness": lambda: po.kadison_witness(a, b, a + b + np.eye(2)),
    }
    tracer = Tracer("psdorder", po.ToleranceBreakdownError)
    tracer.install()
    observed = {}
    try:
        for name, fn in cases.items():
            tracer.reset()
            tracer.begin_op()
            fn()
            tracer.end_op(0.0)
            observed[name] = tracer.eigh_calls
        kadison_strength = tracer.layer_calls("strength")
    finally:
        tracer.uninstall()
    return {
        "eigh_calls": observed,
        "kadison_strength_calls": kadison_strength,
        "matches_seed": observed == SEED_EIGH_COUNTS
        and kadison_strength == SEED_KADISON_STRENGTH_CALLS,
    }


def probe_seconds(code: str, env: dict, repeats: int = 5) -> float:
    """Median wall seconds of ``python -c code``."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def traced_run(po, workload: str, seed: int, seconds: float, workdir: Path):
    tracer = Tracer("psdorder", po.ToleranceBreakdownError)
    tracer.install()
    try:
        if workload == "cli-audit":
            out = cliaudit.run(po, seed, seconds, ROOT, workdir, tracer)
        else:
            out = library.run(po, workload, seed, seconds, tracer)
    finally:
        tracer.uninstall()
    ops = out.traced["ops"]
    if workload == "cli-audit":
        untraced = cliaudit.replay(po, seed, ROOT, workdir, ops)
    else:
        untraced = library.replay(po, workload, seed, ops)

    metrics = tracer.metrics()
    metrics["sampling.gen_s"] = (out.traced["gen_s"], "s")
    env = cliaudit.child_env(SRC)
    metrics["cli.interpreter_s"] = (probe_seconds("pass", env), "s")
    metrics["cli.import_s"] = (probe_seconds("import psdorder.cli", env), "s")
    cli_ops = ops if workload == "cli-audit" else 0
    per_op = {
        "cli.load_s_per_op": ("load_s", "s"),
        "cli.decide_s_per_op": ("decide_s", "s"),
        "cli.serialize_s_per_op": ("serialize_s", "s"),
        "cli.report_bytes_per_op": ("report_bytes", "bytes"),
        "cli.parse_s_per_op": ("parse_s", "s"),
        "cli.reverify_s_per_op": ("reverify_s", "s"),
        "cli.reverify_eigh_calls_per_op": ("reverify_eigh_calls", "count"),
    }
    for name, (key, unit) in per_op.items():
        metrics[name] = (out.traced.get(key, 0.0) / cli_ops if cli_ops else 0.0, unit)
    metrics["trace.slowdown_ratio"] = (tracer.op_s / untraced, "ratio")

    samples = {name: ops for name in metrics}
    samples.update({"sampling.gen_s": len(out.setup_s), "cli.interpreter_s": 5, "cli.import_s": 5})
    detail = {
        "samples": samples,
        "traced_s": tracer.op_s,
        "untraced_replay_s": untraced,
        "layer_calls": {f"{lay}.{fn}": n for (lay, fn), n in sorted(tracer.calls.items())},
        "tracer_selfcheck": selfcheck(po),
        "failures": out.failures,
    }
    if workload == "dense":
        detail["single_thread_dense"] = single_thread_dense(seed, seconds)
    return out, metrics, detail


def single_thread_dense(seed: int, seconds: float) -> dict:
    """The untraced dense workload in a child with OPENBLAS_NUM_THREADS=1."""
    env = cliaudit.child_env(SRC, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", "dense"]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT, check=True, timeout=170)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2])["env"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    po = import_psdorder()

    if args.selfcheck:
        result = selfcheck(po)
        print(json.dumps(result, sort_keys=True))
        return 0 if result["matches_seed"] else 1
    if args.workload is None:
        parser.error("--workload is required")

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            out, metrics, detail = traced_run(po, args.workload, args.seed, args.seconds, workdir)
        elif args.workload == "cli-audit":
            out = cliaudit.run(po, args.seed, args.seconds, ROOT, workdir)
            metrics, detail = end_to_end(out)
        else:
            out = library.run(po, args.workload, args.seed, args.seconds)
            metrics, detail = end_to_end(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = len(out.latencies)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        wrong_at_reference=out.wrong_at_reference,
        env=environment(),
    )
    shown = dict(metrics)
    for name in ("cli_wall_p50_ms", "reverify_p50_ms"):
        if name in detail:
            shown[name] = (detail[name], "ms")
    for name, (value, unit) in shown.items():
        note = f" percentile={detail['tail_percentile']}" if name == "latency_tail_ms" else ""
        print(f"{name:34s} {value:16.6g} {unit:6s} samples={detail['samples'][name]}{note}")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": out.wrong_at_reference == 0,
        "attempted": attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
