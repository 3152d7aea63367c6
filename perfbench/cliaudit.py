"""The ``cli-audit`` workload: emit a report with the CLI, then re-verify it.

Set-up generates pairs from the sampling families and writes them as JSON
matrix files.  Each operation runs ``python -m psdorder.cli <cmd> ... --json``
as a subprocess, parses its stdout and re-checks it with
``cli.reverify_report``; the operation's latency covers all three, so a
report-format change that speeds emission but slows re-verification shows
here.  Jobs cycle through a fixed pool, so every job runs several times in a
run and its stdout must be byte-identical each time.

In a traced run the subprocess is `cli_shim.py` instead, which reports the
time the CLI spent loading, deciding and serializing, and the per-layer
counts of its own tracer; they are merged into the benchmark's.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import library

SMALL, LARGE = 32, 128


@dataclass
class Job:
    command: str
    files: dict  # flag -> path
    expected: dict = field(default_factory=dict)  # verdict fields fixed by construction


def _matrix_obj(m: np.ndarray) -> dict:
    n = m.shape[0]
    if np.any(m.imag != 0.0):
        data = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        return {"n": n, "complex": True, "data": data}
    return {"n": n, "complex": False, "data": [[float(z.real) for z in row] for row in m]}


def build_jobs(po, seed: int, workdir: Path) -> list[Job]:
    """Job pool: every command twice at n = 32, `inf` and `compress` also at n = 128."""
    s = po.sampling
    rng = s.rng_from_seed(seed)
    jobs: list[Job] = []

    def write(tag: str, m) -> str:
        path = workdir / f"{tag}.json"
        path.write_text(json.dumps(_matrix_obj(m)))
        return str(path)

    def add(command: str, pair, n: int, expected=None, with_t: bool = False) -> None:
        tag = f"{len(jobs):02d}_{command}"
        a, b = pair
        files = {"--a": write(tag + "_a", a), "--b": write(tag + "_b", b)}
        if with_t:
            files["--t"] = write(tag + "_t", a + b + np.eye(n))
        jobs.append(Job(command, files, expected or {}))

    def incomparable(n):
        return s.incomparable_pair(rng, n, bool(len(jobs) % 2))

    def witness_pair(n):
        # Ando's witness needs incomparable cores; pick a pair whose
        # construction guarantees it, so the command's precondition holds.
        while True:
            core = int(rng.integers(2, n - 1))
            pair = s.shared_core_pair(rng, n, core, bool(len(jobs) % 2), tails=True)
            if not library.shared_inf_exists(*pair, tails=True):
                return pair, core

    for _ in range(2):
        add("inf", incomparable(SMALL), SMALL)
        a = s.random_psd(rng, SMALL, rank=int(rng.integers(1, SMALL + 1)))
        add("leq", (a, a + s.random_psd(rng, SMALL, rank=1)), SMALL, {"leq": True})
        add("sup", incomparable(SMALL), SMALL, {"exists": False}, with_t=True)
        pair, core = witness_pair(SMALL)
        add("lebesgue", pair, SMALL, {"ac_rank": core, "sing_rank": 1})
        add("parsum", library.disjoint_pair(po, rng, SMALL, True), SMALL, {"rank": 0})
        add("kadison-witness", incomparable(SMALL), SMALL, {"constructed": True}, with_t=True)
        pair, _ = witness_pair(SMALL)
        add("ando-witness", pair, SMALL, {"constructed": True})
        add("compress", incomparable(SMALL), SMALL)
    # Complex at n = 128: an `inf` report there is about 10 MB, and its
    # serialization dominates the run.
    add("inf", s.incomparable_pair(rng, LARGE, True), LARGE)
    add("compress", s.incomparable_pair(rng, LARGE, True), LARGE)
    return jobs


def child_env(src: Path, **extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


@dataclass
class Outcome(library.Outcome):
    cli_wall: list = field(default_factory=list)
    reverify: list = field(default_factory=list)  # parse plus re-verification
    child_rss_mb: list = field(default_factory=list)


CLI = ("-m", "psdorder.cli")
SHIM = (str(Path(__file__).with_name("cli_shim.py")),)


@dataclass
class Emitted:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mb: float


def emit(entry: tuple, job: Job, env: dict, root: Path) -> Emitted:
    """Run one CLI job to completion."""
    argv = [sys.executable, *entry, job.command, *(x for kv in job.files.items() for x in kv), "--json"]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root)
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()  # a few lines at most, so reading it second cannot block
    # wait4, unlike Popen.wait, reports the child's own peak RSS.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Emitted(proc.returncode, out, err, wall, usage.ru_maxrss / 1024.0)


def job_order(jobs: list[Job], seed: int):
    """Endless (index, job) of the measured loop: seeded passes over the pool."""
    order = np.random.default_rng([seed, 3]).permutation(len(jobs))
    for j in itertools.count():
        index = int(order[j % len(jobs)])
        yield index, jobs[index]


def run(po, seed: int, seconds: float, root: Path, workdir: Path, tracer=None, setups: int = 5) -> Outcome:
    jobs, setup_s, gen_s = library.repeat_setup(lambda: build_jobs(po, seed, workdir), setups, tracer)
    env = child_env(root / "src")
    entry = CLI if tracer is None else SHIM
    schedule = job_order(jobs, seed)
    for _, job in itertools.islice(job_order(jobs, seed + 1), 2):  # warm page cache and bytecode
        emit(entry, job, env, root)

    out = Outcome([], Counter(), 0, 0, setup_s, pass_len=len(jobs))
    digests: dict[int, str] = {}
    traced = Counter()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        index, job = next(schedule)
        proc = emit(entry, job, env, root)
        wall = proc.wall_s
        reason = None
        if tracer is not None:
            eigh_before = tracer.eigh_calls
            tracer.begin_op()
        t0 = perf_counter()
        try:
            report = json.loads(proc.stdout)
            t1 = perf_counter()
            problems = po.cli.reverify_report(report)
        except (ValueError, KeyError, TypeError) as exc:
            t1 = perf_counter()
            report, problems, reason = None, [], f"unparsable:{type(exc).__name__}"
        t2 = perf_counter()
        out.latencies.append(wall + t2 - t0)
        out.cli_wall.append(wall)
        out.reverify.append(t2 - t0)
        out.child_rss_mb.append(proc.peak_rss_mb)

        digest = hashlib.sha256(proc.stdout).hexdigest()
        if proc.returncode != 0:
            reason = f"exit{proc.returncode}"
        elif reason is None:
            if problems:
                reason = "reverify"
            elif any(report["verdict"].get(k) != v for k, v in job.expected.items()):
                reason = "construction"
            elif digests.setdefault(index, digest) != digest:
                reason = "not_byte_identical"
        if reason is not None:
            out.failed += 1
            out.failures[f"{job.command}:{reason}"] += 1
            if proc.returncode == 0:
                out.wrong_at_reference += 1  # every job runs at the reference scale

        if tracer is not None:
            tracer.end_op(wall + t2 - t0)
            traced["reverify_eigh_calls"] += tracer.eigh_calls - eigh_before
            traced["parse_s"] += t1 - t0
            traced["reverify_s"] += t2 - t1
            traced["report_bytes"] += len(proc.stdout)
            if proc.returncode == 0:
                child = json.loads(proc.stderr.decode().strip().splitlines()[-1])
                tracer.merge(child.pop("trace"))
                traced.update(child)
    # The largest child of each whole pass over the jobs; one child's
    # allocator spike then moves the median of the passes by nothing.
    passes = [out.child_rss_mb[i : i + len(jobs)] for i in range(0, len(out.child_rss_mb), len(jobs))]
    whole = [max(p) for p in passes if len(p) == len(jobs)] or [max(out.child_rss_mb)]
    out.peak_rss_mb = statistics.median(whole)
    if tracer is not None:
        out.traced = {"gen_s": gen_s, "ops": len(out.latencies), **traced}
    return out


def replay(po, seed: int, root: Path, workdir: Path, ops: int) -> float:
    """Seconds the first ``ops`` measured operations take untraced, unchecked."""
    env = child_env(root / "src")
    total = 0.0
    for _, job in itertools.islice(job_order(build_jobs(po, seed, workdir), seed), ops):
        proc = emit(CLI, job, env, root)
        t0 = perf_counter()
        try:
            po.cli.reverify_report(json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError):
            pass  # counted as a failure in the measured pass
        total += proc.wall_s + perf_counter() - t0
    return total
