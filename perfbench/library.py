"""In-process library workloads: ``small-batch`` and ``dense``.

Each workload is a closed loop with one caller.  Operation ``j`` takes base
instance ``j mod P`` from a pool built at set-up, conjugates it by a fresh
diagonal unitary (random phases, or random signs for real instances) so no
two operations see the same bytes, multiplies it by ``2^k`` and calls one of
`OPS` in round-robin order.  Scaling by ``2^k`` is exact in floating point,
conjugation keeps the matrices exactly Hermitian, and neither changes a
verdict mathematically, so each result is checked against

* the claims its verdict implies (bounds, incomparability, sum identities),
  tested with plain numpy, independent of psdorder;
* the verdict fixed by the instance's construction, where it is fixed;
* the verdict of the same operation on the same instance at scale 1 (the
  reference), when the reference returns one.  A reference result that
  fails a check is a wrong output, and the run is reported incorrect.

Checks run outside the timed region.  A failed check or an exception fails
the operation; nothing is filtered.
"""

from __future__ import annotations

import itertools
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

OPS = (
    "comparable",
    "strength",
    "ac_part",
    "parallel_sum",
    "inf_exists",
    "kadison_witness",
    "form_inf_exists",
)
FAMILIES = ("incomparable", "comparable", "shared_tails", "shared", "disjoint")


@dataclass(frozen=True)
class Spec:
    dims: tuple[int, ...]
    max_exp: int  # operation inputs are scaled by 2^k, k uniform in [-max_exp, max_exp]
    per_combo: int  # base instances per (family, dim, real/complex)


SPECS = {
    "small-batch": Spec(dims=(2, 3, 4, 5, 6), max_exp=20, per_combo=20),
    "dense": Spec(dims=(128,), max_exp=0, per_combo=2),
}

# Relative tolerances of the benchmark's own checks: far looser than the
# library's (rel 1e-10), so only genuinely wrong results trip them.
PSD_TOL = 1e-8
RANK_TOL = 1e-6


@dataclass
class Instance:
    family: str
    n: int
    a: np.ndarray
    b: np.ndarray
    f: np.ndarray  # ray inside the range of a
    ranks: dict  # ranks fixed by construction
    complex_entries: bool
    expected: dict | None = None  # filled on first check


def build_pool(po, spec: Spec, seed: int) -> list[Instance]:
    """Base instances from the library's own sampling families."""
    rng = po.sampling.rng_from_seed(seed)
    pool = []
    for _ in range(spec.per_combo):
        for n in spec.dims:
            for cplx in (False, True):
                for family in FAMILIES:
                    pool.append(_instance(po, rng, family, n, cplx))
    return pool


def disjoint_pair(po, rng, n: int, cplx: bool):
    """`disjoint_projector_pair`, drawn again while the sampler rejects its draw.

    The sampler picks the two ranks first and raises when it finds no pair
    of well-separated ranges for them, which happens at n = 128 when the
    ranks nearly fill the space.
    """
    for _ in range(20):
        try:
            return po.sampling.disjoint_projector_pair(rng, n, cplx)
        except po.MatrixError:
            continue
    return po.sampling.disjoint_projector_pair(rng, n, cplx)


def _instance(po, rng, family: str, n: int, cplx: bool) -> Instance:
    s = po.sampling
    ranks: dict = {}
    if family == "incomparable":
        a, b = s.incomparable_pair(rng, n, cplx)
    elif family == "comparable":
        ranks["a"] = int(rng.integers(1, n + 1))
        a = s.random_psd(rng, n, rank=ranks["a"], complex_entries=cplx)
        b = a + s.random_psd(rng, n, rank=1, complex_entries=cplx)
    elif family == "shared_tails":
        n = max(n, 3)
        ranks["core"] = int(rng.integers(1, n - 1))
        a, b = s.shared_core_pair(rng, n, ranks["core"], cplx, tails=True)
    elif family == "shared":
        ranks["core"] = int(rng.integers(1, n + 1))
        a, b = s.shared_core_pair(rng, n, ranks["core"], cplx, tails=False)
    else:
        a, b = disjoint_pair(po, rng, n, cplx)
        ranks["b"] = int(round(float(np.trace(b).real)))
    f = s.random_ray_in_range(rng, a, cplx)
    return Instance(family, a.shape[0], a, b, f, ranks, cplx)


@dataclass
class Prepared:
    a: np.ndarray
    b: np.ndarray
    t: np.ndarray
    f: np.ndarray


def prepare(inst: Instance, rng: np.random.Generator, k: int) -> tuple[Prepared, Prepared]:
    """The instance under a fresh diagonal unitary, at scale ``2^k`` and at scale 1."""
    if inst.complex_entries:
        d = np.exp(2j * np.pi * rng.random(inst.n))
    else:
        d = rng.choice((-1.0, 1.0), size=inst.n).astype(np.complex128)
    dd = np.outer(d, d.conj())
    a = inst.a * dd
    b = inst.b * dd
    ref = Prepared(a, b, a + b + np.eye(inst.n), d * inst.f)
    if k == 0:
        return ref, ref
    s = 2.0**k
    return Prepared(s * a, s * b, s * ref.t, ref.f), ref


def call(po, op: str, x: Prepared):
    # Resolve through the package on every call so traced runs see it.
    if op == "comparable":
        return po.comparable(x.a, x.b)
    if op == "strength":
        return po.strength(x.a, x.f)
    if op == "ac_part":
        return po.ac_part(x.b, x.a)
    if op == "parallel_sum":
        return po.parallel_sum(x.a, x.b)
    if op == "inf_exists":
        return po.inf_exists(x.a, x.b)
    if op == "kadison_witness":
        return po.kadison_witness(x.a, x.b, x.t)
    if op == "form_inf_exists":
        return po.form_inf_exists(po.SesquilinearForm(x.a), po.SesquilinearForm(x.b))
    raise ValueError(op)


# -- independent checks -----------------------------------------------------


def _eigvals(m) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def _scale(*ms) -> float:
    return max(float(np.max(np.abs(_eigvals(m)))) for m in ms)


def _rank(m, sc: float) -> int:
    return int(np.count_nonzero(np.abs(_eigvals(m)) > RANK_TOL * sc))


def _psd(m, sc: float) -> bool:
    return bool(_eigvals(m)[0] >= -PSD_TOL * sc)


def _strictly_incomparable(x, y) -> bool:
    w = _eigvals(y - x)
    return bool(w[0] < 0.0 < w[-1])


def _one_sided(diff, sc: float) -> bool:
    """True unless ``diff`` has eigenvalues clearly on both sides of zero."""
    w = _eigvals(diff)
    return not (w[0] < -RANK_TOL * sc and w[-1] > RANK_TOL * sc)


def _range_basis(m, sc: float) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return v[:, w > RANK_TOL * sc]


def shared_inf_exists(a, b, tails: bool) -> bool:
    """Ando's criterion on the common core of a `shared_core_pair`.

    The absolutely continuous parts are the compressions of ``a`` and ``b``
    to ``ran a  cap  ran b``, which is the shared core by construction.
    """
    sc = _scale(a, b)
    if not tails:
        return _one_sided(b - a, sc)
    pa = _range_basis(a, sc)
    pb = _range_basis(b, sc)
    w, v = np.linalg.eigh(pa @ pa.conj().T + pb @ pb.conj().T)
    core = v[:, w > 2.0 - RANK_TOL]
    return _one_sided(core.conj().T @ (b - a) @ core, sc)


def expected_verdicts(inst: Instance) -> dict:
    """Verdicts fixed by how the instance was constructed."""
    fam, r = inst.family, inst.ranks
    exp: dict = {"strength": True, "kadison_witness": True}
    if fam == "comparable":
        exp["comparable"] = "leq"
        exp["inf_exists"] = True
        exp["ac_part"] = (r["a"], 0 if r["a"] == inst.n else 1)
        exp["parallel_sum"] = r["a"]
    elif fam in ("incomparable", "shared_tails", "disjoint"):
        exp["comparable"] = "incomparable"
    if fam == "disjoint":
        exp["inf_exists"] = True
        exp["ac_part"] = (0, r["b"])
        exp["parallel_sum"] = 0
    if fam in ("shared", "shared_tails"):
        exp["inf_exists"] = shared_inf_exists(inst.a, inst.b, tails=fam == "shared_tails")
        exp["ac_part"] = (r["core"], 1 if fam == "shared_tails" else 0)
        exp["parallel_sum"] = r["core"]
    if "inf_exists" in exp:
        exp["form_inf_exists"] = exp["inf_exists"]
    return exp


def verdict(op: str, res, x: Prepared):
    if op == "comparable":
        return res.value
    if op == "strength":
        return res.value > 0.0
    if op == "ac_part":
        sc = _scale(x.b)
        return (_rank(res.ac, sc), _rank(res.sing, sc))
    if op == "parallel_sum":
        return _rank(res, _scale(x.a, x.b))
    if op == "inf_exists":
        return bool(res.exists)
    if op == "kadison_witness":
        return True
    return bool(res)


def claims_hold(op: str, res, x: Prepared) -> bool:
    """The claims the result's verdict implies, checked with numpy alone."""
    a, b = x.a, x.b
    sc = _scale(a, b)
    if op == "comparable":
        v = res.value
        if v == "incomparable":
            return _strictly_incomparable(a, b)
        return (v == "geq" or _psd(b - a, sc)) and (v == "leq" or _psd(a - b, sc))
    if op == "strength":
        lam = res.value
        if lam < 0.0:
            return False
        if lam == 0.0:
            return True
        wn = float(np.vdot(res.witness, res.witness).real)
        return (
            abs(lam * wn - 1.0) <= 1e-8
            and abs(lam * res.constant - 1.0) <= 1e-8
            and _psd(a - lam * np.outer(x.f, x.f.conj()), sc)
        )
    if op == "ac_part":
        sum_ok = float(np.max(np.abs(res.ac + res.sing - b))) <= PSD_TOL * sc
        return sum_ok and _psd(res.ac, sc) and _psd(res.sing, sc) and _psd(b - res.ac, sc)
    if op == "parallel_sum":
        return _psd(res, sc) and _psd(a - res, sc) and _psd(b - res, sc)
    if op == "inf_exists":
        c = res.candidate
        ok = _psd(a - c, sc) and _psd(b - c, sc)
        if res.exists:
            return ok and _psd(a - res.inf, sc) and _psd(b - res.inf, sc)
        d = res.witness
        return (
            ok
            and _psd(d, sc)
            and _psd(a - d, sc)
            and _psd(b - d, sc)
            and _strictly_incomparable(d, c)
        )
    if op == "kadison_witness":
        sct = _scale(x.t)
        return _psd(res - a, sct) and _psd(res - b, sct) and _strictly_incomparable(res, x.t)
    return True


def check(op: str, inst: Instance, x: Prepared, res) -> tuple[str | None, object]:
    """Failure reason for one result (None when it passes) and its verdict."""
    if not claims_hold(op, res, x):
        return "claim", None
    v = verdict(op, res, x)
    if inst.expected is None:
        inst.expected = expected_verdicts(inst)
    exp = inst.expected.get(op)
    if exp is not None and v != exp:
        return "construction", v
    return None, v


# -- the closed loop --------------------------------------------------------


@dataclass
class Outcome:
    latencies: list
    failures: Counter  # "operation:reason" -> count
    failed: int
    wrong_at_reference: int  # results at scale 1 that fail a check
    setup_s: list
    pass_len: int = len(OPS)  # operations in one pass of the schedule
    peak_rss_mb: float = 0.0
    traced: dict = field(default_factory=dict)


def repeat_setup(build, setups: int, tracer=None):
    """Run ``build`` ``setups`` times; its last result, each run's seconds, and
    (traced) the median seconds spent in the sampling layer."""
    seconds, gen_s = [], []
    for _ in range(setups):
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        t0 = perf_counter()
        result = build()
        seconds.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
            gen_s.append(tracer.top_s["sampling"])
    if tracer is not None:
        tracer.reset()
    return result, seconds, (statistics.median(gen_s) if gen_s else None)


def schedule(pool: list[Instance], spec: Spec, seed: int):
    """Endless (instance, operation, k, input, scale-1 reference) of the measured loop."""
    rng = np.random.default_rng([seed, 2])
    for j in itertools.count():
        inst = pool[j % len(pool)]
        k = int(rng.integers(-spec.max_exp, spec.max_exp + 1))
        x, ref = prepare(inst, rng, k)
        yield inst, OPS[j % len(OPS)], k, x, ref


def run(po, workload: str, seed: int, seconds: float, tracer=None, setups: int = 5) -> Outcome:
    spec = SPECS[workload]
    pool, setup_s, gen_s = repeat_setup(lambda: build_pool(po, spec, seed), setups, tracer)

    # Warm caches and lazy imports on inputs the measured loop does not use.
    warm = np.random.default_rng([seed, 1])
    for j, op in enumerate(OPS):
        x, _ = prepare(pool[j], warm, 0)
        try:
            call(po, op, x)
        except Exception:  # noqa: BLE001 - warm-up only; measured ops are checked
            pass

    out = Outcome([], Counter(), 0, 0, setup_s)
    deadline = perf_counter() + seconds
    for inst, op, k, x, ref in schedule(pool, spec, seed):
        if perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            res = call(po, op, x)
            err = None
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            res, err = None, type(exc).__name__
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.end_op(dt)
        out.latencies.append(dt)

        reason, v = (err, None) if err else check(op, inst, x, res)
        if k == 0:
            ref_err, ref_reason, ref_v = err, reason, v
        else:
            try:
                ref_err, (ref_reason, ref_v) = None, check(op, inst, ref, call(po, op, ref))
            except Exception as exc:  # noqa: BLE001 - the measured operation is judged alone
                ref_err, ref_reason, ref_v = type(exc).__name__, None, None
        if ref_reason is not None and ref_err is None:
            out.wrong_at_reference += 1
        elif reason is None and ref_err is None and v != ref_v:
            reason = "scale"
        if reason is not None:
            out.failed += 1
            out.failures[f"{op}:{reason}"] += 1
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out.traced = {"gen_s": gen_s, "ops": len(out.latencies)}
    return out


def replay(po, workload: str, seed: int, ops: int) -> float:
    """Seconds spent in the first ``ops`` measured operations, untraced and unchecked."""
    spec = SPECS[workload]
    total = 0.0
    for _, op, _, x, _ in itertools.islice(schedule(build_pool(po, spec, seed), spec, seed), ops):
        t0 = perf_counter()
        try:
            call(po, op, x)
        except Exception:  # noqa: BLE001 - failures were counted in the measured pass
            pass
        total += perf_counter() - t0
    return total
