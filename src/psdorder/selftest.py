"""The invariant catalogue: every randomized check of the paper's claims.

Each entry of `CATALOGUE` names its suite (the part of its name before the
dot), a sampler ``(rng, trial) -> instance`` and a check ``(tally,
*instance)`` that records each verdict with ``tally(ok, label)``.  Every
sampler has one instance stream: `run_selftest` runs each entry on its own
seed (``psdorder selftest``), the acceptance suite runs groups of entries at
each criterion's seed and trial count, and the unit tests run single entries
under pytest.  Bounds live in the checks and nowhere else.  A name with a
third part, such as ``lattice.infimum.incomparable``, runs the check of
``lattice.infimum`` on a further instance family.

Each oracle is independent of the route it checks, not of `core` as a
whole.  SVD-based `numpy.linalg.pinv` and the eigenvalue helpers `eig_scale`
and `min_eig` call numpy alone.  Bisection (`_bisect_strength`) reads
`core.eig_hermitian` for its bracket and `core.is_psd` verdicts, but not
`strength`'s range test or closed form.  The parallel-sum limit at ``2^30``
(`_graded_parallel_sum`) calls numpy alone and cuts ranks at machine
precision, not by the `Tolerance` and principal angles that `lebesgue.ac_part`
and `lebesgue.parallel_sum` read.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import core, forms, lattice, lebesgue, sampling
from .core import DEFAULT_TOL, MatrixError, Tolerance
from .sampling import incomparable_pair, random_psd, random_ray_in_range, random_vector
from .strength import order_witness, strength

__all__ = [
    "CATALOGUE",
    "Invariant",
    "Tally",
    "check_invariants",
    "eig_scale",
    "min_eig",
    "run_selftest",
]

_MAX_RECORDED_FAILURES = 8


def eig_scale(*mats) -> float:
    """max(1, largest |eigenvalue|) over Hermitian operands, by numpy alone."""
    vals = [1.0]
    for m in mats:
        a = np.asarray(m)
        if a.size:
            vals.append(float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (a + a.conj().T))))))
    return max(vals)


def min_eig(m) -> float:
    """Smallest eigenvalue of the Hermitian part, by numpy alone."""
    a = np.asarray(m)
    return float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])


@dataclass
class Tally:
    """Counts checks; while a check runs, it also carries the trial's context.

    ``labels`` counts the passes of each label, so a caller can tell which
    branches an instance stream reached.
    """

    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    labels: Counter = field(default_factory=Counter)
    entry: str = ""
    t: int = 0
    rng: np.random.Generator | None = None
    tol: Tolerance = DEFAULT_TOL

    def __call__(self, ok, label: str) -> None:
        if ok:
            self.passed += 1
            self.labels[label] += 1
        else:
            self.failed += 1
            if len(self.failures) < _MAX_RECORDED_FAILURES:
                self.failures.append(f"{self.entry} trial {self.t}: {label}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class Invariant:
    name: str
    sample: Callable
    check: Callable

    @property
    def suite(self) -> str:
        return self.name.partition(".")[0]


CATALOGUE: dict[str, Invariant] = {}


def _entry(name: str, sample: Callable):
    def register(check):
        CATALOGUE[name] = Invariant(name, sample, check)
        return check

    return register


def check_invariants(
    names,
    rng,
    trials: int,
    tol: Tolerance = DEFAULT_TOL,
    tally: Tally | None = None,
) -> Tally:
    """Run the named entries on one stream of ``trials`` instances from ``rng``.

    The entries must share a sampler.  Each trial draws one instance and
    every entry checks it in the given order, so checks that draw further
    values (rays, minorants) consume the generator in a fixed sequence.
    """
    entries = [CATALOGUE[name] for name in names]
    sample = entries[0].sample
    if any(e.sample is not sample for e in entries):
        raise ValueError(f"entries {list(names)} do not share a sampler")
    tally = tally if tally is not None else Tally(entries[0].suite)
    tally.rng, tally.tol = rng, tol
    for t in range(trials):
        instance = sample(rng, t)
        tally.t = t
        for e in entries:
            tally.entry = e.name
            e.check(tally, *instance)
    return tally


def run_selftest(seed: int = 0, trials: int = 20, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Run every catalogue entry; returns a summary dictionary.

    ``trials`` is the number of seeded instances per entry (at least 1).
    Entry ``i`` draws from a generator seeded with ``seed + i``, so entries
    are independent of each other.  Checks are counted per suite.
    """
    if trials < 1:
        raise MatrixError("trials must be at least 1")
    suites = {e.suite: Tally(e.suite) for e in CATALOGUE.values()}
    for index, e in enumerate(CATALOGUE.values()):
        check_invariants([e.name], sampling.rng_from_seed(seed + index), trials, tol, suites[e.suite])
    passed = sum(s.passed for s in suites.values())
    failed = sum(s.failed for s in suites.values())
    return {
        "command": "selftest",
        "seed": seed,
        "trials": trials,
        "tolerance": {"rel": tol.rel, "abs": tol.abs},
        "passed": passed,
        "failed": failed,
        "ok": failed == 0,
        "suites": [s.as_dict() for s in suites.values()],
    }


def _close(x, y, bound) -> bool:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) <= bound


def _lam(a, f, tol: Tolerance) -> float:
    return strength(a, f, tol).value


def _pos_part(m):
    return core.eig_hermitian(m).apply(lambda w: np.clip(w, 0.0, None))


def _bisect_strength(a, f, tol: Tolerance = DEFAULT_TOL) -> float:
    """Strength located by 60 bisection steps on ``t -> is_psd(a - t f f*)``.

    The oracle of ``strength.bisection``: independent of the closed form in
    `strength`, it only consumes PSD verdicts.  The bracket
    ``[0, max_eig(a) / ||f||^2 + 1]`` always straddles the supremum.
    """
    v = core.as_vector(f)
    ff = core.rank_one(v)  # rejects f = 0
    dec = core.eig_hermitian(a, tol)
    hi = max(float(dec.eigenvalues[-1]), 0.0) / float(np.linalg.norm(v)) ** 2 + 1.0
    lo = 0.0
    h = dec.reconstruct()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if core.is_psd(h - mid * ff, tol):
            lo = mid
        else:
            hi = mid
    return lo


def _dominates(a, b, tol: Tolerance = DEFAULT_TOL, samples: int = 20, seed: int = 0) -> bool:
    """Whether strength functions put ``a`` below ``b``: ``strength(a, f) <= strength(b, f)``.

    The oracle of ``strength.dominance`` and ``strength.order_witness``.  If
    `order_witness` finds a ray, that ray decides: dominance fails iff it
    shows a strict gap.  Otherwise each of ``samples`` rays drawn from
    ``default_rng(seed)`` (real for a real pair, every other one in ``ran a``)
    must satisfy it to ``1e-8`` relative.
    """
    if samples < 1:  # an empty sample would vouch for any pair
        raise MatrixError("samples must be at least 1")
    da, db = core.eig_hermitian(a, tol), core.eig_hermitian(b, tol)
    ha, ray = da.matrix, order_witness(da, db, tol)
    if ray is not None:
        return not _lam(da, ray, tol) > _lam(db, ray, tol)
    rng = np.random.default_rng(seed)
    cplx = np.iscomplexobj(da.vectors) or np.iscomplexobj(db.vectors)
    for k in range(samples):
        g = rng.standard_normal(da.n)
        if cplx:
            g = g + 1j * rng.standard_normal(da.n)
        f = ha @ g if k % 2 else g
        if float(np.linalg.norm(f)) <= tol.abs:
            f = g
        la = _lam(da, f, tol)
        if la > _lam(db, f, tol) + 1e-8 * (1.0 + la):
            return False
    return True


def _graded_parallel_sum(big, small) -> np.ndarray:
    """``big : small`` for PSD ``big`` far above a non-zero PSD ``small`` in scale, by numpy alone.

    The oracle of ``lebesgue.limit``.  Adding ``big`` to ``small`` entrywise
    would round away the ``small``-level information, so the sum is inverted
    through a congruence that balances it in the eigenbasis of ``big``; that
    gives the same product, because any Hermitian reflexive inverse ``w`` of
    ``s = big + small`` satisfies ``big w small = big s^+ small``.  Ranks are
    cut at machine precision (``100 n ε max|eigenvalue|``), not by a `Tolerance`.
    """

    def eigh(m):
        w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
        return np.where(w > 100.0 * m.shape[0] * np.finfo(float).eps * np.max(np.abs(w)), w, 0.0), u

    wb, ub = eigh(big)
    d = 1.0 / np.sqrt(np.clip(wb, np.max(np.abs(small)), None))
    # the sum in big's eigenbasis, exactly diagonal big plus rotated small, balanced by d
    w, u = eigh((np.diag(wb) + ub.conj().T @ small @ ub) * d[np.newaxis, :] * d[:, np.newaxis])
    inv = np.where(w > 0.0, 1.0 / np.where(w > 0.0, w, 1.0), 0.0)
    # big applied spectrally: forming ``big @ ub d`` entrywise would cancel
    # large terms down to order one and lose the small operand again
    left = (ub * (wb * d)[np.newaxis, :]) @ ((u * inv) @ u.conj().T)
    p = left @ ((ub * d[np.newaxis, :]).conj().T @ small)
    return 0.5 * (p + p.conj().T)


# ---------------------------------------------------------------------------
# samplers ``(rng, t) -> instance``: dimension 1 + t % 6, or 2 + t % 5 where
# pairs must be incomparable; ranks uniform in 1..n; `_ray` in ran A on two
# trials in three; every (dimension, real/complex, in range) combination within
# 36 trials.  A sampler that calls another draws that one's values first.


def _is_complex(t: int) -> bool:
    return bool((t + t // 6) % 2)


def _draw_psd(rng, n: int, cplx: bool) -> np.ndarray:
    return random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)


def _ray(rng, a, t: int, cplx: bool) -> np.ndarray:
    return random_ray_in_range(rng, a, cplx) if (t + t // 6) % 3 else random_vector(rng, len(a), cplx)


def _psd(rng, t):
    n = 1 + t % 6
    cplx = _is_complex(t)
    rank = int(rng.integers(1, n + 1))
    return random_psd(rng, n, rank=rank, complex_entries=cplx), rank, cplx


def _operator_and_ray(rng, t):
    """(A, f); A = 0 sometimes."""
    n = 1 + t % 6
    cplx = _is_complex(t)
    a = np.zeros((n, n)) if t % 50 == 17 else _draw_psd(rng, n, cplx)
    return a, _ray(rng, a, t, cplx)


def _ray_in_range(rng, t):
    a, _, cplx = _psd(rng, t)
    return a, random_ray_in_range(rng, a, cplx)


def _psd_pair(rng, t):
    n = 1 + t % 6
    cplx = _is_complex(t)
    return _draw_psd(rng, n, cplx), _draw_psd(rng, n, cplx)


def _ordered_pair(rng, t):
    a, b = _psd_pair(rng, t)
    return a, a + b


def _not_below(rng, t):
    """Pairs with a <= b false: incomparable, or a > b for t % 4 == 3."""
    n = 2 + t % 5
    cplx = _is_complex(t)
    if t % 4 == 3:
        b = random_psd(rng, n, complex_entries=cplx)
        return b + random_psd(rng, n, complex_entries=cplx), b
    return incomparable_pair(rng, n, cplx)


def _operator_pair_and_ray(rng, t):
    a, b = _psd_pair(rng, t)
    return a, b, _ray(rng, a, t, _is_complex(t))


def _reference_pair(rng, t):
    """(a, b) for decomposing b against a; a = 0 sometimes."""
    n = 1 + t % 6
    cplx = _is_complex(t)
    a = np.zeros((n, n)) if t % 25 == 13 else _draw_psd(rng, n, cplx)
    return a, _draw_psd(rng, n, cplx), cplx


def _incomparable(rng, t):
    cplx = _is_complex(t)
    return (*incomparable_pair(rng, 2 + t % 5, cplx), cplx)


def _mixed_pair(rng, t):
    """Five families in turn, so infima exist on some trials and not on others."""
    family = t % 5
    cplx = _is_complex(t)
    if family == 0:  # full rank, mutually AC
        a, b = incomparable_pair(rng, 2 + t % 5, cplx)
        a = a + 0.3 * np.eye(a.shape[0])
        b = b + 0.3 * np.eye(a.shape[0])
    elif family == 1:  # rank-deficient, equal ranges
        n = 2 + t % 5
        a, b = sampling.shared_core_pair(rng, n, int(rng.integers(1, n + 1)), cplx)
    elif family == 2:  # singular tails on both sides
        n = 3 + t % 4
        a, b = sampling.shared_core_pair(rng, n, int(rng.integers(1, n - 1)), cplx, tails=True)
    elif family == 3:  # comparable
        a, b = _ordered_pair(rng, t)
    else:  # mutually singular (scaled disjoint projectors)
        p1, p2 = _disjoint(rng, t)
        a, b = float(rng.uniform(0.5, 2.0)) * p1, float(rng.uniform(0.5, 2.0)) * p2
    return a, b


def _shared_core(rng, t):
    """Pairs on one core subspace; on every third trial, private tails where they fit."""
    n = 2 + t % 5
    rank = int(rng.integers(1, n + 1))
    tails = t % 3 == 0 and rank + 2 <= n
    return sampling.shared_core_pair(rng, n, rank, _is_complex(t), tails=tails)


def _disjoint(rng, t):
    return sampling.disjoint_projector_pair(rng, 2 + t % 5, complex_entries=_is_complex(t))


def _report_inputs(rng, t):
    """Operands for every subcommand: a, b, a ray in ran a, a + p >= a, and
    an incomparable pair x, y."""
    n = 2 + t % 5
    cplx = _is_complex(t)
    a, b = _draw_psd(rng, n, cplx), _draw_psd(rng, n, cplx)
    f = random_ray_in_range(rng, a, cplx)
    above = a + random_psd(rng, n, rank=1, complex_entries=cplx)
    x, y = incomparable_pair(rng, n, cplx)
    return a, b, f, above, x, y


# ---------------------------------------------------------------------------
# core


@_entry("core.eigh", _psd)
def _eigh(c, a, rank, cplx):
    dec = core.eig_hermitian(a, c.tol)
    c(bool(np.all(np.diff(dec.eigenvalues) >= 0)), "eigenvalues ascending")
    c(dec.is_psd(c.tol), "psd floor")
    c(_close(dec.reconstruct(), a, c.tol.rel * eig_scale(a)), "reconstruction")
    c(_close(dec.vectors.conj().T @ dec.vectors, np.eye(dec.n), c.tol.rel), "orthonormal vectors")


@_entry("core.sqrt", _psd)
def _sqrt(c, a, rank, cplx):
    r = core.sqrt_psd(a, c.tol)
    c(_close(r @ r, a, c.tol.rel * eig_scale(a)), "sqrt residual")
    c(core.is_psd(r, c.tol), "sqrt is PSD")


@_entry("core.factor", _psd)
def _factor(c, a, rank, cplx):
    """The canonical factor J = sqrt(a): J J* = a and x* a x = |J x|^2."""
    j = core.sqrt_psd(a, c.tol)
    c(_close(j @ j.conj().T, a, 1e-12 * eig_scale(a)), "J J* = a")
    for _ in range(5):
        x = random_vector(c.rng, a.shape[0], cplx)
        qa = float(np.real(x.conj() @ a @ x))
        qj = float(np.linalg.norm(j @ x) ** 2)
        c(abs(qa - qj) <= 1e-9 * max(1.0, abs(qa)), "factor identity")


@_entry("core.pinv", _psd)
def _pinv(c, a, rank, cplx):
    pinv = core.pinv_psd(a, c.tol)
    c(_close(a @ pinv @ a, a, c.tol.rel * eig_scale(a)), "penrose A A+ A = A")
    c(_close(pinv @ a @ pinv, pinv, c.tol.rel * eig_scale(pinv)), "penrose A+ A A+ = A+")


@_entry("core.projector", _psd)
def _projector(c, a, rank, cplx):
    p = core.range_projector(a, c.tol)
    sc = eig_scale(a)
    c(_close(p @ a, a, c.tol.rel * sc), "projector absorbs")
    c(_close(p @ a, a @ p, c.tol.rel * sc), "projector commutes")
    c(_close(p @ p, p, c.tol.rel), "projector idempotent")
    c(core.numeric_rank(a, c.tol) == rank, "numeric rank")


@_entry("core.order", _psd)
def _order(c, a, rank, cplx):
    n = a.shape[0]
    b = a + random_psd(c.rng, n, complex_entries=cplx)
    d = b + random_psd(c.rng, n, complex_entries=cplx)
    c(core.loewner_leq(a, a, c.tol), "order reflexive")
    c(
        core.loewner_leq(a, b, c.tol) and core.loewner_leq(b, d, c.tol) and core.loewner_leq(a, d, c.tol),
        "order transitive",
    )


@_entry("core.rank_one", _psd)
def _rank_one(c, a, rank, cplx):
    n = a.shape[0]
    f = random_vector(c.rng, n, cplx)
    ff = core.rank_one(f)
    for _ in range(5):
        x = random_vector(c.rng, n, cplx)
        form = float(np.real(x.conj() @ ff @ x))
        pairing = abs(np.vdot(x, f)) ** 2
        c(abs(form - pairing) <= 1e-12 * max(1.0, pairing), "rank-one form is the pairing")


# ---------------------------------------------------------------------------
# strength


@_entry("strength.bisection", _operator_and_ray)
def _bisection(c, a, f):
    lam = _lam(a, f, c.tol)
    c(abs(_bisect_strength(a, f, c.tol) - lam) <= 1e-6 * (1.0 + lam), "bisection oracle")


@_entry("strength.supremum", _operator_and_ray)
def _supremum(c, a, f):
    lam = _lam(a, f, c.tol)
    ff = core.rank_one(f)
    c(core.is_psd(a - lam * ff, c.tol), "supremum attained")
    c(not core.is_psd(a - (lam + 1e-6 * (1.0 + lam)) * ff, c.tol), "supremum strict")


@_entry("strength.certificate", _operator_and_ray)
def _certificate(c, a, f):
    res = strength(a, f, c.tol)
    c((res.value > 0) == (res.witness is not None) == (res.constant is not None), "certificate iff in range")
    if res.witness is None:
        return
    c(abs(res.value * res.constant - 1.0) <= 1e-10, "lambda * m = 1")
    c(abs(res.value * np.linalg.norm(res.witness) ** 2 - 1.0) <= 1e-9, "lambda * |xi|^2 = 1")
    image = core.sqrt_psd(a, c.tol) @ res.witness
    bound = c.tol.rel * eig_scale(a) * max(1.0, float(np.linalg.norm(f)))
    c(float(np.linalg.norm(image - f)) <= bound, "sqrt(A) xi = f")


@_entry("strength.penrose", _ray_in_range)
def _penrose(c, a, f):
    lam = _lam(a, f, c.tol)
    c(lam > 0.0, "in-range ray has positive strength")
    m = float(np.real(f.conj() @ np.linalg.pinv(a) @ f))  # SVD route, independent of core
    c(abs(lam * m - 1.0) <= 1e-8, "strength * (f* A^+ f) = 1")


@_entry("strength.dominance", _ordered_pair)
def _dominance(c, a, b):
    c(_dominates(a, b, c.tol, samples=50, seed=7000 + c.t), "dominance on 50 rays")
    c(order_witness(a, b, c.tol) is None, "no order witness")


@_entry("strength.order_witness", _not_below)
def _order_witness(c, a, b):
    f = order_witness(a, b, c.tol)
    c(f is not None, "order witness found")
    if f is None:
        return
    la = _lam(a, f, c.tol)
    c(la - _lam(b, f, c.tol) > 1e-9 * eig_scale(a, b), "strict strength gap")
    c(abs(la - 1.0) <= 1e-8, "unit strength along the witness")
    c(not _dominates(a, b, c.tol, samples=4, seed=2000 + c.t), "no dominance")


@_entry("strength.homogeneity", _operator_pair_and_ray)
def _homogeneity(c, a, b, f):
    la = _lam(a, f, c.tol)
    c(_lam(0.0 * a, f, c.tol) == 0.0, "zero homogeneity")
    for alpha in (0.5, 1.0, 2.0, 3.5, 7.5):
        scaled = _lam(alpha * a, f, c.tol)
        c(abs(scaled - alpha * la) <= 1e-12 * max(1.0, alpha * la), f"homogeneity alpha={alpha}")


@_entry("strength.superadditivity", _operator_pair_and_ray)
def _superadditivity(c, a, b, f):
    total = _lam(a, f, c.tol) + _lam(b, f, c.tol)
    c(_lam(a + b, f, c.tol) >= total - 1e-8 * eig_scale(a, b), "superadditivity")


@_entry("strength.concavity", _operator_pair_and_ray)
def _concavity(c, a, b, f):
    la, lb = _lam(a, f, c.tol), _lam(b, f, c.tol)
    sc = eig_scale(a, b)
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        left = _lam(alpha * a, f, c.tol) + _lam((1.0 - alpha) * b, f, c.tol)
        c(left >= alpha * la + (1.0 - alpha) * lb - 1e-8 * sc, f"concavity alpha={alpha}")


# ---------------------------------------------------------------------------
# lebesgue


@_entry("lebesgue.decomposition", _reference_pair)
def _decomposition(c, a, b, cplx):
    parts = lebesgue.ac_part(b, a, c.tol)
    c(_close(parts.ac + parts.sing, b, c.tol.rel * eig_scale(a, b)), "ac + sing = b")
    c(lebesgue.absolutely_continuous(parts.ac, a, c.tol), "ac part is AC")
    c(lebesgue.mutually_singular(parts.sing, a, c.tol), "singular part is singular")
    c(core.loewner_leq(parts.ac, b, c.tol), "ac part below b")
    c(_close(parts.projector @ parts.projector, parts.projector, 1e-10), "projector idempotent")
    if not a.any():
        c(np.max(np.abs(parts.ac)) <= 1e-12, "zero reference: ac = 0")


@_entry("lebesgue.limit", _reference_pair)
def _limit(c, a, b, cplx):
    limit = _graded_parallel_sum(float(2**30) * a, b)
    ac = lebesgue.ac_part(b, a, c.tol).ac
    c(_close(limit, ac, 1e-6 * eig_scale(a, b)), "2^30 parallel-sum limit")


@_entry("lebesgue.maximality", _reference_pair)
def _maximality(c, a, b, cplx):
    """Sampled AC minorants of b lie below the AC part of b."""
    if not a.any():  # no ray lies in the range of 0
        return
    ac = lebesgue.ac_part(b, a, c.tol).ac
    a_dec = core.eig_hermitian(a, c.tol)  # decomposed once for the AC premises
    b_dec = core.eig_hermitian(b, c.tol)  # and for the 100 strengths
    for k in range(100):
        v = random_ray_in_range(c.rng, a, cplx)
        lam = _lam(b_dec, v, c.tol)
        minorant = float(c.rng.uniform(0.0, 1.0)) * lam * core.rank_one(v)
        if k < 5:  # the premises c <= b, c AC a: two more eighs per minorant
            c(core.loewner_leq(minorant, b, c.tol), "minorant below b")
            c(lebesgue.absolutely_continuous(minorant, a_dec, c.tol), "minorant is AC")
        c(core.loewner_leq(minorant, ac, c.tol), "maximal among AC minorants")


@_entry("lebesgue.monotone", _reference_pair)
def _monotone(c, a, b, cplx):
    sums = [lebesgue.parallel_sum(k * a, b, c.tol) for k in (1.0, 4.0, 16.0, 64.0, 256.0)]
    for lo, hi in zip(sums, sums[1:]):
        c(core.loewner_leq(lo, hi, c.tol), "parallel sum monotone in the scale")


@_entry("lebesgue.parallel_sum", _reference_pair)
def _parallel_sum(c, a, b, cplx):
    ps = lebesgue.parallel_sum(a, b, c.tol)
    c(_close(ps, lebesgue.parallel_sum(b, a, c.tol), 1e-10 * eig_scale(a, b)), "parallel sum symmetric")
    c(core.loewner_leq(ps, a, c.tol) and core.loewner_leq(ps, b, c.tol), "parallel sum below both")


@_entry("lebesgue.idempotent", _reference_pair)
def _idempotent(c, a, b, cplx):
    ac = lebesgue.ac_part(b, a, c.tol).ac
    c(_close(lebesgue.ac_part(ac, a, c.tol).ac, ac, 1e-9 * eig_scale(b)), "ac part idempotent")


@_entry("lebesgue.order_implies_ac", _ordered_pair)
def _order_implies_ac(c, a, b):
    c(core.loewner_leq(a, b, c.tol), "pair is ordered")
    c(lebesgue.absolutely_continuous(a, b, c.tol), "order implies AC")
    c(lebesgue.absolutely_continuous(0.5 * b, b, c.tol), "minorant is AC")


@_entry("lebesgue.parts_mutually_ac.random_pairs", _psd_pair)
@_entry("lebesgue.parts_mutually_ac", _mixed_pair)
def _parts_mutually_ac(c, a, b):
    ra = lebesgue.ac_part(a, b, c.tol).ac
    rb = lebesgue.ac_part(b, a, c.tol).ac
    c(
        lebesgue.absolutely_continuous(ra, rb, c.tol) and lebesgue.absolutely_continuous(rb, ra, c.tol),
        "reduced parts mutually AC",
    )


# ---------------------------------------------------------------------------
# lattice


@_entry("lattice.supremum", _incomparable)
def _sup(c, a, b, cplx):
    c(not lattice.sup_exists(a, b, c.tol).exists, "no supremum when incomparable")
    above = a + random_psd(c.rng, a.shape[0], rank=1, complex_entries=cplx)
    v = lattice.sup_exists(a, above, c.tol)
    bound = min(c.tol.rel * eig_scale(a, b), 1e-12 * eig_scale(above))
    c(v.exists and _close(v.sup, above, bound), "supremum of a comparable pair")
    w = lattice.inf_exists(a, above, c.tol)
    c(w.exists and _close(w.inf, a, 1e-8 * eig_scale(a, b)), "infimum of a comparable pair")


@_entry("lattice.kadison", _incomparable)
def _kadison(c, a, b, cplx):
    n = a.shape[0]
    envelope = a + _pos_part(b - a)
    for upper in (a + b + np.eye(n), envelope, envelope + 0.1 * np.eye(n)):
        s = lattice.kadison_witness(a, b, upper, c.tol)
        floor = 1e-9 * eig_scale(a, b, upper)
        c(min_eig(s) >= -floor and core.is_psd(s, c.tol), "witness is PSD")
        c(min_eig(s - a) >= -floor and core.loewner_leq(a, s, c.tol), "witness above a")
        c(min_eig(s - b) >= -floor and core.loewner_leq(b, s, c.tol), "witness above b")
        w = np.linalg.eigvalsh(core.hermitian_part(s - upper))
        c(w[0] < -floor and w[-1] > floor, "witness incomparable with the upper bound")


@_entry("lattice.compress.incomparable", _incomparable)
@_entry("lattice.compress", _psd_pair)
def _compress(c, a, b, *_):
    comp = lattice.compress(a, b, c.tol)
    x, w = lattice._spectrum(a, b, c.tol)
    sc = eig_scale(a, b)
    unit = min(10 * c.tol.rel, 1e-10)
    c(_close(comp.a_tilde + comp.b_tilde, comp.range_proj, unit), "compressions sum to the projector")
    for m, m_tilde, wm, name in ((a, comp.a_tilde, w, "a"), (b, comp.b_tilde, 1.0 - w, "b")):
        both = (comp.j @ m_tilde @ comp.j, (x * wm) @ x.conj().T)
        c(all(_close(r, m, 1e-9 * sc) for r in both), f"compression restores {name}")
    c(
        core.is_psd(comp.a_tilde, c.tol) and core.loewner_leq(comp.a_tilde, comp.range_proj, c.tol),
        "compression is a contraction",
    )


@_entry("lattice.candidate.incomparable", _incomparable)
@_entry("lattice.candidate", _psd_pair)
def _candidate(c, a, b, *_):
    cand = lattice._candidate(*lattice._spectrum(a, b, c.tol))
    c(core.loewner_leq(cand, a, c.tol) and core.loewner_leq(cand, b, c.tol), "candidate below both")


@_entry("lattice.infimum.shared_core", _shared_core)
@_entry("lattice.infimum.incomparable", _incomparable)
@_entry("lattice.infimum", _mixed_pair)
def _infimum(c, a, b, *_):
    """Three routes agree, the candidate is the pair's, an infimum dominates
    sampled lower bounds and a witness is a lower bound incomparable with it."""
    v = lattice.inf_exists(a, b, c.tol)
    da, db = (core.eig_hermitian(m, c.tol) for m in (v.reduced_a, v.reduced_b))
    mutual = lebesgue.absolutely_continuous(db, da, c.tol) and lebesgue.absolutely_continuous(da, db, c.tol)
    straddles = all(c.tol.sides(lattice._spectrum(v.reduced_a, v.reduced_b, c.tol)[1]))
    c(mutual and straddles != v.exists, "spectral route agrees")
    try:
        lattice.ando_witness(a, b, c.tol)
        witness_feasible = True
    except MatrixError:
        witness_feasible = False
    c(witness_feasible == (not v.exists), "witness route agrees")
    sc = eig_scale(a, b)
    pair = lattice._candidate(*lattice._spectrum(a, b, c.tol))
    c(_close(v.candidate, pair, 1e-10 * sc), "candidate of the pair")
    if not v.exists:
        d = v.witness
        floor = 1e-9 * sc
        c(min_eig(d) >= -floor and core.is_psd(d, c.tol), "witness is PSD")
        c(min_eig(a - d) >= -floor and core.loewner_leq(d, a, c.tol), "witness below a")
        c(min_eig(b - d) >= -floor and core.loewner_leq(d, b, c.tol), "witness below b")
        w = np.linalg.eigvalsh(core.hermitian_part(v.candidate - d))
        c(w[0] < -floor and w[-1] > floor, "witness incomparable with the candidate")
        return
    ra, rb = v.reduced_a, v.reduced_b
    smaller = ra if core.loewner_leq(ra, rb, c.tol) else rb
    c(_close(v.inf, smaller, 1e-8 * sc), "infimum is the smaller reduced part")
    c(_close(v.inf, v.candidate, 1e-8 * sc), "infimum is the candidate")
    c(core.loewner_leq(v.inf, a, c.tol) and core.loewner_leq(v.inf, b, c.tol), "infimum below both")
    rng = c.rng
    cand = core.eig_hermitian(v.candidate)
    for k in range(200):
        kind = k % 3
        if kind == 0:
            low = float(rng.uniform(0, 1)) * lebesgue.parallel_sum(
                float(rng.uniform(0.2, 1.0)) * a, float(rng.uniform(0.2, 1.0)) * b, c.tol
            )
        elif kind == 1:
            low = float(rng.uniform(0, 1)) * v.candidate
        else:
            shrink = rng.uniform(0.0, 1.0, size=cand.n)
            low = cand.apply(lambda w: np.clip(w, 0.0, None) * shrink)
        c(core.loewner_leq(low, v.inf, c.tol), "lower bound below the infimum")


@_entry("lattice.reduction.incomparable", _incomparable)
@_entry("lattice.reduction", _psd_pair)
def _reduction(c, a, b, *_):
    v = lattice.inf_exists(a, b, c.tol)
    if v.exists:
        reduced = lattice.inf_exists(v.reduced_a, v.reduced_b, c.tol)
        c(reduced.exists and _close(reduced.inf, v.inf, 1e-8 * eig_scale(a, b)), "reduction identity")


@_entry("lattice.disjoint", _disjoint)
def _disjoint_infimum(c, p1, p2):
    v = lattice.inf_exists(p1, p2, c.tol)
    c(v.exists and np.max(np.abs(v.inf)) <= 1e-10, "disjoint ranges have infimum 0")


# ---------------------------------------------------------------------------
# forms


@_entry("forms.agreement", _psd_pair)
def _forms_agreement(c, a, b):
    ta, tb = forms.from_operator(a, c.tol), forms.from_operator(b, c.tol)
    c(forms.form_leq(ta, tb, c.tol) == core.loewner_leq(a, b, c.tol), "leq agrees")
    c(forms.form_leq(tb, ta, c.tol) == core.loewner_leq(b, a, c.tol), "geq agrees")
    c(forms.form_sup_exists(ta, tb, c.tol) == lattice.sup_exists(a, b, c.tol).exists, "sup agrees")
    c(forms.form_inf_exists(ta, tb, c.tol) == lattice.inf_exists(a, b, c.tol).exists, "inf agrees")


@_entry("forms.roundtrip", _psd_pair)
def _forms_roundtrip(c, a, b):
    for g in (a, b):
        c(np.array_equal(forms.to_operator(forms.from_operator(g, c.tol), c.tol), g), "round trip")


# ---------------------------------------------------------------------------
# reports


@_entry("reports.cli", _report_inputs)
def _reports(c, a, b, f, above, x, y):
    from . import cli  # deferred to avoid a circular import at module load

    def inputs(**values):
        return {k: cli.memory_value(k, v, "vector" if k == "f" else "matrix") for k, v in values.items()}

    n = a.shape[0]
    # full rank and incomparable: the reduced parts are the pair itself, so no infimum
    sx, sy = x + 0.3 * np.eye(n), y + 0.3 * np.eye(n)
    cases = (
        ("strength", cli.cmd_strength, inputs(a=a, f=f)),
        ("leq", cli.cmd_leq, inputs(a=a, b=above)),
        ("leq refuted", cli.cmd_leq, inputs(a=above, b=a)),
        ("sup", cli.cmd_sup, inputs(a=a, b=above)),
        ("sup refuted", cli.cmd_sup, inputs(a=x, b=y, t=x + y + np.eye(n))),
        ("inf", cli.cmd_inf, inputs(a=a, b=b)),
        ("lebesgue", cli.cmd_lebesgue, inputs(a=a, b=b)),
        ("compress", cli.cmd_compress, inputs(a=a, b=b)),
        ("parsum", cli.cmd_parsum, inputs(a=a, b=b)),
        ("kadison-witness", cli.cmd_kadison_witness, inputs(a=x, b=y, t=x + y + np.eye(n))),
        ("ando-witness", cli.cmd_ando_witness, inputs(a=sx, b=sy)),
    )
    for name, cmd, operands in cases:
        once = cli._dumps(cmd(operands, c.tol))
        failures = cli.reverify_report(json.loads(once))
        c(not failures, f"{name} report re-verifies" + "".join(f": {m}" for m in failures[:1]))
        c(once == cli._dumps(json.loads(once)), f"{name} report serialization stable")


# ---------------------------------------------------------------------------
# core: the certified band, registered last so that every entry above keeps
# its `run_selftest` stream

_BAND_SCALES = (-40, -20, 0, 20, 40)


def _band_operands(rng, t):
    """``(matrices, edges)`` for `core._psd_band`.

    ``matrices`` are the square operands of an instance of every other
    entry's sampler in turn (trial ``t // k`` of sampler ``t % k``), the
    difference of the first two, the singular PSD gap of ``(a, a + f f*)``,
    the zero gap of ``(a, a)`` and a random 1×1 matrix.  ``edges`` are
    ``(q, w, full_rank, side)`` with n >= 2: a random basis ``q`` and a
    spectrum ``w`` at scale 2^0, 2^20 or 2^40 whose first eigenvalue the
    check puts 1e-3 relative below (``side = -1``) or above the PSD floor
    (``full_rank`` false) or the rank cutoff of its tolerance.
    """
    samplers = list(dict.fromkeys(e.sample for e in CATALOGUE.values() if e.sample is not _band_operands))
    instance = samplers[t % len(samplers)](rng, t // len(samplers))
    ops = [core.as_hermitian(m) for m in instance if isinstance(m, np.ndarray) and m.ndim == 2]
    n, cplx = ops[0].shape[0], any(np.iscomplexobj(m) for m in ops)
    f = random_vector(rng, n, cplx)
    matrices = ops + [m - ops[0] for m in ops[1:2]]
    matrices += [(ops[0] + core.rank_one(f)) - ops[0], ops[0] - ops[0], rng.standard_normal((1, 1))]
    m = max(2, n)
    edges = []
    for k in _BAND_SCALES[2:]:
        for full_rank in (False, True):
            for side in (-1.0, 1.0):
                q = np.linalg.qr(random_vector(rng, m * m, cplx).reshape(m, m))[0]
                edges.append((q, 2.0**k * rng.uniform(0.3, 3.0, m), full_rank, side))
    return matrices, edges


@_entry("core.band", _band_operands)
def _band(c, matrices, edges):
    """`core._psd_band` gives eigh's verdict or defers, at every scale of
    `_BAND_SCALES`: PSD (`EigDecomp.is_psd`), the reverse order
    (`Tolerance.psd` of ``-max eig``, the band's verdict on ``-x``, as `core.comparable`
    reads it) and full rank (`EigDecomp.kept`).  At the edges it defers."""
    for x in matrices:
        for k in _BAND_SCALES:
            y = 2.0**k * x
            dec = core.eig_hermitian(y, c.tol)
            for got, want, what in (
                (core._psd_band(y, c.tol), dec.is_psd(c.tol), "psd"),
                (core._psd_band(-y, c.tol), c.tol.psd(-dec.eigenvalues[-1], dec.top), "reverse order"),
                (core._psd_band(y, c.tol, full_rank=True), dec.kept(c.tol).all(), "full rank"),
            ):
                verdict = "defers" if got is None else "agrees with eigh"
                c(got is None or got == want, f"{what} band {verdict}")
    for q, w, full_rank, side in edges:
        top = w[1:].max()
        edge = c.tol.cutoff(top) if full_rank else -c.tol.floor(top)
        x = core.hermitian_part((q * np.r_[edge * (1.0 + side * 1e-3), w[1:]]) @ q.conj().T)
        c(core._psd_band(x, c.tol, full_rank) is None, "band defers at the edge")
