"""Invariant suites runnable from the CLI, independent of pytest.

Each suite replays one module's invariants on seeded random instances at
dimensions 1..6, alternating real and complex entries.  The summary counts
individual checks; any failure makes the whole run fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import core, forms, lattice, lebesgue, sampling
from .core import DEFAULT_TOL, MatrixError, Tolerance
from .strength import order_witness, strength, strength_bisection, strength_dominates

__all__ = ["run_selftest"]

_MAX_RECORDED_FAILURES = 8


@dataclass
class _Suite:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < _MAX_RECORDED_FAILURES:
                self.failures.append(message)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
        }


def _dims(trial: int, lo: int = 1, hi: int = 6) -> int:
    span = hi - lo + 1
    return lo + trial % span


def _scale(*mats) -> float:
    return max(core.eig_hermitian(m).source_scale for m in mats)


def _close(x, y, bound) -> bool:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) <= bound


def _suite_core(rng, trials: int, tol: Tolerance) -> _Suite:
    suite = _Suite("core")
    for t in range(trials):
        n = _dims(t)
        cplx = bool(t % 2)
        a = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
        dec = core.eig_hermitian(a, tol)
        sc = dec.source_scale
        suite.check(bool(np.all(np.diff(dec.eigenvalues) >= 0)), f"eig ascending n={n}")
        suite.check(dec.is_psd(tol), f"psd eig floor n={n}")
        suite.check(
            _close(dec.reconstruct(), a, tol.rel * sc), f"eig reconstruction n={n}"
        )
        vhv = dec.vectors.conj().T @ dec.vectors
        suite.check(_close(vhv, np.eye(n), tol.rel), f"eigvec orthonormality n={n}")

        r = core.sqrt_psd(a, tol)
        suite.check(_close(r @ r, a, tol.rel * sc), f"sqrt residual n={n}")
        pinv = core.pinv_psd(a, tol)
        suite.check(_close(a @ pinv @ a, a, tol.rel * sc), f"penrose A A+ A n={n}")
        suite.check(
            _close(pinv @ a @ pinv, pinv, tol.rel * max(1.0, _scale(pinv))),
            f"penrose A+ A A+ n={n}",
        )
        p = core.range_projector(a, tol)
        suite.check(_close(p @ a, a, tol.rel * sc), f"projector absorbs n={n}")
        suite.check(_close(p @ a, a @ p, tol.rel * sc), f"projector commutes n={n}")
        suite.check(_close(p @ p, p, tol.rel), f"projector idempotent n={n}")

        suite.check(core.loewner_leq(a, a, tol), f"order reflexive n={n}")
        b = a + sampling.random_psd(rng, n, complex_entries=cplx)
        c = b + sampling.random_psd(rng, n, complex_entries=cplx)
        suite.check(
            core.loewner_leq(a, b, tol) and core.loewner_leq(b, c, tol)
            and core.loewner_leq(a, c, tol),
            f"order transitive n={n}",
        )

        f = sampling.random_vector(rng, n, cplx)
        ff = core.rank_one(f)
        for _ in range(3):
            x = sampling.random_vector(rng, n, cplx)
            form = float(np.real(x.conj() @ ff @ x))
            pairing = abs(np.vdot(x, f)) ** 2
            suite.check(
                abs(form - pairing) <= 1e-10 * max(1.0, pairing),
                f"rank-one form n={n}",
            )
        x = sampling.random_vector(rng, n, cplx)
        qa = float(np.real(x.conj() @ a @ x))
        qj = float(np.linalg.norm(r @ x) ** 2)
        suite.check(abs(qa - qj) <= 1e-9 * max(1.0, abs(qa)), f"factor identity n={n}")
    return suite


def _suite_strength(rng, trials: int, tol: Tolerance) -> _Suite:
    suite = _Suite("strength")
    for t in range(trials):
        n = _dims(t)
        cplx = bool(t % 2)
        rank = int(rng.integers(1, n + 1))
        a = sampling.random_psd(rng, n, rank=rank, complex_entries=cplx)
        inside = bool(t % 3)
        f = (
            sampling.random_ray_in_range(rng, a, cplx)
            if inside
            else sampling.random_vector(rng, n, cplx)
        )
        res = strength(a, f, tol)
        lam = res.value
        sc = _scale(a)

        two = strength(2.0 * a, f, tol).value
        suite.check(abs(two - 2.0 * lam) <= 1e-12 * (1.0 + 2.0 * lam), f"homogeneity n={n}")
        suite.check(strength(np.zeros((n, n)), f, tol).value == 0.0, "zero homogeneity")

        b = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
        lb = strength(b, f, tol).value
        lab = strength(a + b, f, tol).value
        suite.check(lab >= lam + lb - 1e-8 * sc, f"superadditivity n={n}")
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            la = strength(alpha * a, f, tol).value if alpha else 0.0
            lbb = strength((1.0 - alpha) * b, f, tol).value if alpha < 1.0 else 0.0
            suite.check(
                la + lbb >= alpha * lam + (1.0 - alpha) * lb - 1e-8 * sc,
                f"concavity alpha={alpha} n={n}",
            )

        ff = core.rank_one(f)
        delta = 1e-6 * (1.0 + lam)
        suite.check(core.is_psd(a - lam * ff, tol), f"supremum attained n={n}")
        suite.check(not core.is_psd(a - (lam + delta) * ff, tol), f"supremum strict n={n}")
        if res.witness is not None:
            img = core.sqrt_psd(a, tol) @ res.witness
            suite.check(
                float(np.linalg.norm(img - f)) <= tol.rel * sc * max(1.0, float(np.linalg.norm(f))),
                f"certificate n={n}",
            )
            suite.check(abs(lam * res.constant - 1.0) <= 1e-10, f"lambda*m=1 n={n}")
        oracle = strength_bisection(a, f, tol)
        suite.check(abs(oracle - lam) <= 1e-6 * (1.0 + lam), f"bisection oracle n={n}")

        # order characterization
        p = sampling.random_psd(rng, n, rank=1, complex_entries=cplx)
        suite.check(
            strength_dominates(a, a + p, tol, samples=8, seed=1000 + t),
            f"dominance ordered n={n}",
        )
        if n >= 2:
            x, y = sampling.incomparable_pair(rng, n, cplx)
            suite.check(
                not strength_dominates(x, y, tol, samples=4, seed=2000 + t),
                f"dominance incomparable n={n}",
            )
            w = order_witness(x, y, tol)
            suite.check(
                strength(x, w, tol).value > strength(y, w, tol).value,
                f"order witness gap n={n}",
            )
        suite.check(order_witness(a, a + p, tol) is None, f"witness absent n={n}")
    return suite


def _suite_lebesgue(rng, trials: int, tol: Tolerance) -> _Suite:
    suite = _Suite("lebesgue")
    for t in range(trials):
        n = _dims(t)
        cplx = bool(t % 2)
        a = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
        b = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
        sc = _scale(a, b)

        below = 0.5 * b
        suite.check(
            lebesgue.absolutely_continuous(below, b, tol), f"minorant is AC n={n}"
        )

        ps = lebesgue.parallel_sum(a, b)
        suite.check(_close(ps, lebesgue.parallel_sum(b, a), 1e-10 * sc), f"parsum symmetric n={n}")
        suite.check(core.loewner_leq(ps, a, tol) and core.loewner_leq(ps, b, tol), f"parsum below n={n}")

        parts = lebesgue.ac_part(b, a, tol)
        suite.check(_close(parts.ac + parts.sing, b, tol.rel * sc), f"parts sum n={n}")
        suite.check(lebesgue.absolutely_continuous(parts.ac, a, tol), f"ac part AC n={n}")
        suite.check(lebesgue.mutually_singular(parts.sing, a, tol), f"sing part singular n={n}")
        suite.check(core.loewner_leq(parts.ac, b, tol), f"ac below b n={n}")
        again = lebesgue.ac_part(parts.ac, a, tol)
        suite.check(_close(again.ac, parts.ac, 1e-9 * sc), f"idempotence n={n}")

        ra = lebesgue.ac_part(a, b, tol).ac
        rb = parts.ac
        suite.check(
            lebesgue.absolutely_continuous(ra, rb, tol)
            and lebesgue.absolutely_continuous(rb, ra, tol),
            f"parts mutually AC n={n}",
        )

        prev = None
        monotone = True
        for k in (1.0, 4.0, 16.0, 64.0):
            cur = lebesgue.parallel_sum(k * a, b)
            if prev is not None and not core.loewner_leq(prev, cur, tol):
                monotone = False
            prev = cur
        suite.check(monotone, f"parsum monotone n={n}")
        limit = lebesgue.parallel_sum(float(2**30) * a, b)
        suite.check(_close(limit, parts.ac, 1e-6 * sc), f"parsum limit n={n}")

        for _ in range(5):
            v = sampling.random_ray_in_range(rng, a, cplx)
            lam = strength(b, v, tol).value
            minorant = float(rng.uniform(0.0, 1.0)) * lam * core.rank_one(v)
            suite.check(core.loewner_leq(minorant, parts.ac, tol), f"maximality n={n}")
    return suite


def _suite_lattice(rng, trials: int, tol: Tolerance) -> _Suite:
    suite = _Suite("lattice")
    for t in range(trials):
        n = _dims(t, lo=2)
        cplx = bool(t % 2)
        a, b = sampling.incomparable_pair(rng, n, cplx)
        sc = _scale(a, b)

        suite.check(not lattice.sup_exists(a, b, tol).exists, f"sup incomparable n={n}")
        p = sampling.random_psd(rng, n, rank=1, complex_entries=cplx)
        v = lattice.sup_exists(a, a + p, tol)
        suite.check(v.exists and _close(v.sup, a + p, tol.rel * sc), f"sup comparable n={n}")

        diff = core.hermitian_part(b - a)
        dec = core.eig_hermitian(diff, tol)
        pos = dec.apply(lambda w: np.clip(w, 0.0, None))
        for label, upper in (("sum", a + b + np.eye(n)), ("envelope", a + pos)):
            s = lattice.kadison_witness(a, b, upper, tol)
            floor = 1e-9 * _scale(a, b, upper)
            ok = (
                core.is_psd(s, tol)
                and core.loewner_leq(a, s, tol)
                and core.loewner_leq(b, s, tol)
            )
            wst = np.linalg.eigvalsh(core.hermitian_part(s - upper))
            ok = ok and wst[0] < -floor and wst[-1] > floor
            suite.check(ok, f"kadison witness ({label}) n={n}")

        comp = lattice.compress(a, b, tol)
        suite.check(
            _close(comp.a_tilde + comp.b_tilde, comp.range_proj, tol.rel * 10), f"compression unit n={n}"
        )
        suite.check(
            _close(comp.j @ comp.a_tilde @ comp.j, a, 1e-9 * sc), f"compression restores n={n}"
        )
        suite.check(
            core.is_psd(comp.a_tilde, tol)
            and core.loewner_leq(comp.a_tilde, comp.range_proj, tol),
            f"compression contraction n={n}",
        )

        cand = lattice.ando_candidate(a, b, tol)
        suite.check(
            core.loewner_leq(cand, a, tol) and core.loewner_leq(cand, b, tol),
            f"candidate below n={n}",
        )

        verdict = lattice.inf_exists(a, b, tol)
        spectral = lattice.spectral_criterion(verdict.reduced_a, verdict.reduced_b, tol)
        suite.check(spectral == verdict.exists, f"spectral agreement n={n}")
        if verdict.exists:
            suite.check(_close(verdict.inf, cand, 1e-8 * sc), f"inf equals candidate n={n}")
            reduced = lattice.inf_exists(verdict.reduced_a, verdict.reduced_b, tol)
            suite.check(
                reduced.exists and _close(reduced.inf, verdict.inf, 1e-8 * sc),
                f"reduction identity n={n}",
            )
            for _ in range(5):
                th = float(rng.uniform(0.0, 1.0))
                low = th * lebesgue.parallel_sum(float(rng.uniform(0.2, 1.0)) * a, b)
                suite.check(core.loewner_leq(low, verdict.inf, tol), f"inf dominates n={n}")
        else:
            d = verdict.witness
            floor = 1e-9 * sc
            ok = (
                core.is_psd(d, tol)
                and core.loewner_leq(d, a, tol)
                and core.loewner_leq(d, b, tol)
            )
            wc = np.linalg.eigvalsh(core.hermitian_part(verdict.candidate - d))
            ok = ok and wc[0] < -floor and wc[-1] > floor
            suite.check(ok, f"infimum witness n={n}")

        # a genuinely comparable pair must always admit the infimum
        v2 = lattice.inf_exists(a, a + p, tol)
        suite.check(v2.exists and _close(v2.inf, a, 1e-8 * sc), f"inf comparable n={n}")
    return suite


def _suite_forms(rng, trials: int, tol: Tolerance) -> _Suite:
    suite = _Suite("forms")
    for t in range(trials):
        n = _dims(t)
        cplx = bool(t % 2)
        ga = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
        gb = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
        fa = forms.from_operator(ga, "a", tol)
        fb = forms.from_operator(gb, "b", tol)
        suite.check(_close(forms.to_operator(fa, tol), ga, tol.rel * _scale(ga)), f"roundtrip n={n}")
        suite.check(
            forms.form_leq(fa, fb, tol) == core.loewner_leq(ga, gb, tol), f"leq agreement n={n}"
        )
        suite.check(
            forms.form_sup_exists(fa, fb, tol) == lattice.sup_exists(ga, gb, tol).exists,
            f"sup agreement n={n}",
        )
        suite.check(
            forms.form_inf_exists(fa, fb, tol) == lattice.inf_exists(ga, gb, tol).exists,
            f"inf agreement n={n}",
        )
    return suite


def _suite_reports(rng, trials: int, tol: Tolerance) -> _Suite:
    from . import cli  # deferred to avoid a circular import at module load

    suite = _Suite("reports")
    for t in range(max(1, trials // 4)):
        n = _dims(t, lo=2)
        cplx = bool(t % 2)
        a = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
        b = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
        f = sampling.random_ray_in_range(rng, a, cplx)
        inputs_af = {
            "a": cli.memory_value("a", a),
            "f": cli.memory_value("f", f, kind="vector"),
        }
        inputs_ab = {"a": cli.memory_value("a", a), "b": cli.memory_value("b", b)}

        for name, report in (
            ("strength", cli.cmd_strength(inputs_af, tol)),
            ("inf", cli.cmd_inf(inputs_ab, tol)),
            ("lebesgue", cli.cmd_lebesgue(inputs_ab, tol)),
            ("compress", cli.cmd_compress(inputs_ab, tol)),
            ("parsum", cli.cmd_parsum(inputs_ab, tol)),
        ):
            round_tripped = json.loads(json.dumps(report, sort_keys=True))
            failures = cli.reverify_report(round_tripped)
            suite.check(not failures, f"{name} report reverify n={n}: {failures[:1]}")
            once = json.dumps(report, sort_keys=True)
            twice = json.dumps(json.loads(once), sort_keys=True)
            suite.check(once == twice, f"{name} report serialization stable n={n}")
    return suite


_SUITES = (
    _suite_core,
    _suite_strength,
    _suite_lebesgue,
    _suite_lattice,
    _suite_forms,
    _suite_reports,
)


def run_selftest(seed: int = 0, trials: int = 20, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Run every invariant suite; returns a summary dictionary.

    ``trials`` is the number of seeded instances per suite (at least 1).
    Each suite derives its generator from ``seed`` plus its own index, so
    suites are independent of ordering.
    """
    if trials < 1:
        raise MatrixError("trials must be at least 1")
    suites = []
    total_pass = 0
    total_fail = 0
    for index, fn in enumerate(_SUITES):
        rng = sampling.rng_from_seed(seed + index)
        result = fn(rng, trials, tol)
        suites.append(result.as_dict())
        total_pass += result.passed
        total_fail += result.failed
    return {
        "command": "selftest",
        "seed": seed,
        "trials": trials,
        "tolerance": {"rel": tol.rel, "abs": tol.abs},
        "passed": total_pass,
        "failed": total_fail,
        "ok": total_fail == 0,
        "suites": suites,
    }
