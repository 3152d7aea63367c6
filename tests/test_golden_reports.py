"""Golden ``--json`` reports: every subcommand and verdict path, n <= 4.

`tests/data/golden_reports.json` holds, for each case, the input matrices,
the command line, the exit status and the parts of the report that carry
the decision (``verdict``, ``claims`` and ``witnesses``), as recorded when
the fixture was introduced.  Each case is replayed through `cli.main` and
checked four ways: the exit status, verdict and claims are equal (float
leaves to 1e-12 relative, so other BLAS builds pass too); the witness
names are equal; every witness agrees with the recorded one within
``1e-12 * scale``; and the new report re-verifies from its serialized form.
A separate test pins the printed bytes to the canonical form,
``json.dumps(report, sort_keys=True, separators=(",", ":"))`` plus a newline,
and another requires every claim or verdict-shape tamper of a status-0
report to fail re-verification.

Regenerate the fixture only when a change of the reports is intended::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from psdorder import cli, sampling

FIXTURE = Path(__file__).parent / "data" / "golden_reports.json"
WITNESS_ATOL_SCALE = 1e-12
FLOAT_RTOL = 1e-12


def _write_inputs(tmp_path, inputs: dict) -> dict:
    paths = {}
    for name, obj in inputs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj, sort_keys=True))
        paths[name] = str(path)
    return paths


def _stdout(argv, inputs, tmp_path, capsys):
    paths = _write_inputs(tmp_path, inputs)
    resolved = [paths[arg[1:]] if arg.startswith("@") else arg for arg in argv]
    status = cli.main(resolved + ["--json"])
    return status, capsys.readouterr().out


def _run(argv, inputs, tmp_path, capsys):
    status, out = _stdout(argv, inputs, tmp_path, capsys)
    return status, (json.loads(out) if status == 0 else None)


def _decision(report: dict) -> dict:
    return {k: report[k] for k in ("verdict", "claims", "witnesses")}


def _same(x, y) -> bool:
    """Structural equality, with float leaves compared to FLOAT_RTOL."""
    if isinstance(x, float) or isinstance(y, float):
        return (
            isinstance(x, (int, float))
            and isinstance(y, (int, float))
            and not isinstance(x, bool)
            and not isinstance(y, bool)
            and math.isclose(x, y, rel_tol=FLOAT_RTOL, abs_tol=0.0)
        )
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return isinstance(y, list) and len(x) == len(y) and all(map(_same, x, y))
    return type(x) is type(y) and x == y


def _value(node: dict) -> np.ndarray:
    return cli.from_obj(node["value"], node["kind"])


def _load_cases() -> list:
    return json.loads(FIXTURE.read_text())["cases"]


# Empty only while the fixture is being generated; the size test then fails.
CASES = _load_cases() if FIXTURE.exists() else []


def test_fixture_is_small_and_covers_every_subcommand():
    assert FIXTURE.stat().st_size <= 100_000
    commands = {case["argv"][0] for case in CASES}
    assert commands == set(cli.HANDLERS)
    assert {case["status"] for case in CASES} == {0, 1, 2}


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_report(case, tmp_path, capsys):
    status, report = _run(case["argv"], case["inputs"], tmp_path, capsys)
    assert status == case["status"]
    golden = case["report"]
    if golden is None:
        assert report is None
        return
    assert _same(report["verdict"], golden["verdict"])
    assert _same(report["claims"], golden["claims"])
    assert sorted(report["witnesses"]) == sorted(golden["witnesses"])
    for name, node in golden["witnesses"].items():
        want = _value(node)
        got = _value(report["witnesses"][name])
        assert got.shape == want.shape, name
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= WITNESS_ATOL_SCALE * scale, name
    assert cli.reverify_report(json.loads(json.dumps(report, sort_keys=True))) == []


def _tampers(report: dict):
    """(name, copy) for each tamper that must make `report` fail re-verification."""
    claims, verdict = report["claims"], report["verdict"]
    if claims:
        yield "claims emptied", dict(report, claims=[])
        yield "last claim dropped", dict(report, claims=claims[:-1])
    if len(claims) >= 2:
        yield "two claims swapped", dict(report, claims=[claims[1], claims[0]] + claims[2:])
    for field in ("exists", "leq", "in_range"):
        if field in verdict:
            yield f"{field} flipped", dict(report, verdict=dict(verdict, **{field: not verdict[field]}))


OK_CASES = [c for c in CASES if c["status"] == 0]


@pytest.mark.parametrize("case", OK_CASES, ids=[c["id"] for c in OK_CASES])
def test_tampered_golden_report_fails(case, tmp_path, capsys):
    """A report whose claims or verdict shape were changed no longer re-verifies."""
    _, report = _run(case["argv"], case["inputs"], tmp_path, capsys)
    assert cli.reverify_report(report) == []
    tampers = dict(_tampers(report))
    assert tampers
    passing = [name for name, bad in tampers.items() if cli.reverify_report(bad) == []]
    assert passing == []


def _case(case_id: str) -> dict:
    return next(c for c in CASES if c["id"] == case_id)


def _input(case: dict, name: str) -> np.ndarray:
    return cli.from_obj(case["inputs"][name], "matrix")


@pytest.mark.parametrize("tag", ["real", "complex"])
def test_singular_projector_is_complement_of_range(tag):
    """With ``ran a ∩ ran b = {0}`` the recorded projector is ``I - P_b``."""
    case = _case(f"lebesgue-singular-{tag}")
    b = _input(case, "b")
    u, s, _ = np.linalg.svd(b)
    basis = u[:, s > 1e-10 * s[0]]
    want = np.eye(b.shape[0]) - basis @ basis.conj().T
    got = _value(case["report"]["witnesses"]["projector"])
    assert float(np.max(np.abs(got - want))) <= 1e-12


@pytest.mark.parametrize(
    "case_id, name",
    [(f"{k}-{tag}", w) for tag in ("real", "complex") for k, w in
     (("kadison-shared", "s"), ("sup-refuted", "refutation"))],
)
def test_recorded_kadison_witness_refutes_t(case_id, name):
    """The recorded witness is PSD, above ``a`` and ``b``, and incomparable with ``t``."""
    case = _case(case_id)
    a, b, t = (_input(case, k) for k in "abt")
    s = _value(case["report"]["witnesses"][name])
    floor = 1e-10 * max(1.0, float(np.max(np.abs(t))))
    for lower in (np.zeros_like(s), a, b):
        assert np.linalg.eigvalsh(s - lower)[0] >= -floor
    w = np.linalg.eigvalsh(s - t)
    assert w[0] < -floor and w[-1] > floor


@pytest.mark.parametrize(
    "case_id, name",
    [(f"{k}-{tag}", w) for tag in ("real", "complex") for k, w in
     (("kadison-shared", "s"), ("sup-refuted", "refutation"))],
)
def test_recorded_kadison_witness_is_the_first_basis_construction(case_id, name):
    """Both gaps are full rank, so the shared direction is the first basis vector.

    The witness is then ``t - lam e0 e0* + lam e1 e1*`` with ``lam`` the smaller
    strength of the two gaps along ``e0``, ``1 / (gap^-1)_00``.
    """
    case = _case(case_id)
    a, b, t = (_input(case, k) for k in "abt")
    lam = min(1.0 / np.linalg.inv(t - x)[0, 0].real for x in (a, b))
    want = t.astype(np.complex128)
    want[0, 0] -= lam
    want[1, 1] += lam
    s = _value(case["report"]["witnesses"][name])
    assert float(np.max(np.abs(s - want))) <= 1e-12 * max(1.0, float(np.max(np.abs(t))))


def _spectral_candidate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``j g(j^-1 a j^-1) j`` with ``j = (a + b)^{1/2}`` and ``g(t) = min(t, 1 - t)``, for a full-rank sum."""
    w, u = np.linalg.eigh(a + b)
    j = (u * np.sqrt(w)) @ u.conj().T
    ji = (u / np.sqrt(w)) @ u.conj().T
    t, v = np.linalg.eigh(ji @ a @ ji)
    return j @ (v * np.minimum(t, 1.0 - t)) @ v.conj().T @ j


@pytest.mark.parametrize(
    "case_id, name",
    [(f"{k}-{tag}", w) for tag in ("real", "complex") for k, w in (("inf-witness", "witness"), ("ando-witness", "d"))],
)
def test_recorded_ando_witness_refutes_the_candidate(case_id, name):
    """The recorded witness is PSD, below ``a`` and ``b``, and strictly incomparable
    with the candidate, which numpy computes here from ``a`` and ``b`` alone."""
    case = _case(case_id)
    a, b = _input(case, "a"), _input(case, "b")
    d = _value(case["report"]["witnesses"][name])
    floor = 1e-10 * max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    for upper in (d, a - d, b - d):
        assert np.linalg.eigvalsh(upper)[0] >= -floor
    w = np.linalg.eigvalsh(_spectral_candidate(a, b) - d)
    assert w[0] < -floor and w[-1] > floor


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_stdout_is_canonical(case, tmp_path, capsys):
    """The printed bytes are exactly ``json.dumps(report, sort_keys=True, separators=(",", ":"))``."""
    status, out = _stdout(case["argv"], case["inputs"], tmp_path, capsys)
    assert status == case["status"]
    if status == 0:
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# fixture generation


def _m(x) -> dict:
    return cli.to_obj(np.asarray(x, dtype=np.complex128))


def _v(x) -> dict:
    return cli.to_obj(np.asarray(x, dtype=np.complex128))


def _positive_part(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _build_cases() -> list:
    cases = []

    def add(case_id, argv, **inputs):
        cases.append({"id": case_id, "argv": argv, "inputs": inputs})

    ab = ["--a", "@a", "--b", "@b"]
    abt = ab + ["--t", "@t"]
    for cplx in (False, True):
        tag = "complex" if cplx else "real"
        rng = sampling.rng_from_seed(2024 + cplx)
        n = 3
        low = sampling.random_psd(rng, n, rank=2, complex_entries=cplx)
        full = sampling.random_psd(rng, n, complex_entries=cplx)
        bump = sampling.random_psd(rng, n, rank=1, complex_entries=cplx)
        x, y = sampling.incomparable_pair(rng, n, cplx)
        fx = sampling.random_psd(rng, n, complex_entries=cplx)
        fy = sampling.random_psd(rng, n, complex_entries=cplx)
        p, q = sampling.disjoint_projector_pair(rng, n, cplx)
        sa, sb = sampling.shared_core_pair(rng, 4, 2, cplx, tails=True)
        ma, mb = sampling.shared_core_pair(rng, n, 2, cplx)
        inside = sampling.random_ray_in_range(rng, low, cplx)
        outside = sampling.random_vector(rng, n, cplx)
        eye = np.eye(n)

        strength = ["strength", "--a", "@a", "--f", "@f"]
        add(f"strength-in-range-{tag}", strength, a=_m(low), f=_v(inside))
        add(f"strength-outside-{tag}", strength, a=_m(low), f=_v(outside))
        add(f"strength-zero-ray-{tag}", strength, a=_m(full), f=_v(np.zeros(n)))

        add(f"leq-leq-{tag}", ["leq"] + ab, a=_m(low), b=_m(low + bump))
        add(f"leq-geq-{tag}", ["leq"] + ab, a=_m(low + bump), b=_m(low))
        add(f"leq-equal-{tag}", ["leq"] + ab, a=_m(full), b=_m(full))
        add(f"leq-incomparable-{tag}", ["leq"] + ab, a=_m(x), b=_m(y))

        add(f"sup-comparable-{tag}", ["sup"] + ab, a=_m(low), b=_m(low + bump))
        add(f"sup-incomparable-{tag}", ["sup"] + ab, a=_m(x), b=_m(y))
        add(f"sup-refuted-{tag}", ["sup"] + abt, a=_m(x), b=_m(y), t=_m(x + y + eye))
        add(f"sup-not-upper-{tag}", ["sup"] + abt, a=_m(x), b=_m(y), t=_m(x))

        add(f"inf-comparable-{tag}", ["inf"] + ab, a=_m(low), b=_m(low + bump))
        add(f"inf-singular-{tag}", ["inf"] + ab, a=_m(p), b=_m(q))
        add(f"inf-witness-{tag}", ["inf"] + ab, a=_m(fx), b=_m(fy))
        add(f"inf-tails-{tag}", ["inf"] + ab, a=_m(sa), b=_m(sb))

        add(f"lebesgue-low-{tag}", ["lebesgue"] + ab, a=_m(low), b=_m(full))
        add(f"lebesgue-singular-{tag}", ["lebesgue"] + ab, a=_m(p), b=_m(q))
        add(f"lebesgue-tails-{tag}", ["lebesgue"] + ab, a=_m(sa), b=_m(sb))

        add(f"parsum-{tag}", ["parsum"] + ab, a=_m(low), b=_m(full))
        add(f"parsum-graded-{tag}", ["parsum"] + ab, a=_m(2.0**30 * low), b=_m(full))

        kadison = ["kadison-witness"] + abt
        add(f"kadison-shared-{tag}", kadison, a=_m(x), b=_m(y), t=_m(x + y + eye))
        add(f"kadison-disjoint-{tag}", kadison, a=_m(x), b=_m(y), t=_m(x + _positive_part(y - x)))
        add(f"kadison-t-equals-a-{tag}", kadison, a=_m(low), b=_m(low), t=_m(low))
        add(f"kadison-not-upper-{tag}", kadison, a=_m(x), b=_m(y), t=_m(x))

        add(f"ando-witness-{tag}", ["ando-witness"] + ab, a=_m(fx), b=_m(fy))
        add(f"ando-witness-tails-{tag}", ["ando-witness"] + ab, a=_m(sa), b=_m(sb))
        add(f"ando-witness-comparable-{tag}", ["ando-witness"] + ab, a=_m(low), b=_m(low + bump))

        add(f"compress-full-{tag}", ["compress"] + ab, a=_m(x), b=_m(y))
        add(f"compress-shared-{tag}", ["compress"] + ab, a=_m(ma), b=_m(mb))

    one = _m(np.eye(1))
    add("kadison-dim-1", ["kadison-witness"] + abt, a=one, b=one, t=_m(2.0 * np.eye(1)))
    add("leq-tol-seed", ["leq"] + ab + ["--tol", "1e-6", "--seed", "7"],
        a=_m(np.diag([2.0, 1.0])), b=_m(np.diag([1.0, 2.0])))
    add("leq-not-hermitian", ["leq"] + ab,
        a=_m(np.array([[1.0, 5.0], [0.0, 1.0]])), b=_m(np.eye(2)))
    return cases


def _record(tmp_path: Path) -> list:
    recorded = []
    for case in _build_cases():
        paths = _write_inputs(tmp_path, case["inputs"])
        argv = [paths[a[1:]] if a.startswith("@") else a for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv + ["--json"])
        report = _decision(json.loads(out.getvalue())) if status == 0 else None
        recorded.append(dict(case, status=status, report=report))
    return recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cases = _record(Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"cases": cases}, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"{len(cases)} cases, {FIXTURE.stat().st_size} bytes -> {FIXTURE}")
