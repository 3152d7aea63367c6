"""Command-line front end: one subcommand per decision procedure.

Matrices travel as JSON files::

    {"n": 2, "complex": true,  "data": [[[1.0, 0.0], [0.0, -1.0]], ...]}
    {"n": 2, "complex": false, "data": [[1.0, 0.0], [0.0, 1.0]]}

Complex entries are ``[re, im]`` pairs; vectors use the same envelope with
a flat ``data`` list.  Plain CSV is accepted for real symmetric matrix
input.  A Hermiticity violation beyond tolerance or a non-finite entry
(NaN, infinity) is a load error.

Every verdict is emitted as a report that embeds its inputs (path, SHA-256
digest, and the parsed matrix) and its witness matrices together with the
claims they must satisfy, so `reverify_report` can re-check a report from
its serialized form alone.  With ``--json`` the report is printed as
canonical JSON (sorted keys), which is byte-identical across runs for
identical inputs and seed; the human-readable form adds the runtime.

Exit codes: 0 success, 1 I/O or parse errors, 2 precondition rejection,
3 internal tolerance breakdown (`ToleranceBreakdownError`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import core, lattice, lebesgue
from .core import Comparison, MatrixError, Tolerance, ToleranceBreakdownError
from .strength import order_witness, strength
from .sampling import random_psd, rng_from_seed

__all__ = [
    "main",
    "run",
    "CliInputError",
    "reverify_report",
    "matrix_to_obj",
    "obj_to_matrix",
    "vector_to_obj",
    "obj_to_vector",
]

SUPREMUM_DELTA_SCALE = 1e-6  # delta = 1e-6 * (1 + lambda) in supremum claims
CLOSE_ATOL_SCALE = 1e-8


class CliInputError(Exception):
    """I/O or parse failure (exit code 1)."""


# ---------------------------------------------------------------------------
# matrix / vector serialization


def matrix_to_obj(m) -> dict:
    a = core.as_matrix(m)
    n = a.shape[0]
    if np.any(a.imag != 0.0):
        data = [[[float(a[i, j].real), float(a[i, j].imag)] for j in range(n)] for i in range(n)]
        return {"n": n, "complex": True, "data": data}
    data = [[float(a[i, j].real) for j in range(n)] for i in range(n)]
    return {"n": n, "complex": False, "data": data}


def vector_to_obj(v) -> dict:
    x = core.as_vector(v)
    if np.any(x.imag != 0.0):
        return {
            "n": x.size,
            "complex": True,
            "data": [[float(c.real), float(c.imag)] for c in x],
        }
    return {"n": x.size, "complex": False, "data": [float(c.real) for c in x]}


def _entry(value, complex_entries: bool) -> complex:
    if complex_entries:
        if not (isinstance(value, list) and len(value) == 2):
            raise CliInputError("complex entries must be [re, im] pairs")
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    raise CliInputError("real entries must be bare numbers")


def obj_to_matrix(obj) -> np.ndarray:
    try:
        n = int(obj["n"])
        cplx = bool(obj["complex"])
        rows = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed matrix object: {exc}") from exc
    if not isinstance(rows, list) or len(rows) != n:
        raise CliInputError(f"matrix data must have {n} rows")
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise CliInputError(f"matrix row {i} must have {n} entries")
        for j, value in enumerate(row):
            out[i, j] = _entry(value, cplx)
    return out


def obj_to_vector(obj) -> np.ndarray:
    try:
        n = int(obj["n"])
        cplx = bool(obj["complex"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed vector object: {exc}") from exc
    if not isinstance(data, list) or len(data) != n:
        raise CliInputError(f"vector data must have {n} entries")
    return np.array([_entry(value, cplx) for value in data], dtype=np.complex128)


def _parse_csv_matrix(text: str) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise CliInputError(f"bad CSV entry: {exc}") from exc
    if not rows or any(len(r) != len(rows) for r in rows):
        raise CliInputError("CSV matrix must be square")
    return np.array(rows, dtype=np.complex128)


@dataclass
class LoadedValue:
    """Input matrix or vector with its provenance descriptor."""

    kind: str  # "matrix" | "vector"
    value: np.ndarray
    descriptor: dict  # {"path", "sha256", "kind", "value": obj}


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def load_matrix_file(path: str, tol: Tolerance) -> LoadedValue:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    if path.endswith(".csv"):
        m = _parse_csv_matrix(raw.decode("utf-8", errors="replace"))
    else:
        try:
            m = obj_to_matrix(json.loads(raw.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CliInputError(f"cannot parse {path}: {exc}") from exc
    try:
        m = core.as_hermitian(m, tol)
    except MatrixError as exc:
        raise CliInputError(f"load error for {path}: {exc}") from exc
    return LoadedValue(
        "matrix",
        m,
        {"path": path, "sha256": _digest(raw), "kind": "matrix", "value": matrix_to_obj(m)},
    )


def load_vector_file(path: str, tol: Tolerance) -> LoadedValue:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        v = core.as_vector(obj_to_vector(json.loads(raw.decode("utf-8"))))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot parse {path}: {exc}") from exc
    except MatrixError as exc:
        raise CliInputError(f"load error for {path}: {exc}") from exc
    return LoadedValue(
        "vector",
        v,
        {"path": path, "sha256": _digest(raw), "kind": "vector", "value": vector_to_obj(v)},
    )


def memory_value(name: str, value, kind: str = "matrix") -> LoadedValue:
    """Descriptor for an in-memory input (used by the self-test suites)."""
    obj = matrix_to_obj(value) if kind == "matrix" else vector_to_obj(value)
    raw = json.dumps(obj, sort_keys=True).encode("utf-8")
    return LoadedValue(
        kind,
        core.as_matrix(value) if kind == "matrix" else core.as_vector(value),
        {"path": f"<memory:{name}>", "sha256": _digest(raw), "kind": kind, "value": obj},
    )


# ---------------------------------------------------------------------------
# report assembly


def _report_skeleton(command: str, inputs: dict[str, LoadedValue], tol: Tolerance, seed) -> dict:
    return {
        "command": command,
        "tolerance": {"rel": tol.rel, "abs": tol.abs},
        "seed": seed,
        "inputs": {name: lv.descriptor for name, lv in inputs.items()},
        "verdict": {},
        "witnesses": {},
        "claims": [],
    }


def _add_matrix_witness(report: dict, name: str, m) -> str:
    report["witnesses"][name] = {"kind": "matrix", "value": matrix_to_obj(m)}
    return f"witness:{name}"


def _add_vector_witness(report: dict, name: str, v) -> str:
    report["witnesses"][name] = {"kind": "vector", "value": vector_to_obj(v)}
    return f"witness:{name}"


def _resolve(report: dict, ref: str) -> np.ndarray:
    domain, _, name = ref.partition(":")
    if domain == "input":
        node = report["inputs"][name]
    elif domain == "witness":
        node = report["witnesses"][name]
    else:
        raise CliInputError(f"unknown reference domain in {ref!r}")
    obj = node["value"]
    if node["kind"] == "vector":
        return obj_to_vector(obj)
    return obj_to_matrix(obj)


def reverify_report(report: dict) -> list[str]:
    """Re-check every claim of a parsed report; returns failure messages.

    Works from the serialized form alone: inputs and witnesses are embedded
    in the report, and the stated tolerance is used for all checks.
    """
    tol = Tolerance(rel=float(report["tolerance"]["rel"]), abs=float(report["tolerance"]["abs"]))
    failures: list[str] = []
    for claim in report.get("claims", []):
        kind = claim["kind"]
        try:
            ok = _check_claim(report, claim, tol)
        except (MatrixError, ToleranceBreakdownError, CliInputError, KeyError) as exc:
            failures.append(f"{kind}: error during re-verification: {exc}")
            continue
        if not ok:
            failures.append(f"{kind}: claim {claim} failed re-verification")
    return failures


def _norm_scale(*matrices) -> float:
    return max([1.0] + [float(np.max(np.abs(m))) for m in matrices if m.size])


def _check_claim(report: dict, claim: dict, tol: Tolerance) -> bool:
    kind = claim["kind"]
    if kind == "psd":
        return core.is_psd(_resolve(report, claim["subject"]), tol)
    if kind == "leq":
        return core.loewner_leq(
            _resolve(report, claim["subject"]), _resolve(report, claim["other"]), tol
        )
    if kind == "geq":
        return core.loewner_leq(
            _resolve(report, claim["other"]), _resolve(report, claim["subject"]), tol
        )
    if kind == "incomparable":
        a = _resolve(report, claim["subject"])
        b = _resolve(report, claim["other"])
        return core.comparable(a, b, tol) is Comparison.INCOMPARABLE
    if kind == "close":
        a = _resolve(report, claim["subject"])
        b = _resolve(report, claim["other"])
        atol = float(claim.get("atol_scale", CLOSE_ATOL_SCALE))
        return float(np.max(np.abs(a - b))) <= atol * _norm_scale(a, b)
    if kind == "sum_equals":
        parts = [_resolve(report, ref) for ref in claim["parts"]]
        total = _resolve(report, claim["total"])
        atol = float(claim.get("atol_scale", CLOSE_ATOL_SCALE))
        return float(np.max(np.abs(sum(parts) - total))) <= atol * _norm_scale(total)
    if kind == "sandwich":
        outer = _resolve(report, claim["outer"])
        mid = _resolve(report, claim["mid"])
        target = _resolve(report, claim["target"])
        atol = float(claim.get("atol_scale", CLOSE_ATOL_SCALE))
        return float(np.max(np.abs(outer @ mid @ outer - target))) <= atol * _norm_scale(target)
    if kind == "abs_continuous":
        return lebesgue.absolutely_continuous(
            _resolve(report, claim["subject"]), _resolve(report, claim["other"]), tol
        )
    if kind == "singular":
        return lebesgue.mutually_singular(
            _resolve(report, claim["subject"]), _resolve(report, claim["other"]), tol
        )
    if kind == "sqrt_image":
        op = _resolve(report, claim["operator"])
        vec = _resolve(report, claim["vector"])
        target = _resolve(report, claim["target"])
        image = core.sqrt_psd(op, tol) @ vec
        limit = tol.rel * _norm_scale(op) * max(1.0, float(np.linalg.norm(target)))
        return float(np.linalg.norm(image - target)) <= max(limit, tol.abs)
    if kind == "strength_supremum":
        op = _resolve(report, claim["operator"])
        ray = _resolve(report, claim["ray"])
        lam = float(claim["value"])
        ff = core.rank_one(ray)
        delta = SUPREMUM_DELTA_SCALE * (1.0 + lam)
        at = core.is_psd(op - lam * ff, tol)
        above = core.is_psd(op - (lam + delta) * ff, tol)
        return at and not above
    if kind == "strength_gap":
        hi = _resolve(report, claim["hi"])
        lo = _resolve(report, claim["lo"])
        ray = _resolve(report, claim["ray"])
        return strength(hi, ray, tol).value > strength(lo, ray, tol).value
    raise CliInputError(f"unknown claim kind {kind!r}")


# ---------------------------------------------------------------------------
# command handlers (pure: inputs + options -> report)


def cmd_strength(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    a = inputs["a"].value
    f = inputs["f"].value
    result = strength(a, f, tol)
    report = _report_skeleton("strength", inputs, tol, seed)
    report["verdict"] = {
        "lambda": result.value,
        "in_range": result.value > 0.0,
        "optimal_constant": result.constant,
    }
    report["claims"].append(
        {"kind": "strength_supremum", "operator": "input:a", "ray": "input:f", "value": result.value}
    )
    if result.witness is not None:
        ref = _add_vector_witness(report, "xi", result.witness)
        report["claims"].append(
            {"kind": "sqrt_image", "operator": "input:a", "vector": ref, "target": "input:f"}
        )
    return report


def cmd_leq(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    a = inputs["a"].value
    b = inputs["b"].value
    cmp = core.comparable(a, b, tol)
    verdict = cmp in (Comparison.LEQ, Comparison.EQUAL)
    report = _report_skeleton("leq", inputs, tol, seed)
    report["verdict"] = {"leq": verdict, "comparison": cmp.value}
    if verdict:
        report["claims"].append({"kind": "leq", "subject": "input:a", "other": "input:b"})
    else:
        ray = order_witness(a, b, tol)
        ref = _add_vector_witness(report, "ray", ray)
        report["claims"].append(
            {"kind": "strength_gap", "hi": "input:a", "lo": "input:b", "ray": ref}
        )
    return report


def cmd_sup(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    a = inputs["a"].value
    b = inputs["b"].value
    refute = inputs["t"].value if "t" in inputs else None
    verdict = lattice.sup_exists(a, b, tol, refute=refute)
    report = _report_skeleton("sup", inputs, tol, seed)
    report["verdict"] = {"exists": verdict.exists, "comparison": core.comparable(a, b, tol).value}
    if verdict.sup is not None:
        ref = _add_matrix_witness(report, "sup", verdict.sup)
        report["claims"].append({"kind": "geq", "subject": ref, "other": "input:a"})
        report["claims"].append({"kind": "geq", "subject": ref, "other": "input:b"})
    if verdict.witness is not None:
        ref = _add_matrix_witness(report, "refutation", verdict.witness)
        report["claims"].extend(
            [
                {"kind": "psd", "subject": ref},
                {"kind": "geq", "subject": ref, "other": "input:a"},
                {"kind": "geq", "subject": ref, "other": "input:b"},
                {"kind": "incomparable", "subject": ref, "other": "input:t"},
            ]
        )
    return report


def cmd_inf(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    a = inputs["a"].value
    b = inputs["b"].value
    verdict = lattice.inf_exists(a, b, tol)
    report = _report_skeleton("inf", inputs, tol, seed)
    report["verdict"] = {"exists": verdict.exists}
    cref = _add_matrix_witness(report, "candidate", verdict.candidate)
    report["claims"].append({"kind": "leq", "subject": cref, "other": "input:a"})
    report["claims"].append({"kind": "leq", "subject": cref, "other": "input:b"})
    ra = _add_matrix_witness(report, "reduced_a", verdict.reduced_a)
    rb = _add_matrix_witness(report, "reduced_b", verdict.reduced_b)
    report["claims"].append({"kind": "abs_continuous", "subject": ra, "other": rb})
    report["claims"].append({"kind": "abs_continuous", "subject": rb, "other": ra})
    if verdict.exists:
        iref = _add_matrix_witness(report, "inf", verdict.inf)
        report["claims"].extend(
            [
                {"kind": "leq", "subject": iref, "other": "input:a"},
                {"kind": "leq", "subject": iref, "other": "input:b"},
                {"kind": "close", "subject": iref, "other": cref},
            ]
        )
    else:
        wref = _add_matrix_witness(report, "witness", verdict.witness)
        report["claims"].extend(
            [
                {"kind": "psd", "subject": wref},
                {"kind": "leq", "subject": wref, "other": "input:a"},
                {"kind": "leq", "subject": wref, "other": "input:b"},
                {"kind": "incomparable", "subject": wref, "other": cref},
            ]
        )
    return report


def cmd_lebesgue(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    a = inputs["a"].value
    b = inputs["b"].value
    parts = lebesgue.ac_part(b, a, tol)
    report = _report_skeleton("lebesgue", inputs, tol, seed)
    report["verdict"] = {
        "ac_rank": core.numeric_rank(parts.ac, tol),
        "sing_rank": core.numeric_rank(parts.sing, tol),
    }
    acref = _add_matrix_witness(report, "ac", parts.ac)
    sref = _add_matrix_witness(report, "sing", parts.sing)
    _add_matrix_witness(report, "projector", parts.projector)
    report["claims"].extend(
        [
            {"kind": "sum_equals", "parts": [acref, sref], "total": "input:b"},
            {"kind": "abs_continuous", "subject": acref, "other": "input:a"},
            {"kind": "singular", "subject": sref, "other": "input:a"},
            {"kind": "leq", "subject": acref, "other": "input:b"},
            {"kind": "psd", "subject": sref},
        ]
    )
    return report


def cmd_parsum(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    a = inputs["a"].value
    b = inputs["b"].value
    p = lebesgue.parallel_sum(a, b)
    report = _report_skeleton("parsum", inputs, tol, seed)
    report["verdict"] = {"rank": core.numeric_rank(p, tol)}
    ref = _add_matrix_witness(report, "parallel_sum", p)
    report["claims"].extend(
        [
            {"kind": "psd", "subject": ref},
            {"kind": "leq", "subject": ref, "other": "input:a"},
            {"kind": "leq", "subject": ref, "other": "input:b"},
        ]
    )
    return report


def cmd_kadison_witness(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    a = inputs["a"].value
    b = inputs["b"].value
    t = inputs["t"].value
    s = lattice.kadison_witness(a, b, t, tol)
    report = _report_skeleton("kadison-witness", inputs, tol, seed)
    report["verdict"] = {"constructed": True}
    ref = _add_matrix_witness(report, "s", s)
    report["claims"].extend(
        [
            {"kind": "psd", "subject": ref},
            {"kind": "geq", "subject": ref, "other": "input:a"},
            {"kind": "geq", "subject": ref, "other": "input:b"},
            {"kind": "incomparable", "subject": ref, "other": "input:t"},
        ]
    )
    return report


def cmd_ando_witness(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    a = inputs["a"].value
    b = inputs["b"].value
    d = lattice.ando_witness(a, b, tol)
    candidate = lattice.ando_candidate(a, b, tol)
    report = _report_skeleton("ando-witness", inputs, tol, seed)
    report["verdict"] = {"constructed": True}
    cref = _add_matrix_witness(report, "candidate", candidate)
    dref = _add_matrix_witness(report, "d", d)
    report["claims"].extend(
        [
            {"kind": "psd", "subject": dref},
            {"kind": "leq", "subject": dref, "other": "input:a"},
            {"kind": "leq", "subject": dref, "other": "input:b"},
            {"kind": "incomparable", "subject": dref, "other": cref},
            {"kind": "leq", "subject": cref, "other": "input:a"},
            {"kind": "leq", "subject": cref, "other": "input:b"},
        ]
    )
    return report


def cmd_compress(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    a = inputs["a"].value
    b = inputs["b"].value
    comp = lattice.compress(a, b, tol)
    report = _report_skeleton("compress", inputs, tol, seed)
    report["verdict"] = {"rank": int(comp.range_basis.shape[1])}
    aref = _add_matrix_witness(report, "a_tilde", comp.a_tilde)
    bref = _add_matrix_witness(report, "b_tilde", comp.b_tilde)
    jref = _add_matrix_witness(report, "j", comp.j)
    pref = _add_matrix_witness(report, "range_proj", comp.range_proj)
    report["claims"].extend(
        [
            {"kind": "psd", "subject": aref},
            {"kind": "psd", "subject": bref},
            {"kind": "sum_equals", "parts": [aref, bref], "total": pref},
            {"kind": "sandwich", "outer": jref, "mid": aref, "target": "input:a"},
            {"kind": "sandwich", "outer": jref, "mid": bref, "target": "input:b"},
            {"kind": "leq", "subject": aref, "other": pref},
            {"kind": "leq", "subject": bref, "other": pref},
        ]
    )
    return report


HANDLERS = {
    "strength": (cmd_strength, ("a",), ("f",), ()),
    "leq": (cmd_leq, ("a", "b"), (), ()),
    "sup": (cmd_sup, ("a", "b"), (), ("t",)),
    "inf": (cmd_inf, ("a", "b"), (), ()),
    "lebesgue": (cmd_lebesgue, ("a", "b"), (), ()),
    "parsum": (cmd_parsum, ("a", "b"), (), ()),
    "kadison-witness": (cmd_kadison_witness, ("a", "b", "t"), (), ()),
    "ando-witness": (cmd_ando_witness, ("a", "b"), (), ()),
    "compress": (cmd_compress, ("a", "b"), (), ()),
}


# ---------------------------------------------------------------------------
# printing


def _print_json(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _fmt_number(x: float) -> str:
    return f"{x:.12g}"


def _print_human(report: dict, runtime_ms: float) -> None:
    out = [f"command: {report['command']}"]
    for name, desc in sorted(report["inputs"].items()):
        out.append(f"input {name}: {desc['path']} (sha256 {desc['sha256'][:12]}...)")
    for key, value in sorted(report["verdict"].items()):
        if isinstance(value, float):
            out.append(f"{key}: {_fmt_number(value)}")
        else:
            out.append(f"{key}: {value}")
    for name, node in sorted(report["witnesses"].items()):
        if node["kind"] == "matrix":
            m = obj_to_matrix(node["value"])
            body = np.array2string(np.round(m, 9), separator=", ")
        else:
            v = obj_to_vector(node["value"])
            body = np.array2string(np.round(v, 9), separator=", ")
        out.append(f"{name}:\n{body}")
    out.append(f"claims: {len(report['claims'])}")
    out.append(f"runtime_ms: {runtime_ms:.1f}")
    sys.stdout.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are parse errors (exit 1)
        raise CliInputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="psdorder", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} decision")
        p.add_argument("--a", metavar="FILE")
        p.add_argument("--b", metavar="FILE")
        p.add_argument("--t", metavar="FILE")
        p.add_argument("--f", metavar="FILE")
        p.add_argument("--tol", type=float, default=None, metavar="REAL")
        p.add_argument("--seed", type=int, default=None, metavar="INT")
        p.add_argument("--json", action="store_true")
    g = sub.add_parser("gen", help="generate a seeded random PSD matrix file")
    g.add_argument("--seed", type=int, default=0, metavar="INT")
    g.add_argument("--dim", type=int, required=True, metavar="INT")
    g.add_argument("--rank", type=int, default=None, metavar="INT")
    g.add_argument("--json", action="store_true")
    s = sub.add_parser("selftest", help="run every invariant suite")
    s.add_argument("--seed", type=int, default=0, metavar="INT")
    s.add_argument("--trials", type=int, default=20, metavar="INT")
    s.add_argument("--tol", type=float, default=None, metavar="REAL")
    s.add_argument("--json", action="store_true")
    return parser


def _tolerance_from(args) -> Tolerance:
    if getattr(args, "tol", None) is None:
        return core.DEFAULT_TOL
    if args.tol <= 0:
        raise MatrixError("tolerance must be positive")
    return Tolerance(rel=args.tol, abs=args.tol / 100.0)


def run(argv) -> int:
    """Dispatch one command line; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if args.command == "gen":
        rank = args.rank if args.rank is not None else args.dim
        if args.dim < 1:
            raise MatrixError("dimension must be at least 1")
        m = random_psd(rng_from_seed(args.seed), args.dim, rank)
        sys.stdout.write(json.dumps(matrix_to_obj(m), sort_keys=True))
        sys.stdout.write("\n")
        return 0

    if args.command == "selftest":
        from . import selftest  # deferred: selftest drives cli handlers in its report suite

        tol = _tolerance_from(args)
        summary = selftest.run_selftest(seed=args.seed, trials=args.trials, tol=tol)
        if args.json:
            _print_json(summary)
        else:
            for suite in summary["suites"]:
                status = "ok" if suite["failed"] == 0 else "FAIL"
                sys.stdout.write(
                    f"{suite['name']}: passed={suite['passed']} failed={suite['failed']} [{status}]\n"
                )
                for msg in suite["failures"]:
                    sys.stdout.write(f"  - {msg}\n")
            sys.stdout.write(f"total: passed={summary['passed']} failed={summary['failed']}\n")
        return 0 if summary["failed"] == 0 else 1

    handler, required, vectors, optional = HANDLERS[args.command]
    tol = _tolerance_from(args)
    inputs: dict[str, LoadedValue] = {}
    for name in required:
        path = getattr(args, name)
        if path is None:
            raise CliInputError(f"subcommand {args.command} requires --{name}")
        inputs[name] = load_matrix_file(path, tol)
    for name in vectors:
        path = getattr(args, name)
        if path is None:
            raise CliInputError(f"subcommand {args.command} requires --{name}")
        inputs[name] = load_vector_file(path, tol)
    for name in optional:
        path = getattr(args, name)
        if path is not None:
            inputs[name] = load_matrix_file(path, tol)
    dims = {lv.value.shape[0] for lv in inputs.values()}
    if len(dims) > 1:
        raise MatrixError(f"inputs disagree on dimension: {sorted(dims)}")

    report = handler(inputs, tol, seed=args.seed)
    if args.json:
        _print_json(report)
    else:
        _print_human(report, (time.perf_counter() - started) * 1e3)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(argv)
    except MatrixError as exc:
        sys.stderr.write(f"precondition rejected: {exc}\n")
        return 2
    except CliInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ToleranceBreakdownError as exc:
        sys.stderr.write(f"internal diagnostic failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
