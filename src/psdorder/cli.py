"""Command-line front end: one subcommand per decision procedure.

Matrices travel as JSON files::

    {"n": 2, "complex": true,  "data": [[[1.0, 0.0], [0.0, -1.0]], ...]}
    {"n": 2, "complex": false, "data": [[1.0, 0.0], [0.0, 1.0]]}

Vectors use the same envelope with a flat ``data`` list::

    {"n": 2, "complex": false, "data": [1.0, 0.0]}

Complex entries are ``[re, im]`` pairs.  `to_obj` writes this envelope for
either kind and `from_obj` reads it back for a given kind (``"matrix"`` or
``"vector"``, as report nodes record it).  Plain CSV is accepted for real
symmetric matrix input.  A Hermiticity violation beyond tolerance or a
non-finite entry (NaN, infinity) is a load error.  ``--tol REAL`` sets
``rel = REAL`` and ``abs = REAL / 100``; REAL must be finite and positive.

Every verdict is emitted as a report that embeds its inputs (path, SHA-256
digest, and the parsed matrix) and its witness matrices together with the
claims they must satisfy, so `reverify_report` can re-check a report from
its serialized form alone.  The claims are fixed by the command and the
verdict (one table, `_CLAIMS`), not chosen by the report: `reverify_report`
checks the fixed claims, and a report whose ``claims`` list differs from
them fails re-verification.  In a report (``"report_version": 2``) every
matrix or vector node is ``{"n", "complex", "f64le"}``: base64 of the row-major
``<f8`` buffer (``<c16``, re/im interleaved, if complex), so values round-trip
bit for bit; `from_obj` reads both envelopes, so older reports still re-verify::

    np.frombuffer(base64.b64decode(v["f64le"]), "<c16" if v["complex"] else "<f8").reshape(...)

With ``--json`` the report is printed as canonical JSON, exactly
``json.dumps(report, sort_keys=True, separators=(",", ":"))`` and a newline,
which is byte-identical across runs for identical inputs and seed; the
human-readable form adds the runtime.
`gen` and ``selftest --json`` print the same compact form.

Exit codes: 0 success, 1 I/O or parse errors (a flag the subcommand does
not read among them), 2 precondition rejection, 3 internal tolerance
breakdown (`ToleranceBreakdownError`).  The CLI fails closed: `run` passes
every report through `reverify_report` before printing it, and a report
with a failed claim is not printed; its failures go to stderr, with exit 3.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import core, lattice, lebesgue
from .core import Comparison, MatrixError, Tolerance, ToleranceBreakdownError
from .strength import _order_test, _scaled, _times_power_of_two, strength
from .sampling import random_psd, rng_from_seed

__all__ = [
    "main",
    "run",
    "CliInputError",
    "reverify_report",
    "to_obj",
    "from_obj",
]

SUPREMUM_DELTA_SCALE = 1e-6  # supremum claims step to lambda + delta (top + lambda)
CLOSE_ATOL_SCALE = 1e-8


class CliInputError(Exception):
    """I/O or parse failure (exit code 1)."""


# ---------------------------------------------------------------------------
# matrix / vector serialization


def to_obj(x) -> dict:
    """JSON envelope of a matrix (2-d) or vector (1-d) with finite entries."""
    a = core.as_matrix(x) if np.ndim(x) == 2 else core.as_vector(x)
    if np.iscomplexobj(a):  # `core` keeps complex only a non-zero imaginary part
        return {"n": a.shape[0], "complex": True, "data": np.stack([a.real, a.imag], -1).tolist()}
    return {"n": a.shape[0], "complex": False, "data": a.tolist()}


def _pack(x) -> dict:
    """Report node of a matrix or vector: `to_obj`'s envelope with its buffer in base64."""
    a = core.as_matrix(x) if np.ndim(x) == 2 else core.as_vector(x)
    cplx = np.iscomplexobj(a)  # the complex flag `to_obj` sets
    raw = np.asarray(a, "<c16" if cplx else "<f8").tobytes()
    return {"n": a.shape[0], "complex": cplx, "f64le": base64.b64encode(raw).decode("ascii")}


def from_obj(obj, kind: str) -> np.ndarray:
    """Array of a ``data`` or ``f64le`` envelope of `kind` ("matrix" or "vector").

    complex128 if the envelope is flagged ``complex``, float64 otherwise."""
    try:
        n, cplx = obj["n"], obj["complex"]
        if type(n) is not int or type(cplx) is not bool:  # exact: isinstance takes JSON true for an int
            raise TypeError(f"n must be an integer and complex a boolean, got {n!r} and {cplx!r}")
        dims = {"matrix": (n, n), "vector": (n,)}[kind]
        if "f64le" in obj:  # a report node; b64decode raises TypeError on any JSON non-string
            raw = base64.b64decode(obj["f64le"], validate=True)
            values = np.frombuffer(raw, "<c16" if cplx else "<f8")
            if values.size != math.prod(dims) or not np.all(np.isfinite(values)):
                raise ValueError(f"the f64le payload must hold {dims} finite values")
            return values.reshape(dims).astype(np.complex128 if cplx else np.float64)
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed {kind} object: {exc}") from exc
    try:
        parts = np.array(data)
        # JSON integers beyond int64 give an object array; they are numbers too.
        if parts.dtype == object and all(type(v) in (int, float) for v in parts.flat):
            parts = parts.astype(np.float64)
    except (ValueError, OverflowError) as exc:  # ragged nesting, integer beyond float range
        raise CliInputError(f"malformed {kind} data: {exc}") from exc
    # Only bool/int/float arrays hold bare JSON numbers; strings and nulls do not.
    if parts.shape != dims + ((2,) if cplx else ()) or parts.dtype.kind not in "biuf":
        entries = "[re, im] pairs" if cplx else "bare numbers"
        raise CliInputError(f"{kind} data must be a {dims} array of {entries}")
    if cplx:  # reinterpret the pairs, so that signed zeros survive
        return np.ascontiguousarray(parts, dtype=np.float64).view(np.complex128)[..., 0]
    return parts.astype(np.float64)


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
    return np.array(rows, dtype=np.float64)


@dataclass
class LoadedValue:
    """Input matrix or vector with its provenance descriptor."""

    value: core.EigDecomp | np.ndarray  # a matrix's validated operand, which handlers pass on
    descriptor: dict  # {"path", "sha256", "kind", "value": obj}


def _loaded(kind: str, value, path: str, raw: bytes) -> LoadedValue:
    digest = hashlib.sha256(raw).hexdigest()
    node = _pack(value.matrix if kind == "matrix" else value)
    return LoadedValue(value, {"path": path, "sha256": digest, "kind": kind, "value": node})


def _load_file(path: str, kind: str, tol: Tolerance) -> LoadedValue:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    if kind == "matrix" and path.endswith(".csv"):
        value = _parse_csv_matrix(raw.decode("utf-8", errors="replace"))
    else:
        try:
            value = from_obj(json.loads(raw.decode("utf-8")), kind)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CliInputError(f"cannot parse {path}: {exc}") from exc
    try:
        value = core.eig_hermitian(value, tol) if kind == "matrix" else core.as_vector(value)
    except MatrixError as exc:
        raise CliInputError(f"load error for {path}: {exc}") from exc
    return _loaded(kind, value, path, raw)


def load_matrix_file(path: str, tol: Tolerance) -> LoadedValue:
    return _load_file(path, "matrix", tol)


def load_vector_file(path: str, tol: Tolerance) -> LoadedValue:
    return _load_file(path, "vector", tol)


def memory_value(name: str, value, kind: str = "matrix") -> LoadedValue:
    """Descriptor for an in-memory input (used by the self-test suites)."""
    value = core.eig_hermitian(value) if kind == "matrix" else core.as_vector(value)
    raw = _dumps(to_obj(value.matrix if kind == "matrix" else value)).encode("utf-8")
    return _loaded(kind, value, f"<memory:{name}>", raw)


# ---------------------------------------------------------------------------
# report assembly


def _report(
    command: str, inputs: dict[str, LoadedValue], tol: Tolerance, seed, verdict: dict, witnesses
) -> dict:
    """Assemble a report and its `_required_claims`; witnesses given as None are left out."""
    report = {
        "command": command,
        "report_version": 2,
        "tolerance": {"rel": tol.rel, "abs": tol.abs},
        "seed": seed,
        "inputs": {name: lv.descriptor for name, lv in inputs.items()},
        "verdict": verdict,
        "witnesses": {},
    }
    for name, x in witnesses.items():
        if x is not None:
            kind = "matrix" if x.ndim == 2 else "vector"
            report["witnesses"][name] = {"kind": kind, "value": _pack(x)}
    report["claims"] = _required_claims(report)
    return report


# The boolean verdict fields that select a command's claims (`sup` also keys on its refutation).
_SHAPE = {"strength": ("in_range",), "leq": ("leq",), "sup": ("exists",), "inf": ("exists",)}

# Operand names of each claim kind, in table order; kinds not listed take (subject, other).
_OPERANDS = {
    "strength_supremum": ("operator", "ray", "value"),
    "sqrt_image": ("operator", "vector", "target"),
    "strength_gap": ("hi", "lo", "ray"),
    "sum_equals": ("parts", "total"),
    "sandwich": ("outer", "mid", "target"),
}

_INF_COMMON = (
    ("leq", "witness:candidate", "input:a"), ("leq", "witness:candidate", "input:b"),
    ("abs_continuous", "witness:reduced_a", "witness:reduced_b"),
    ("abs_continuous", "witness:reduced_b", "witness:reduced_a"),
)
_SUPREMUM = ("strength_supremum", "input:a", "input:f", "verdict:lambda")

# (command, *verdict shape) -> the claims that certify that verdict, each (kind, *operands).
# An operand ``verdict:<field>`` stands for the value of that verdict field.
_CLAIMS = {
    ("strength", True): (_SUPREMUM, ("sqrt_image", "input:a", "witness:xi", "input:f")),
    ("strength", False): (_SUPREMUM,),
    ("leq", True): (("leq", "input:a", "input:b"),),
    ("leq", False): (("strength_gap", "input:a", "input:b", "witness:ray"),),
    ("sup", True, False): (("geq", "witness:sup", "input:a"), ("geq", "witness:sup", "input:b")),
    ("sup", False, False): (),
    ("sup", False, True): (
        ("psd", "witness:refutation"),
        ("geq", "witness:refutation", "input:a"), ("geq", "witness:refutation", "input:b"),
        ("incomparable", "witness:refutation", "input:t"),
    ),
    ("inf", True): _INF_COMMON + (
        ("leq", "witness:inf", "input:a"), ("leq", "witness:inf", "input:b"),
        ("close", "witness:inf", "witness:candidate"),
    ),
    ("inf", False): _INF_COMMON + (
        ("psd", "witness:witness"),
        ("leq", "witness:witness", "input:a"), ("leq", "witness:witness", "input:b"),
        ("incomparable", "witness:witness", "witness:candidate"),
    ),
    ("lebesgue",): (
        ("sum_equals", ("witness:ac", "witness:sing"), "input:b"),
        ("abs_continuous", "witness:ac", "input:a"), ("singular", "witness:sing", "input:a"),
        ("leq", "witness:ac", "input:b"), ("psd", "witness:sing"),
    ),
    ("parsum",): (
        ("psd", "witness:parallel_sum"),
        ("leq", "witness:parallel_sum", "input:a"), ("leq", "witness:parallel_sum", "input:b"),
    ),
    ("kadison-witness",): (
        ("psd", "witness:s"), ("geq", "witness:s", "input:a"), ("geq", "witness:s", "input:b"),
        ("incomparable", "witness:s", "input:t"),
    ),
    ("ando-witness",): (
        ("psd", "witness:d"), ("leq", "witness:d", "input:a"), ("leq", "witness:d", "input:b"),
        ("incomparable", "witness:d", "witness:candidate"),
        ("leq", "witness:candidate", "input:a"), ("leq", "witness:candidate", "input:b"),
    ),
    ("compress",): (
        ("psd", "witness:a_tilde"), ("psd", "witness:b_tilde"),
        ("sum_equals", ("witness:a_tilde", "witness:b_tilde"), "witness:range_proj"),
        ("sandwich", "witness:j", "witness:a_tilde", "input:a"),
        ("sandwich", "witness:j", "witness:b_tilde", "input:b"),
        ("leq", "witness:a_tilde", "witness:range_proj"),
        ("leq", "witness:b_tilde", "witness:range_proj"),
    ),
}


def _required_claims(report: dict) -> list[dict]:
    """The claims that certify a report's verdict; KeyError or TypeError if no row fits."""
    command, verdict = report["command"], report["verdict"]
    shape = tuple(verdict[field] for field in _SHAPE.get(command, ()))
    if command == "sup":
        shape += ("refutation" in report["witnesses"],)
    if not all(v is True or v is False for v in shape):  # 1 and 1.0 equal True as keys
        raise TypeError(f"verdict fields {_SHAPE[command]} must be booleans")

    def operand(x):
        if isinstance(x, tuple):
            return list(x)
        return verdict[x[len("verdict:"):]] if x.startswith("verdict:") else x

    return [
        {"kind": kind, **dict(zip(_OPERANDS.get(kind, ("subject", "other")), map(operand, ops)))}
        for kind, *ops in _CLAIMS[(command,) + shape]
    ]


def reverify_report(report: dict) -> list[str]:
    """Re-check the claims that certify a parsed report's verdict; returns failure messages.

    The claims checked are `_required_claims`, fixed by command and verdict; a ``claims``
    list that differs from them adds one ``claims:`` failure.  They are checked from the
    serialized form alone, at the report's own stated tolerance, so a consumer must check
    ``tolerance`` themselves.  A stated tolerance that is missing, non-finite or not
    positive, or a command and verdict with no claims, is a failure, not raised.  Each
    referenced input or witness is decoded once, a matrix into its operand
    (`core.eig_hermitian`), so it is validated once and eigendecomposed at most once.
    """
    try:
        stated = report["tolerance"]
        tol = Tolerance(rel=float(stated["rel"]), abs=float(stated["abs"]))
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        return [f"tolerance: no usable stated tolerance: {exc!r}"]
    try:
        claims = _required_claims(report)
    except (KeyError, TypeError) as exc:
        return [f"claims: no claims are fixed for this command and verdict: {exc!r}"]

    @functools.cache
    def resolve(ref) -> core.EigDecomp | np.ndarray:
        domain, _, name = ref.partition(":")
        node = report[{"input": "inputs", "witness": "witnesses"}[domain]][name]
        value = from_obj(node["value"], node["kind"])
        value.flags.writeable = False  # shared by every claim that names it
        return core.eig_hermitian(value, tol) if node["kind"] == "matrix" else value

    failures: list[str] = []
    # Compared as text: True == 1.0 in Python, but not in a report.
    if _dumps(report.get("claims")) != _dumps(claims):
        failures.append("claims: the listed claims are not the ones its command and verdict fix")
    for claim in claims:
        try:
            ok = _check_claim(claim, resolve, tol)
        except (
            ValueError, TypeError, KeyError, OverflowError, CliInputError, ToleranceBreakdownError
        ) as exc:
            failures.append(f"{claim['kind']}: error during re-verification: {exc}")
            continue
        if not ok:
            failures.append(f"{claim['kind']}: claim {claim} failed re-verification")
    return failures


def _residual_ok(residual: np.ndarray, scale: float) -> bool:
    """``|residual|`` is at most `CLOSE_ATOL_SCALE` of ``scale``, a largest ``|entry|`` of its terms."""
    return float(np.max(np.abs(residual))) <= CLOSE_ATOL_SCALE * scale


def _check_claim(claim: dict, resolve, tol: Tolerance) -> bool:
    def get(key):  # a matrix operand, as `resolve` decoded it; a vector in its place fails here
        return core.eig_hermitian(resolve(claim[key]), tol)

    kind = claim["kind"]
    if kind == "psd":
        return core.is_psd(get("subject"), tol)
    if kind in ("leq", "geq"):
        x, y = get("subject"), get("other")
        return core.loewner_leq(x, y, tol) if kind == "leq" else core.loewner_leq(y, x, tol)
    if kind == "incomparable":
        return core.comparable(get("subject"), get("other"), tol) is Comparison.INCOMPARABLE
    if kind == "close":
        a, b = get("subject"), get("other")
        return _residual_ok(a.matrix - b.matrix, max(a._peak, b._peak))
    if kind == "sum_equals":
        parts = [core.eig_hermitian(resolve(ref), tol).matrix for ref in claim["parts"]]
        total = get("total")
        return _residual_ok(sum(parts) - total.matrix, total._peak)
    if kind == "sandwich":  # j² is on the scale of the call's a + b, which its rank cut reads
        outer, mid, target = (get(key) for key in ("outer", "mid", "target"))
        scale = max(target._peak, outer._peak**2)  # a huge tampered j raises OverflowError
        return _residual_ok(outer.matrix @ mid.matrix @ outer.matrix - target.matrix, scale)
    if kind == "abs_continuous":
        return lebesgue.absolutely_continuous(get("subject"), get("other"), tol)
    if kind == "singular":
        return lebesgue.mutually_singular(get("subject"), get("other"), tol)
    if kind == "sqrt_image":  # on `strength`'s scale, where ``tol``'s unit 1 is the unit of a
        op, unit = core._operands(get("operator"), tol=tol)
        vec, target = resolve(claim["vector"]), resolve(claim["target"])
        f, e, s = _scaled(target, unit)  # the residual sqrt(a') xi' - f' is 2^-e (sqrt(a) xi - f)
        residual = _times_power_of_two(core.sqrt_psd(op, tol) @ vec - target, -e)
        limit = tol.floor(math.ldexp(op._peak, -s)) * max(1.0, float(np.linalg.norm(f)))
        return float(np.linalg.norm(residual)) <= max(limit, tol.abs)
    if kind == "strength_supremum":
        if type(claim["value"]) not in (int, float):  # a JSON boolean is not a number here
            raise CliInputError(f"strength_supremum value {claim['value']!r} is not a number")
        return _supremum(get("operator"), resolve(claim["ray"]), float(claim["value"]), tol)
    hi, lo, ray = get("hi"), get("lo"), resolve(claim["ray"])  # strength_gap
    return strength(hi, ray, tol).value > strength(lo, ray, tol).value


def _supremum(dec: core.EigDecomp, ray: np.ndarray, lam: float, tol: Tolerance) -> bool:
    """The `strength_supremum` claim that PSD ``a`` has strength ``lam`` along ``f``, read like
    ``sqrt_image`` on the pair ``a'``, ``f'`` of `strength._scaled`, where it claims
    ``lam' = lam 4^e / 2^s``.  Some unit ``x`` must have ``x*(a' - t f'f'*)x < -2 n eps ||a' - t f'f'*||_F``
    at ``t = lam' + delta (top' + lam')``, ``top'`` the largest eigenvalue of ``a'``: a step of
    ``delta lam'`` alone would sink below rounding when ``f`` leans on a small eigenvalue.  For
    ``lam = 0``, which the PSD floor cannot refute for a ray just outside the range, ``x`` is an
    eigenvector of ``a`` outside its kept range.  For ``lam > 0``, ``x`` is along ``a'^+ f'``, and
    ``a' - lam' f'f'*`` must pass `Tolerance.psd` on the top ``top' >= 1`` of ``a'``, so on the floor
    ``rel top'`` on which `strength` found ``a`` PSD: the pair's own unit may lie ``4n`` times below it."""
    dec, unit = core._operands(dec, tol=tol)
    if not (0.0 <= lam < math.inf and dec.is_psd(unit)):  # a strength is finite and not negative
        return False
    keep = dec.kept(unit)
    f, e, s = _scaled(ray, unit)
    try:
        lam = math.ldexp(lam, 2 * e - s)
    except OverflowError:  # the strength of a ray on this scale is below 8n
        return False
    a, ff, top = _times_power_of_two(dec.matrix, -s), core.rank_one(f), math.ldexp(dec.top, -s)
    above = a - (lam + SUPREMUM_DELTA_SCALE * (top + lam)) * ff
    rounding = core._drift(2 * a.shape[0], float(np.linalg.norm(above)))  # 2 n eps ||above||_F
    if lam == 0.0:
        x = dec.vectors[:, ~keep]
    else:
        v = dec.vectors[:, keep]
        x = v @ ((v.conj().T @ f) / np.ldexp(dec.eigenvalues[keep], -s))[:, np.newaxis]
        if not x.any():  # f is orthogonal to the range of a, or a is 0
            return False
        x = x / np.linalg.norm(x)
    strict = bool(np.any(np.einsum("ij,ik,kj->j", x.conj(), above, x).real < -rounding))
    if lam == 0.0 or not strict:
        return strict
    return tol.psd(float(core._exact(a, lam * ff, subtract=True).eigenvalues[0]), top)  # attained


# ---------------------------------------------------------------------------
# command handlers (pure: inputs + options -> report)


def cmd_strength(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    result = strength(inputs["a"].value, inputs["f"].value, tol)
    lam = result.value
    verdict = {"lambda": lam, "in_range": lam > 0.0, "optimal_constant": result.constant}
    return _report("strength", inputs, tol, seed, verdict, {"xi": result.witness})


def cmd_leq(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    # A refuted order's `strength_gap` claim reads both operands' strengths, so
    # both must be PSD; one decomposition of b - a gives the comparison and the ray.
    cmp, ray = _order_test(*core._operands(inputs["a"].value, inputs["b"].value, tol=tol, psd=True))
    verdict = {"leq": ray is None, "comparison": cmp.value}
    return _report("leq", inputs, tol, seed, verdict, {"ray": ray})


def cmd_sup(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    names = ("a", "b", "t") if "t" in inputs else ("a", "b")
    a, b, *t, _ = core._operands(*(inputs[name].value for name in names), tol=tol)  # each call fixes its unit
    result = lattice.sup_exists(a, b, tol)
    refutation = None
    if t and not result.exists:
        with contextlib.suppress(MatrixError):  # t is not a strict upper bound of the pair
            refutation = lattice.kadison_witness(a, b, *t, tol)
    verdict = {"exists": result.exists, "comparison": result.comparison.value}
    witnesses = {"sup": result.sup, "refutation": refutation}
    return _report("sup", inputs, tol, seed, verdict, witnesses)


def cmd_inf(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    result = lattice.inf_exists(inputs["a"].value, inputs["b"].value, tol)
    names = ("candidate", "reduced_a", "reduced_b", "inf", "witness")
    witnesses = {name: getattr(result, name) for name in names}
    return _report("inf", inputs, tol, seed, {"exists": result.exists}, witnesses)


def cmd_lebesgue(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    db, da, unit = core._operands(inputs["b"].value, inputs["a"].value, tol=tol)
    parts = lebesgue.ac_part(db, da, unit)
    # the decision's ranks: [a]b lives on ran a ∩ ran b, so rank(b - [a]b) = rank b - rank [a]b
    qb, _, c0 = lebesgue._angles(da, db, unit)
    verdict = {"ac_rank": c0.shape[1], "sing_rank": qb.shape[1] - c0.shape[1]}
    witnesses = {"ac": parts.ac, "sing": parts.sing, "projector": parts.projector}
    return _report("lebesgue", inputs, tol, seed, verdict, witnesses)


def cmd_parsum(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    p = lebesgue.parallel_sum(inputs["a"].value, inputs["b"].value, tol)
    verdict = {"rank": core.numeric_rank(p, tol)}
    return _report("parsum", inputs, tol, seed, verdict, {"parallel_sum": p})


def cmd_kadison_witness(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    s = lattice.kadison_witness(inputs["a"].value, inputs["b"].value, inputs["t"].value, tol)
    return _report("kadison-witness", inputs, tol, seed, {"constructed": True}, {"s": s})


def cmd_ando_witness(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    verdict = lattice._refutation(inputs["a"].value, inputs["b"].value, tol)
    witnesses = {"candidate": verdict.candidate, "d": verdict.witness}
    return _report("ando-witness", inputs, tol, seed, {"constructed": True}, witnesses)


def cmd_compress(inputs: dict[str, LoadedValue], tol: Tolerance, seed=None) -> dict:
    comp = lattice.compress(inputs["a"].value, inputs["b"].value, tol)
    witnesses = {name: getattr(comp, name) for name in ("a_tilde", "b_tilde", "j", "range_proj")}
    verdict = {"rank": int(comp.range_basis.shape[1])}
    return _report("compress", inputs, tol, seed, verdict, witnesses)


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


def _dumps(x) -> str:
    """Canonical JSON text of ``x``: sorted keys, no whitespace, C encoder."""
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


def _print_human(report: dict, runtime_ms: float) -> None:
    out = [f"command: {report['command']}"]
    for name, desc in sorted(report["inputs"].items()):
        out.append(f"input {name}: {desc['path']} (sha256 {desc['sha256'][:12]}...)")
    for key, value in sorted(report["verdict"].items()):
        out.append(f"{key}: {format(value, '.12g') if isinstance(value, float) else value}")
    for name, node in sorted(report["witnesses"].items()):
        x = from_obj(node["value"], node["kind"])
        body = np.array2string(np.round(x, 9), separator=", ")
        out.append(f"{name}:\n{body}")
    out.append(f"claims: {len(report['claims'])}")
    out.append(f"runtime_ms: {runtime_ms:.1f}")
    sys.stdout.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no prefix matching: ``inf --t`` must not mean ``--tol``
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # usage problems are parse errors (exit 1)
        raise CliInputError(message)


_SUBCOMMANDS = {name: f"run the {name} decision" for name in HANDLERS}
_SUBCOMMANDS["gen"] = "generate a seeded random PSD matrix file"
_SUBCOMMANDS["selftest"] = "run every invariant suite"


def _add_arguments(p: _Parser, name: str) -> None:
    if name in HANDLERS:  # only the row's input flags, so that argparse rejects the rest
        _, required, vectors, optional = HANDLERS[name]
        for flag in required + vectors + optional:
            p.add_argument(f"--{flag}", metavar="FILE")
        p.add_argument("--tol", type=float, default=None, metavar="REAL")
    p.add_argument("--seed", type=int, default=None if name in HANDLERS else 0, metavar="INT")
    if name == "gen":
        p.add_argument("--dim", type=int, required=True, metavar="INT")
        p.add_argument("--rank", type=int, default=None, metavar="INT")
    elif name == "selftest":
        p.add_argument("--trials", type=int, default=20, metavar="INT")
        p.add_argument("--tol", type=float, default=None, metavar="REAL")
    p.add_argument("--json", action="store_true")


def _parse_args(argv) -> argparse.Namespace:
    """Parse a command line; only the named subcommand's parser is built when it comes first."""
    if argv and argv[0] in _SUBCOMMANDS:
        sub = _Parser(prog=f"psdorder {argv[0]}")  # the prog `add_subparsers` gives it
        _add_arguments(sub, argv[0])
        return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    parser = _Parser(prog="psdorder", description=__doc__.splitlines()[0])  # anything else
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, text in _SUBCOMMANDS.items():
        _add_arguments(subparsers.add_parser(name, help=text), name)
    return parser.parse_args(argv)


def _tolerance_from(args) -> Tolerance:
    if getattr(args, "tol", None) is None:
        return core.DEFAULT_TOL
    # abs = tol / 100 must not underflow to zero.
    return Tolerance(rel=args.tol, abs=args.tol / 100.0)


def run(argv) -> int:
    """Dispatch one command line; returns the exit status."""
    args = _parse_args(argv)
    started = time.perf_counter()
    if args.command in ("gen", "selftest") and args.seed < 0:  # numpy takes no negative seed
        raise CliInputError(f"--seed must be a non-negative integer, got {args.seed}")

    if args.command == "gen":
        rank = args.rank if args.rank is not None else args.dim
        if args.dim < 1:
            raise MatrixError("dimension must be at least 1")
        m = random_psd(rng_from_seed(args.seed), args.dim, rank)
        print(_dumps(to_obj(m)))
        return 0

    if args.command == "selftest":
        from . import selftest  # deferred: selftest drives cli handlers in its report suite

        tol = _tolerance_from(args)
        summary = selftest.run_selftest(seed=args.seed, trials=args.trials, tol=tol)
        if args.json:
            print(_dumps(summary))
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
    for name in required + vectors + optional:
        path = getattr(args, name)
        if path is None:
            if name in optional:
                continue
            raise CliInputError(f"subcommand {args.command} requires --{name}")
        inputs[name] = (load_vector_file if name in vectors else load_matrix_file)(path, tol)

    report = handler(inputs, tol, seed=args.seed)
    failures = reverify_report(report)
    if failures:  # fail closed: a report that fails its own claims is never printed
        raise ToleranceBreakdownError("the report fails re-verification: " + "; ".join(failures))
    if args.json:
        print(_dumps(report))
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
