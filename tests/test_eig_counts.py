"""Hermitian eigendecompositions, SVDs and Cholesky factorizations per call.

Every rank, projector, root and PSD verdict about an operand is read from one
`EigDecomp`, so eigh counts only grow when a new distinct matrix enters a
decision.  A PSD or full-rank verdict that `core._psd_band` certifies from a
diagonal entry or a Cholesky factor needs no `EigDecomp` at all, so a
comparison that the band settles runs no eigh.  Every range question about a pair (absolute continuity,
singularity, the AC part, a shared range direction) is one SVD of the
principal angles, so work moved from eigh to SVD stays visible; it runs
only when ``ran a`` is not the whole space, so full-rank pairs need none.  The counter
wraps `numpy.linalg.eigh`, `numpy.linalg.svd` and `numpy.linalg.cholesky` for the duration of a test
and records the shape of each decomposed matrix, so a decomposition moved to
a smaller space stays visible too.  It also records each matrix's dtype: a
real instance must be decomposed in float64 alone, so a stray complex
coercion fails here rather than only costing time.

The samplers are pinned by the shapes `numpy.linalg.qr` receives: each
factors only the columns of its unitary that reach the instance.  The
shapes `numpy.linalg.eigvalsh` receives pin that a sampler decides each draw
from its factors, with no n×n spectrum where they settle the test.

Validation is pinned the same way: a public entry point validates each
matrix argument once, into the `EigDecomp` its callees share, so
`core.as_hermitian` and `core.as_matrix` each run once per matrix argument.
Operands of different dimensions are rejected before any eigh, SVD,
Cholesky or `numpy.linalg.inv` runs.  Both of these tests read their
public entries from `conftest.ENTRIES`, as `test_core`'s boundary test does.
"""

import json

import numpy as np
import pytest

import psdorder as po
from psdorder import cli, core, sampling
from conftest import ENTRIES, N


def recorded(monkeypatch, *names):
    """``(calls, dtypes)``: ``(name, shape)`` and ``(name, dtype)`` of each matrix that the
    `numpy.linalg` functions ``names`` see for the rest of the test, in order."""
    calls, dtypes = [], []

    def counting(name):
        wrapped = getattr(np.linalg, name)

        def call(m, *args, **kwargs):
            calls.append((name, np.shape(m)))
            dtypes.append((name, np.asarray(m).dtype))
            return wrapped(m, *args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls, dtypes


@pytest.fixture
def linalg_calls(monkeypatch, inst):
    """``(name, shape)`` of the counted `numpy.linalg` calls, in order.

    At teardown, every matrix a real `inst` sent to them must be float64.
    """
    calls, dtypes = recorded(monkeypatch, "eigh", "svd", "cholesky")
    yield calls
    if not inst["complex"]:
        assert dtypes and all(dtype == np.float64 for _, dtype in dtypes), dtypes


def count(calls, fn, *args):
    """``((eigh calls, svd calls, cholesky calls), result)`` of one call."""
    calls.clear()
    result = fn(*args)
    names = [name for name, _ in calls]
    return (names.count("eigh"), names.count("svd"), names.count("cholesky")), result


@pytest.fixture(params=[False, True], ids=["real", "complex"])
def inst(request):
    cplx = request.param
    rng = sampling.rng_from_seed(41 + cplx)
    full_a = sampling.random_psd(rng, N, complex_entries=cplx)
    full_b = sampling.random_psd(rng, N, complex_entries=cplx)
    low = sampling.random_psd(rng, N, rank=2, complex_entries=cplx)
    bump = sampling.random_psd(rng, N, rank=1, complex_entries=cplx)
    other_bump = sampling.random_psd(rng, N, rank=1, complex_entries=cplx)
    pos_w, pos_v = np.linalg.eigh(full_b - full_a)
    envelope = full_a + (pos_v * np.clip(pos_w, 0.0, None)) @ pos_v.conj().T
    assert po.comparable(full_a, full_b) is po.Comparison.INCOMPARABLE
    return {
        "complex": cplx,
        "a": full_a,
        "b": full_b,
        "low": low,
        "up": low + bump,
        "other_up": low + other_bump,
        "shared_t": full_a + full_b + np.eye(N),
        "disjoint_t": envelope,
    }


def incomparable_calls(inst, decomposed):
    """Calls that decide the incomparable pair ``(a, b)``: the real ``b - a`` has
    diagonal entries of both signs, which refute both orders; the complex one has
    only negative ones, so its failed Cholesky of ``a - b`` leaves that order to
    eigh, which also gives the ray."""
    return (1, 0, 1) if inst["complex"] else (1 if decomposed else 0, 0, 0)


def test_comparable(linalg_calls, inst):
    """``low <= up`` is one Cholesky of ``up - low``; a negative diagonal entry of
    ``low - up`` refutes the reverse order."""
    assert count(linalg_calls, po.comparable, inst["a"], inst["b"])[0] == incomparable_calls(inst, False)
    assert count(linalg_calls, po.loewner_leq, inst["low"], inst["up"])[0] == (0, 0, 1)


def test_order_witness(linalg_calls, inst):
    assert count(linalg_calls, po.order_witness, inst["a"], inst["b"])[0] == incomparable_calls(inst, True)


def test_mutually_singular(linalg_calls, inst):
    assert count(linalg_calls, po.mutually_singular, inst["low"], inst["b"])[0] == (2, 1, 0)


def test_ac_part(linalg_calls, inst):
    assert count(linalg_calls, po.ac_part, inst["b"], inst["low"])[0] == (2, 1, 0)


def test_parallel_sum(linalg_calls, inst):
    """Read from the reduced pair: one eigh per operand, the angles' SVD only when
    ``ran a`` is not the whole space, and no decomposition of the sum."""
    assert count(linalg_calls, po.parallel_sum, inst["low"], inst["b"])[0] == (2, 1, 0)
    assert count(linalg_calls, po.parallel_sum, inst["a"], inst["b"])[0] == (2, 0, 0)


@pytest.mark.parametrize(
    "entry, lo, hi, shapes",
    [
        ("parallel_sum", "low", "b", [(2, 2)]),
        ("ac_part", "b", "low", [(2, 2)]),
        ("inf_exists", "a", "b", []),
        ("inf_exists", "up", "other_up", [(2, 2)] * 2),
    ],
)
def test_each_gram_factor_is_inverted_once(monkeypatch, inst, entry, lo, hi, shapes):
    """The reduced pair keeps the r×r Gram factors ``v* a^+ v`` and ``v* b^+ v``: the parallel
    sum inverts their sum once, and `ac_part` and `inf_exists` invert once each part they output
    on a proper intersection.  A full-rank pair's parts are its operands, so it inverts nothing;
    the rank-3 ``up`` and ``other_up`` share only ``ran low``, so both parts are shorted."""
    calls, _ = recorded(monkeypatch, "inv")
    getattr(po, entry)(inst[lo], inst[hi])
    assert calls == [("inv", shape) for shape in shapes]


def test_samplers_factor_only_the_columns_they_keep(monkeypatch):
    """`random_psd` and `shared_core_pair` QR-factor the n×k block of the columns that reach
    the matrix, not the whole n×n block; the inner r×r spectra of the core are full rank."""
    calls, _ = recorded(monkeypatch, "qr")
    sampling.random_psd(sampling.rng_from_seed(0), 64, rank=3)
    assert calls == [("qr", (64, 3))]
    for tails, k in ((True, 5), (False, 3)):
        calls.clear()
        sampling.shared_core_pair(sampling.rng_from_seed(0), 64, 3, tails=tails)
        assert calls == [("qr", (64, k)), ("qr", (3, 3)), ("qr", (3, 3))]


@pytest.mark.parametrize("seed", range(3))
def test_disjoint_projectors_factor_only_their_ranks(monkeypatch, seed):
    """Each draw of `disjoint_projector_pair` factors 64×k1 and 64×k2, the ranks it picked first."""
    calls, _ = recorded(monkeypatch, "qr")
    rng, twin = sampling.rng_from_seed(seed), sampling.rng_from_seed(seed)
    k1 = int(twin.integers(1, 64))
    k2 = int(twin.integers(1, 64 - k1 + 1))
    sampling.disjoint_projector_pair(rng, 64)
    assert calls and calls == [("qr", (64, k1)), ("qr", (64, k2))] * (len(calls) // 2)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_samplers_accept_from_their_factors(monkeypatch, seed, cplx):
    """On these seeds the Rayleigh quotients settle `incomparable_pair`'s test and the
    principal-angle cosine settles `disjoint_projector_pair`'s: no eigvalsh runs at all."""
    calls, _ = recorded(monkeypatch, "eigvalsh")
    sampling.incomparable_pair(sampling.rng_from_seed(seed), 64, cplx)
    sampling.disjoint_projector_pair(sampling.rng_from_seed(seed), 64, cplx)
    assert calls == []


def test_compress(linalg_calls, inst):
    """One eigh of the sum; `core.as_psd` validates each full-rank operand with one band Cholesky."""
    assert count(linalg_calls, po.compress, inst["a"], inst["b"])[0] == (1, 0, 2)


def test_ando_witness(linalg_calls, inst):
    """One eigh per operand and the pencil of the reduced pair: one Cholesky of ``ga + gb``, one eigh."""
    assert count(linalg_calls, po.ando_witness, inst["a"], inst["b"])[0] == (3, 0, 1)


@pytest.mark.parametrize(
    "upper, singular, calls",
    [("shared_t", False, (0, 0, 4)), ("disjoint_t", True, (2, 1, 1))],
    ids=["shared_t-False", "disjoint_t-True"],
)
def test_kadison_witness_both_branches(linalg_calls, inst, upper, singular, calls):
    """Both gaps are full rank under ``shared_t``: the band certifies each with one
    Cholesky and a second gives its strength along ``e0``, so no eigh or SVD runs.
    Under ``disjoint_t`` the gap ``t - a`` is singular, so its shifted Cholesky fails
    and the witness takes the eigh path."""
    t = inst[upper]
    assert po.mutually_singular(t - inst["a"], t - inst["b"]) is singular
    assert count(linalg_calls, po.kadison_witness, inst["a"], inst["b"], t)[0] == calls


def test_inf_exists_exists_path(linalg_calls, inst):
    """ran low ∩ ran up = ran low has dimension 2."""
    calls, verdict = count(linalg_calls, po.inf_exists, inst["low"], inst["up"])
    assert verdict.exists
    assert calls == (3, 1, 1)
    assert_operands_then_intersection(linalg_calls, 2)


def test_inf_exists_witness_path(linalg_calls, inst):
    """A full-rank pair meets in the whole space, so no SVD runs."""
    calls, verdict = count(linalg_calls, po.inf_exists, inst["a"], inst["b"])
    assert not verdict.exists
    assert calls == (3, 0, 1)
    assert_operands_then_intersection(linalg_calls, N)


@pytest.mark.parametrize(
    "lo, hi, exists, r, calls",
    [("low", "up", True, 2, (3, 1, 1)), ("a", "b", False, N, (3, 0, 1))],
    ids=["low-up-True", "a-b-False"],
)
def test_form_inf_exists_both_paths(linalg_calls, monkeypatch, inst, lo, hi, exists, r, calls):
    """The verdict reads the spectrum of the pencil alone, so no Gram factor is inverted."""
    inverted, _ = recorded(monkeypatch, "inv")
    forms = po.SesquilinearForm(inst[lo]), po.SesquilinearForm(inst[hi])
    got, verdict = count(linalg_calls, po.form_inf_exists, *forms)
    assert verdict is exists
    assert got == calls
    assert inverted == []
    assert_operands_then_intersection(linalg_calls, r)


def assert_operands_then_intersection(calls, r):
    """eigh sees the two n×n operands, then nothing larger than r×r, the intersection's dimension."""
    shapes = [shape for name, shape in calls if name == "eigh"]
    assert shapes[:2] == [(N, N), (N, N)]
    assert shapes[2:] and all(shape[0] <= r for shape in shapes[2:]), shapes


def test_cli_sup_reads_one_comparison(linalg_calls, inst):
    inputs = {"a": cli.memory_value("a", inst["low"]), "b": cli.memory_value("b", inst["up"])}
    calls, report = count(linalg_calls, cli.cmd_sup, inputs, po.DEFAULT_TOL)
    assert report["verdict"] == {"exists": True, "comparison": "leq"}
    assert calls == (0, 0, 1)


def test_cli_ando_witness_reads_candidate_and_witness_from_one_spectrum(linalg_calls, inst):
    inputs = {"a": cli.memory_value("a", inst["a"]), "b": cli.memory_value("b", inst["b"])}
    calls, report = count(linalg_calls, cli.cmd_ando_witness, inputs, po.DEFAULT_TOL)
    assert set(report["witnesses"]) == {"candidate", "d"}
    assert calls == (3, 0, 1)


def test_cli_leq_reads_verdict_and_ray_from_one_decomposition(linalg_calls, inst):
    """`comparable`'s calls, plus one band Cholesky per full-rank operand for `leq`'s
    PSD precondition: a refuted report's `strength_gap` claim reads both strengths."""
    inputs = {"a": cli.memory_value("a", inst["a"]), "b": cli.memory_value("b", inst["b"])}
    calls, report = count(linalg_calls, cli.cmd_leq, inputs, po.DEFAULT_TOL)
    assert report["verdict"] == {"leq": False, "comparison": "incomparable"}
    assert "ray" in report["witnesses"]
    eigh, svd, cholesky = incomparable_calls(inst, True)
    assert calls == (eigh, svd, cholesky + 2)


@pytest.mark.parametrize(
    "lo, hi, exists, calls", [("low", "up", True, (2, 2, 6)), ("a", "b", False, (3, 0, 6))]
)
def test_reverify_inf_report_decomposes_each_node_once(linalg_calls, inst, lo, hi, exists, calls):
    """The two `abs_continuous` claims share one decomposition of each reduced part;
    the band settles every `leq` and `psd` claim, so eigh sees only the reduced parts
    and, on the witness path, the witness against the candidate."""
    inputs = {"a": cli.memory_value("a", inst[lo]), "b": cli.memory_value("b", inst[hi])}
    report = json.loads(cli._dumps(cli.cmd_inf(inputs, po.DEFAULT_TOL)))
    assert report["verdict"]["exists"] is exists
    got, failures = count(linalg_calls, cli.reverify_report, report)
    assert failures == []
    assert got == calls


# The validators themselves are left out: each is the validation it would count.
VALIDATED = [name for name in ENTRIES if name not in ("as_hermitian", "eig_hermitian")]


@pytest.mark.parametrize("entry", VALIDATED)
def test_each_matrix_argument_is_validated_once(monkeypatch, inst, entry):
    fn, *names = ENTRIES[entry]
    calls = []

    def counting(name):
        wrapped = getattr(core, name)

        def call(m, *args):
            calls.append(name)
            return wrapped(m, *args)

        return call

    for name in ("as_hermitian", "as_matrix"):
        monkeypatch.setattr(core, name, counting(name))
    fn(*(inst[name] for name in names))
    assert (calls.count("as_hermitian"), calls.count("as_matrix")) == (len(names), len(names))


# Each entry with several matrix operands, with the odd one in each position;
# `strength`'s ray is its second operand.
MISMATCHED = [
    (entry, position)
    for entry, (_, *names) in ENTRIES.items()
    if len(names) > 1
    for position in range(len(names))
] + [("strength", 0)]


@pytest.mark.parametrize("entry, position", MISMATCHED)
def test_dimension_mismatch_is_rejected_before_any_factorization(monkeypatch, inst, entry, position):
    """Operands of different dimensions are rejected before any eigh, SVD, Cholesky or inverse."""
    fn, *names = ENTRIES[entry]
    args = [inst[name] for name in names]
    args[position] = np.eye(N + 1)
    calls, _ = recorded(monkeypatch, "eigh", "svd", "cholesky", "inv")
    with pytest.raises(po.DimensionMismatchError, match="dimension mismatch"):
        fn(*args)
    assert calls == []
