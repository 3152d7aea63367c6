"""Hermitian eigendecompositions and SVDs per call.

Every rank, projector, root and PSD verdict about an operand is read from one
`EigDecomp`, so eigh counts only grow when a new distinct matrix enters a
decision.  Every range question about a pair (absolute continuity,
singularity, the AC part, a shared range direction) is one SVD of the
principal angles, so work moved from eigh to SVD stays visible.  The counter
wraps `numpy.linalg.eigh` and `numpy.linalg.svd` for the duration of a test
and records the shape of each decomposed matrix, so a decomposition moved to
a smaller space stays visible too.  It also records each matrix's dtype: a
real instance must be decomposed in float64 alone, so a stray complex
coercion fails here rather than only costing time.
"""

import json

import numpy as np
import pytest

import psdorder as po
from psdorder import cli, sampling

N = 4


@pytest.fixture
def linalg_calls(monkeypatch, inst):
    """``(name, shape)`` of the counted `numpy.linalg` calls, in order.

    At teardown, every matrix a real `inst` sent to them must be float64.
    """
    calls, dtypes = [], []

    def counting(name):
        wrapped = getattr(np.linalg, name)

        def call(m, *args, **kwargs):
            calls.append((name, np.shape(m)))
            dtypes.append((name, np.asarray(m).dtype))
            return wrapped(m, *args, **kwargs)

        return call

    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    yield calls
    if not inst["complex"]:
        assert dtypes and all(dtype == np.float64 for _, dtype in dtypes), dtypes


def count(calls, fn, *args):
    """``((eigh calls, svd calls), result)`` of one call."""
    calls.clear()
    result = fn(*args)
    names = [name for name, _ in calls]
    return (names.count("eigh"), names.count("svd")), result


@pytest.fixture(params=[False, True], ids=["real", "complex"])
def inst(request):
    cplx = request.param
    rng = sampling.rng_from_seed(41 + cplx)
    full_a = sampling.random_psd(rng, N, complex_entries=cplx)
    full_b = sampling.random_psd(rng, N, complex_entries=cplx)
    low = sampling.random_psd(rng, N, rank=2, complex_entries=cplx)
    bump = sampling.random_psd(rng, N, rank=1, complex_entries=cplx)
    pos_w, pos_v = np.linalg.eigh(full_b - full_a)
    envelope = full_a + (pos_v * np.clip(pos_w, 0.0, None)) @ pos_v.conj().T
    assert po.comparable(full_a, full_b) is po.Comparison.INCOMPARABLE
    return {
        "complex": cplx,
        "a": full_a,
        "b": full_b,
        "low": low,
        "up": low + bump,
        "shared_t": full_a + full_b + np.eye(N),
        "disjoint_t": envelope,
    }


def test_comparable(linalg_calls, inst):
    assert count(linalg_calls, po.comparable, inst["a"], inst["b"])[0] == (1, 0)
    assert count(linalg_calls, po.loewner_leq, inst["low"], inst["up"])[0] == (1, 0)


def test_order_witness(linalg_calls, inst):
    assert count(linalg_calls, po.order_witness, inst["a"], inst["b"])[0] == (1, 0)


def test_mutually_singular(linalg_calls, inst):
    assert count(linalg_calls, po.mutually_singular, inst["low"], inst["b"])[0] == (2, 1)


def test_ac_part(linalg_calls, inst):
    assert count(linalg_calls, po.ac_part, inst["b"], inst["low"])[0] == (2, 1)


def test_compress(linalg_calls, inst):
    assert count(linalg_calls, po.compress, inst["a"], inst["b"])[0] == (1, 0)


def test_ando_candidate_decomposes_a_tilde_on_the_range(linalg_calls, inst):
    """One eigh of the sum, then one of ``a_tilde`` on the sum's range only."""
    assert po.numeric_rank(inst["low"] + inst["up"]) == 3
    count(linalg_calls, po.ando_candidate, inst["low"], inst["up"])
    assert linalg_calls == [("eigh", (N, N)), ("eigh", (3, 3))]


def test_spectral_criterion(linalg_calls, inst):
    assert count(linalg_calls, po.spectral_criterion, inst["a"], inst["b"])[0] == (4, 2)


def test_ando_witness(linalg_calls, inst):
    assert count(linalg_calls, po.ando_witness, inst["a"], inst["b"])[0] == (4, 2)


@pytest.mark.parametrize("upper, singular", [("shared_t", False), ("disjoint_t", True)])
def test_kadison_witness_both_branches(linalg_calls, inst, upper, singular):
    t = inst[upper]
    assert po.mutually_singular(t - inst["a"], t - inst["b"]) is singular
    assert count(linalg_calls, po.kadison_witness, inst["a"], inst["b"], t)[0] == (2, 1)


def test_inf_exists_exists_path(linalg_calls, inst):
    calls, verdict = count(linalg_calls, po.inf_exists, inst["low"], inst["up"])
    assert verdict.exists
    assert calls == (4, 2)


def test_inf_exists_witness_path(linalg_calls, inst):
    calls, verdict = count(linalg_calls, po.inf_exists, inst["a"], inst["b"])
    assert not verdict.exists
    assert calls == (4, 2)


@pytest.mark.parametrize("lo, hi, exists", [("low", "up", True), ("a", "b", False)])
def test_form_inf_exists_both_paths(linalg_calls, inst, lo, hi, exists):
    forms = po.SesquilinearForm(inst[lo]), po.SesquilinearForm(inst[hi])
    calls, verdict = count(linalg_calls, po.form_inf_exists, *forms)
    assert verdict is exists
    assert calls == (4, 2)


def test_cli_sup_reads_one_comparison(linalg_calls, inst):
    inputs = {"a": cli.memory_value("a", inst["low"]), "b": cli.memory_value("b", inst["up"])}
    calls, report = count(linalg_calls, cli.cmd_sup, inputs, po.DEFAULT_TOL)
    assert report["verdict"] == {"exists": True, "comparison": "leq"}
    assert calls == (1, 0)


def test_cli_ando_witness_reads_candidate_and_witness_from_one_spectrum(linalg_calls, inst):
    inputs = {"a": cli.memory_value("a", inst["a"]), "b": cli.memory_value("b", inst["b"])}
    calls, report = count(linalg_calls, cli.cmd_ando_witness, inputs, po.DEFAULT_TOL)
    assert set(report["witnesses"]) == {"candidate", "d"}
    assert calls == (4, 2)


def test_cli_leq_reads_verdict_and_ray_from_one_decomposition(linalg_calls, inst):
    inputs = {"a": cli.memory_value("a", inst["a"]), "b": cli.memory_value("b", inst["b"])}
    calls, report = count(linalg_calls, cli.cmd_leq, inputs, po.DEFAULT_TOL)
    assert report["verdict"] == {"leq": False, "comparison": "incomparable"}
    assert "ray" in report["witnesses"]
    assert calls == (1, 0)


@pytest.mark.parametrize("lo, hi, exists, calls", [("low", "up", True, (6, 2)), ("a", "b", False, (8, 2))])
def test_reverify_inf_report_decomposes_each_node_once(linalg_calls, inst, lo, hi, exists, calls):
    """The two `abs_continuous` claims share one decomposition of each reduced part."""
    inputs = {"a": cli.memory_value("a", inst[lo]), "b": cli.memory_value("b", inst[hi])}
    report = json.loads(cli._dumps(cli.cmd_inf(inputs, po.DEFAULT_TOL)))
    assert report["verdict"]["exists"] is exists
    got, failures = count(linalg_calls, cli.reverify_report, report)
    assert failures == []
    assert got == calls
