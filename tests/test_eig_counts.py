"""Hermitian eigendecompositions per call: each distinct matrix is decomposed once.

Every rank, projector, root and PSD verdict about an operand is read from one
`EigDecomp`, so these counts only grow when a new distinct matrix enters a
decision.  The counter wraps `numpy.linalg.eigh` for the duration of a test.
"""

import numpy as np
import pytest

import psdorder as po
from psdorder import cli, sampling

N = 4


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def count(calls, fn, *args):
    calls.clear()
    result = fn(*args)
    return len(calls), result


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
        "a": full_a,
        "b": full_b,
        "low": low,
        "up": low + bump,
        "shared_t": full_a + full_b + np.eye(N),
        "disjoint_t": envelope,
    }


def test_comparable(eigh_calls, inst):
    assert count(eigh_calls, po.comparable, inst["a"], inst["b"])[0] == 1
    assert count(eigh_calls, po.loewner_leq, inst["low"], inst["up"])[0] == 1


def test_order_witness(eigh_calls, inst):
    assert count(eigh_calls, po.order_witness, inst["a"], inst["b"])[0] == 1


def test_mutually_singular(eigh_calls, inst):
    assert count(eigh_calls, po.mutually_singular, inst["low"], inst["b"])[0] == 3


def test_ac_part(eigh_calls, inst):
    assert count(eigh_calls, po.ac_part, inst["b"], inst["low"])[0] == 3


def test_spectral_criterion(eigh_calls, inst):
    assert count(eigh_calls, po.spectral_criterion, inst["a"], inst["b"])[0] <= 4


def test_ando_witness(eigh_calls, inst):
    assert count(eigh_calls, po.ando_witness, inst["a"], inst["b"])[0] <= 6


@pytest.mark.parametrize("upper, singular", [("shared_t", False), ("disjoint_t", True)])
def test_kadison_witness_both_branches(eigh_calls, inst, upper, singular):
    t = inst[upper]
    assert po.mutually_singular(t - inst["a"], t - inst["b"]) is singular
    assert count(eigh_calls, po.kadison_witness, inst["a"], inst["b"], t)[0] <= 3


def test_inf_exists_exists_path(eigh_calls, inst):
    calls, verdict = count(eigh_calls, po.inf_exists, inst["low"], inst["up"])
    assert verdict.exists
    assert calls <= 7


def test_inf_exists_witness_path(eigh_calls, inst):
    calls, verdict = count(eigh_calls, po.inf_exists, inst["a"], inst["b"])
    assert not verdict.exists
    assert calls <= 9


@pytest.mark.parametrize("lo, hi, exists", [("low", "up", True), ("a", "b", False)])
def test_form_inf_exists_both_paths(eigh_calls, inst, lo, hi, exists):
    forms = po.SesquilinearForm(inst[lo]), po.SesquilinearForm(inst[hi])
    calls, verdict = count(eigh_calls, po.form_inf_exists, *forms)
    assert verdict is exists
    assert calls == 5


def test_cli_sup_reads_one_comparison(eigh_calls, inst):
    inputs = {"a": cli.memory_value("a", inst["low"]), "b": cli.memory_value("b", inst["up"])}
    calls, report = count(eigh_calls, cli.cmd_sup, inputs, po.DEFAULT_TOL)
    assert report["verdict"] == {"exists": True, "comparison": "leq"}
    assert calls == 1


def test_cli_leq_reads_verdict_and_ray_from_one_decomposition(eigh_calls, inst):
    inputs = {"a": cli.memory_value("a", inst["a"]), "b": cli.memory_value("b", inst["b"])}
    calls, report = count(eigh_calls, cli.cmd_leq, inputs, po.DEFAULT_TOL)
    assert report["verdict"] == {"leq": False, "comparison": "incomparable"}
    assert "ray" in report["witnesses"]
    assert calls == 1
