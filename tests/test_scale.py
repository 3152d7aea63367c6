"""One scale per call: every threshold reads the unit of the call's operands.

`core._operands` fixes one unit σ, a power of four, from the largest
``|entry|`` of a call's matrix operands, so each verdict is the same at every
common scaling of them.  These are the scale probe's cases (200 full-rank and
200 shared-core pairs, n = 2..6, against scale 1), its three small examples,
and swap invariance of every symmetric notion at ``2^k``.
"""

import numpy as np
import pytest

import psdorder as po
from psdorder import core, sampling

SCALES = [1e-13, 1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12]
POWERS = [-40, -20, 0, 20, 40]


def _probe_pairs():
    rng = sampling.rng_from_seed(0)
    pairs = []
    for t in range(200):
        n, cplx = 2 + t % 5, bool(t % 2)
        pairs.append(tuple(sampling.random_psd(rng, n, complex_entries=cplx) for _ in range(2)))
    for t in range(200):
        n, cplx = 2 + t % 5, bool(t % 2)
        pairs.append(sampling.shared_core_pair(rng, n, 1 + t % (n - 1), complex_entries=cplx))
    return pairs


def _decide(a, b):
    try:
        return po.comparable(a, b), po.inf_exists(a, b).exists
    except po.ToleranceBreakdownError:
        return "breakdown"


@pytest.fixture(scope="module")
def probe():
    pairs = _probe_pairs()
    return pairs, [_decide(a, b) for a, b in pairs]


@pytest.mark.parametrize("scale", SCALES)
def test_scale_probe_has_no_flip_and_no_breakdown(probe, scale):
    pairs, at_one = probe
    assert "breakdown" not in at_one
    flips = [i for i, ((a, b), want) in enumerate(zip(pairs, at_one)) if _decide(scale * a, scale * b) != want]
    assert flips == []


def test_small_diagonal_pair_has_no_supremum():
    assert po.sup_exists(1e-11 * np.diag([2.0, 1.0]), 1e-11 * np.diag([1.0, 2.0])).exists is False


def test_strength_and_rank_of_a_small_diagonal():
    a = 1e-13 * np.diag([2.0, 1.0])
    assert po.strength(a, [1.0, 0.0]).value == 2e-13
    assert po.numeric_rank(a) == 2


@pytest.mark.parametrize("k", [1e-12, 1e300])
def test_kadison_diagonal_example_is_constructed(k):
    a, b, t = np.diag([k, 0.0]), np.diag([0.0, k]), 1.5 * k * np.eye(2)
    s = po.kadison_witness(a, b, t)
    assert po.is_psd(s) and po.loewner_leq(a, s) and po.loewner_leq(b, s)
    assert po.comparable(s, t) is po.Comparison.INCOMPARABLE


_MIRROR = {po.Comparison.LEQ: po.Comparison.GEQ, po.Comparison.GEQ: po.Comparison.LEQ}


def _swap_pairs(rng, n, cplx):
    yield sampling.random_psd(rng, n, complex_entries=cplx), sampling.random_psd(rng, n, complex_entries=cplx)
    rank = int(rng.integers(1, n + 1))
    yield sampling.random_psd(rng, n, rank, cplx), sampling.random_psd(rng, n, int(rng.integers(1, n + 1)), cplx)
    yield sampling.shared_core_pair(rng, n, max(1, n - 1), complex_entries=cplx)
    yield sampling.incomparable_pair(rng, n, complex_entries=cplx)[:2]
    a = sampling.random_psd(rng, n, rank, cplx)
    f = sampling.random_vector(rng, n, cplx)
    yield a, a + np.outer(f, f.conj())


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_symmetric_notions_are_swap_invariant(k, cplx):
    """`comparable` (mirrored), `mutually_singular`, the rank of `parallel_sum` and the
    existence of an infimum and a supremum do not depend on the order of the pair."""
    rng = sampling.rng_from_seed(50 + k + cplx)
    for n in range(2, 7):
        for a, b in _swap_pairs(rng, n, cplx):
            a, b = 2.0**k * a, 2.0**k * b
            ab, ba = po.comparable(a, b), po.comparable(b, a)
            assert ba is _MIRROR.get(ab, ab), n
            assert po.mutually_singular(a, b) == po.mutually_singular(b, a), n
            assert po.numeric_rank(po.parallel_sum(a, b)) == po.numeric_rank(po.parallel_sum(b, a)), n
            assert po.inf_exists(a, b).exists == po.inf_exists(b, a).exists, n
            assert po.sup_exists(a, b).exists == po.sup_exists(b, a).exists, n


def test_unit_is_a_power_of_four_at_most_the_largest_entry():
    for peak in (5e-324, 1e-300, 0.3, 0.25, 1.0, 3.99, 4.0, 1e300, np.finfo(float).max):
        unit = core._unit(peak)
        assert unit <= peak < 4.0 * unit and np.log2(unit) % 2 == 0, peak
    assert core._unit(2.0**40 * 3.0) == 2.0**40
