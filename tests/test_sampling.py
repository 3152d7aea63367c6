"""The samplers factor only the columns of a unitary they keep, from the same draws.

`random_unitary` QR-factors an n×n Gaussian block; `random_psd`,
`shared_core_pair` and `disjoint_projector_pair` draw the same block but
factor only its first ``k`` columns, which determine the unitary's first
``k`` columns.  So each generator advances exactly as with the whole
unitary, and each instance equals the one built from it up to rounding.

`incomparable_pair` and `disjoint_projector_pair` accept or reject each draw
from its factors (Rayleigh quotients, and the largest principal-angle
cosine) and form the spectrum of an n×n matrix only when the factors cannot
settle the test.  They keep exactly the draws that the spectrum alone keeps:
the reference loops below, which decide every draw by `numpy.linalg.eigvalsh`,
return the same bits and leave the generator in the same state.
"""

import numpy as np
import pytest

import psdorder as po
from psdorder import sampling


def reference_unitary(rng, n, complex_entries=True):
    """`random_unitary` as it was written before the samplers factored fewer columns."""
    g = rng.standard_normal((n, n))
    if complex_entries:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[np.newaxis, :]


def reference_psd(rng, n, rank, complex_entries=True):
    """`random_psd` from the whole unitary and the spectrum padded with zeros."""
    vals = np.zeros(n)
    vals[:rank] = rng.uniform(*sampling.DEFAULT_SPREAD, size=rank)
    q = reference_unitary(rng, n, complex_entries)
    return po.hermitian_part((q * vals) @ q.conj().T)


def reference_incomparable_pair(rng, n, complex_entries=True, margin=0.05):
    """`incomparable_pair` as it was written before draws were accepted from their factors."""

    def psd():
        rank = int(rng.integers(1, n + 1))
        vals = rng.uniform(*sampling.DEFAULT_SPREAD, size=rank)
        q = sampling._unitary_columns(rng, n, rank, complex_entries)
        return po.hermitian_part((q * vals) @ q.conj().T)

    for _ in range(200):
        a = psd()
        b = psd()
        w = np.linalg.eigvalsh(b - a)
        if w[0] < -margin and w[-1] > margin:
            return a, b
    raise po.MatrixError("failed to sample an incomparable pair")


def reference_disjoint_projector_pair(rng, n, complex_entries=True):
    """`disjoint_projector_pair` as it was written before draws were accepted from their factors."""
    k1 = int(rng.integers(1, n))
    k2 = int(rng.integers(1, n - k1 + 1))
    for _ in range(100):
        q1 = sampling._unitary_columns(rng, n, k1, complex_entries)
        q2 = sampling._unitary_columns(rng, n, k2, complex_entries)
        p1 = po.hermitian_part(q1 @ q1.conj().T)
        p2 = po.hermitian_part(q2 @ q2.conj().T)
        top = float(np.linalg.eigvalsh(p1 + p2)[-1])
        if top < 2.0 - 1e-3:
            return p1, p2
    raise po.MatrixError("failed to sample projectors with disjoint ranges")


def assert_same_draws(sampler, reference, seed, *args, **kwargs):
    """``sampler`` and ``reference`` return the same bits, or both raise, and leave their generators alike."""
    mine, theirs = sampling.rng_from_seed(seed), sampling.rng_from_seed(seed)
    try:
        want = reference(theirs, *args, **kwargs)
    except po.MatrixError:
        with pytest.raises(po.MatrixError):
            sampler(mine, *args, **kwargs)
    else:
        got = sampler(mine, *args, **kwargs)
        for x, y in zip(got, want, strict=True):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
    assert mine.standard_normal() == theirs.standard_normal()


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 64, 128])
@pytest.mark.parametrize(
    "sampler, reference",
    [
        (sampling.incomparable_pair, reference_incomparable_pair),
        (sampling.disjoint_projector_pair, reference_disjoint_projector_pair),
    ],
    ids=["incomparable", "disjoint"],
)
def test_samplers_keep_the_draws_their_spectra_keep(sampler, reference, n, cplx):
    for seed in range(30):
        assert_same_draws(sampler, reference, seed, n, cplx)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_unsettled_draws_fall_back_to_the_spectrum(monkeypatch, cplx):
    """At ``margin=0.3`` and n = 2 the Rayleigh quotients rarely clear twice the margin, so the
    spectrum of ``b - a`` decides most draws, and still the kept pairs are the reference's."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    for seed in range(30):
        assert_same_draws(sampling.incomparable_pair, reference_incomparable_pair, seed, 2, cplx, margin=0.3)
    assert set(calls) == {(2, 2)}
    mine = calls.copy()
    calls.clear()
    for seed in range(30):
        reference_incomparable_pair(sampling.rng_from_seed(seed), 2, cplx, margin=0.3)
    assert 2 * len(mine) > len(calls)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_ray_in_the_range_of_a_small_matrix(cplx):
    """``a g`` is the ray at any scale of ``a``: at ``2^-45`` times a rank-one ``a`` it is
    in ``ran a``, by a numpy projection residual, and not the plain ray ``g``."""
    rng = sampling.rng_from_seed(45)
    for n in (2, 3, 5):
        a = 2.0**-45 * sampling.random_psd(rng, n, rank=1, complex_entries=cplx)
        f = sampling.random_ray_in_range(rng, a, cplx)
        u = np.linalg.eigh(a)[1][:, -1]
        assert np.linalg.norm(f - u * (u.conj() @ f)) <= 1e-12 * np.linalg.norm(f)
    assert np.any(sampling.random_ray_in_range(rng, np.zeros((2, 2)), cplx))


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_random_unitary_is_the_reference_bit_for_bit(cplx, n):
    for seed in range(5):
        got = sampling.random_unitary(sampling.rng_from_seed(seed), n, cplx)
        np.testing.assert_array_equal(got, reference_unitary(sampling.rng_from_seed(seed), n, cplx))


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 7, 64])
def test_columns_are_the_first_columns_of_random_unitary(cplx, n):
    for seed in range(5):
        for k in (1, n // 2, n):
            mine, theirs = sampling.rng_from_seed(seed), sampling.rng_from_seed(seed)
            q = sampling._unitary_columns(mine, n, k, cplx)
            assert q.shape == (n, k) and np.iscomplexobj(q) == cplx
            np.testing.assert_allclose(q, sampling.random_unitary(theirs, n, cplx)[:, :k], rtol=0, atol=1e-14)
            assert mine.standard_normal() == theirs.standard_normal()


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n, rank", [(2, 1), (6, 3), (64, 1), (64, 3), (64, 63), (64, 64)])
def test_random_psd_matches_the_full_product(cplx, n, rank):
    for seed in range(3):
        mine, theirs = sampling.rng_from_seed(seed), sampling.rng_from_seed(seed)
        a = sampling.random_psd(mine, n, rank=rank, complex_entries=cplx)
        ref = reference_psd(theirs, n, rank, cplx)
        np.testing.assert_allclose(a, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
        assert po.numeric_rank(a) == rank
        assert mine.standard_normal() == theirs.standard_normal()
