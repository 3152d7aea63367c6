"""The samplers factor only the columns of a unitary they keep, from the same draws.

`random_unitary` QR-factors an n×n Gaussian block; `random_psd`,
`shared_core_pair` and `disjoint_projector_pair` draw the same block but
factor only its first ``k`` columns, which determine the unitary's first
``k`` columns.  So each generator advances exactly as with the whole
unitary, and each instance equals the one built from it up to rounding.
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
