import numpy as np
import pytest

import psdorder as po
from psdorder import core, lebesgue, sampling
from psdorder.selftest import _mixed_pair, _psd_pair, _stream, eig_scale
from conftest import holds


class TestAbsolutelyContinuous:
    def test_nested_diagonals(self):
        assert po.absolutely_continuous(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))

    def test_range_escapes(self):
        assert not po.absolutely_continuous(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))

    def test_full_rank_reference(self, rng):
        b = sampling.random_psd(rng, 4, rank=2)
        a = sampling.random_psd(rng, 4)
        assert po.absolutely_continuous(b, a)

    def test_order_implies_ac(self, rng):
        holds(rng, 20, "lebesgue.order_implies_ac")


class TestMutuallySingular:
    def test_orthogonal_projections(self):
        assert po.mutually_singular(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_self_not_singular(self, rng):
        a = sampling.random_psd(rng, 3, rank=2)
        assert not po.mutually_singular(a, a)

    def test_orthogonal_rank_ones(self, rng):
        q = sampling.random_unitary(rng, 4)
        f, g = q[:, 0], q[:, 1]
        assert po.mutually_singular(po.rank_one(f), po.rank_one(g))

    def test_zero_is_singular_to_everything(self, rng):
        a = sampling.random_psd(rng, 3)
        assert po.mutually_singular(np.zeros((3, 3)), a)


class TestParallelSum:
    def test_identity_pair(self):
        np.testing.assert_allclose(po.parallel_sum(np.eye(2), np.eye(2)), 0.5 * np.eye(2), atol=1e-14)

    def test_zero_annihilates(self, rng):
        a = sampling.random_psd(rng, 3)
        np.testing.assert_allclose(po.parallel_sum(a, np.zeros((3, 3))), np.zeros((3, 3)), atol=1e-14)

    def test_direct_2x2(self):
        got = po.parallel_sum(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))
        np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-14)

    def test_symmetric_and_below(self, rng):
        holds(rng, 20, "lebesgue.parallel_sum")

    def test_monotone_on_the_selftest_seed_0_stream(self):
        """The stream `psdorder selftest --seed 0` draws for this entry."""
        holds(_stream(0, "lebesgue.monotone"), 100, "lebesgue.monotone")

    def test_monotone_on_stream_19(self):
        """A regression pin: at trial 52 of ``rng_from_seed(19)``, once `psdorder selftest --seed 0`'s
        stream for this entry, a parallel sum formed from ``a + b`` missed monotonicity."""
        holds(19, 100, "lebesgue.monotone")

    def test_shares_the_intersection_rule(self):
        """``rank(a : b)`` is the dimension of ``ran a ∩ ran b`` that `mutually_singular`
        and `ac_part` read at the same tolerance."""
        u, w = np.eye(3)[0], np.array([np.cos(1e-6), np.sin(1e-6), 0.0])
        a, b = po.rank_one(u), po.rank_one(w)
        for tol, shared in ((po.DEFAULT_TOL, 0), (po.Tolerance(1e-4, 1e-6), 1)):
            rank = po.numeric_rank(po.parallel_sum(a, b, tol), tol)
            assert rank == shared == po.numeric_rank(po.ac_part(b, a, tol).ac, tol)
            assert po.mutually_singular(a, b, tol) is (shared == 0)


class TestAcPart:
    def test_split_diagonal(self):
        parts = po.ac_part(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(parts.ac, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(parts.sing, np.diag([0.0, 1.0]), atol=1e-12)
        # Ando's limit: (2^30 a) : b is within 1e-6 of [a]b
        limit = po.parallel_sum(float(2**30) * np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))
        assert np.max(np.abs(limit - parts.ac)) <= 1e-6

    def test_full_rank_reference_absorbs(self, rng):
        a = sampling.random_psd(rng, 4)
        b = sampling.random_psd(rng, 4, rank=2)
        parts = po.ac_part(b, a)
        np.testing.assert_allclose(parts.ac, b, atol=1e-10 * eig_scale(b))
        assert np.max(np.abs(parts.sing)) <= 1e-10 * eig_scale(b)

    @pytest.mark.parametrize("k", [-40, -20, 40])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_ac_pair_keeps_b_whole_at_any_scale(self, k, cplx):
        """When ``ran b`` lies in ``ran a`` (``a`` of rank n, or ``b`` on the range of ``a``
        of rank n - 1) the parts are ``b``, exact zeros and the identity at every scale."""
        rng = sampling.rng_from_seed(40 + k + cplx)
        for n in (2, 3, 5):
            pairs = [
                (sampling.random_psd(rng, n, complex_entries=cplx), sampling.random_psd(rng, n, complex_entries=cplx)),
                sampling.shared_core_pair(rng, n, n - 1, cplx),
            ]
            for a, b in pairs:
                a, b = 2.0**k * a, 2.0**k * b
                parts = po.ac_part(b, a)
                np.testing.assert_array_equal(parts.ac, b)
                assert not np.any(parts.sing)
                np.testing.assert_array_equal(parts.projector, np.eye(n))

    def test_indefinite_b_rejected(self):
        with pytest.raises(po.NotPsdError):
            po.ac_part(np.diag([1.0, -1.0]), np.eye(2))

    def test_zero_reference(self, rng):
        b = sampling.random_psd(rng, 3)
        parts = po.ac_part(b, np.zeros((3, 3)))
        assert np.max(np.abs(parts.ac)) <= 1e-12
        np.testing.assert_allclose(parts.sing, b, atol=1e-12)

    def test_contracts_random(self, rng):
        holds(rng, 30, "lebesgue.decomposition")

    def test_idempotent(self, rng):
        holds(rng, 12, "lebesgue.idempotent")

    def test_parts_mutually_ac(self, rng):
        holds(rng, 10, "lebesgue.parts_mutually_ac")

    def test_parallel_sum_oracle_monotone_and_convergent(self, rng):
        holds(rng, 10, "lebesgue.monotone", "lebesgue.limit")

    def test_maximality_against_sampled_minorants(self, rng):
        holds(rng, 6, "lebesgue.maximality")


class TestRangeQuestions:
    """Every range question reads the principal angles of one pair."""

    def test_selftest_seed_1_stream_of_random_pairs(self):
        """The stream `psdorder selftest --seed 1` draws for this entry."""
        name = "lebesgue.parts_mutually_ac.random_pairs"
        holds(_stream(1, name), 100, name)

    def test_random_pairs_on_stream_25(self):
        """A regression pin: ``rng_from_seed(25)`` was `psdorder selftest --seed 1`'s stream for
        this entry while entry ``i`` drew ``seed + i``."""
        holds(25, 100, "lebesgue.parts_mutually_ac.random_pairs")

    def test_range_verdicts_do_not_change_under_scaling(self):
        rng = sampling.rng_from_seed(77)
        pairs = [_mixed_pair(rng, t) for t in range(200)]

        def verdicts(s):
            return [
                (po.numeric_rank(po.ac_part(s * b, s * a).ac), po.mutually_singular(s * a, s * b))
                for a, b in pairs
            ]

        base = verdicts(1.0)
        for s in (1e-6, 1e-3, 1e3, 1e6, 1e12):
            changed = [t for t, v in enumerate(verdicts(s)) if v != base[t]]
            assert changed == [], f"scale {s:g}: trials {changed}"

    def test_sines_match_scipy_subspace_angles(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = sampling.rng_from_seed(78)
        for t in range(1000):
            sampler = _mixed_pair if t % 2 else _psd_pair
            a, b = sampler(rng, t // 2)
            _check_sines(linalg, a, b, t)

    def test_sines_on_every_complement_shape(self, monkeypatch):
        """Full-rank ``a`` (no SVD), ``n - r_a < r_b`` (padded sines), ``b = 0``,
        and a real ``a`` against a complex ``b``."""
        linalg = pytest.importorskip("scipy.linalg")
        svds = []
        svd = np.linalg.svd

        def counting(m, *args, **kwargs):
            svds.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        rng = sampling.rng_from_seed(79)
        for t in range(200):
            n = 2 + t % 5
            ra, rb = int(rng.integers(1, n + 1)), int(rng.integers(0, n + 1))
            kind = t % 4
            if kind == 0:
                ra = n
            elif kind == 1:
                ra, rb = int(rng.integers(1, n)), n
            a = sampling.random_psd(rng, n, rank=ra, complex_entries=False)
            b = sampling.random_psd(rng, n, rank=rb, complex_entries=kind == 3) if rb else np.zeros((n, n))
            svds.clear()
            _check_sines(linalg, a, b, t)
            # the complement of ran a is (n - r_a)-dimensional: no SVD without one
            assert svds == ([] if ra == n or rb == 0 else [(n - ra, rb)]), t


def _check_sines(linalg, a, b, t):
    """``_angles`` against scipy: the 1e-7 sine bound, the zero-angle count, and ``c0``'s shape."""
    da, db = core.eig_hermitian(a), core.eig_hermitian(b)
    qa = da.range_basis()
    qb, sines, c0 = lebesgue._angles(da, db, po.DEFAULT_TOL)
    assert sines.shape == (qb.shape[1],), t
    assert np.all(np.diff(sines) <= 0.0), t
    k = min(qa.shape[1], qb.shape[1])
    want = np.sin(linalg.subspace_angles(qb, qa)) if k else np.zeros(0)
    assert np.max(np.abs(sines[sines.size - k :] - want), initial=0.0) <= 1e-7, t
    shared = int(np.count_nonzero(sines <= po.DEFAULT_TOL.rel))
    assert shared == int(np.count_nonzero(want <= 1e-6)), t
    assert c0.shape == (qb.shape[1], shared), t
    np.testing.assert_allclose(c0.conj().T @ c0, np.eye(shared), atol=1e-12)
