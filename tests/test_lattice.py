import numpy as np
import pytest

import psdorder as po
from psdorder import lebesgue, sampling
from psdorder.selftest import CATALOGUE
from conftest import holds


@pytest.fixture(scope="module")
def infimum_probe():
    """1540 pairs and their verdicts at scale 1: the three ``lattice.infimum``
    families, 100 draws at each of seeds 200-204, and 40 incomparable 4x4 pairs."""
    pairs = []
    for name in ("lattice.infimum", "lattice.infimum.incomparable", "lattice.infimum.shared_core"):
        for seed in range(200, 205):
            rng = sampling.rng_from_seed(seed)
            pairs += [CATALOGUE[name].sample(rng, t, False)[:2] for t in range(100)]
    rng = sampling.rng_from_seed(3)
    pairs += [sampling.incomparable_pair(rng, 4)[:2] for _ in range(40)]
    return pairs, [po.inf_exists(a, b).exists for a, b in pairs]


class TestSupExists:
    def test_incomparable_projections(self):
        v = po.sup_exists(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not v.exists
        assert v.sup is None

    def test_rank_one_bump(self, rng):
        holds(rng, 10, "lattice.supremum")

    def test_incomparable_diagonals(self):
        assert not po.sup_exists(np.diag([2.0, 1.0]), np.diag([1.0, 2.0])).exists

    def test_refutation_witness(self):
        a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        t = np.eye(2) * 1.5
        v = po.sup_exists(a, b, refute=t)
        assert not v.exists
        assert v.witness is not None
        assert po.comparable(v.witness, t) is po.Comparison.INCOMPARABLE


class TestKadisonWitness:
    def test_fixed_2x2_fixture(self):
        a, b, t = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
        s = po.kadison_witness(a, b, t)
        expected = np.eye(2) + np.array([[1.0, 2.0], [2.0, 1.0]]) / 3.0
        np.testing.assert_allclose(s, expected, atol=1e-12)
        # s - a is PSD and singular, s - b is PSD, s - t is indefinite
        assert po.is_psd(s - a)
        assert np.linalg.eigvalsh(s - a)[0] == pytest.approx(0.0, abs=1e-12)
        assert po.is_psd(s - b)
        w = np.linalg.eigvalsh(s - t)
        assert w[0] < -1e-9 and w[-1] > 1e-9

    def test_zero_pair_rank_one_bound(self, rng):
        f = sampling.random_vector(rng, 3)
        t = po.rank_one(f)
        zero = np.zeros((3, 3))
        s = po.kadison_witness(zero, zero, t)
        # the common strength direction is removed entirely, an orthogonal
        # rank-one bump appears
        assert po.is_psd(s)
        assert po.comparable(s, t) is po.Comparison.INCOMPARABLE
        assert np.max(np.abs(s @ f)) <= 1e-9 * max(1.0, np.linalg.norm(f) ** 2)

    def test_contracts_on_random_pairs(self, rng):
        holds(rng, 15, "lattice.kadison")

    @pytest.mark.parametrize("cplx", [False, True])
    def test_shared_direction_ignores_the_intersection_basis(self, rng, monkeypatch, cplx):
        # ran(t - a) and ran(t - b) share ran w (dimension 2) in dimension 6;
        # any orthonormal basis of the zero-angle block must give one witness.
        # The basis freedom is U(2) for a complex pair and O(2) for a real one.
        a = sampling.random_psd(rng, 6, rank=1, complex_entries=cplx)
        b = sampling.random_psd(rng, 6, rank=1, complex_entries=cplx)
        t = a + b + sampling.random_psd(rng, 6, rank=2, complex_entries=cplx)
        s = po.kadison_witness(a, b, t)
        angles = lebesgue._angles

        def rotated(da, db, tol):
            qb, sines, c = angles(da, db, tol)
            zero = sines <= tol.rel
            assert zero.sum() == 2
            u, _ = np.linalg.qr(sampling.random_vector(rng, 4, cplx).reshape(2, 2))
            c = c.copy()
            c[:, zero] = c[:, zero] @ u
            return qb, sines, c

        monkeypatch.setattr(lebesgue, "_angles", rotated)
        other = po.kadison_witness(a, b, t)
        assert np.max(np.abs(other - s)) <= 1e-12 * max(1.0, float(np.max(np.abs(t))))

    def test_preconditions(self, rng):
        a = sampling.random_psd(rng, 2)
        with pytest.raises(po.MatrixError):
            po.kadison_witness(a, a, a)  # t coincides with a
        with pytest.raises(po.MatrixError):
            po.kadison_witness(a + np.eye(2), a, a)  # t >= a fails
        with pytest.raises(po.MatrixError):
            po.kadison_witness(np.ones((1, 1)), np.zeros((1, 1)), np.full((1, 1), 2.0))


class TestCompress:
    def test_equal_pair(self):
        comp = po.compress(np.eye(2), np.eye(2))
        np.testing.assert_allclose(comp.a_tilde, 0.5 * np.eye(2), atol=1e-12)

    def test_diagonal_closed_form(self):
        comp = po.compress(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        np.testing.assert_allclose(comp.a_tilde, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_disjoint_projections_flagged(self):
        a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        comp = po.compress(a, b)
        np.testing.assert_allclose(comp.a_tilde, np.diag([1.0, 0.0]), atol=1e-12)
        # the pair is not mutually AC, so the spectral route rejects it
        with pytest.raises(po.MatrixError):
            po.spectral_criterion(a, b)

    def test_invariants_random(self, rng):
        holds(rng, 15, "lattice.compress")

    def test_zero_pair(self):
        comp = po.compress(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.max(np.abs(comp.range_proj)) == 0.0
        assert comp.range_basis.shape == (2, 0)

    def test_mutually_ac_pair_has_interior_spectrum(self, rng):
        for _ in range(5):
            a, b = sampling.shared_core_pair(rng, 5, 3)
            comp = po.compress(a, b)
            basis = comp.range_basis
            w = np.linalg.eigvalsh(basis.conj().T @ comp.a_tilde @ basis)
            assert np.all(w > 1e-8) and np.all(w < 1.0 - 1e-8)


class TestAndoCandidate:
    def test_equal_identity(self):
        np.testing.assert_allclose(po.ando_candidate(np.eye(2), np.eye(2)), np.eye(2), atol=1e-12)

    def test_diagonal_pair(self):
        got = po.ando_candidate(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        np.testing.assert_allclose(got, np.eye(2), atol=1e-12)

    def test_disjoint_projections(self):
        got = po.ando_candidate(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.max(np.abs(got)) <= 1e-12

    def test_always_lower_bound(self, rng):
        holds(rng, 15, "lattice.candidate")


class TestSpectralCriterion:
    def test_equal_pair(self, rng):
        a = sampling.random_psd(rng, 3)
        assert po.spectral_criterion(a, a)

    def test_straddling_diagonals(self):
        assert not po.spectral_criterion(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))

    def test_one_sided_diagonals(self):
        assert po.spectral_criterion(np.diag([1.0, 1.0]), np.diag([2.0, 3.0]))


class TestInfExists:
    def test_comparable_pair(self):
        v = po.inf_exists(np.diag([1.0, 1.0]), np.diag([2.0, 1.0]))
        assert v.exists
        np.testing.assert_allclose(v.inf, np.diag([1.0, 1.0]), atol=1e-12)
        assert v.witness is None

    def test_disjoint_projections(self):
        v = po.inf_exists(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert v.exists
        assert np.max(np.abs(v.inf)) <= 1e-12

    def test_straddling_pair_has_witness(self):
        a, b = np.diag([2.0, 1.0]), np.diag([1.0, 2.0])
        v = po.inf_exists(a, b)
        assert not v.exists
        assert v.inf is None
        d = v.witness
        expected = np.array([[5 / 6, np.sqrt(2) / 6], [np.sqrt(2) / 6, 5 / 6]])
        np.testing.assert_allclose(d, expected, atol=1e-10)
        # reduced parts of full-rank pairs are the matrices themselves
        np.testing.assert_allclose(v.reduced_a, a, atol=1e-12)
        np.testing.assert_allclose(v.reduced_b, b, atol=1e-12)

    def test_inf_is_smaller_part_and_candidate(self, rng):
        holds(rng, 5, "lattice.infimum")

    def test_reduction_identity(self, rng):
        holds(rng, 20, "lattice.reduction")

    @pytest.mark.parametrize("rotate", [False, True])
    def test_lopsided_straddle_is_not_an_infimum(self, rotate):
        """w = (1 - 5e-11, 1/4, 1/4): one eigenvalue is within rel of 1, yet the
        full-rank pair is incomparable, so no verdict may say the infimum exists."""
        a, b = np.diag([100.0, 1.0, 1.0]), np.diag([5e-9, 3.0, 3.0])
        if rotate:
            q = np.linalg.qr(sampling.rng_from_seed(11).standard_normal((3, 3)))[0]
            a, b = q @ a @ q.T, q @ b @ q.T
        assert not po.spectral_criterion(a, b)
        assert not po.form_inf_exists(po.SesquilinearForm(a), po.SesquilinearForm(b))
        with pytest.raises(po.ToleranceBreakdownError, match="witness window is empty"):
            po.inf_exists(a, b)

    @pytest.mark.parametrize("small", [1e-7, 1e-8])
    def test_ill_conditioned_sum(self, small):
        """a <= b, rotated, with w = (1/3, 1/3, 1/4) and two eigenvalues of a + b near
        ``small`` times its largest.  The r×r compression of ``a`` then carries rounding
        of order eps / small, which must not be read as an asymmetric input."""
        for seed in range(10):
            q = np.linalg.qr(sampling.rng_from_seed(seed).standard_normal((3, 3)))[0]
            a = q @ np.diag([1.0, small, small]) @ q.T
            b = q @ np.diag([2.0, 2.0 * small, 3.0 * small]) @ q.T
            v = po.inf_exists(a, b)
            assert v.exists and v.inf is v.reduced_a
            assert np.allclose(v.inf, a, rtol=0.0, atol=1e-15 / small)
            assert po.spectral_criterion(a, b)
            assert po.form_inf_exists(po.SesquilinearForm(a), po.SesquilinearForm(b))

    # Not 1e-12: there the absolute floor of the rank cutoffs still flips verdicts.
    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e8, 1e12])
    def test_verdict_is_scale_invariant(self, infimum_probe, scale):
        """A common scaling leaves the compressed spectrum, so every infimum verdict,
        unchanged.  `form_inf_exists` is compared at the two extreme scales only;
        `test_forms` checks it against `inf_exists` at 2^-20, 1 and 2^20."""
        pairs, at_one = infimum_probe
        flips, form_disagrees = [], []
        for i, ((a, b), exists) in enumerate(zip(pairs, at_one)):
            decided = po.inf_exists(scale * a, scale * b).exists
            if decided != exists:
                flips.append(i)
            if scale in (1e-8, 1e12):
                forms = po.SesquilinearForm(scale * a), po.SesquilinearForm(scale * b)
                if po.form_inf_exists(*forms) != decided:
                    form_disagrees.append(i)
        assert (flips, form_disagrees) == ([], [])


class TestAndoWitness:
    def test_fixture_matrix(self):
        d = po.ando_witness(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        expected = np.array([[5 / 6, np.sqrt(2) / 6], [np.sqrt(2) / 6, 5 / 6]])
        np.testing.assert_allclose(d, expected, atol=1e-10)

    def test_fixture_contracts(self):
        a, b = np.diag([2.0, 1.0]), np.diag([1.0, 2.0])
        d = po.ando_witness(a, b)
        cand = po.ando_candidate(a, b)
        assert po.is_psd(d)
        assert po.loewner_leq(d, a)
        assert po.loewner_leq(d, b)
        w = np.linalg.eigvalsh(cand - d)
        assert w[0] < -1e-9 and w[-1] > 1e-9

    def test_rejects_comparable_pair(self, rng):
        a = sampling.random_psd(rng, 3)
        with pytest.raises(po.MatrixError):
            po.ando_witness(a, a + sampling.random_psd(rng, 3))

    def test_contracts_on_rank_deficient_pairs(self, rng):
        tally = holds(rng, 40, "lattice.infimum.shared_core")
        assert tally.labels["witness incomparable with the candidate"] >= 10
