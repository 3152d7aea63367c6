from fractions import Fraction

import numpy as np
import pytest

import psdorder as po
from psdorder import lattice, lebesgue, sampling
from psdorder.selftest import CATALOGUE
from conftest import holds


def straddles(a, b):
    """Whether the spectrum of the full pair, by the private `lattice._spectrum`, reaches both sides of 1/2."""
    return all(po.DEFAULT_TOL.sides(lattice._spectrum(a, b, po.DEFAULT_TOL)[1]))


@pytest.fixture(scope="module")
def infimum_probe():
    """1540 pairs and their verdicts at scale 1: the three ``lattice.infimum``
    families, 100 draws at each of seeds 200-204, and 40 incomparable 4x4 pairs."""
    pairs = []
    for name in ("lattice.infimum", "lattice.infimum.incomparable", "lattice.infimum.shared_core"):
        for seed in range(200, 205):
            rng = sampling.rng_from_seed(seed)
            pairs += [CATALOGUE[name].sample(rng, t)[:2] for t in range(100)]
    rng = sampling.rng_from_seed(3)
    pairs += [sampling.incomparable_pair(rng, 4)[:2] for _ in range(40)]
    return pairs, [po.inf_exists(a, b).exists for a, b in pairs]


def edge_pair(t):
    """Ranges that share ``ran x`` and the directions ``u``, ``w`` at an angle
    within 3e-5 relative of ``tol.rel``, so the intersection is ``ran x`` or
    one dimension more, depending on how the edge angle is read.

    Returns ``(a, b, exists)``: ``exists`` is the verdict under both readings,
    or ``None`` where the two readings give different verdicts.
    """
    rng = np.random.default_rng([19, t])
    n = int(rng.integers(3, 7))
    q = sampling.random_unitary(rng, n, bool(t % 2))
    delta = po.DEFAULT_TOL.rel * (1.0 + rng.uniform(-3e-5, 3e-5))
    k = int(rng.integers(1, n - 1))
    alpha, beta = rng.uniform(0.5, 2.0, 2)
    p, r = rng.uniform(0.5, 2.0, k), rng.uniform(0.5, 2.0, k)
    u, w = q[:, 0], np.cos(delta) * q[:, 0] + np.sin(delta) * q[:, 1]
    x = q[:, 2 : 2 + k]
    a = alpha * np.outer(u, u.conj()) + (x * p) @ x.conj().T
    b = beta * np.outer(w, w.conj()) + (x * r) @ x.conj().T
    if not (np.all(p <= r) or np.all(p >= r)):
        return a, b, False
    # with u ~ w the shared direction must be ordered the same way as ran x
    return a, b, (True if np.all(p <= r) == (alpha <= beta) else None)


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
        assert not po.sup_exists(a, b).exists
        s = po.kadison_witness(a, b, t)
        assert po.comparable(s, t) is po.Comparison.INCOMPARABLE


def _exact_strength_along_e0(g: np.ndarray) -> Fraction:
    """``1 / (g^-1)_00`` of a real float matrix, exactly: the Schur complement of
    entries 1..n-1 in entry 0, by elimination over `Fraction`."""
    order = list(range(1, len(g))) + [0]
    m = [[Fraction(float(g[i, j])) for j in order] for i in order]
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return m[-1][-1]


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
            qb, sines, c0 = angles(da, db, tol)
            assert c0.shape[1] == 2
            u, _ = np.linalg.qr(sampling.random_vector(rng, 4, cplx).reshape(2, 2))
            return qb, sines, c0 @ u

        monkeypatch.setattr(lebesgue, "_angles", rotated)
        other = po.kadison_witness(a, b, t)
        assert np.max(np.abs(other - s)) <= 1e-12 * max(1.0, float(np.max(np.abs(t))))

    def test_strength_along_e0_against_exact_schur_complement(self):
        """Integer-built ``a = V V*``, ``b = W W*``, ``t = a + b + 2^-j I`` at scale 2^k:
        on full-rank gaps ``lam`` is within ``4 n ε κ`` relative of the exact
        ``min 1 / (gap^-1)_00``, and the witness is ``t - lam e0 e0* + e1 e1*``."""
        rng = sampling.rng_from_seed(21)
        checked = 0
        for trial in range(300):
            n = 2 + trial % 4
            v, w = (rng.integers(-3, 4, (n, n)).astype(float) for _ in range(2))
            a, b = v @ v.T, w @ w.T
            t = a + b + 2.0 ** -int(rng.integers(0, 21)) * np.eye(n)
            a, b, t = (2.0 ** (20 * (trial % 5 - 2)) * m for m in (a, b, t))
            lam = lattice._strength_along_e0(t - a, t - b, po.DEFAULT_TOL)
            if lam is None:
                continue
            checked += 1
            exact = min(_exact_strength_along_e0(t - a), _exact_strength_along_e0(t - b))
            kappa = max(np.linalg.cond(t - a), np.linalg.cond(t - b))
            assert abs(Fraction(lam) - exact) <= 4 * n * np.finfo(float).eps * kappa * exact
            if trial % 5 < 2:  # below scale 1 the max(1, ·) floor has t coincide with a and b
                continue
            want = t.copy()
            want[0, 0] -= lam
            want[1, 1] += 1.0
            assert np.array_equal(po.kadison_witness(a, b, t), want)
        assert checked >= 200

    def test_strength_along_e0_on_an_ill_conditioned_gap(self):
        """A 3×3 pair at scale 2^36 with κ(t - a) = 1.85e8.  Read from eigendecompositions
        of the gaps, the strength was 0.0129 off the exact 450559.70971698…; the
        Cholesky pivot is within 1e-6."""
        a = 2.0**36 * np.array([[10.0, 7, 7], [7, 22, 16], [7, 16, 14]])
        b = 2.0**36 * np.array([[10.0, 0, 1], [0, 10, 3], [1, 3, 1]])
        t = a + b + 2.0**12 * np.eye(3)
        assert 1.8e8 < np.linalg.cond(t - a) < 1.9e8
        exact = min(_exact_strength_along_e0(t - a), _exact_strength_along_e0(t - b))
        assert abs(float(exact) - 450559.7097169856) < 1e-9
        lam = lattice._strength_along_e0(t - a, t - b, po.DEFAULT_TOL)
        assert abs(Fraction(lam) - exact) < 1e-6
        s = po.kadison_witness(a, b, t)
        assert s[0, 0] == t[0, 0] - lam

    def test_preconditions(self, rng):
        a = sampling.random_psd(rng, 2)
        with pytest.raises(po.MatrixError, match="t coincides with a"):
            po.kadison_witness(a, a, a)
        with pytest.raises(po.MatrixError, match="t coincides with b"):
            po.kadison_witness(np.diag([0.5, 0.0]), np.eye(2), np.eye(2))
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
        np.testing.assert_allclose(po.inf_exists(np.eye(2), np.eye(2)).candidate, np.eye(2), atol=1e-12)

    def test_diagonal_pair(self):
        got = po.inf_exists(np.diag([2.0, 1.0]), np.diag([1.0, 2.0])).candidate
        np.testing.assert_allclose(got, np.eye(2), atol=1e-12)

    def test_disjoint_projections(self):
        got = po.inf_exists(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).candidate
        assert np.max(np.abs(got)) <= 1e-12

    def test_always_lower_bound(self, rng):
        holds(rng, 15, "lattice.candidate")


class TestSpectralCriterion:
    def test_equal_pair(self, rng):
        a = sampling.random_psd(rng, 3)
        assert po.inf_exists(a, a).exists

    def test_straddling_diagonals(self):
        assert not po.inf_exists(np.diag([2.0, 1.0]), np.diag([1.0, 2.0])).exists

    def test_one_sided_diagonals(self):
        assert po.inf_exists(np.diag([1.0, 1.0]), np.diag([2.0, 3.0])).exists


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

    def test_parallel_sum_lower_bounds_at_seed_407(self):
        """Trial 91 draws ``s (x a : y b)`` lower bounds; a parallel sum formed
        from ``a + b`` once missed the infimum by rounding at the PSD floor."""
        holds(407, 100, "lattice.infimum.incomparable")

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
        assert straddles(a, b)
        assert not po.form_inf_exists(po.SesquilinearForm(a), po.SesquilinearForm(b))
        with pytest.raises(po.ToleranceBreakdownError, match="witness window is empty"):
            po.inf_exists(a, b)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_witness_ignores_the_intersection_basis(self, rng, monkeypatch, cplx):
        # ran a ∩ ran b has dimension 3 in dimension 6 and the reduced pair is
        # incomparable; any orthonormal basis of the zero-angle block must give
        # one verdict.  The basis freedom is U(3) for a complex pair and O(3) for a real one.
        a, b = sampling.shared_core_pair(rng, 6, 3, cplx, tails=True)
        v = po.inf_exists(a, b)
        assert not v.exists
        angles = lebesgue._angles

        def rotated(da, db, tol):
            qb, sines, c0 = angles(da, db, tol)
            assert c0.shape[1] == 3
            u, _ = np.linalg.qr(sampling.random_vector(rng, 9, cplx).reshape(3, 3))
            return qb, sines, c0 @ u

        monkeypatch.setattr(lebesgue, "_angles", rotated)
        scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        for _ in range(8):  # a real witness could match one rotation by the luck of its signs
            other = po.inf_exists(a, b)
            for name in ("witness", "candidate", "reduced_a", "reduced_b"):
                moved = np.max(np.abs(getattr(other, name) - getattr(v, name)))
                assert moved <= 1e-12 * scale, name

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
            assert not straddles(a, b)
            assert po.form_inf_exists(po.SesquilinearForm(a), po.SesquilinearForm(b))

    @pytest.mark.parametrize(
        "trial", [1451, 6142, 7038, 8513, 8649, 8861, 9344, 11071, 15379, 17947, 19193, 19555]
    )
    def test_edge_angle_pair(self, trial):
        """Both maximal parts are shorted to one intersection, so an edge angle
        read one way for ``[b]a`` and the other for ``[a]b`` cannot break the pair."""
        a, b, exists = edge_pair(trial)
        assert exists is not None
        assert po.inf_exists(a, b).exists is exists
        assert po.form_inf_exists(po.SesquilinearForm(a), po.SesquilinearForm(b)) is exists

    def test_edge_angle_sweep(self):
        wrong = []
        for t in range(400):
            a, b, exists = edge_pair(t)
            if exists is None:
                continue
            forms = po.SesquilinearForm(a), po.SesquilinearForm(b)
            if (po.inf_exists(a, b).exists, po.form_inf_exists(*forms)) != (exists, exists):
                wrong.append(t)
        assert wrong == []

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
        cand = po.inf_exists(a, b).candidate
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
