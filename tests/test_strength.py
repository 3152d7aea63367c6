import numpy as np
import pytest

import psdorder as po
from psdorder import sampling, selftest
from conftest import holds

# A ray just outside a rank-one range, whose strength 0 the PSD floor cannot
# certify: the instance that ``strength.supremum`` drew at trial 31 at seed 0,
# and ``strength.bisection`` at seed 1, while entry ``i`` drew ``default_rng(seed + i)``.
JUST_OUTSIDE = (
    np.array([[1.1244674073781353, 0.5683200001864678], [0.5683200001864678, 0.28723609105313325]]),
    np.array([0.6432778732254583, 0.32742230686691515]),
)


class TestStrengthExamples:
    def test_identity_basis_ray(self):
        res = po.strength(np.eye(2), [1.0, 0.0])
        assert res.value == pytest.approx(1.0)
        assert res.constant == pytest.approx(1.0)
        np.testing.assert_allclose(res.witness, [1.0, 0.0], atol=1e-14)

    def test_ray_outside_range(self):
        res = po.strength(np.diag([1.0, 0.0]), [0.0, 1.0])
        assert res.value == 0.0
        assert res.witness is None
        assert res.constant is None

    def test_hand_inverse_case(self):
        # f* A^{-1} f = 1 for A = [[2,1],[1,1]], f = (1,1)
        a = np.array([[2.0, 1.0], [1.0, 1.0]])
        f = np.array([1.0, 1.0])
        res = po.strength(a, f)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        oracle = selftest._bisect_strength(a, f)
        assert oracle == pytest.approx(res.value, abs=1e-6 * (1 + res.value))

    def test_rejects_zero_ray(self):
        with pytest.raises(po.MatrixError):
            po.strength(np.eye(2), [0.0, 0.0])
        with pytest.raises(po.MatrixError):
            selftest._bisect_strength(np.eye(2), [0.0, 0.0])

    @pytest.mark.parametrize(
        "ray, words", [([1.0, 0.0, 0.0], "ray has 3"), (np.eye(2), "expected a vector")]
    )
    def test_rejects_a_ray_of_the_wrong_shape(self, ray, words):
        with pytest.raises(po.DimensionMismatchError, match=words):
            po.strength(np.eye(2), ray)

    def test_zero_matrix(self):
        assert po.strength(np.zeros((2, 2)), [1.0, 0.0]).value == 0.0

    @pytest.mark.parametrize("c", [1.0, 1e-4, 1e4])
    def test_range_test_is_a_sine(self, c):
        """``f = (1, 1e-7)`` leaves ``ran diag(1, 0)`` at a sine of 1e-7 > ``rel``
        whatever its length, even at c = 1e-4, where ``||f_perp|| = 1e-11 < rel``."""
        assert po.strength(np.diag([1.0, 0.0]), c * np.array([1.0, 1e-7])).value == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ray", [[1e-170, 0.0], [1e160, 0.0]])
    def test_extreme_ray_whose_certificate_is_no_float(self, ray):
        """Both rays are non-zero and decided, but the value 1e340 of the first and the
        constant 1e320 of the second are not floats: rejected, without a warning."""
        with pytest.raises(po.MatrixError, match="float range"):
            po.strength(np.eye(2), ray)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_rays_are_decided_and_scaled_back(self):
        """Rays whose norm overflows or underflows get the value, witness and constant
        of a moderate ray, scaled by powers of two."""
        res = po.strength(1e300 * np.eye(2), [1e160, 0.0])
        assert (res.value, res.constant) == pytest.approx((1e-20, 1e20), rel=1e-15)
        np.testing.assert_allclose(res.witness, [1e10, 0.0], rtol=1e-15)
        res = po.strength(1e-100 * np.eye(2), [1e-170, 0.0], po.Tolerance(abs=1e-300))
        assert (res.value, res.constant) == pytest.approx((1e240, 1e-240), rel=1e-15)
        np.testing.assert_allclose(res.witness, [1e-120, 0.0], rtol=1e-15)
        assert po.strength(np.diag([1.0, 0.0]), [1e-170, 1e-170]).value == 0.0

    @pytest.mark.parametrize("cplx", [False, True])
    def test_ray_scale_homogeneity(self, rng, cplx):
        """``strength(a, c f) = strength(a, f) / c^2`` exactly for c = 2^k, k in -40..40,
        on rays in the range, just outside it (sine 1e-7) and inside within rel (sine 1e-12)."""
        a = sampling.random_psd(rng, 4, rank=2, complex_entries=cplx)
        inside = sampling.random_ray_in_range(rng, a, cplx)
        perp = np.linalg.eigh(a)[1][:, 0] * np.linalg.norm(inside)
        for f in (inside, inside + 1e-7 * perp, inside + 1e-12 * perp):
            base = po.strength(a, f).value
            for k in range(-40, 41):
                c = 2.0**k
                assert po.strength(a, c * f).value * c**2 == base, k

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 3: the rank cutoff's absolute 1e-12 drops every eigenvalue of a at 2^-60"
    )
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_ray_in_the_range_has_positive_strength_at_small_scale(self, cplx):
        """``f = a g`` lies in the range of ``a``, so its strength is positive at any scale of ``a``."""
        rng = sampling.rng_from_seed(60 + cplx)
        for n in (2, 3, 5):
            a = 2.0**-60 * sampling.random_psd(rng, n, rank=n - 1, complex_entries=cplx)
            assert po.strength(a, a @ sampling.random_vector(rng, n, cplx)).value > 0.0, n


class TestStrengthInvariants:
    def test_result_certificates_consistent(self, rng):
        holds(rng, 60, "strength.certificate")

    def test_positive_homogeneity(self, rng):
        holds(rng, 12, "strength.homogeneity")

    def test_superadditivity(self, rng):
        holds(rng, 120, "strength.superadditivity")

    def test_concavity(self, rng):
        holds(rng, 12, "strength.concavity")

    def test_supremum_property(self, rng):
        holds(rng, 20, "strength.supremum")

    def test_bisection_matches_closed_form(self, rng):
        holds(rng, 20, "strength.bisection")

    def test_ray_just_outside_a_rank_one_range(self):
        """`JUST_OUTSIDE`: ``a`` has eigenvalues 0 and 1.41, and ``f`` leaves
        ``ran a`` at a sine of 2.85e-3, so ``|f⊥|^2 = 4.22e-6``.
        The strength 0 is exact.  The PSD floor ``1e-10 max(1, |a|)`` accepts
        ``a - t f f*`` up to ``t = floor / |f⊥|^2 = 3.35e-5``, where bisection
        stops; the kernel certificate refutes every ``t > 0``."""
        a, f = JUST_OUTSIDE
        assert po.strength(a, f).value == 0.0
        w, u = np.linalg.eigh(a)
        perp = abs(u[:, 0] @ f) ** 2
        assert 4.2e-6 < perp < 4.25e-6
        assert 1e-6 < selftest._bisect_strength(a, f) <= 1e-10 * w[-1] / perp
        tally = selftest.Tally("strength")
        for name in ("strength.bisection", "strength.supremum"):
            tally.entry = name
            selftest.CATALOGUE[name].check(tally, a, f)
        assert (tally.passed, tally.failures) == (3, [])


class TestStrengthDominates:
    """`selftest._dominates`, the sampled strength-dominance oracle of the ``strength.*`` entries."""

    def test_ordered_diagonal(self):
        assert selftest._dominates(np.diag([1.0, 1.0]), np.diag([2.0, 1.0]))

    def test_unordered_diagonal(self):
        assert not selftest._dominates(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))

    def test_identity_pair(self, rng):
        a = sampling.random_psd(rng, 3)
        assert selftest._dominates(a, a, samples=30, seed=5)

    def test_rejects_bad_samples(self):
        with pytest.raises(po.MatrixError):
            selftest._dominates(np.eye(2), np.eye(2), samples=0)

    def test_equal_strengths_imply_equal_matrices(self, rng):
        # dominance in both directions pins the matrices together
        a = sampling.random_psd(rng, 3)
        assert selftest._dominates(a, a.copy(), samples=20, seed=7)
        assert selftest._dominates(a.copy(), a, samples=20, seed=8)
        assert po.comparable(a, a.copy()) is po.Comparison.EQUAL

    @pytest.mark.parametrize("cplx", [False, True])
    def test_rays_are_real_for_a_real_pair(self, rng, monkeypatch, cplx):
        rays = []

        def spy(a, f, tol=po.DEFAULT_TOL):
            rays.append(np.asarray(f).dtype)
            return po.strength(a, f, tol)

        monkeypatch.setattr(selftest, "strength", spy)
        a = sampling.random_psd(rng, 3, complex_entries=cplx)
        assert selftest._dominates(a, a + np.eye(3))
        assert len(rays) == 40
        assert set(rays) == {np.dtype(np.complex128 if cplx else np.float64)}


class TestOrderWitness:
    def test_diagonal_witness_direction(self):
        a, b = np.diag([2.0, 1.0]), np.diag([1.0, 2.0])
        f = po.order_witness(a, b)
        assert f is not None
        # witness is supported on the first coordinate
        assert abs(f[1]) <= 1e-12 * abs(f[0])
        la = po.strength(a, f).value
        lb = po.strength(b, f).value
        assert la >= 1.0 - 1e-10
        assert la > lb
        assert la / lb == pytest.approx(2.0, rel=1e-9)
        # bisection confirms both values
        assert selftest._bisect_strength(a, f) == pytest.approx(la, abs=1e-6 * (1 + la))
        assert selftest._bisect_strength(b, f) == pytest.approx(lb, abs=1e-6 * (1 + lb))

    def test_absent_when_ordered(self, rng):
        holds(rng, 12, "strength.dominance")

    def test_rank_one_bump(self):
        b = np.eye(2)
        a = b + po.rank_one([1.0, 0.0])
        f = po.order_witness(a, b)
        assert abs(f[1]) <= 1e-12 * abs(f[0])
        la = po.strength(a, f).value
        lb = po.strength(b, f).value
        assert la > lb
        assert la / lb == pytest.approx(2.0, rel=1e-9)

    def test_witness_normalization(self, rng):
        holds(rng, 40, "strength.order_witness")
