import numpy as np
import pytest

import psdorder as po
from psdorder import sampling
from conftest import holds


class TestFormOperatorBijection:
    def test_identity_form(self):
        t = po.from_operator(np.eye(2), "identity")
        np.testing.assert_allclose(po.to_operator(t), np.eye(2))
        assert t.evaluate([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
        assert t.evaluate([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        for x, y in (([1, 0, 0], [1, 0]), ([1, 0], [1, 0, 0]), ([1], [1])):
            with pytest.raises(po.DimensionMismatchError):
                t(x, y)

    def test_rank_one_form_on_basis_pairs(self, rng):
        f = sampling.random_vector(rng, 3)
        t = po.from_operator(po.rank_one(f))
        for i in range(3):
            for j in range(3):
                x = np.eye(3)[i]
                y = np.eye(3)[j]
                # t(x, y) = <f|y> conj(<f|x>) under the pairing <f|x> = x* f
                expected = np.vdot(y, f) * np.conj(np.vdot(x, f))
                assert t.evaluate(x, y) == pytest.approx(expected)

    def test_round_trip_exact(self, rng):
        holds(rng, 12, "forms.roundtrip")

    def test_rejects_indefinite_gram(self):
        with pytest.raises(po.NotPsdError):
            po.from_operator([[1.0, 2.0], [2.0, 1.0]])

    def test_order_preserved(self, rng):
        a = sampling.random_psd(rng, 3)
        b = a + sampling.random_psd(rng, 3)
        ta, tb = po.from_operator(a), po.from_operator(b)
        assert po.form_leq(ta, tb)
        assert not po.form_leq(tb, ta)


class TestFormLattice:
    def test_comparable_diagonal_forms(self):
        t = po.from_operator(np.diag([1.0, 1.0]))
        s = po.from_operator(np.diag([2.0, 1.0]))
        assert po.form_sup_exists(t, s)
        assert po.form_inf_exists(t, s)

    def test_straddling_diagonal_forms(self):
        t = po.from_operator(np.diag([2.0, 1.0]))
        s = po.from_operator(np.diag([1.0, 2.0]))
        assert not po.form_sup_exists(t, s)
        assert not po.form_inf_exists(t, s)

    def test_disjoint_projector_forms(self):
        t = po.from_operator(np.diag([1.0, 0.0]))
        s = po.from_operator(np.diag([0.0, 1.0]))
        assert not po.form_sup_exists(t, s)
        assert po.form_inf_exists(t, s)
        verdict = po.inf_exists(po.to_operator(t), po.to_operator(s))
        assert np.max(np.abs(verdict.inf)) <= 1e-12

    def test_verdicts_agree_with_operator_level(self, rng):
        holds(rng, 30, "forms.agreement")


def _family_pair(rng, family, n, cplx):
    """One pair from each family the benchmark draws its instances from."""
    if family == "incomparable":
        return sampling.incomparable_pair(rng, n, cplx)
    if family == "comparable":
        a = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
        return a, a + sampling.random_psd(rng, n, rank=1, complex_entries=cplx)
    if family == "shared_tails":
        return sampling.shared_core_pair(rng, n, int(rng.integers(1, n - 1)), cplx, tails=True)
    if family == "shared":
        return sampling.shared_core_pair(rng, n, int(rng.integers(1, n + 1)), cplx)
    return sampling.disjoint_projector_pair(rng, n, cplx)


class TestFormInfDecision:
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize(
        "family", ["incomparable", "comparable", "shared_tails", "shared", "disjoint"]
    )
    def test_agrees_with_inf_exists(self, family, n, cplx):
        rng = sampling.rng_from_seed(7000 + 10 * n + cplx)
        for _ in range(3):
            a, b = _family_pair(rng, family, n, cplx)
            for s in (2.0**-20, 1.0, 2.0**20):
                decided = po.form_inf_exists(po.SesquilinearForm(s * a), po.SesquilinearForm(s * b))
                assert decided == po.inf_exists(s * a, s * b).exists

    @pytest.mark.parametrize(
        "gram, error",
        [
            ([[1.0, 2.0], [2.0, 1.0]], po.NotPsdError),
            ([[1.0, 1.0], [0.0, 1.0]], po.NotHermitianError),
            (np.eye(3), po.DimensionMismatchError),
        ],
    )
    def test_rejects_bad_gram_built_directly(self, gram, error):
        good = po.SesquilinearForm(np.eye(2))
        bad = po.SesquilinearForm(np.asarray(gram))
        with pytest.raises(error):
            po.form_inf_exists(bad, good)
        with pytest.raises(error):
            po.form_inf_exists(good, bad)
