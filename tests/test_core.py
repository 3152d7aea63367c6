import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import psdorder as po
from psdorder import sampling
from psdorder.selftest import eig_scale
from conftest import holds


class TestEigHermitian:
    def test_diagonal(self):
        dec = po.eig_hermitian(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(dec.vectors), np.eye(2)[:, ::-1], atol=1e-14)

    def test_offdiagonal_2x2(self):
        dec = po.eig_hermitian([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_random_reconstruction(self, rng):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = 0.5 * (g + g.conj().T)
        dec = po.eig_hermitian(m)
        err = np.max(np.abs(dec.reconstruct() - m))
        assert err <= 1e-10 * dec.source_scale

    def test_deterministic(self, rng):
        m = sampling.random_psd(rng, 4)
        d1 = po.eig_hermitian(m)
        d2 = po.eig_hermitian(m)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(po.NotHermitianError) as info:
            po.eig_hermitian([[1.0, 5.0], [0.0, 1.0]])
        assert info.value.defect == pytest.approx(5.0)

    def test_rejects_non_square(self):
        with pytest.raises(po.DimensionMismatchError):
            po.eig_hermitian(np.zeros((2, 3)))


class TestEigDecompReads:
    def test_primitives_accept_a_decomposition(self, rng):
        m = sampling.random_psd(rng, 4, rank=3)
        dec = po.eig_hermitian(m)
        assert po.eig_hermitian(dec) is dec
        for fn in (po.is_psd, po.sqrt_psd, po.pinv_psd, po.pinv_sqrt_psd,
                   po.numeric_rank, po.range_projector):
            assert np.array_equal(fn(dec), fn(m)), fn.__name__

    def test_pinv_power(self):
        dec = po.eig_hermitian(np.diag([4.0, 0.0, 1.0]))
        np.testing.assert_allclose(dec.pinv_power(1.0), np.diag([0.25, 0.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(dec.pinv_power(0.5), np.diag([0.5, 0.0, 1.0]), atol=1e-15)
        assert dec.kept().tolist() == [False, True, True]
        assert dec.range_basis().shape == (3, 2)

    def test_require_psd(self):
        dec = po.eig_hermitian(np.diag([1.0, -0.5]))
        with pytest.raises(po.NotPsdError) as info:
            dec.require_psd()
        assert info.value.min_eigenvalue == pytest.approx(-0.5)
        ok = po.eig_hermitian(np.eye(2))
        assert ok.require_psd() is ok


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_by_coercion(self, bad):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(po.MatrixError):
            po.core.as_matrix(m)
        with pytest.raises(po.MatrixError):
            po.core.as_vector([1.0, bad])

    def test_decisions_reject_nan_instead_of_answering(self):
        nan = np.diag([np.nan, 1.0])
        with pytest.raises(po.MatrixError):
            po.as_hermitian(nan)
        with pytest.raises(po.MatrixError):
            po.comparable(nan, np.eye(2))
        with pytest.raises(po.MatrixError):
            po.strength(nan, [1.0, 0.0])
        with pytest.raises(po.MatrixError):
            po.strength(np.eye(2), [np.nan, 1.0])


class TestIsPsd:
    def test_diag_psd(self):
        assert po.is_psd(np.diag([1.0, 0.0]))

    def test_indefinite(self):
        assert not po.is_psd([[1.0, 2.0], [2.0, 1.0]])

    def test_indefinite_witness_value(self):
        # the rank-one-coupled matrix [[1,2],[2,1]] fails positivity at x=(-1,1)
        s0 = np.array([[1.0, 2.0], [2.0, 1.0]])
        x = np.array([-1.0, 1.0])
        assert not po.is_psd(s0)
        assert x @ s0 @ x == pytest.approx(-2.0)

    def test_tiny_negative_within_tolerance(self):
        assert po.is_psd(np.diag([1.0, -1e-14]))


class TestSqrtPinv:
    def test_identity(self):
        np.testing.assert_allclose(po.sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(po.sqrt_psd(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-14)

    def test_sqrt_residual_random(self, rng):
        holds(rng, 12, "core.sqrt")

    def test_sqrt_rejects_indefinite(self):
        with pytest.raises(po.NotPsdError):
            po.sqrt_psd(np.diag([1.0, -1.0]))

    def test_pinv_diagonal(self):
        np.testing.assert_allclose(po.pinv_psd(np.diag([4.0, 0.0])), np.diag([0.25, 0.0]), atol=1e-14)
        np.testing.assert_allclose(po.pinv_sqrt_psd(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_pinv_identity(self):
        np.testing.assert_allclose(po.pinv_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_penrose_random_rank2(self, rng):
        holds(rng, 12, "core.pinv")


class TestRangeProjector:
    def test_diagonal(self):
        np.testing.assert_allclose(po.range_projector(np.diag([3.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-14)

    def test_zero(self):
        np.testing.assert_allclose(po.range_projector(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_rank_one(self, rng):
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = po.range_projector(np.outer(f, f.conj()))
        expected = np.outer(f, f.conj()) / np.linalg.norm(f) ** 2
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_commutes_and_absorbs(self, rng):
        holds(rng, 12, "core.projector")


class TestLoewnerOrder:
    def test_simple_leq(self):
        assert po.loewner_leq(np.diag([1.0, 1.0]), np.diag([2.0, 1.0]))

    def test_incomparable_projections(self):
        p, q = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert not po.loewner_leq(p, q)
        assert not po.loewner_leq(q, p)

    def test_construction_forces_order(self, rng):
        a = sampling.random_psd(rng, 4)
        g = rng.standard_normal((4, 4))
        assert po.loewner_leq(a, a + g @ g.T)

    def test_dimension_mismatch(self):
        with pytest.raises(po.DimensionMismatchError):
            po.loewner_leq(np.eye(2), np.eye(3))

    def test_comparable_classification(self, rng):
        assert po.comparable(np.eye(2), np.eye(2)) is po.Comparison.EQUAL
        assert po.comparable(np.diag([2.0, 1.0]), np.diag([1.0, 2.0])) is po.Comparison.INCOMPARABLE
        a = sampling.random_psd(rng, 3)
        f = rng.standard_normal(3)
        assert po.comparable(a, a + np.outer(f, f)) is po.Comparison.LEQ
        assert po.comparable(a + np.outer(f, f), a) is po.Comparison.GEQ

    def test_reflexive_transitive_sampled(self, rng):
        holds(rng, 24, "core.order")


class TestRankOne:
    def test_basis_vector(self):
        np.testing.assert_allclose(po.rank_one([1.0, 0.0]), np.diag([1.0, 0.0]))

    def test_diagonal_ray(self):
        f = np.array([1.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(po.rank_one(f), [[0.5, 0.5], [0.5, 0.5]])

    def test_complex_ray(self):
        m = po.rank_one([1.0, 1.0j])
        np.testing.assert_allclose(m, [[1.0, -1.0j], [1.0j, 1.0]])
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_quadratic_form_is_pairing(self, rng):
        holds(rng, 12, "core.rank_one")

    def test_rejects_zero(self):
        with pytest.raises(po.MatrixError):
            po.rank_one([0.0, 0.0])

    def test_trace_is_norm_squared(self, rng):
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.trace(po.rank_one(f)).real == pytest.approx(np.linalg.norm(f) ** 2)


class TestCanonicalFactor:
    """The canonical factor ``J`` with ``J J* = a`` is the PSD square root."""

    def test_identity(self):
        np.testing.assert_allclose(po.sqrt_psd(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            po.sqrt_psd(np.diag([9.0, 4.0])), np.diag([3.0, 2.0]), atol=1e-14
        )

    def test_quadratic_form_identity(self, rng):
        holds(rng, 12, "core.factor")


class TestTolerance:
    def test_defaults(self):
        assert po.DEFAULT_TOL.rel == 1e-10
        assert po.DEFAULT_TOL.abs == 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            po.Tolerance(rel=0.0)
        with pytest.raises(ValueError):
            po.Tolerance(abs=-1e-9)


@settings(max_examples=30, deadline=None)
@given(
    g=arrays(
        np.float64,
        (3, 3),
        elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
)
def test_gram_matrices_are_psd_with_valid_sqrt(g):
    a = g @ g.T
    assert po.is_psd(a)
    r = po.sqrt_psd(a)
    assert np.max(np.abs(r @ r - a)) <= 1e-9 * eig_scale(a)


@settings(max_examples=30, deadline=None)
@given(
    g=arrays(
        np.float64,
        (3, 3),
        elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    ),
    h=arrays(
        np.float64,
        (3, 3),
        elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    ),
)
def test_loewner_order_respects_sums(g, h):
    a = g @ g.T
    b = a + h @ h.T
    assert po.loewner_leq(a, b)
    assert po.comparable(a, b) in (po.Comparison.LEQ, po.Comparison.EQUAL)


def _dtype_instance():
    """Real operands, n = 5: an incomparable full-rank pair and a comparable low-rank pair."""
    rng = sampling.rng_from_seed(2024)
    a = sampling.random_psd(rng, 5, complex_entries=False)
    b = sampling.random_psd(rng, 5, complex_entries=False)
    low = sampling.random_psd(rng, 5, rank=2, complex_entries=False)
    up = low + sampling.random_psd(rng, 5, rank=1, complex_entries=False)
    f = sampling.random_ray_in_range(rng, low, False)
    assert po.comparable(a, b) is po.Comparison.INCOMPARABLE
    # 2^30 b puts `parallel_sum` on its graded path.
    return {"a": a, "b": b, "big_b": 2.0**30 * b, "low": low, "up": up, "f": f, "t": a + b + np.eye(5)}


def _strength(a, f):
    r = po.strength(a, f)
    return r.value > 0.0, {"witness": r.witness}


def _ac_part(a, b):
    p = po.ac_part(b, a)
    ranks = po.numeric_rank(p.ac), po.numeric_rank(p.sing)
    return ranks, {"ac": p.ac, "sing": p.sing, "projector": p.projector}


def _parallel_sum(a, b):
    m = po.parallel_sum(a, b)
    return po.numeric_rank(m), {"sum": m}


def _inf_exists(a, b):
    v = po.inf_exists(a, b)
    parts = ("inf", "candidate", "ando_witness", "reduced_a", "reduced_b")
    values = (v.inf, v.candidate, v.witness, v.reduced_a, v.reduced_b)
    return v.exists, {k: x for k, x in zip(parts, values) if x is not None}


def _compress(a, b):
    c = po.compress(a, b)
    parts = {"a_tilde": c.a_tilde, "b_tilde": c.b_tilde, "j": c.j, "range_proj": c.range_proj}
    return c.range_basis.shape[1], parts


# name -> (operand names, fn(*operands) -> (verdict, {name: output})).
DTYPE_CASES = {
    "comparable": (("a", "b"), lambda a, b: (po.comparable(a, b), {})),
    "strength": (("low", "f"), _strength),
    "ac_part": (("low", "b"), _ac_part),
    "parallel_sum": (("a", "b"), _parallel_sum),
    "parallel_sum-graded": (("a", "big_b"), _parallel_sum),
    "inf_exists-exists": (("low", "up"), _inf_exists),
    "inf_exists-witness": (("a", "b"), _inf_exists),
    "kadison_witness": (("a", "b", "t"), lambda a, b, t: (True, {"s": po.kadison_witness(a, b, t)})),
    "compress": (("a", "b"), _compress),
    "form_inf_exists": (
        ("a", "b"),
        lambda a, b: (po.form_inf_exists(po.SesquilinearForm(a), po.SesquilinearForm(b)), {}),
    ),
}


class TestDtypeFollowsOperands:
    """Real operands are decided in float64; verdicts and witnesses follow a unitary congruence."""

    @pytest.mark.parametrize("name", list(DTYPE_CASES))
    def test_dtype_and_phase_congruence(self, name):
        names, fn = DTYPE_CASES[name]
        ops = [_dtype_instance()[k] for k in names]
        verdict, outputs = fn(*ops)
        assert all(x.dtype == np.float64 for x in outputs.values())
        # The same values stored as complex128 are decided in the same float64 arithmetic.
        zero_verdict, zero_outputs = fn(*(x.astype(np.complex128) for x in ops))
        assert zero_verdict == verdict
        for k, x in outputs.items():
            assert zero_outputs[k].dtype == np.float64 and np.array_equal(zero_outputs[k], x), k

        rng = sampling.rng_from_seed(7)
        g = sampling.random_vector(rng, 5, True)
        mixed = ops[:-1] + [ops[-1] + (np.outer(g, g.conj()) if ops[-1].ndim == 2 else ops[0] @ g)]
        assert all(x.dtype == np.complex128 for x in fn(*mixed)[1].values())

        d = np.exp(2j * np.pi * rng.random(5))
        dd = np.outer(d, d.conj())
        turned, turned_outputs = fn(*(x * dd if x.ndim == 2 else d * x for x in ops))
        assert turned == verdict
        assert turned_outputs.keys() == outputs.keys()
        scale = max(1.0, max(float(np.max(np.abs(x))) for x in ops))
        for k, x in outputs.items():
            y = turned_outputs[k]
            assert y.dtype == np.complex128
            back = y * dd.conj() if y.ndim == 2 else d.conj() * y
            if k != "ando_witness":
                assert np.max(np.abs(back - x)) <= 1e-12 * scale, k
                continue
            # The witness couples eigenvectors of a~ through their phases, which the
            # congruence changes; undone, it must still refute the real candidate.
            assert po.is_psd(back) and po.is_psd(ops[0] - back) and po.is_psd(ops[1] - back)
            assert po.comparable(back, outputs["candidate"]) is po.Comparison.INCOMPARABLE
