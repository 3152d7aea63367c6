import ast
import dataclasses
import importlib
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import psdorder as po
from psdorder import core, sampling
from psdorder.selftest import eig_scale
from conftest import ENTRIES, holds


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
        assert err <= 1e-10 * eig_scale(m)

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
        with pytest.raises(po.MatrixError):
            po.strength(np.eye(2), [bad, 1.0])


# Each public matrix entry by function name: the number of its matrix arguments, and a call on them.
BOUNDARY = {name.split("-")[0]: (len(names), fn) for name, (fn, *names) in ENTRIES.items()}
# A bad argument among good 2×2 ones, and what it must raise.
BAD = {
    "nan": (np.diag([np.nan, 1.0]), po.MatrixError, "finite"),
    "asymmetric": (np.array([[2.0, 1.0], [0.0, 1.0]]), po.NotHermitianError, "not Hermitian"),
    "non-square": (np.zeros((2, 3)), po.DimensionMismatchError, "square"),
    "empty": (np.zeros((0, 0)), po.DimensionMismatchError, "at least 1"),
    "other-dimension": (np.eye(3), po.DimensionMismatchError, "dimension mismatch"),
}


def test_boundary_covers_every_public_matrix_function():
    functions = {name for name in po.__all__ if inspect.isfunction(getattr(po, name))}
    assert set(BOUNDARY) == functions - {"hermitian_part", "rank_one"}


@pytest.mark.parametrize(
    "name, position, bad",
    [
        (name, position, bad)
        for name, (arity, _) in BOUNDARY.items()
        for position in range(arity)
        for bad in BAD
        if bad != "other-dimension" or arity > 1
    ],
)
def test_public_entry_rejects_bad_input(name, position, bad):
    """A public entry point validates each matrix argument, in every position, before it decides."""
    arity, fn = BOUNDARY[name]
    matrix, error, words = BAD[bad]
    args = [np.diag([2.0, 1.0])] * arity
    args[position] = matrix
    with pytest.raises(error, match=words):
        fn(*args)


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


# Entry points whose contract assumes a PSD operand, each fed an indefinite one
# against the identity (or along the ray e0).
PSD_ENTRIES = {
    "strength": lambda x: po.strength(x, [1.0, 0.0]),
    "ac_part": lambda x: po.ac_part(np.eye(2), x),
    "absolutely_continuous": lambda x: po.absolutely_continuous(np.eye(2), x),
    "mutually_singular": lambda x: po.mutually_singular(x, np.eye(2)),
    "parallel_sum": lambda x: po.parallel_sum(x, np.eye(2)),
    "compress": lambda x: po.compress(x, np.eye(2)),
}


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", list(PSD_ENTRIES))
def test_indefinite_operand_is_rejected(name, cplx):
    """``diag(1, -1)``, or a complex Hermitian matrix with eigenvalues ``±√1.25``, is not PSD."""
    x = np.array([[1.0, 0.5j], [-0.5j, -1.0]]) if cplx else np.diag([1.0, -1.0])
    with pytest.raises(po.NotPsdError):
        PSD_ENTRIES[name](x)


def _dense_pool(n=128, per_combo=2):
    """The pairs of the benchmark's ``dense`` pool at seed 1, drawn in its order:
    five families at n = 128, real and complex, each pair followed by its ray."""
    rng = sampling.rng_from_seed(1)
    pairs = []
    for _ in range(per_combo):
        for cplx in (False, True):
            for family in range(5):
                if family == 0:
                    a, b = sampling.incomparable_pair(rng, n, cplx)
                elif family == 1:
                    a = sampling.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=cplx)
                    b = a + sampling.random_psd(rng, n, rank=1, complex_entries=cplx)
                elif family in (2, 3):
                    core_rank = int(rng.integers(1, n - 1 if family == 2 else n + 1))
                    a, b = sampling.shared_core_pair(rng, n, core_rank, cplx, tails=family == 2)
                else:
                    for _ in range(20):  # the sampler rejects draws whose ranks nearly fill the space
                        try:
                            a, b = sampling.disjoint_projector_pair(rng, n, cplx)
                            break
                        except po.MatrixError:
                            continue
                sampling.random_ray_in_range(rng, a, cplx)
                pairs.append((a, b))
    return pairs


class TestPsdBand:
    """`core._psd_band` returns eigh's verdict or ``None``, never another verdict."""

    def test_catalogue_entry(self):
        """Every catalogue sampler, singular PSD gaps, ``(a, a)``, n = 1, and the edges."""
        labels = holds(0, 200, "core.band").labels
        for what in ("psd", "reverse order", "full rank"):
            assert labels[f"{what} band agrees with eigh"] > labels[f"{what} band defers"]
        assert labels["band defers at the edge"] == 200 * 12

    def test_dense_pool_at_every_scale(self):
        """Both orders of each pair, and full rank of the gaps ``t - a``, ``t - b`` of
        ``t = a + b + I``, as `comparable` and `kadison_witness` ask them.  The band
        settles `comparable` on 15 of the 20 pairs; the other five have a diagonal
        ``b - a`` of one sign and an indefinite spectrum, which only eigh decides."""
        tol = po.DEFAULT_TOL
        for k in (-40, -20, 0, 20, 40):
            s = 2.0**k
            settled = 0
            for a, b in _dense_pool():
                d = s * b - s * a
                dec = po.eig_hermitian(d)
                le, ge = core._psd_band(d, tol), core._psd_band(-d, tol)
                assert le is None or le == dec.is_psd(tol)
                assert ge is None or ge == tol.psd(-float(dec.eigenvalues[-1]), dec.top)
                settled += le is not None and ge is not None
                for gap in (s * b + s * np.eye(len(a)), s * a + s * np.eye(len(a))):
                    got = core._psd_band(gap, tol, full_rank=True)
                    assert got is None or got == bool(po.eig_hermitian(gap).kept(tol).all())
                    assert got or k < 0
            assert settled >= 15

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["inside", "outside"])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_edge_of_the_floor_runs_eigh(self, monkeypatch, side, cplx):
        """``λ_min = -floor (1 ± 1e-3)`` in a random basis: the band defers and
        `is_psd` reads eigh, which is PSD just inside the floor and not just outside."""
        rng = sampling.rng_from_seed(7 + cplx)
        q = np.linalg.qr(sampling.random_vector(rng, 36, cplx).reshape(6, 6))[0]
        w = rng.uniform(0.3, 3.0, 6)
        w[0] = -po.DEFAULT_TOL.rel * w[1:].max() * (1.0 + side * 1e-3)
        x = core.hermitian_part((q * w) @ q.conj().T)
        assert core._psd_band(x, po.DEFAULT_TOL) is None
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        assert po.is_psd(x) is (side < 0)
        assert len(calls) == 1

    def test_defers_where_cholesky_rounding_covers_the_floor(self):
        """At n = 1024 the factor's bound ``2 γ_{n+1} ‖L‖_F²`` of a unit-diagonal PSD
        matrix exceeds half the floor, so no PSD verdict is certified."""
        rng = sampling.rng_from_seed(3)
        g = rng.standard_normal((1024, 1024))
        x = g @ g.T / np.sum(g * g, axis=1)[:, None] ** 0.5 / np.sum(g * g, axis=1)[None, :] ** 0.5
        for m in (np.eye(1024), core.hermitian_part(x)):
            assert core._psd_band(m, po.DEFAULT_TOL) is None


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

    @pytest.mark.parametrize("decide", [po.comparable, po.loewner_leq, po.sup_exists])
    def test_each_operand_must_be_hermitian(self, decide):
        """``b - a`` is Hermitian here, ``a`` is not."""
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        for b in (m, m + np.eye(2)):
            with pytest.raises(po.NotHermitianError):
                decide(m, b)


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

    def test_complex_ray_gives_an_exactly_hermitian_product(self, rng):
        for _ in range(200):
            m = po.rank_one(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            np.testing.assert_array_equal(m, m.conj().T)

    def test_strength_step_of_a_complex_rank_one_a_is_decided(self):
        """At 2^20, ``a - strength f f*`` cancels to rounding, so an asymmetry of ``f f*``
        at rounding level once exceeded the Hermiticity limit of the difference."""
        rng = sampling.rng_from_seed(20)
        for i in range(200):
            a = 2.0**20 * sampling.random_psd(rng, 2 + i % 5, rank=1)
            f = sampling.random_ray_in_range(rng, a)
            assert po.is_psd(a - po.strength(a, f).value * po.rank_one(f)) in (True, False)

    def test_quadratic_form_is_pairing(self, rng):
        holds(rng, 12, "core.rank_one")

    def test_rejects_zero(self):
        with pytest.raises(po.MatrixError):
            po.rank_one([0.0, 0.0])

    @pytest.mark.parametrize("f", [[1e160, 0.0], [1e-170, 0.0], [1e160j, 0.0]])
    def test_product_outside_the_float_range_is_rejected(self, f):
        """``f f*`` overflows or underflows to 0: rejected as such, without a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(po.MatrixError, match="float range"):
                po.rank_one(f)

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
        for bad in (np.inf, -np.inf, np.nan):
            for field in ("rel", "abs"):
                with pytest.raises(po.MatrixError, match="tolerance must be finite and positive"):
                    po.Tolerance(**{field: bad})

    def test_psd_rule_at_the_floor(self):
        tol, top = po.Tolerance(rel=1e-10, abs=1e-12), 4.0
        edge = -tol.floor(top)
        assert tol.psd(edge, top) and not tol.psd(np.nextafter(edge, -np.inf), top)

    def test_negligible_rule_at_the_floor(self):
        tol, top = po.Tolerance(rel=1e-10, abs=1e-12), 0.5
        edge = tol.floor(top)
        assert tol.negligible(edge, top) and not tol.negligible(np.nextafter(edge, np.inf), top)

    def test_zero_angle_rule_at_rel(self):
        tol = po.Tolerance(rel=1e-10, abs=1e-12)
        sines = np.array([tol.rel, np.nextafter(tol.rel, np.inf)])
        assert tol.zero_angle(sines).tolist() == [True, False]
        assert tol.zero_angle(3.0 * tol.rel, 3.0) and not tol.zero_angle(np.nextafter(3.0 * tol.rel, 1.0), 3.0)

    def test_sides_rule_at_rel_from_one_half(self):
        tol = po.Tolerance(rel=1e-10, abs=1e-12)
        low, high = 0.5 - tol.rel, 0.5 + tol.rel
        assert tol.sides(np.array([low, 0.5, high])) == (False, False)
        assert tol.sides(np.array([np.nextafter(low, 0.0), high])) == (True, False)
        assert tol.sides(np.array([low, np.nextafter(high, 1.0)])) == (False, True)
        assert tol.sides(np.zeros(0)) == (False, False)

    def test_each_rule_is_stated_once(self):
        """The rank cutoff and the PSD floor are written out only in `Tolerance`'s methods,
        and no decision module outside `core` reads ``rel``, ``cutoff`` or ``floor``: each
        comparison with a threshold is a `Tolerance` rule method."""
        tol = po.Tolerance(rel=1e-10, abs=1e-12)
        assert tol.cutoff(4.0) == 1e-10 * 4.0 + 1e-12
        assert (tol.floor(0.5), tol.floor(4.0)) == (1e-10, 1e-10 * 4.0)
        assert [f.name for f in dataclasses.fields(po.Tolerance)] == ["rel", "abs"]
        modules = ("core", "strength", "lebesgue", "lattice", "forms")
        source = "".join(inspect.getsource(importlib.import_module(f"psdorder.{m}")) for m in modules)
        cutoff = re.compile(r"\brel \*[^\n]*\+[^\n]*\babs\b")
        assert source.count("max(1") == 1 and "max(1" in inspect.getsource(po.Tolerance.floor)
        assert len(cutoff.findall(source)) == 1 and cutoff.search(inspect.getsource(po.Tolerance.cutoff))
        assert not any(hasattr(core.EigDecomp, name) for name in ("source_scale", "rank_cutoff", "psd_floor"))
        assert not hasattr(po.lattice, "_sides") and not hasattr(importlib.import_module("psdorder.cli"), "_finite_tolerance")

        def reads(node):  # attribute reads of a threshold; a docstring is a constant, not a read
            return [(n.lineno, n.attr) for n in ast.walk(node) if isinstance(n, ast.Attribute)
                    and n.attr in ("rel", "cutoff", "floor")]

        outside = {m: reads(ast.parse(inspect.getsource(importlib.import_module(f"psdorder.{m}"))))
                   for m in ("strength", "lebesgue", "lattice", "forms")}
        assert outside == dict.fromkeys(outside, [])


class TestOverflow:
    """Finite entries up to the float64 limit are symmetrized without overflow."""

    big = 1e308 * np.eye(2)

    def test_decisions_at_the_float_limit(self):
        np.testing.assert_array_equal(po.as_hermitian(self.big), self.big)
        assert po.is_psd(self.big) is True
        assert po.numeric_rank(self.big) == 2
        assert po.strength(self.big, [1.0, 0.0]).value == 1e308
        assert po.comparable(self.big, 0.5 * self.big) is po.Comparison.GEQ

    def test_a_sum_or_difference_that_overflows_is_rejected(self):
        """Rejected cleanly: numpy's overflow warning is never raised on the way.
        The infimum forms no sum, so ``1e308 I`` is its own infimum."""
        big = self.big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for decide, pair in ((po.comparable, (big, -big)), (po.compress, (big, big))):
                with pytest.raises(po.MatrixError, match="overflows"):
                    decide(*pair)
            verdict = po.inf_exists(big, big)
        assert verdict.exists
        np.testing.assert_array_equal(verdict.inf, big)

    def test_parallel_sum_forms_no_sum(self):
        """``a : b`` is read from the reduced pair, so ``1e308 I : 1e308 I`` is decided."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(po.parallel_sum(self.big, self.big), 5e307 * np.eye(2))

    def test_band_defers_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core._psd_band(1e308 * np.eye(4), po.DEFAULT_TOL) is None


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
    # 2^30 b puts the operands of `parallel_sum` thirty binary orders apart.
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
