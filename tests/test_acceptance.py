"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Runnable standalone:  pytest -s -v tests/test_acceptance.py
Criteria 1-8 and 10 run entries of the invariant catalogue
(`psdorder.selftest.CATALOGUE`) at each criterion's seed and trial count, on
the one instance stream of each sampler that ``psdorder selftest`` and the
unit tests also draw; the bounds are the catalogue's.  The oracles
(bisection on PSD verdicts, SVD pseudo-inverse, parallel-sum limits, numpy
eigenvalues, 2x2 grid search) are independent of the closed forms they
check, as `psdorder.selftest` states for each; bisection still reads
`core`, and the parallel-sum limit calls numpy alone, not `lebesgue`.
"""

import numpy as np
import pytest

import psdorder as po
from psdorder import sampling
from conftest import holds


def test_criterion_01_strength_closed_form_vs_oracle():
    holds(101, 500, "strength.bisection", "strength.supremum")
    print("ACCEPTANCE 1: PASS: closed-form strength matches bisection oracle, "
          "supremum property holds (500 trials)")


def test_criterion_02_strength_times_penrose_form_is_one():
    holds(202, 500, "strength.penrose")
    print("ACCEPTANCE 2: PASS: strength * (f* A^+ f) = 1 within 1e-8 (500 trials)")


def test_criterion_03_order_iff_strength_dominance():
    rng = sampling.rng_from_seed(303)
    holds(rng, 200, "strength.dominance")
    holds(rng, 200, "strength.order_witness")
    print("ACCEPTANCE 3: PASS: dominance on 50 rays for 200 ordered pairs; "
          "strict witness gap for 200 non-ordered pairs")


def test_criterion_04_remark_properties():
    holds(404, 200, "strength.homogeneity", "strength.superadditivity", "strength.concavity")
    print("ACCEPTANCE 4: PASS: homogeneity exact to 1e-12, superadditivity and "
          "concavity within 1e-8*scale (200 trials)")


def test_criterion_05_lebesgue_decomposition():
    holds(505, 200, "lebesgue.decomposition", "lebesgue.limit", "lebesgue.maximality")
    print("ACCEPTANCE 5: PASS: decomposition, AC/singular certificates, 2^30 "
          "parallel-sum limit, maximality vs 100 minorants (200 trials)")


def test_criterion_06_anti_lattice_witnesses():
    holds(606, 200, "lattice.kadison")
    # fixed fixture
    s = po.kadison_witness(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2))
    np.testing.assert_allclose(s, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-12)
    s0 = np.array([[1.0, 2.0], [2.0, 1.0]])
    x = np.array([-1.0, 1.0])
    assert x @ s0 @ x == pytest.approx(-2.0)
    print("ACCEPTANCE 6: PASS: anti-lattice witnesses for 200 incomparable pairs "
          "x 3 upper bounds; 2x2 fixture and its -2 form value reproduced")


def test_criterion_07_infimum_three_way_agreement():
    tally = holds(707, 300, "lattice.infimum")
    exists_count = tally.labels["infimum is the candidate"]
    witness_count = tally.labels["witness incomparable with the candidate"]
    assert exists_count >= 60 and witness_count >= 60, "mix did not cover both outcomes"
    d = po.ando_witness(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
    np.testing.assert_allclose(
        d, [[5 / 6, np.sqrt(2) / 6], [np.sqrt(2) / 6, 5 / 6]], atol=1e-10
    )
    print(f"ACCEPTANCE 7: PASS: three-way agreement on 300 pairs "
          f"({exists_count} infima, {witness_count} witnesses); fixture to 1e-10")


def test_criterion_08_disjoint_projections_have_zero_infimum():
    holds(808, 100, "lattice.disjoint")
    print("ACCEPTANCE 8: PASS: infimum of 100 disjoint-range projector pairs is 0")


def _grid_confirms_maximum(a, b, step=0.02, feas_eps=1e-9, dom_slack=0.01):
    """Exhaustive search over real symmetric 2x2 C = [[x, y], [y, z]].

    Feasible == PSD and below both inputs; confirms whether the feasible set
    has a greatest element (all comparisons via 2x2 determinant tests).
    """
    A = np.real(np.asarray(a))
    B = np.real(np.asarray(b))
    xmax = max(min(A[0, 0], B[0, 0]), 0.0)
    zmax = max(min(A[1, 1], B[1, 1]), 0.0)
    xs = np.arange(0.0, xmax + step / 2, step)
    zs = np.arange(0.0, zmax + step / 2, step)
    r = np.sqrt(xmax * zmax) + step
    ys = np.arange(-r, r + step / 2, step)
    zg, yg = np.meshgrid(zs, ys, indexing="ij")
    fx, fy, fz = [], [], []
    for x in xs:
        psd = x * zg - yg**2 >= -feas_eps
        da, db, dc = A[0, 0] - x, np.real(A[0, 1]) - yg, A[1, 1] - zg
        below_a = (da >= -feas_eps) & (dc >= -feas_eps) & (da * dc - db**2 >= -feas_eps)
        ea, eb, ec = B[0, 0] - x, np.real(B[0, 1]) - yg, B[1, 1] - zg
        below_b = (ea >= -feas_eps) & (ec >= -feas_eps) & (ea * ec - eb**2 >= -feas_eps)
        mask = psd & below_a & below_b
        if mask.any():
            fx.append(np.full(int(mask.sum()), x))
            fy.append(yg[mask])
            fz.append(zg[mask])
    fx = np.concatenate(fx)
    fy = np.concatenate(fy)
    fz = np.concatenate(fz)
    trace = fx + fz
    ties = np.nonzero(trace >= trace.max() - 1e-9)[0]
    for i in ties[:64]:
        d1 = fx[i] - fx
        d2 = fz[i] - fz
        dy = fy[i] - fy
        dominated = (
            (d1 >= -dom_slack)
            & (d2 >= -dom_slack)
            & ((d1 + dom_slack) * (d2 + dom_slack) >= dy**2)
        )
        if bool(dominated.all()):
            return True
    return False


def _criterion_09_instances():
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    uu = np.outer(u, u)
    fixed = [
        (np.diag([1.6, 0.0]), np.diag([0.8, 1.2])),          # exists
        (np.diag([2.0, 0.0]), np.diag([0.6, 0.4])),          # exists
        (1.2 * uu, 0.8 * np.eye(2)),                         # exists
        (np.diag([1.0, 0.0]), np.diag([0.4, 2.0])),          # exists
        (2.4 * uu, 0.6 * np.eye(2)),                         # exists
        (np.diag([0.0, 1.8]), np.diag([1.4, 0.6])),          # exists
        (np.diag([1.2, 0.0]), np.diag([1.0, 1.0])),          # exists
        (np.diag([1.5, 0.0]), np.diag([0.0, 1.5])),          # disjoint, inf = 0
        (np.diag([1.2, 0.0]), 0.9 * uu),                     # disjoint, inf = 0
        (1.4 * uu, np.diag([0.0, 1.1])),                     # disjoint, inf = 0
        (np.diag([2.0, 1.0]), np.diag([1.0, 2.0])),          # straddles, no inf
    ]
    rng = sampling.rng_from_seed(909)
    while len(fixed) < 20:
        a, b = sampling.incomparable_pair(rng, 2, complex_entries=False, margin=0.3)
        a = po.hermitian_part(a + 0.5 * np.eye(2)).real
        b = po.hermitian_part(b + 0.5 * np.eye(2)).real
        if po.comparable(a, b) is po.Comparison.INCOMPARABLE:
            fixed.append((a, b))  # full rank incomparable: no infimum
    return fixed


def test_criterion_09_exhaustive_2x2_grid_oracle():
    agreements = 0
    for idx, (a, b) in enumerate(_criterion_09_instances()):
        assert po.comparable(a, b) is po.Comparison.INCOMPARABLE, f"instance {idx}"
        reported = po.inf_exists(a, b).exists
        confirmed = _grid_confirms_maximum(a, b)
        assert reported == confirmed, f"instance {idx}: grid={confirmed} reported={reported}"
        agreements += 1
    assert agreements == 20
    print("ACCEPTANCE 9: PASS: grid search agrees with the infimum verdict on "
          "all 20 incomparable 2x2 pairs")


def test_criterion_10_forms_corollary_agreement():
    holds(1010, 100, "forms.agreement")
    print("ACCEPTANCE 10: PASS: form-level and operator-level verdicts agree "
          "exactly on 100 Gram pairs")
