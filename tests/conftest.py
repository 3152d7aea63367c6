import numpy as np
import pytest

import psdorder as po
from psdorder import sampling
from psdorder.selftest import Tally, check_invariants

N = 4


@pytest.fixture
def rng():
    return sampling.rng_from_seed(12345)


class _FirstFailureRaises(Tally):
    def __call__(self, ok, label):
        assert ok, f"{self.entry} trial {self.t}: {label}"
        super().__call__(ok, label)


def holds(seed, trials, *names):
    """Run catalogue entries on one instance stream; the first failed check raises.

    ``seed`` is an int or a generator, which is drawn from in place.
    """
    rng = sampling.rng_from_seed(seed)
    return check_invariants(names, rng, trials, tally=_FirstFailureRaises("pytest"))


def _forms(fn):
    return lambda *grams: fn(*map(po.SesquilinearForm, grams))


# Every public function whose contract takes a Hermitian matrix, but `hermitian_part`,
# which symmetrizes by contract: a call on its matrix arguments, and the names of the
# `test_eig_counts.inst` matrices it takes.  `kadison_witness` is listed once per branch.
ENTRIES = {
    "as_hermitian": (po.as_hermitian, "a"),
    "eig_hermitian": (po.eig_hermitian, "a"),
    "as_psd": (po.as_psd, "a"),
    "is_psd": (po.is_psd, "a"),
    "sqrt_psd": (po.sqrt_psd, "low"),
    "pinv_psd": (po.pinv_psd, "low"),
    "pinv_sqrt_psd": (po.pinv_sqrt_psd, "low"),
    "numeric_rank": (po.numeric_rank, "low"),
    "range_projector": (po.range_projector, "low"),
    "comparable": (po.comparable, "a", "b"),
    "loewner_leq": (po.loewner_leq, "low", "up"),
    "order_witness": (po.order_witness, "a", "b"),
    "strength": (lambda a: po.strength(a, np.ones(N)), "a"),
    "ac_part": (po.ac_part, "b", "low"),
    "absolutely_continuous": (po.absolutely_continuous, "b", "low"),
    "mutually_singular": (po.mutually_singular, "low", "b"),
    "parallel_sum": (po.parallel_sum, "a", "b"),
    "compress": (po.compress, "a", "b"),
    "inf_exists": (po.inf_exists, "low", "up"),
    "ando_witness": (po.ando_witness, "a", "b"),
    "sup_exists": (po.sup_exists, "low", "up"),
    "kadison_witness-shared_t": (po.kadison_witness, "a", "b", "shared_t"),
    "kadison_witness-disjoint_t": (po.kadison_witness, "a", "b", "disjoint_t"),
    "from_operator": (po.from_operator, "a"),
    "to_operator": (_forms(po.to_operator), "a"),
    "form_leq": (_forms(po.form_leq), "low", "up"),
    "form_sup_exists": (_forms(po.form_sup_exists), "a", "b"),
    "form_inf_exists": (_forms(po.form_inf_exists), "a", "b"),
}
