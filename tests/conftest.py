import pytest

from psdorder import sampling
from psdorder.selftest import Tally, check_invariants


@pytest.fixture
def rng():
    return sampling.rng_from_seed(12345)


class _FirstFailureRaises(Tally):
    def __call__(self, ok, label):
        assert ok, f"{self.entry} trial {self.t}: {label}"
        super().__call__(ok, label)


def holds(seed, trials, *names, pinned=False):
    """Run catalogue entries on one instance stream; the first failed check raises.

    ``seed`` is an int or a generator, which is drawn from in place.
    """
    rng = sampling.rng_from_seed(seed)
    return check_invariants(names, rng, trials, tally=_FirstFailureRaises("pytest"), pinned=pinned)
