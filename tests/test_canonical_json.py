"""The ``--json`` writer is byte-identical to ``json.dumps(x, sort_keys=True, indent=2)``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from psdorder import cli, sampling
from psdorder.selftest import run_selftest


def reference(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2)


scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()  # NaN, +-inf and -0.0 included
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e308, float("nan"), float("inf"), float("-inf")])
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é \U0001f600", "</script>"])
)
# Rectangular float nestings take the array fast path; an int, bool or
# non-finite leaf in one of them sends it down the generic path.
float_arrays = arrays(
    np.float64,
    array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(width=64),
).map(np.ndarray.tolist)


def _with_first_leaf(x: list, leaf) -> list:
    if x and isinstance(x[0], list) and x[0]:
        return [_with_first_leaf(x[0], leaf)] + x[1:]
    return [leaf] + x[1:]


mixed_arrays = st.builds(
    _with_first_leaf,
    float_arrays.filter(len),
    st.integers(-3, 3) | st.booleans() | st.sampled_from([float("nan"), float("-inf")]),
)
trees = st.recursive(
    scalars | float_arrays | mixed_arrays,
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["data", "n", "é"]), kids, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_matches_json_dumps_on_arbitrary_trees(x):
    assert cli._canonical_json(x) == reference(x)


@pytest.mark.parametrize(
    "x",
    [
        {},
        [],
        {"a": {}, "b": [[], []], "c": [[[]]]},
        [1.0, 2],
        [2.0, True],
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0], 3.0],
        [1.0, float("nan")],
        [[1e308, 1e308]],
        [-0.0, 5e-324],
        (1.0, 2.0),
        [(1.0, 2.0), (3.0, 4.0)],
        {1: "int key", 2.5: "float key"},
        {None: "null key"},
        {True: 1},
        2**100,
        "é\n\"",
    ],
)
def test_matches_json_dumps_on_edge_cases(x):
    assert cli._canonical_json(x) == reference(x)


def _write(path, x) -> str:
    path.write_text(json.dumps(cli.to_obj(np.asarray(x, dtype=np.complex128))))
    return str(path)


ARGV = {
    "strength": ["--a", "a", "--f", "f"],
    "leq": ["--a", "a", "--b", "b"],
    "sup": ["--a", "a", "--b", "b", "--t", "t"],
    "inf": ["--a", "a", "--b", "b"],
    "lebesgue": ["--a", "a", "--b", "b"],
    "parsum": ["--a", "a", "--b", "b"],
    "kadison-witness": ["--a", "a", "--b", "b", "--t", "t"],
    "ando-witness": ["--a", "a", "--b", "b"],
    "compress": ["--a", "a", "--b", "b"],
}


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 5, 32])
def test_cli_reports_are_canonical(n, cplx, tmp_path, capsys):
    rng = sampling.rng_from_seed(100 * n + cplx)
    if n == 1:  # every 1x1 pair is comparable
        a, b = np.eye(1), 2.0 * np.eye(1)
    else:  # full rank and incomparable, so Ando's witness exists too
        a, b = (m + 0.3 * np.eye(n) for m in sampling.incomparable_pair(rng, n, cplx))
    paths = {
        "a": _write(tmp_path / "a.json", a),
        "b": _write(tmp_path / "b.json", b),
        "t": _write(tmp_path / "t.json", a + b + np.eye(n)),
        "f": _write(tmp_path / "f.json", sampling.random_vector(rng, n, cplx)),
    }
    statuses = {}
    for command, argv in ARGV.items():
        statuses[command] = cli.main([command] + [paths.get(x, x) for x in argv] + ["--json"])
        out = capsys.readouterr().out
        if statuses[command] == 0:
            assert out == reference(json.loads(out)) + "\n", command
    if n > 1:
        assert set(statuses.values()) == {0}


def test_selftest_summary_is_canonical(capsys):
    summary = run_selftest(seed=0, trials=2)
    assert cli._canonical_json(summary) == reference(summary)
    assert cli.main(["selftest", "--trials", "2", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == reference(json.loads(out)) + "\n"
