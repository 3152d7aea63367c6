import base64
import dataclasses
import inspect
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import psdorder as po
import test_acceptance
from psdorder import cli, sampling, selftest
from test_lattice import graded_pairs
from test_strength import JUST_OUTSIDE


def write_matrix(path, m):
    path.write_text(json.dumps(cli.to_obj(np.asarray(m, dtype=complex))))
    return str(path)


def write_vector(path, v):
    path.write_text(json.dumps(cli.to_obj(np.asarray(v, dtype=complex))))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "id2": write_matrix(tmp_path / "id2.json", np.eye(2)),
        "d21": write_matrix(tmp_path / "d21.json", np.diag([2.0, 1.0])),
        "d12": write_matrix(tmp_path / "d12.json", np.diag([1.0, 2.0])),
        "p": write_matrix(tmp_path / "p.json", np.diag([1.0, 0.0])),
        "q": write_matrix(tmp_path / "q.json", np.diag([0.0, 1.0])),
        "e1": write_vector(tmp_path / "e1.json", [1.0, 0.0]),
        "zero_vec": write_vector(tmp_path / "z.json", [0.0, 0.0]),
        "tmp": tmp_path,
    }


def strength_report(a, f) -> dict:
    """The JSON report of `cli.cmd_strength` on in-memory operands, as `reverify_report` reads it."""
    inputs = {"a": cli.memory_value("a", a), "f": cli.memory_value("f", f, "vector")}
    return json.loads(cli._dumps(cli.cmd_strength(inputs, po.DEFAULT_TOL)))


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def canonical(out: str) -> str:
    """The canonical spelling of a printed JSON value: compact, sorted keys, one newline."""
    return json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


class TestRoundTrip:
    def test_matrix_obj_complex(self, rng):
        m = sampling.random_psd(rng, 3)
        obj = cli.to_obj(m)
        assert obj["complex"] is True
        np.testing.assert_array_equal(cli.from_obj(obj, "matrix"), m)

    def test_matrix_obj_real(self):
        m = np.diag([1.0, 2.0])
        obj = cli.to_obj(m)
        assert obj["complex"] is False
        np.testing.assert_array_equal(cli.from_obj(obj, "matrix"), m)

    def test_vector_obj(self, rng):
        v = sampling.random_vector(rng, 4)
        np.testing.assert_array_equal(cli.from_obj(cli.to_obj(v), "vector"), v)

    @pytest.mark.parametrize(
        "obj, kind",
        [
            ({"n": 2, "complex": True, "data": [[-0.0, 1.0], [0.0, -0.0]]}, "vector"),
            ({"n": 1, "complex": True, "data": [[[-0.0, -2.0]]]}, "matrix"),
            ({"n": 2, "complex": False, "data": [[-0.0, 1.0], [1.0, 0.0]]}, "matrix"),
        ],
    )
    def test_signed_zeros_round_trip(self, obj, kind):
        assert json.dumps(cli.to_obj(cli.from_obj(obj, kind))) == json.dumps(obj)

    def test_integers_beyond_int64(self):
        obj = {"n": 1, "complex": True, "data": [[[10**30, -1]]]}
        np.testing.assert_array_equal(cli.from_obj(obj, "matrix"), [[1e30 - 1j]])

    def test_malformed_matrix(self):
        with pytest.raises(cli.CliInputError):
            cli.from_obj({"n": 2, "complex": False, "data": [[1.0]]}, "matrix")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ENTRIES = {False: FINITE, True: st.builds(complex, FINITE, FINITE)}
SIDES = st.integers(1, 5)
SHAPES = {"matrix": SIDES.map(lambda n: (n, n)), "vector": SIDES.map(lambda n: (n,))}
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1e308, -1e308, 1.7976931348623157e308, -1.0]


def b64(values, dtype="<f8") -> str:
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode("ascii")


def bits(x) -> bytes:
    return np.asarray(x, np.complex128).tobytes()


class TestReportEnvelope:
    """Report nodes (report_version 2) carry the ``<f8``/``<c16`` buffer in base64."""

    @pytest.mark.parametrize("kind", ["matrix", "vector"])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_v2_node_is_bit_identical(self, kind, cplx, data):
        x = data.draw(arrays(np.complex128 if cplx else np.float64, SHAPES[kind], elements=ENTRIES[cplx]))
        node = json.loads(cli._dumps(cli._pack(x)))
        got = cli.from_obj(node, kind)
        # The dtype follows the complex flag.
        assert got.dtype == (np.complex128 if node["complex"] else np.float64)
        assert got.shape == x.shape
        assert bits(got) == bits(cli.from_obj(cli.to_obj(x), kind))  # what the v1 node decodes to
        if not cplx or np.any(x.imag != 0.0):  # an all-zero imaginary part makes a real node
            assert bits(got) == bits(x)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_edge_values_are_bit_identical(self, cplx):
        v = np.array(EDGES, dtype=np.complex128 if cplx else np.float64)
        if cplx:
            v.imag = EDGES[::-1]
        for x, kind in ((v, "vector"), (v.reshape(3, 3), "matrix")):
            node = cli._pack(x)
            assert node["complex"] is cplx
            assert bits(cli.from_obj(json.loads(cli._dumps(node)), kind)) == bits(x)

    E1 = b64([1.0, 0.0])

    @pytest.mark.parametrize(
        "node",
        [
            {"f64le": b64([1.0])},
            {"f64le": E1[:-1]},
            {"f64le": b64([1.0, 0.0, 0.0])},
            {"f64le": "AAAAAAAA8D8AAAAAAAAAAA=!"},
            {"f64le": "AAAAAAAA 8D8AAAAAAAAAAA=="},
            {"f64le": "\u00c0AAAAAAA8D8AAAAAAAAAAA=="},
            {"f64le": b64([float("nan"), 0.0])},
            {"f64le": b64([0xFFF0000000000001, 0], "<u8")},
            {"f64le": b64([float("inf"), 0.0])},
            {"f64le": b64([0.0, float("-inf")])},
            {"n": 3},
            {"n": -2},
            {"complex": True},
            {"f64le": b64([1.0, 0.0], "<c16")},
            {"f64le": None},
            {"f64le": 5},
            {"f64le": [1.0, 0.0]},
        ],
        ids=[
            "truncated",
            "truncated-text",
            "extra",
            "non-base64",
            "whitespace",
            "non-ascii",
            "nan",
            "nan-bits",
            "inf",
            "minus-inf",
            "wrong-n",
            "negative-n",
            "complex-flag-on-real-payload",
            "real-flag-on-complex-payload",
            "null-payload",
            "number-payload",
            "list-payload",
        ],
    )
    def test_malformed_v2_node(self, capsys, files, tmp_path, node):
        node = {"n": 2, "complex": False, "f64le": self.E1, **node}
        with pytest.raises(cli.CliInputError):
            cli.from_obj(node, "vector")
        ray = tmp_path / "ray.json"
        ray.write_text(json.dumps(node))
        assert cli.main(["strength", "--a", files["id2"], "--f", str(ray)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed vector object")
        code, report = run_json(capsys, ["strength", "--a", files["id2"], "--f", files["e1"]])
        assert code == 0
        report["witnesses"]["xi"]["value"] = node
        failures = cli.reverify_report(report)
        assert len(failures) == 1 and "error during re-verification" in failures[0]

    @pytest.mark.parametrize("n", [1, 3, -2, 2.0, "2"])
    def test_matrix_payload_must_fill_n_by_n(self, n):
        with pytest.raises(cli.CliInputError):
            cli.from_obj({"n": n, "complex": False, "f64le": b64(np.eye(2))}, "matrix")

    def test_report_nodes_are_v2(self, capsys, files):
        code, report = run_json(capsys, ["leq", "--a", files["d21"], "--b", files["d12"]])
        assert code == 0 and report["report_version"] == 2
        nodes = [d["value"] for d in report["inputs"].values()]
        nodes += [w["value"] for w in report["witnesses"].values()]
        assert nodes and all(sorted(v) == ["complex", "f64le", "n"] for v in nodes)


V1_REPORTS = sorted((Path(__file__).parent / "data").glob("report_v1_*.json"))


class TestV1Reports:
    """Reports printed before report_version 2, with decimal ``data`` nodes."""

    def test_each_kind_is_kept(self):
        assert [p.stem for p in V1_REPORTS] == ["report_v1_compress", "report_v1_inf", "report_v1_strength"]

    @pytest.mark.parametrize("path", V1_REPORTS, ids=lambda p: p.stem)
    def test_v1_report_still_reverifies(self, path):
        report = json.loads(path.read_text())
        assert "report_version" not in report
        assert all("data" in d["value"] for d in report["inputs"].values())
        assert cli.reverify_report(report) == []

    @pytest.mark.parametrize("path", V1_REPORTS, ids=lambda p: p.stem)
    def test_v2_report_holds_the_v1_inputs_bit_for_bit(self, path, tmp_path, capsys):
        v1 = json.loads(path.read_text())
        argv = [v1["command"]]
        for name, desc in sorted(v1["inputs"].items()):
            (tmp_path / f"{name}.json").write_text(json.dumps(desc["value"]))
            argv += [f"--{name}", str(tmp_path / f"{name}.json")]
        code, v2 = run_json(capsys, argv)
        assert code == 0 and v2["report_version"] == 2
        assert sorted(v2["witnesses"]) == sorted(v1["witnesses"])
        for name, desc in v1["inputs"].items():
            got = cli.from_obj(v2["inputs"][name]["value"], desc["kind"])
            assert bits(got) == bits(cli.from_obj(desc["value"], desc["kind"]))


class TestCommands:
    def test_strength_report(self, capsys, files):
        code, report = run_json(capsys, ["strength", "--a", files["id2"], "--f", files["e1"]])
        assert code == 0
        assert report["verdict"]["lambda"] == pytest.approx(1.0)
        assert cli.reverify_report(report) == []

    def test_strength_report_at_the_float_limit(self, capsys, files):
        big = write_matrix(files["tmp"] / "big.json", 1e308 * np.eye(2))
        code = cli.main(["strength", "--a", big, "--f", files["e1"], "--json"])
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (code, err, report["verdict"]["lambda"]) == (0, "", 1e308)
        assert cli.reverify_report(report) == []

    def test_strength_zero_just_outside_a_rank_one_range_reverifies(self, capsys, files):
        """The PSD floor accepts ``a - delta f f*`` here, so the claim certifies strength 0
        by a kernel vector of ``a`` on which that matrix is negative beyond rounding."""
        a, f = JUST_OUTSIDE
        paths = write_matrix(files["tmp"] / "a.json", a), write_vector(files["tmp"] / "f.json", f)
        code, report = run_json(capsys, ["strength", "--a", paths[0], "--f", paths[1]])
        assert (code, report["verdict"]["lambda"]) == (0, 0.0)
        assert cli.reverify_report(report) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_in_range_strength_claimed_zero_fails(self, seed):
        """A report of a ray in the range, tampered to ``lambda: 0`` with its claims recomputed:
        no kernel vector of ``a`` sees the ray, so the strength-0 certificate fails."""
        rng = sampling.rng_from_seed(seed)
        n, cplx = 2 + seed % 4, bool(seed % 2)
        for rank in (1, n - 1, n):
            a = sampling.random_psd(rng, n, rank=rank, complex_entries=cplx)
            f = sampling.random_ray_in_range(rng, a, cplx)
            inputs = {"a": cli.memory_value("a", a), "f": cli.memory_value("f", f, "vector")}
            report = json.loads(cli._dumps(cli.cmd_strength(inputs, po.DEFAULT_TOL)))
            assert report["verdict"]["in_range"] and cli.reverify_report(report) == []
            report["verdict"].update({"lambda": 0.0, "in_range": False})
            report["witnesses"] = {}
            report["claims"] = cli._required_claims(report)
            assert cli.reverify_report(report) != []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-40, -30, -20, 20, 30, 40])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_in_range_strength_far_from_scale_one_reverifies_and_tampers_fail(self, k, cplx):
        """A correct strength of a rank-deficient ``a`` scaled by ``2^k`` re-verifies, and the
        same report with ``lambda`` moved by a factor ``1 ± 1e-3`` and its claims recomputed
        fails ``strength_supremum``: "attained" reads the PSD floor on the scale of ``a``,
        "strict" a vector along ``a^+ f``, both on the scale of `po.strength`.  With ``xi``
        moved by that factor instead it fails ``sqrt_image``, whose residual is read there too."""
        rng = sampling.rng_from_seed(100 + k)
        for n in (2, 3, 5):
            for rank in {1, n - 1}:
                a = 2.0**k * sampling.random_psd(rng, n, rank=rank, complex_entries=cplx)
                report = strength_report(a, sampling.random_ray_in_range(rng, a, cplx))
                assert report["verdict"]["in_range"], (n, rank)
                assert cli.reverify_report(report) == []
                xi = cli.from_obj(report["witnesses"]["xi"]["value"], "vector")
                for factor in (1.0 - 1e-3, 1.0 + 1e-3):
                    tampered = json.loads(json.dumps(report))
                    tampered["verdict"]["lambda"] *= factor
                    tampered["claims"] = cli._required_claims(tampered)
                    failures = cli.reverify_report(tampered)
                    assert [msg.split(":")[0] for msg in failures] == ["strength_supremum"], (n, rank, factor)
                    tampered = json.loads(json.dumps(report))
                    tampered["witnesses"]["xi"]["value"] = cli._pack(factor * xi)
                    failures = cli.reverify_report(tampered)
                    assert [msg.split(":")[0] for msg in failures] == ["sqrt_image"], (n, rank, factor)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_strength_along_a_small_eigenvector_reverifies(self):
        """The strict step is ``delta (top + lambda)`` on the scale of `po.strength`, not a
        fraction of ``lambda``, so a strength far below the top of ``a`` stays above rounding."""
        report = strength_report(np.diag([1.0, 2e-10]), np.array([0.0, 1.0]))
        assert report["verdict"]["lambda"] == pytest.approx(2e-10, rel=1e-12)
        assert cli.reverify_report(report) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spread", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_positive_strength_of_graded_operands_reverifies(self, spread, cplx):
        """``a = q diag(10^U(-L, L)) q*``, full rank and rank-deficient, along a ray in the range,
        the eigenvectors of ``a`` and, at full rank, the basis vectors: every report of a positive
        strength re-verifies."""
        rng = sampling.rng_from_seed(spread)
        positive = 0
        for n in (2, 3, 5):
            for rank in (n, n - 1):
                q = sampling.random_unitary(rng, n, cplx)
                w = np.where(np.arange(n) < rank, 10.0 ** rng.uniform(-spread, spread, n), 0.0)
                a = (q * w) @ q.conj().T
                rays = [sampling.random_ray_in_range(rng, a, cplx), *q[:, :rank].T]
                for f in rays + (list(np.eye(n)) if rank == n else []):
                    report = strength_report(a, f)
                    if report["verdict"]["lambda"] > 0.0:
                        positive += 1
                        assert cli.reverify_report(report) == [], (n, rank, f)
        assert positive >= 10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_strength_of_graded_operands_reverifies(self, seed):
        """``a = q diag(10^U(-L, L)) q*``, L = 2..10, of random rank, real or complex, along the
        basis vectors: every report of strength 0 re-verifies, its kernel certificate read on the
        scale of `po.strength`, and every report of a positive strength rewritten to 0, with its
        witness and claims recomputed, fails its ``strength_supremum`` claim alone.  First
        ``diag(1e6, 5e-5)`` along ``e2``, whose ``5e-5`` is below the rank cutoff."""
        report = strength_report(np.diag([1e6, 5e-5]), np.array([0.0, 1.0]))
        assert report["verdict"]["lambda"] == 0.0 and cli.reverify_report(report) == []
        rng = sampling.rng_from_seed(seed)
        counts = [0, 0]
        for spread in range(2, 11):
            for _ in range(8):
                n = int(rng.integers(2, 7))
                rank, cplx = int(rng.integers(1, n + 1)), bool(rng.integers(2))
                q = sampling.random_unitary(rng, n, cplx)
                w = np.where(np.arange(n) < rank, 10.0 ** rng.uniform(-spread, spread, n), 0.0)
                a = (q * w) @ q.conj().T
                for f in np.eye(n):
                    report = strength_report(a, f)
                    in_range = report["verdict"]["in_range"]
                    counts[in_range] += 1
                    if not in_range:
                        assert cli.reverify_report(report) == [], (spread, n, rank, f)
                        continue
                    report["verdict"].update({"lambda": 0.0, "in_range": False, "optimal_constant": None})
                    report["witnesses"] = {}
                    report["claims"] = cli._required_claims(report)
                    failures = cli.reverify_report(report)
                    assert [msg.split(":")[0] for msg in failures] == ["strength_supremum"], (spread, n, rank, f)
        assert min(counts) > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [-1.0, -1e-12, float("inf"), float("nan")])
    def test_strength_claimed_negative_or_not_finite_fails_without_a_warning(self, capsys, files, lam):
        code, report = run_json(capsys, ["strength", "--a", files["id2"], "--f", files["e1"]])
        assert code == 0
        report["verdict"]["lambda"] = lam
        report["claims"] = cli._required_claims(report)
        assert [msg.split(":")[0] for msg in cli.reverify_report(report)] == ["strength_supremum"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inf_at_the_float_limit_is_decided_without_a_warning(self, capsys, files):
        """The infimum reads the reduced pair's pencil and forms no sum, so ``1e308 I`` is its own infimum."""
        big = write_matrix(files["tmp"] / "big.json", 1e308 * np.eye(2))
        code = cli.main(["inf", "--a", big, "--b", big, "--json"])
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (code, err, report["verdict"]["exists"]) == (0, "", True)
        inf = cli.from_obj(report["witnesses"]["inf"]["value"], "matrix")
        np.testing.assert_array_equal(inf, 1e308 * np.eye(2))
        assert cli.reverify_report(report) == []

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize(
        "small, big",
        [([1e-4, 1e-4, 2e-9], [1e4, 1e4, 0.0]), ([1e-4, 1e-4, 2e-9, 0.0], [1.0, 1.0, 0.0, 1e4])],
        ids=["3x3", "4x4"],
    )
    def test_inf_of_a_part_with_noise_cut_on_the_pair_scale_reverifies(self, capsys, tmp_path, small, big, swap):
        """The small operand's ``2e-9`` is noise on the pair's unit but not on its own, so its
        reduced part is rebuilt without it: the ``close`` claim of ``inf`` against the candidate
        and the ``abs_continuous`` claims between the parts hold, and the command exits 0."""
        pair = [write_matrix(tmp_path / "small.json", np.diag(small)), write_matrix(tmp_path / "big.json", np.diag(big))]
        a, b = pair[::-1] if swap else pair
        code, report = run_json(capsys, ["inf", "--a", a, "--b", b])
        assert (code, report["verdict"]["exists"], cli.reverify_report(report)) == (0, True, [])

    def test_inf_disjoint_projections(self, capsys, files):
        code, report = run_json(capsys, ["inf", "--a", files["p"], "--b", files["q"]])
        assert code == 0
        assert report["verdict"]["exists"] is True
        inf = cli.from_obj(report["witnesses"]["inf"]["value"], "matrix")
        assert np.max(np.abs(inf)) <= 1e-10
        assert cli.reverify_report(report) == []

    def test_ando_witness_fixture(self, capsys, files):
        code, report = run_json(capsys, ["ando-witness", "--a", files["d21"], "--b", files["d12"]])
        assert code == 0
        d = cli.from_obj(report["witnesses"]["d"]["value"], "matrix")
        expected = np.array([[5 / 6, np.sqrt(2) / 6], [np.sqrt(2) / 6, 5 / 6]])
        np.testing.assert_allclose(d, expected, atol=1e-10)
        assert cli.reverify_report(report) == []

    def test_leq_with_witness(self, capsys, files):
        code, report = run_json(capsys, ["leq", "--a", files["d21"], "--b", files["d12"]])
        assert code == 0
        assert report["verdict"]["leq"] is False
        assert "ray" in report["witnesses"]
        assert cli.reverify_report(report) == []

    def test_sup_kadison_compress_lebesgue_parsum(self, capsys, files):
        for argv in (
            ["sup", "--a", files["p"], "--b", files["q"], "--t", files["id2"]],
            ["kadison-witness", "--a", files["p"], "--b", files["q"], "--t", files["id2"]],
            ["compress", "--a", files["d21"], "--b", files["d12"]],
            ["lebesgue", "--a", files["p"], "--b", files["id2"]],
            ["parsum", "--a", files["id2"], "--b", files["id2"]],
        ):
            code, report = run_json(capsys, argv)
            assert code == 0, argv
            assert cli.reverify_report(report) == [], argv

    @pytest.mark.parametrize("k", [-40, 40])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_lebesgue_of_an_ac_pair_far_from_scale_one_reverifies(self, k, cplx):
        """With ``ran b`` inside ``ran a`` the singular part is exact zeros, not rounding judged on
        its own scale, so the ``psd``, ``leq`` and ``singular`` claims hold at ``2^k``: ``a`` of
        rank n, and ``b`` on the range of ``a`` of rank n - 1."""
        rng = sampling.rng_from_seed(50 + k + cplx)
        for n in (2, 3, 5):
            pairs = [
                (sampling.random_psd(rng, n, complex_entries=cplx), sampling.random_psd(rng, n, complex_entries=cplx)),
                sampling.shared_core_pair(rng, n, n - 1, cplx),
            ]
            for a, b in pairs:
                inputs = {"a": cli.memory_value("a", 2.0**k * a), "b": cli.memory_value("b", 2.0**k * b)}
                report = json.loads(cli._dumps(cli.cmd_lebesgue(inputs, po.DEFAULT_TOL)))
                assert cli.reverify_report(report) == [], (n, report["verdict"])

    def test_lebesgue_reports_the_ranks_its_decision_read(self):
        """On the pair's unit ``2e-9`` is below the rank cutoff, so ``ran b`` lies in ``ran a``
        and ``[a]b`` has rank 2.  Read on the part's own unit, its third eigenvalue counted and
        the report said ``ac_rank`` 3, above ``rank a``; it re-verified all the same."""
        a, b = np.diag([1e4, 1e4, 0.0]), np.diag([1e-4, 1e-4, 2e-9])
        inputs = {"a": cli.memory_value("a", a), "b": cli.memory_value("b", b)}
        report = json.loads(cli._dumps(cli.cmd_lebesgue(inputs, po.DEFAULT_TOL)))
        assert report["verdict"] == {"ac_rank": 2, "sing_rank": 0}
        assert cli.reverify_report(report) == []

    @pytest.mark.parametrize("family", ["both", "low_a"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lebesgue_ranks_on_graded_pairs_are_the_decisions(self, seed, family):
        """`test_lattice.graded_pairs`, 20 per L = 3..12: ``[a]b`` lives on ``ran a ∩ ran b``, so
        ``ac_rank + sing_rank = rank b`` and ``ac_rank <= rank a``, both ranks by `EigDecomp.kept`
        on the pair's unit.  Read from each part's own eigh, 14 and 4 of 200 pairs broke this at
        seed 0, and 14 and 3 at seed 1."""
        broken = []
        for level, a, b in graded_pairs(seed, family, 20):
            inputs = {"a": cli.memory_value("a", a), "b": cli.memory_value("b", b)}
            verdict = cli.cmd_lebesgue(inputs, po.DEFAULT_TOL)["verdict"]
            da, db, unit = po.core._operands(a, b, tol=po.DEFAULT_TOL)
            rank_a, rank_b = (int(np.count_nonzero(d.kept(unit))) for d in (da, db))
            if verdict["ac_rank"] + verdict["sing_rank"] != rank_b or verdict["ac_rank"] > rank_a:
                broken.append((level, verdict, rank_a, rank_b))
        assert broken == []

    def test_parsum_reads_the_tolerance(self, capsys, files):
        """``u u* : w w*`` for rays ``1e-6`` apart: ``ran a ∩ ran b`` is one line at
        ``--tol 1e-4``, where the two ranges count as one, and ``{0}`` by default."""
        w = [np.cos(1e-6), np.sin(1e-6), 0.0]
        a = write_matrix(files["tmp"] / "uu.json", po.rank_one([1.0, 0.0, 0.0]))
        b = write_matrix(files["tmp"] / "ww.json", po.rank_one(w))
        ranks = []
        for tol in ([], ["--tol", "1e-4"]):
            code, report = run_json(capsys, ["parsum", "--a", a, "--b", b] + tol)
            assert (code, cli.reverify_report(report)) == (0, [])
            ranks.append(report["verdict"]["rank"])
        assert ranks == [0, 1]

    def test_kadison_fixture_via_cli(self, capsys, files):
        code, report = run_json(
            capsys, ["kadison-witness", "--a", files["p"], "--b", files["q"], "--t", files["id2"]]
        )
        s = cli.from_obj(report["witnesses"]["s"]["value"], "matrix")
        np.testing.assert_allclose(
            s, np.eye(2) + np.array([[1.0, 2.0], [2.0, 1.0]]) / 3.0, atol=1e-12
        )


class TestExitCodes:
    def test_missing_file(self, files, capsys):
        assert cli.main(["leq", "--a", str(files["tmp"] / "nope.json"), "--b", files["id2"]]) == 1

    def test_non_hermitian_load(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "complex": False, "data": [[1.0, 5.0], [0.0, 1.0]]}))
        assert cli.main(["leq", "--a", str(bad), "--b", files["id2"]]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["leq", "--bogus", "x"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["inf", "--a", "id2", "--b", "id2", "--t", "missing.json", "--f", "missing.json"],
            ["inf", "--a", "id2", "--b", "id2", "--t", "0.5"],  # not an abbreviation of --tol
            ["strength", "--a", "id2", "--f", "e1", "--b", "id2"],
            ["leq", "--a", "id2", "--b", "id2", "--se", "1"],
        ],
        ids=["inf-t-f", "inf-t-as-tol", "strength-b", "leq-se-as-seed"],
    )
    def test_flag_the_subcommand_does_not_read(self, capsys, files, argv):
        assert cli.main([files.get(arg, arg) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("error: unrecognized arguments: ")

    def test_missing_required_input(self, capsys, files):
        assert cli.main(["strength", "--a", files["id2"]]) == 1

    def test_zero_ray_precondition(self, capsys, files):
        assert cli.main(["strength", "--a", files["id2"], "--f", files["zero_vec"]]) == 2

    def test_ando_witness_comparable_rejected(self, capsys, files):
        assert cli.main(["ando-witness", "--a", files["id2"], "--b", files["id2"]]) == 2

    def test_kadison_requires_strict_bound(self, capsys, files):
        assert cli.main(
            ["kadison-witness", "--a", files["id2"], "--b", files["id2"], "--t", files["id2"]]
        ) == 2

    def test_lebesgue_indefinite_b_rejected(self, capsys, files, tmp_path):
        indefinite = write_matrix(tmp_path / "indef.json", np.diag([1.0, -1.0]))
        assert cli.main(["lebesgue", "--a", files["id2"], "--b", indefinite]) == 2
        assert "precondition rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["strength", "leq", "lebesgue", "parsum", "compress"])
    def test_indefinite_a_rejected(self, capsys, files, tmp_path, command):
        indefinite = write_matrix(tmp_path / "indef.json", np.diag([1.0, -1.0]))
        other = ["--f", files["e1"]] if command == "strength" else ["--b", files["id2"]]
        assert cli.main([command, "--a", indefinite] + other) == 2
        assert "precondition rejected" in capsys.readouterr().err

    def test_dimension_mismatch(self, capsys, files, tmp_path):
        three = write_matrix(tmp_path / "id3.json", np.eye(3))
        assert cli.main(["leq", "--a", files["id2"], "--b", three]) == 2

    def test_sup_rejects_an_upper_bound_of_another_dimension(self, capsys, files, tmp_path):
        """Only "t is not a strict upper bound" leaves a `sup` report without its refutation:
        a ``t`` of another dimension is rejected by the handler, so the CLI exits with status 2."""
        pair = {"a": cli.memory_value("a", np.diag([2.0, 1.0])), "b": cli.memory_value("b", np.diag([1.0, 2.0]))}
        report = cli.cmd_sup({**pair, "t": cli.memory_value("t", 5.0 * np.eye(2))}, po.DEFAULT_TOL)
        assert "refutation" in report["witnesses"]
        with pytest.raises(po.DimensionMismatchError, match="dimension mismatch"):
            cli.cmd_sup({**pair, "t": cli.memory_value("t", 5.0 * np.eye(3))}, po.DEFAULT_TOL)
        t3 = write_matrix(tmp_path / "t3.json", 5.0 * np.eye(3))
        assert cli.main(["sup", "--a", files["d21"], "--b", files["d12"], "--t", t3]) == 2

    def test_sup_rejects_an_upper_bound_of_another_dimension_for_a_comparable_pair(self, capsys, files, tmp_path):
        """A comparable pair needs no refutation, yet its ``t`` of another dimension is rejected."""
        t3 = write_matrix(tmp_path / "t3.json", 5.0 * np.eye(3))
        assert cli.main(["sup", "--a", files["id2"], "--b", files["d21"], "--t", t3, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "dimension mismatch" in err

    def test_gen_rank_out_of_range(self, capsys):
        assert cli.main(["gen", "--dim", "2", "--rank", "3"]) == 2

    def test_selftest_zero_trials(self, capsys):
        assert cli.main(["selftest", "--trials", "0"]) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_json_matrix_is_load_error(self, capsys, files, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "complex": False, "data": [[bad, 0.0], [0.0, 1.0]]}))
        assert cli.main(["leq", "--a", str(path), "--b", files["id2"]]) == 1
        assert cli.main(["inf", "--a", files["id2"], "--b", str(path)]) == 1
        assert "load error" in capsys.readouterr().err

    def test_nan_csv_matrix_is_load_error(self, capsys, files, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nan,0.0\n0.0,1.0\n")
        assert cli.main(["inf", "--a", str(path), "--b", files["id2"]]) == 1
        assert "load error" in capsys.readouterr().err

    def test_nan_vector_is_load_error(self, capsys, files, tmp_path):
        path = tmp_path / "bad_ray.json"
        path.write_text(json.dumps({"n": 2, "complex": False, "data": [float("nan"), 1.0]}))
        assert cli.main(["strength", "--a", files["id2"], "--f", str(path)]) == 1
        assert "load error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-6", "1e-323"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, files, tol):
        assert cli.main(["leq", "--a", files["id2"], "--b", files["id2"], f"--tol={tol}"]) == 2
        assert cli.main(["selftest", "--trials", "1", f"--tol={tol}"]) == 2
        assert capsys.readouterr().err.count("precondition rejected: tolerance") == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1, "complex": true, "data": [[["a", 0]]]}',
            '{"n": 1, "complex": true, "data": [[[null, 1]]]}',
            '{"n": 1e999, "complex": false, "data": [[1.0]]}',
            '{"n": 1, "complex": false, "data": [["1.0"]]}',
            '{"n": 2, "complex": false, "data": [[1.0, 0.0], [0.0]]}',
            '{"n": 1, "complex": true, "data": [[[1.0, 0.0, 0.0]]]}',
            '{"n": 1, "complex": false, "data": [[1' + "0" * 400 + "]]}",
            '{"n": 2.7, "complex": false, "data": [[1, 0], [0, 1]]}',
            '{"n": true, "complex": false, "data": [[1.0]]}',
            '{"n": 1, "complex": [], "data": [[1.0]]}',
            '{"n": 1, "complex": "false", "data": [[[1.0, 0.0]]]}',
        ],
        ids=[
            "string-in-pair",
            "null-in-pair",
            "huge-n",
            "string-entry",
            "ragged",
            "triple",
            "int-beyond-float",
            "float-n",
            "bool-n",
            "list-complex",
            "string-complex",
        ],
    )
    def test_malformed_json_matrix_is_parse_error(self, capsys, files, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["leq", "--a", str(path), "--b", files["id2"]]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def _kadison_example(files, k):
        """``diag(k, 0)``, ``diag(0, k)`` and the strict upper bound ``1.5 k I``, written as files."""
        return [
            arg
            for name, m in (("a", np.diag([k, 0.0])), ("b", np.diag([0.0, k])), ("t", 1.5 * k * np.eye(2)))
            for arg in (f"--{name}", write_matrix(files["tmp"] / f"{name}.json", m))
        ]

    def test_a_report_that_fails_reverification_is_not_printed(self, capsys, files, monkeypatch):
        """A witness equal to ``t`` is comparable with it, so the report's
        ``incomparable`` claim fails and nothing is printed."""
        monkeypatch.setattr(cli.lattice, "kadison_witness", lambda a, b, t, tol: t.matrix)
        code = cli.main(["kadison-witness", *self._kadison_example(files, 1.0), "--json"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("internal diagnostic failure: the report fails re-verification: incomparable:")

    @pytest.mark.parametrize("k", [1e11, 1e16, 1e300])
    def test_kadison_witness_at_large_scale_reverifies(self, capsys, files, k):
        """The bump of Kadison's witness is the shared strength, so ``s - t`` has
        the eigenvalues ``±lam`` and ``s`` stays incomparable with ``t`` at any scale."""
        code = cli.main(["kadison-witness", *self._kadison_example(files, k), "--json"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert cli.reverify_report(json.loads(out)) == []

    def test_tolerance_breakdown_exit_status(self, capsys, files, monkeypatch):
        def breakdown(*args, **kwargs):
            raise po.ToleranceBreakdownError("forced")

        monkeypatch.setattr(cli.lattice, "inf_exists", breakdown)
        assert cli.main(["inf", "--a", files["d21"], "--b", files["d12"]]) == 3
        assert "internal diagnostic failure: forced" in capsys.readouterr().err


class TestSelftestOutput:
    SUITES = ("core", "strength", "lebesgue", "lattice", "forms", "reports")

    def test_one_line_per_suite_then_the_total(self, capsys):
        assert cli.main(["selftest", "--trials", "1", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition(":")[0] for line in lines] == list(self.SUITES) + ["total"]
        for line in lines[:-1]:
            assert re.fullmatch(r"\w+: passed=[1-9]\d* failed=0 \[ok\]", line), line
        assert re.fullmatch(r"total: passed=[1-9]\d* failed=0", lines[-1])

    def test_a_failed_check_is_listed(self, capsys, monkeypatch):
        entry = selftest.CATALOGUE["forms.roundtrip"]
        forced = dataclasses.replace(entry, check=lambda tally, *instance: tally(False, "forced"))
        monkeypatch.setitem(selftest.CATALOGUE, "forms.roundtrip", forced)
        assert cli.main(["selftest", "--trials", "1", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^forms: passed=\d+ failed=1 \[FAIL\]\n  - forms.roundtrip trial 0: forced$", out, re.M)
        assert re.search(r"^total: passed=\d+ failed=1$", out, re.M)


TOP_HELP = """usage: psdorder [-h]
                {strength,leq,sup,inf,lebesgue,parsum,kadison-witness,ando-witness,compress,gen,selftest}
                ...

Command-line front end: one subcommand per decision procedure.

positional arguments:
  {strength,leq,sup,inf,lebesgue,parsum,kadison-witness,ando-witness,compress,gen,selftest}
    strength            run the strength decision
    leq                 run the leq decision
    sup                 run the sup decision
    inf                 run the inf decision
    lebesgue            run the lebesgue decision
    parsum              run the parsum decision
    kadison-witness     run the kadison-witness decision
    ando-witness        run the ando-witness decision
    compress            run the compress decision
    gen                 generate a seeded random PSD matrix file
    selftest            run every invariant suite

options:
  -h, --help            show this help message and exit
"""

INF_HELP = """usage: psdorder inf [-h] [--a FILE] [--b FILE] [--tol REAL] [--seed INT]
                    [--json]

options:
  -h, --help  show this help message and exit
  --a FILE
  --b FILE
  --tol REAL
  --seed INT
  --json
"""


class TestUsage:
    """Help and usage errors read the same whichever parser is built."""

    @pytest.mark.parametrize("argv, text", [(["--help"], TOP_HELP), (["inf", "--help"], INF_HELP)])
    def test_help(self, capsys, monkeypatch, argv, text):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out.replace("optional arguments:", "options:") == text

    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1
        assert capsys.readouterr().err == "error: the following arguments are required: command\n"

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument command: invalid choice: ")
        assert "bogus" in err and "compress" in err and "selftest" in err


HUMAN_ARGV = {
    "strength": ["--a", "id2", "--f", "e1"],
    "leq": ["--a", "d21", "--b", "d12"],
    "sup": ["--a", "p", "--b", "q", "--t", "id2"],
    "inf": ["--a", "d21", "--b", "d12"],
    "lebesgue": ["--a", "p", "--b", "id2"],
    "parsum": ["--a", "id2", "--b", "id2"],
    "kadison-witness": ["--a", "p", "--b", "q", "--t", "id2"],
    "ando-witness": ["--a", "d21", "--b", "d12"],
    "compress": ["--a", "d21", "--b", "d12"],
}


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_human_output_names_witnesses_and_claims(command, capsys, files):
    argv = [command] + [files.get(arg, arg) for arg in HUMAN_ARGV[command]]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"command: {command}\n")
    assert report["witnesses"]
    for name in report["witnesses"]:
        assert f"\n{name}:\n" in out
    assert f"\nclaims: {len(report['claims'])}\n" in out


class TestReverifyTampered:
    """The claims checked are fixed by command and verdict; a listed claim that differs fails."""

    @pytest.mark.parametrize(
        "argv, index, field, value",
        [
            (["strength", "--a", "id2", "--f", "e1"], 0, "value", "x"),
            (["strength", "--a", "id2", "--f", "e1"], 0, "value", None),
            (["strength", "--a", "id2", "--f", "e1"], 1, "vector", 5),
            (["compress", "--a", "d21", "--b", "d12"], 2, "parts", 3),
            (["compress", "--a", "d21", "--b", "d12"], 3, "atol_scale", "x"),
            (["compress", "--a", "d21", "--b", "d12"], 3, "atol_scale", 1e300),
            (["compress", "--a", "d21", "--b", "d12"], 0, "atol_scale", 1.0),
            (["strength", "--a", "id2", "--f", "e1"], 0, "value", 10**400),
            (["strength", "--a", "id2", "--f", "e1"], 0, "value", True),
            (["strength", "--a", "id2", "--f", "e1"], 0, "value", False),
        ],
    )
    def test_malformed_claim_is_a_failure(self, capsys, files, argv, index, field, value):
        code, report = run_json(capsys, [files.get(arg, arg) for arg in argv])
        assert code == 0
        report["claims"][index][field] = value
        failures = cli.reverify_report(report)
        assert len(failures) == 1
        assert failures[0].startswith("claims: ")

    def test_claim_cannot_loosen_its_residual_bound(self, capsys, files):
        code, report = run_json(capsys, ["compress", "--a", files["d21"], "--b", files["d12"]])
        assert code == 0
        j = report["witnesses"]["j"]["value"]
        scaled = 3.0 * np.frombuffer(base64.b64decode(j["f64le"]), "<c16" if j["complex"] else "<f8")
        j["f64le"] = base64.b64encode(scaled.tobytes()).decode("ascii")
        failures = cli.reverify_report(report)
        assert [msg.split(":")[0] for msg in failures] == ["sandwich", "sandwich"]
        for claim in report["claims"]:
            if claim["kind"] == "sandwich":
                claim["atol_scale"] = 1e300
        failures = cli.reverify_report(report)
        assert [msg.split(":")[0] for msg in failures] == ["claims", "sandwich", "sandwich"]

    def test_compress_report_with_j_moved_fails_at_small_scale(self):
        """A `compress` report at ``2^-20`` whose ``j`` is scaled by ``1 + 1e-3`` must fail its
        ``sandwich`` claims; the residual floor of 1e-8 is not on the operands' scale."""
        rng = sampling.rng_from_seed(20)
        for n in range(2, 7):
            a, b = (2.0**-20 * sampling.random_psd(rng, n, complex_entries=n % 2 == 1) for _ in range(2))
            inputs = {"a": cli.memory_value("a", a), "b": cli.memory_value("b", b)}
            report = json.loads(cli._dumps(cli.cmd_compress(inputs, po.DEFAULT_TOL)))
            j = cli.from_obj(report["witnesses"]["j"]["value"], "matrix")
            report["witnesses"]["j"]["value"] = cli._pack((1.0 + 1e-3) * j)
            assert cli.reverify_report(report) != [], n

    @pytest.mark.parametrize("swap", [False, True])
    def test_graded_compress_pair_reverifies(self, capsys, tmp_path, swap):
        """``a = 1e-11 I`` and ``b = diag(1, 0)``: the rank cut on the pair's scale drops the
        ``1e-11`` direction, so ``j a~ j - a`` has a ``1e-11`` entry, which the ``sandwich``
        bound must measure on the scale of ``j² = a + b``, not on ``a`` alone."""
        pair = [write_matrix(tmp_path / "small.json", 1e-11 * np.eye(2)), write_matrix(tmp_path / "p.json", np.diag([1.0, 0.0]))]
        a, b = pair[::-1] if swap else pair
        code, report = run_json(capsys, ["compress", "--a", a, "--b", b])
        assert code == 0 and report["verdict"] == {"rank": 1}
        assert cli.reverify_report(report) == []

    def test_compress_reports_on_graded_b_reverify(self):
        """``b = q diag(10^linspace(-L, L, 6)) q*``, L = 3..12, against four ``a`` of rank 6, 3, 2
        and 4.  ``b~`` is ``P - a~``: a second congruence for it rounds apart from ``a~``, and
        15 of these 40 reports then fail a ``psd``, ``sum_equals`` or ``leq`` claim."""
        q = sampling.random_unitary(np.random.default_rng(0), 6, True)
        operands = [sampling.random_psd(sampling.rng_from_seed(seed), 6, rank) for seed, rank in ((5, None), (5, 3), (3, 2), (7, 4))]
        failures = {}
        for k, a in enumerate(operands):
            for level in range(3, 13):
                b = po.hermitian_part((q * 10.0 ** np.linspace(-level, level, 6)) @ q.conj().T)
                inputs = {"a": cli.memory_value("a", a), "b": cli.memory_value("b", b)}
                failures[k, level] = cli.reverify_report(json.loads(cli._dumps(cli.cmd_compress(inputs, po.DEFAULT_TOL))))
        assert {pair: f for pair, f in failures.items() if f} == {}

    def test_leq_report_over_an_indefinite_a(self, capsys, files, tmp_path):
        """A refuted `leq` report is certified by its `strength_gap` claim, which reads
        `strength` of both operands, so `leq` rejects an indefinite ``a = diag(1, -1)``
        or ``b`` with status 2, whatever the verdict, rather than print a report that
        cannot re-verify."""
        indefinite = write_matrix(tmp_path / "indef.json", np.diag([1.0, -1.0]))
        for a, b in ((indefinite, files["id2"]), (indefinite, files["q"]), (files["id2"], indefinite)):
            assert run_json(capsys, ["leq", "--a", a, "--b", b]) == (2, None)

    def test_claim_without_kind_is_a_failure(self, capsys, files):
        code, report = run_json(capsys, ["parsum", "--a", files["id2"], "--b", files["id2"]])
        assert code == 0
        del report["claims"][0]["kind"]
        report["claims"][1] = "x"
        failures = cli.reverify_report(report)
        assert len(failures) == 1
        assert failures[0].startswith("claims: ")

    @pytest.mark.parametrize("also_in_claims", [False, True])
    def test_boolean_lambda_is_not_the_number_one(self, capsys, files, also_in_claims):
        """``True == 1.0`` in Python, so the listed claims are compared as JSON text."""
        code, report = run_json(capsys, ["strength", "--a", files["id2"], "--f", files["e1"]])
        assert code == 0 and report["verdict"]["lambda"] == 1.0
        report["verdict"]["lambda"] = True
        if also_in_claims:
            report["claims"][0]["value"] = True
        failures = cli.reverify_report(report)
        kinds = [msg.split(":")[0] for msg in failures]
        assert kinds == ([] if also_in_claims else ["claims"]) + ["strength_supremum"]
        assert "is not a number" in failures[-1]

    @pytest.mark.parametrize("value", [1, 1.0, 0, "true", None])
    def test_verdict_shape_must_be_boolean(self, capsys, files, value):
        code, report = run_json(capsys, ["inf", "--a", files["p"], "--b", files["q"]])
        assert code == 0 and report["verdict"]["exists"] is True
        report["verdict"]["exists"] = value
        failures = cli.reverify_report(report)
        assert len(failures) == 1
        assert failures[0].startswith("claims: no claims are fixed")

    @pytest.mark.parametrize("command", ["bogus", None, ["inf"]])
    def test_unknown_command_is_a_failure(self, capsys, files, command):
        code, report = run_json(capsys, ["parsum", "--a", files["id2"], "--b", files["id2"]])
        assert code == 0
        report["command"] = command
        failures = cli.reverify_report(report)
        assert len(failures) == 1
        assert failures[0].startswith("claims: no claims are fixed")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rel", float("nan")),
            ("rel", float("inf")),
            ("rel", float("-inf")),
            ("rel", 0.0),
            ("rel", -1e-10),
            ("abs", float("nan")),
            ("abs", float("inf")),
            ("abs", 0.0),
            ("abs", -1e-12),
            ("rel", "x"),
            ("abs", None),
        ],
    )
    def test_bad_stated_tolerance_is_a_failure(self, capsys, files, field, value):
        code, report = run_json(capsys, ["parsum", "--a", files["id2"], "--b", files["id2"]])
        assert code == 0
        report["tolerance"][field] = value
        failures = cli.reverify_report(report)
        assert len(failures) == 1
        assert failures[0].startswith("tolerance:")

    @pytest.mark.parametrize("claims", [None, 5, "leq", {"kind": "psd", "subject": "input:a"}, "missing"])
    def test_claims_that_are_not_a_list_are_a_failure(self, capsys, files, claims):
        code, report = run_json(capsys, ["parsum", "--a", files["id2"], "--b", files["id2"]])
        assert code == 0
        if claims == "missing":
            del report["claims"]
        else:
            report["claims"] = claims
        failures = cli.reverify_report(report)
        assert len(failures) == 1
        assert failures[0].startswith("claims:")

    @pytest.mark.parametrize("missing", ["rel", "abs", None])
    def test_missing_stated_tolerance_is_a_failure(self, capsys, files, missing):
        code, report = run_json(capsys, ["parsum", "--a", files["id2"], "--b", files["id2"]])
        assert code == 0
        if missing is None:
            del report["tolerance"]
        else:
            del report["tolerance"][missing]
        failures = cli.reverify_report(report)
        assert len(failures) == 1
        assert failures[0].startswith("tolerance:")


class TestCsv:
    def test_real_symmetric_csv(self, capsys, tmp_path, files):
        c = tmp_path / "m.csv"
        c.write_text("2.0,0.5\n0.5,1.0\n")
        code, report = run_json(capsys, ["leq", "--a", str(c), "--b", files["d21"]])
        assert code == 0

    def test_non_square_csv(self, tmp_path, files, capsys):
        c = tmp_path / "bad.csv"
        c.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        assert cli.main(["leq", "--a", str(c), "--b", files["id2"]]) == 1


class TestGen:
    def test_deterministic_bytes(self, capsys):
        assert cli.main(["gen", "--seed", "9", "--dim", "4", "--rank", "2"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["gen", "--seed", "9", "--dim", "4", "--rank", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_output_is_canonical(self, capsys):
        assert cli.main(["gen", "--seed", "1", "--dim", "3", "--rank", "2"]) == 0
        out = capsys.readouterr().out
        assert out == canonical(out)

    def test_rank_full(self, capsys):
        cli.main(["gen", "--seed", "3", "--dim", "4"])
        m = cli.from_obj(json.loads(capsys.readouterr().out), "matrix")
        assert po.numeric_rank(m) == 4

    def test_rank_one_structure(self, capsys):
        cli.main(["gen", "--seed", "3", "--dim", "4", "--rank", "1"])
        m = cli.from_obj(json.loads(capsys.readouterr().out), "matrix")
        w = np.linalg.eigvalsh(m)
        assert w[-1] > 0.1
        assert np.max(np.abs(w[:-1])) <= 1e-12

    def test_output_is_psd_and_loadable(self, capsys, tmp_path):
        cli.main(["gen", "--seed", "5", "--dim", "3", "--rank", "2"])
        out = capsys.readouterr().out
        f = tmp_path / "gen.json"
        f.write_text(out)
        loaded = cli.load_matrix_file(str(f), po.DEFAULT_TOL)
        assert po.is_psd(loaded.value)

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert cli.main(["gen", "--dim", "2", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --seed must be a non-negative integer, got -1\n"


class TestDeterminism:
    def test_json_reports_byte_identical(self, capsys, files):
        code = cli.main(["inf", "--a", files["d21"], "--b", files["d12"], "--json"])
        first = capsys.readouterr().out
        cli.main(["inf", "--a", files["d21"], "--b", files["d12"], "--json"])
        second = capsys.readouterr().out
        assert code == 0
        assert first == second

    def test_seeded_report_stable(self, capsys, files):
        code, r1 = run_json(capsys, ["strength", "--a", files["id2"], "--f", files["e1"], "--seed", "4"])
        _, r2 = run_json(capsys, ["strength", "--a", files["id2"], "--f", files["e1"], "--seed", "4"])
        assert code == 0
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


class TestSelftestCommand:
    def test_small_run_passes(self, capsys):
        code, summary = run_json(capsys, ["selftest", "--trials", "2", "--seed", "1"])
        assert code == 0
        assert summary["ok"] is True
        assert {s["name"] for s in summary["suites"]} == {
            "core",
            "strength",
            "lebesgue",
            "lattice",
            "forms",
            "reports",
        }

    def test_every_sampler_draws_one_stream(self):
        """Each sampler is ``(rng, t) -> instance``, and each entry's stream is keyed by its
        name.  `core.band` cycles through the 13 other distinct samplers in registration
        order, the one order a stream still follows, so merging or reordering two of them
        would move its stream."""
        samplers = list(dict.fromkeys(e.sample for e in selftest.CATALOGUE.values()))
        assert [list(inspect.signature(s).parameters) for s in samplers] == [["rng", "t"]] * 14
        assert samplers[-1] is selftest.CATALOGUE["core.band"].sample  # after the other 13

    def test_a_new_entry_moves_no_other_stream(self, monkeypatch):
        """An entry prepended to the catalogue, on `_psd` so that `core.band`'s cycle is
        unchanged, leaves the instances every other entry's check receives as they were."""

        def instances(catalogue):
            seen = {}

            def recording(e):
                def check(c, *instance):
                    seen.setdefault(e.name, []).append(pickle.dumps(instance))
                    e.check(c, *instance)

                return selftest.Invariant(e.name, e.sample, check)

            monkeypatch.setattr(selftest, "CATALOGUE", {name: recording(e) for name, e in catalogue.items()})
            selftest.run_selftest(seed=0, trials=2)
            return seen

        catalogue = dict(selftest.CATALOGUE)
        before = instances(catalogue)
        first = selftest.Invariant("scratch.first", selftest._psd, lambda c, *instance: None)
        after = instances({first.name: first, **catalogue})
        assert len(before) == 41 and set(after) == {first.name, *before}
        assert [name for name in before if after[name] != before[name]] == []

    def test_summary_is_canonical(self, capsys):
        assert cli.main(["selftest", "--trials", "2", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == canonical(out)

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert cli.main(["selftest", "--trials", "1", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --seed must be a non-negative integer, got -1\n"

    def test_seed_variation_same_verdict(self, capsys):
        code1, s1 = run_json(capsys, ["selftest", "--trials", "2", "--seed", "11"])
        code2, s2 = run_json(capsys, ["selftest", "--trials", "2", "--seed", "99"])
        assert code1 == code2 == 0
        assert s1["ok"] is s2["ok"] is True

    def test_catalogue_fails_on_a_skewed_decomposition(self, capsys, monkeypatch):
        exact = po.lebesgue.ac_part

        def skewed(b, a, tol=po.DEFAULT_TOL):
            parts = exact(b, a, tol)
            return dataclasses.replace(parts, ac=parts.ac + 1e-6 * np.eye(parts.ac.shape[0]))

        monkeypatch.setattr(po.lebesgue, "ac_part", skewed)
        code, summary = run_json(capsys, ["selftest", "--trials", "1"])  # runs run_selftest
        failed = {s["name"]: s["failed"] for s in summary["suites"]}
        assert code == 1 and failed["lebesgue"] > 0
        with pytest.raises(AssertionError, match="lebesgue.decomposition trial 0: ac [+] sing = b"):
            test_acceptance.test_criterion_05_lebesgue_decomposition()
