"""Identical parties share one block: the values do not move by a bit, and the work done follows the input.

Parties that hold the same effect objects (every `--x/--theta` device) share
one block object in `witness` and `multipartite`; the same device given as
separate copies builds a block per party.  Both must give bitwise the same
rows, bounds and maximizers.
"""

import json

import numpy as np
import pytest

import uewkit as uk
from uewkit import multipartite, witness
from uewkit._optimize import fingerprint_operators
from uewkit.cli import main
from uewkit.multipartite import _Block, _Ellipse
from uewkit.qcore import operator_to_dict

XS = [0.5, 2.0 / 3.0, 0.8, 0.95]
THETAS = [0.0, 0.3]


def run(*argv):
    return main([str(a) for a in argv])


def explicit(device, n):
    """The device's effects as explicit matrices, one party entry each, in the `--povm` file format."""
    party = {"effects": [operator_to_dict(e.op) for e in device.effects]}
    return {"parties": [party] * n}


def shared_and_copies(x, theta, n):
    """n parties holding one device object, and n distinct copies of it read back by `povm_from_dict`."""
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(x, theta))
    return [device] * n, uk.povm_from_dict(explicit(device, n))


def assert_same(res, ref):
    assert (res.value, res.feasibility_residual, res.converged) == (ref.value, ref.feasibility_residual, ref.converged)
    assert len(res.maximizer.factors) == len(ref.maximizer.factors)
    for f, g in zip(res.maximizer.factors, ref.maximizer.factors):
        assert f.dims == g.dims and np.array_equal(f.amplitudes, g.amplitudes)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("x", XS)
class TestSharingMovesNoBit:
    def test_curve_rows(self, x, theta):
        shared, copies = shared_and_copies(x, theta, 2)
        lo, hi = uk.attainable_constraint_range(copies, (1, 1))
        assert uk.attainable_constraint_range(shared, (1, 1)) == (lo, hi)
        grid = np.linspace(lo, hi, 41)
        curve = uk.separability_curve(shared, (2, 2), (1, 1), grid)
        assert curve == uk.separability_curve(copies, (2, 2), (1, 1), grid)
        # a grid given by its size spans the same range
        assert curve == uk.separability_curve(shared, (2, 2), (1, 1), 41)

    def test_product_constrained_bound(self, x, theta):
        shared, copies = shared_and_copies(x, theta, 2)
        hi = x * x
        for c in (0.0, 1e-6 * hi, 0.1 * hi, 0.5 * hi, 0.9 * hi, hi):
            assert_same(
                uk.product_constrained_bound(shared, (2, 2), (1, 1), c),
                uk.product_constrained_bound(copies, (2, 2), (1, 1), c),
            )

    def test_tighten(self, x, theta):
        shared, copies = shared_and_copies(x, theta, 2)
        for decomposition in ([(1.0, (2, 2))], [(0.6, (2, 2)), (0.4, (3, 3))]):
            for c in (-1e-4, 0.0, 0.05 * x * x, 0.4 * x * x, x * x):
                ref = uk.tighten(copies, decomposition, c, (1, 1))
                assert uk.tighten(shared, decomposition, c, (1, 1)) == ref

    def test_partition_bounds(self, x, theta):
        # copies of the paper's device keep its type, so a block of several is the same rank-one ellipse
        for label, n in (("1|2|3", 3), ("1,2|3,4", 4)):
            shared, copies = shared_and_copies(x, theta, n)
            copies = [uk.ThreeOutcomePovm(p.effects, shared[0].params) for p in copies]
            part = uk.Partition.parse(label)
            for f in (0.01, 0.3, 0.9):
                c = f * x**n
                assert_same(uk.numeric_partition_bound(shared, part, c), uk.numeric_partition_bound(copies, part, c))


@pytest.fixture
def work(monkeypatch):
    """Counts of `_Ellipse.log_frontier_at` calls and of the blocks built, by type."""
    counts = {"tables": 0, "built": []}
    table, ellipse, block = _Ellipse.log_frontier_at, _Ellipse.__init__, _Block.__init__

    def counted_table(self, s):
        counts["tables"] += 1
        return table(self, s)

    def built(init):
        def counted(self, *args, **kwargs):
            counts["built"].append(type(self).__name__)
            return init(self, *args, **kwargs)

        return counted

    monkeypatch.setattr(_Ellipse, "log_frontier_at", counted_table)
    monkeypatch.setattr(_Ellipse, "__init__", built(ellipse))
    monkeypatch.setattr(_Block, "__init__", built(block))
    return counts


class TestWorkFollowsTheInput:
    @staticmethod
    def interior_rows(path, device):
        """Rows whose c lies inside the range of C, where the curve splits c between the parties: the
        bottom row sits at c = 0, and the top row, snapped to the 12 digits written, mostly lies below x^2."""
        lo, hi = uk.attainable_constraint_range([device, device], (1, 1))
        return sum(lo < c < hi for c in uk.curve_from_csv(path).c_values)

    @pytest.mark.parametrize("n", [5, 21])
    def test_identical_parties_read_one_table_per_row(self, work, tmp_path, n):
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(2.0 / 3.0))
        assert run("curve", "--x", "2/3", "--grid", n, "--out", tmp_path / "curve.csv") == 0
        built = work["built"][:]
        rows = self.interior_rows(tmp_path / "curve.csv", device)
        # each interior row reads the one shared block's table once; `g_s` reads the range of L from one more
        assert rows >= n - 2 and work["tables"] == rows and built == ["_Ellipse", "_Ellipse"]

    @pytest.mark.parametrize("n", [5, 21])
    def test_copies_read_a_table_each(self, work, tmp_path, n):
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(2.0 / 3.0))
        povm_file = tmp_path / "povm.json"
        povm_file.write_text(json.dumps(explicit(device, 2)))
        assert run("curve", "--povm", povm_file, "--grid", n, "--out", tmp_path / "curve.csv") == 0
        built = work["built"][:]
        rows = self.interior_rows(tmp_path / "curve.csv", device)
        assert rows >= n - 2 and work["tables"] == 2 * rows and built == ["_Ellipse"] * 4

    @pytest.mark.parametrize(
        "argv, blocks",
        [
            (("bound", "--x", "0.8", "--c", "0.317"), ["_Ellipse"]),
            (("multiparty", "--x", "0.8", "--agents", 4, "--partition", "1|2|3,4", "--c", "0.1"),
             ["_Ellipse", "_RankOneBlock"]),
            (("multiparty", "--x", "2/3", "--agents", 4, "--partition", "1,2|3,4", "--c", "0.05"), ["_RankOneBlock"]),
        ],
    )
    def test_one_block_per_distinct_pair(self, work, tmp_path, argv, blocks):
        assert run(*argv, "--out", tmp_path / "out") == 0
        assert work["built"] == blocks

    @pytest.mark.parametrize("decomposition", ["1:2,2", "0.6:2,2;0.4:3,3"])
    def test_tighten_builds_its_ranges_once(self, work, tmp_path, decomposition):
        counts = tmp_path / "counts.json"
        assert run(
            "simulate", "--preset", "optimal-entangled", "--c", 0.1, "--shots", 10**4, "--seed", 1, "--out", counts
        ) == 0
        assert run("tighten", "--counts", counts, "--decomposition", decomposition, "--out", tmp_path / "t.json") == 0
        # the one-term block engine and the two-qubit sum each build one block for the shared device, and the
        # one term's unconstrained bound one range of L
        assert work["built"] == ["_Ellipse"] * (2 if decomposition == "1:2,2" else 1)

    def test_curve_builds_its_dense_operators_once(self, monkeypatch, tmp_path):
        calls, real = [], uk.povm.product_operator

        def counted(povms, indices):
            calls.append(tuple(indices))
            return real(povms, indices)

        for module in (uk.povm, witness, multipartite):
            monkeypatch.setattr(module, "product_operator", counted)
        pair = [uk.build_three_outcome(uk.ThreeOutcomeParams(2.0 / 3.0))] * 2
        # the library curve and its g_s build no dense operator
        uk.separability_curve(pair, (2, 2), (1, 1), 5)
        uk.product_sew_bound(pair, (2, 2))
        assert calls == []
        assert run("curve", "--x", "2/3", "--grid", 5, "--out", tmp_path / "curve.csv") == 0
        # L for the admissibility check and the fingerprint, C likewise
        assert calls == [(2, 2), (1, 1)]
        fingerprint = fingerprint_operators(real(pair, (2, 2)).mat, real(pair, (1, 1)).mat)
        assert json.loads((tmp_path / "curve.json").read_text())["fingerprint"] == fingerprint

    def test_equal_agent_tuples_share_a_block(self):
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(0.8))
        agents = [(device,), (device,), (device, device), (device, device)]
        blocks = multipartite._shared_blocks(lambda *block: multipartite._partition_block(block), agents)
        assert blocks[0] is blocks[1] and blocks[2] is blocks[3] and blocks[0] is not blocks[2]
        # the same device given as separate copies is not shared
        copies = uk.povm_from_dict(explicit(device, 2))
        assert len(set(map(id, witness._party_blocks(copies, (2, 2), (1, 1))))) == 2
