import math
from functools import reduce

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import uewkit as uk
from uewkit import multipartite
from uewkit._optimize import RANGE_TOL
from uewkit.multipartite import STACK_ENTRIES, _Block, _Ellipse, _RankOneBlock

import conftest
from conftest import devices
from oracles import decimal_frontier

X = 2.0 / 3.0


def all_partitions(n):
    # all set partitions of {1..n} via restricted growth recursion
    def rec(i, blocks):
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            yield from rec(i + 1, blocks[:blocks.index(b)] + [b + [i]] + blocks[blocks.index(b) + 1:])
        yield from rec(i + 1, blocks + [[i]])

    return list(rec(2, [[1]]))


def mixed_devices(x, n):
    """n agents at x, agent k at theta = 0.3 k."""
    return [uk.build_three_outcome(uk.ThreeOutcomeParams(x, 0.3 * k)) for k in range(1, n + 1)]


def dense_blocks(povms, part):
    """Each block of `part` from its dense operators, as before rank-one blocks were ellipses."""
    blocks = []
    for b in part.blocks:
        agents = [povms[i - 1] for i in b]
        ops = (uk.product_operator(agents, [k] * len(b)) for k in (2, 1))
        blocks.append(multipartite._range_of(*ops))
    return blocks


class TestPartition:
    def test_parse_and_normalize(self):
        p = uk.Partition.parse("3|1,2")
        assert p.blocks == ((3,), (1, 2))
        assert p.sizes == (1, 2)
        assert p.largest_block == 2
        assert p.n_agents == 3
        assert p.label == "3|1,2"

    def test_sorts_blocks_by_size(self):
        p = uk.Partition(((4, 2, 3), (1,)))
        assert p.blocks == ((1,), (2, 3, 4))

    def test_rejects_bad_cover(self):
        with pytest.raises(ValueError):
            uk.Partition.parse("1|1,2")
        with pytest.raises(ValueError):
            uk.Partition.parse("1|3")
        with pytest.raises(ValueError):
            uk.Partition.parse("1||2")

    def test_format(self):
        p = uk.Partition(((2,), (1, 3)))
        assert uk.Partition.format_blocks(p.blocks) == "2|1,3"

    @pytest.mark.parametrize("text", ["1|x", "1|2.5", "1, y|2", "1|-2", "1|1_0"])
    def test_parse_rejects_non_integer_labels(self, text):
        with pytest.raises(ValueError) as info:
            uk.Partition.parse(text)
        assert str(info.value) == f"agent labels must be positive integers, got partition {text!r}"

    def test_constructor_rejects_non_integer_labels(self):
        for blocks in [((1,), (2.5,)), ((1,), ("2",)), ((1.0,), (2,))]:
            with pytest.raises(ValueError, match="agent labels must be positive integers, got partition"):
                uk.Partition(blocks)
        assert uk.Partition(((np.int64(2),), (1,))).blocks == ((1,), (2,))


class TestMultiOperators:
    def test_n2_matches_pair(self, pair23):
        l_op, c_op = uk.multi_operators(devices(X, 2))
        np.testing.assert_allclose(l_op.mat, pair23[0].mat, atol=1e-15)
        np.testing.assert_allclose(c_op.mat, pair23[1].mat, atol=1e-15)

    def test_n3_extreme_eigenvalues(self):
        l_op, c_op = uk.multi_operators(devices(X, 3))
        assert np.linalg.eigvalsh(c_op.mat)[-1] == pytest.approx(X**3)
        assert np.linalg.eigvalsh(l_op.mat)[-1] == pytest.approx((1 - X / 2) ** 3)

    def test_capacity(self):
        with pytest.raises(uk.CapacityError):
            uk.multi_operators(devices(X, 13))
        with pytest.raises(uk.CapacityError):
            uk.multi_operators(devices(X, 1))


class TestClosedFormBound:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (2, 1, 1 / 3),
            (2, 2, 5 / 12),
            (3, 1, 2 / 9),
            (3, 2, 5 / 18),
            (3, 3, 7 / 24),
        ],
    )
    def test_values(self, n, m, expected):
        assert uk.closed_form_bound(X, n, m).g == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_largest_block(self):
        for x in [0.2, 0.5, X, 0.9]:
            for n in range(2, 7):
                gs = [uk.closed_form_bound(x, n, m).g for m in range(1, n + 1)]
                assert np.all(np.diff(gs) > 0)

    def test_genuine_gap_shrinks_with_n(self):
        # partial-to-genuine spread (degenerate 0 at N=2 where M_k=N-1=1)
        gaps = [
            uk.closed_form_bound(X, n, n - 1).g - uk.closed_form_bound(X, n, 1).g
            for n in range(3, 7)
        ]
        assert np.all(np.diff(gaps) < 0)
        # headroom above the genuine threshold shrinks monotonically from N=2:
        # detecting genuine entanglement gets harder as N grows
        windows = [
            uk.closed_form_bound(X, n, n).g - uk.closed_form_bound(X, n, n - 1).g
            for n in range(2, 7)
        ]
        assert np.all(np.diff(windows) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            uk.closed_form_bound(X, 3, 0)
        with pytest.raises(ValueError):
            uk.closed_form_bound(X, 3, 4)
        with pytest.raises(ValueError):
            uk.closed_form_bound(1.0, 3, 1)


class TestOptimalSeparableMulti:
    """The maximizer of `numeric_partition_bound` at c = 0 attains the closed form with <C> = 0."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_achieves_closed_form(self, n):
        l_op, c_op = uk.multi_operators(devices(X, n))
        for blocks in all_partitions(n):
            part = uk.Partition(blocks)
            state = uk.numeric_partition_bound(devices(X, n), part, 0.0).maximizer
            g = uk.closed_form_bound(X, n, part.largest_block).g
            assert uk.expectation(c_op, state) == pytest.approx(0.0, abs=1e-30)
            assert uk.expectation(l_op, state) == pytest.approx(g, abs=1e-14)

    def test_theta_invariance(self):
        params = uk.ThreeOutcomeParams(X, 1.1)
        povm = uk.build_three_outcome(params)
        l_op = uk.product_operator([povm] * 3, [2, 2, 2])
        c_op = uk.product_operator([povm] * 3, [1, 1, 1])
        part = uk.Partition.parse("1|2,3")
        state = uk.numeric_partition_bound([povm] * 3, part, 0.0).maximizer
        assert uk.expectation(c_op, state) == pytest.approx(0.0, abs=1e-30)
        assert uk.expectation(l_op, state) == pytest.approx(
            uk.closed_form_bound(X, 3, 2).g, abs=1e-14
        )

    def test_other_x(self):
        x = 0.4
        l_op, c_op = uk.multi_operators(devices(x, 3))
        part = uk.Partition.parse("1,2,3")
        state = uk.numeric_partition_bound(devices(x, 3), part, 0.0).maximizer
        assert uk.expectation(c_op, state) == pytest.approx(0.0, abs=1e-30)
        assert uk.expectation(l_op, state) == pytest.approx(
            uk.closed_form_bound(x, 3, 3).g, abs=1e-14
        )

    def test_largest_block_carries_deficit(self):
        # per-block values: a fully packed block scores lower than a chi+ power
        for m in range(1, 5):
            g_u = (1 - X / 2) ** m - ((1 - X) / 2) ** m
            g_v = (1 - X / 2) ** m
            assert g_u < g_v


class TestNumericPartitionBound:
    @pytest.mark.parametrize(
        "text",
        ["1|2", "1,2", "1|2|3", "1|2,3", "2|1,3", "3|1,2", "1,2,3"],
    )
    def test_matches_closed_form_at_c0(self, text):
        part = uk.Partition.parse(text)
        n = part.n_agents
        res = uk.numeric_partition_bound(devices(X, n), part, c=0.0)
        expected = uk.closed_form_bound(X, n, part.largest_block).g
        assert res.converged
        assert res.restarts_used == 0
        assert res.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("x", [0.5, X, 0.8])
    def test_every_partition_exact_at_c0(self, x):
        for n in range(2, 7):
            for blocks in all_partitions(n):
                part = uk.Partition(blocks)
                res = uk.numeric_partition_bound(devices(x, n), part, c=0.0)
                expected = uk.closed_form_bound(x, n, part.largest_block).g
                assert res.converged
                assert res.value == pytest.approx(expected, abs=1e-12), part.label

    def test_exchange_invariance(self):
        vals = [
            uk.numeric_partition_bound(devices(X, 3), uk.Partition.parse(t), c=0.05).value
            for t in ["1|2,3", "2|1,3", "3|1,2"]
        ]
        assert max(vals) - min(vals) <= 1e-12

    def test_singleton_partition_matches_bipartite_curve(self):
        part = uk.Partition.parse("1|2")
        for x in [0.5, X, 0.8]:
            for c in [0.01, 0.1, 0.3 * x * x, x * x]:
                res = uk.numeric_partition_bound(devices(x, 2), part, c=c)
                assert res.value == pytest.approx(uk.semianalytic_pair_bound(x, c), abs=1e-9), (x, c)

    def test_heterogeneous_params(self):
        plist = [uk.ThreeOutcomeParams(0.5, 0.0), uk.ThreeOutcomeParams(0.7, 0.0)]
        res = uk.numeric_partition_bound([uk.build_three_outcome(p) for p in plist], uk.Partition.parse("1|2"), c=0.0)
        assert res.converged
        # |H> (<Pi_2> = 1/2) on the x = 0.7 agent, the top of Pi_2 (1 - x/2) on the other
        assert res.value == pytest.approx(0.5 * (1 - 0.5 / 2), abs=1e-12)

    @pytest.mark.parametrize(
        "params, text",
        [
            ([(0.5, 0.0), (0.7, 0.0)], "1|2"),
            ([(0.5, 0.0), (0.7, 1.0), (0.8, 0.0)], "1|2,3"),
            ([(0.5, 0.0), (0.7, 0.0), (0.8, 0.0), (0.6, 0.4)], "1,3|2,4"),
            ([(0.5, 0.0), (0.7, 0.0), (0.8, 0.3), (0.6, 0.0)], "2|1|3,4"),
            ([(X, 0.0)] * 4, "1|2|3|4"),
        ],
    )
    def test_maximizer_attains_value_and_c(self, params, text):
        # dense reference: the operators of the whole system in the
        # partition's normalized agent order, against the block maximizer
        povms = [uk.build_three_outcome(uk.ThreeOutcomeParams(*p)) for p in params]
        part = uk.Partition.parse(text)
        l_op, c_op = uk.multi_operators([povms[i - 1] for b in part.blocks for i in b])
        top = float(np.prod([p[0] for p in params]))
        for c in [0.0, 0.01 * top, 0.1 * top, 0.5 * top, 0.9 * top, top]:
            res = uk.numeric_partition_bound(povms, part, c)
            assert res.converged
            assert [f.dims for f in res.maximizer.factors] == [(2,) * len(b) for b in part.blocks]
            assert uk.expectation(l_op, res.maximizer) == pytest.approx(res.value, abs=1e-12)
            assert uk.expectation(c_op, res.maximizer) == pytest.approx(c, abs=1e-9)
            assert res.feasibility_residual <= 1e-9

    def test_flat_frontier_of_commuting_effects(self):
        # diagonal effects commute, so the block's reachable set is the polygon
        # of its diagonal (<C>, <L>) pairs and its frontier is straight
        # between vertices: the maximizer mixes two degenerate top eigenvectors
        pi1, pi2 = np.diag([0.0, 0.3, 0.9]), np.diag([0.6, 0.5, 0.05])
        device = uk.Povm(tuple(uk.Effect(uk.HermitianOperator((3,), m)) for m in (pi1, pi2, np.eye(3) - pi1 - pi2)))
        l_op, c_op = uk.multi_operators([device, device])
        cs, ls = np.diag(c_op.mat).real, np.diag(l_op.mat).real
        for c in [0.05, 0.2, 0.5]:
            # top of the polygon at c: the best chord between two of its points
            ref = max(
                ls[i] + (ls[j] - ls[i]) * (c - cs[i]) / (cs[j] - cs[i])
                for i in range(9) for j in range(9) if cs[i] <= c < cs[j]
            )
            res = uk.numeric_partition_bound([device, device], uk.Partition.parse("1,2"), c)
            assert res.converged
            assert res.value == pytest.approx(ref, abs=1e-12)
            assert uk.expectation(l_op, res.maximizer) == pytest.approx(res.value, abs=1e-12)
            assert uk.expectation(c_op, res.maximizer) == pytest.approx(c, abs=1e-9)

    def test_five_and_six_agents(self):
        for text in ["1,2|3,4,5", "1|2|3|4|5", "1,2,3|4,5,6", "1|2|3|4|5|6"]:
            part = uk.Partition.parse(text)
            n = part.n_agents
            res = uk.numeric_partition_bound(devices(X, n), part, c=0.0)
            assert res.value == pytest.approx(uk.closed_form_bound(X, n, part.largest_block).g, abs=1e-12)
            l_op, c_op = uk.multi_operators(devices(X, n))
            c = 0.3 * X**n
            res = uk.numeric_partition_bound(devices(X, n), part, c=c)
            assert res.converged
            assert uk.expectation(l_op, res.maximizer) == pytest.approx(res.value, abs=1e-12)
            assert uk.expectation(c_op, res.maximizer) == pytest.approx(c, abs=1e-9)
            # no state at all exceeds the top of L's spectrum
            assert res.value <= (1 - X / 2) ** n

    def test_seven_agents(self):
        # past the old N <= 4 cap and the CLI's N <= 6: one block of seven,
        # and a block of six beside a singleton
        n = 7
        l_op, c_op = uk.multi_operators(devices(X, n))
        for c in [0.1 * X**n, 0.5 * X**n]:
            whole = uk.numeric_partition_bound(devices(X, n), uk.Partition.parse("1,2,3,4,5,6,7"), c)
            # one block spans every state, so its bound is the dual
            # min over s of lambda_max(L - s C) + s c of the joint numerical range
            dual = minimize_scalar(
                lambda s: np.linalg.eigvalsh(l_op.mat - s * c_op.mat)[-1] + s * c, bounds=(-5.0, 5.0), method="bounded",
                options={"xatol": 1e-12},
            )
            assert whole.converged
            assert whole.value == pytest.approx(dual.fun, abs=1e-9)
            split = uk.numeric_partition_bound(devices(X, n), uk.Partition.parse("1|2,3,4,5,6,7"), c)
            assert split.converged
            assert uk.expectation(l_op, split.maximizer) == pytest.approx(split.value, abs=1e-12)
            assert uk.expectation(c_op, split.maximizer) == pytest.approx(c, abs=1e-9)
            # a coarser partition admits more states
            assert split.value <= whole.value + 1e-12

    def test_rank_one_blocks_solve_no_eigenproblem(self, monkeypatch):
        # a block of the paper's devices is one ellipse: no eigh or eigvalsh, no
        # product operator of more than one agent, and no Kronecker product of matrices
        partitions = [uk.Partition.parse(t) for t in ["1,2", "1|2,3,4,5,6", "1,2,3|4,5,6,7,8", "1|2|3,4"]]
        povms, calls = mixed_devices(X, 8), []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, solve=solve: calls.append(np.shape(m)) or solve(m))
        kron, product_operator = np.kron, multipartite.product_operator
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append("kron") if np.ndim(a) + np.ndim(b) > 2 else kron(a, b))
        monkeypatch.setattr(
            multipartite, "product_operator", lambda p, i: calls.append(len(p)) if len(p) > 1 else product_operator(p, i)
        )
        for part in partitions:
            top = X**part.n_agents
            for c in [0.0, 0.3 * top, top]:
                res = uk.numeric_partition_bound(povms[: part.n_agents], part, c)
                assert res.converged, (part.label, c)
        assert calls == []

    @pytest.mark.parametrize("x", [0.5, X, 0.8])
    def test_rank_one_blocks_match_dense_blocks(self, x):
        # against `_Block` on each block's dense operators, within 1e-14 for a
        # whole block and for a split settled on either frontier
        for text in ["1,2", "1,2,3,4,5", "1|2,3", "1,2|3,4,5", "1|2,3,4,5,6"]:
            part = uk.Partition.parse(text)
            povms = mixed_devices(x, part.n_agents)
            blocks = dense_blocks(povms, part)
            top = math.prod(b.hi for b in blocks)
            for c in [0.0, 1e-6 * top, 0.1 * top, 0.5 * top, top]:
                res, ref = uk.numeric_partition_bound(povms, part, c), multipartite._block_bound(blocks, c)
                assert res.converged and ref.converged
                assert res.value == pytest.approx(ref.value, abs=1e-14), (text, c)

    def test_split_leaves_the_table_basin(self):
        # x = 0.8, 1|2,...,6 at c = 0.9 x^6: `_Block`'s 801-slope table starts the
        # split in a basin 3e-4 low; the rate exchange climbs out of it on the
        # dense blocks, and on the ellipse, to the best split of a 2,001-point
        # scan of the two shares
        povms = mixed_devices(0.8, 6)
        part = uk.Partition.parse("1|2,3,4,5,6")
        c = 0.9 * 0.8**6
        res = uk.numeric_partition_bound(povms, part, c)
        assert res.converged
        blocks = [multipartite._partition_block([povms[i - 1] for i in b]) for b in part.blocks]
        s = multipartite._log_deficit([b.hi for b in blocks], c)
        scan = max(blocks[0].point(s * r)[1] * blocks[1].point(s * (1.0 - r))[1] for r in np.linspace(0.0, 1.0, 2001))
        assert res.value >= scan - 1e-15
        assert multipartite._block_bound(dense_blocks(povms, part), c).value >= scan - 1e-15 * scan
        l_op, c_op = uk.multi_operators([povms[i - 1] for b in part.blocks for i in b])
        assert uk.expectation(l_op, res.maximizer) == pytest.approx(res.value, abs=1e-12)
        assert uk.expectation(c_op, res.maximizer) == pytest.approx(c, abs=1e-9)

    @pytest.mark.parametrize("text", ["1,2,3,4,5,6,7,8", "1|2,3,4,5,6,7,8", "1,2,3|4,5,6,7,8", "1,2|3,4|5,6,7,8"])
    def test_rank_one_maximizers_attain_on_dense_operators(self, text):
        part = uk.Partition.parse(text)
        for x in [0.5, X, 0.8]:
            povms = mixed_devices(x, part.n_agents)
            l_op, c_op = uk.multi_operators([povms[i - 1] for b in part.blocks for i in b])
            top = x**part.n_agents
            for c in [0.0, 0.01 * top, 0.3 * top, 0.9 * top, top]:
                res = uk.numeric_partition_bound(povms, part, c)
                assert res.converged
                assert [f.dims for f in res.maximizer.factors] == [(2,) * len(b) for b in part.blocks]
                assert uk.expectation(l_op, res.maximizer) == pytest.approx(res.value, abs=1e-12), (x, c)
                assert uk.expectation(c_op, res.maximizer) == pytest.approx(c, abs=1e-9), (x, c)

    @pytest.mark.parametrize("x", [0.1, 0.5, X, 0.8])
    def test_c0_matches_closed_form_up_to_twelve_agents(self, x):
        for n in range(2, 13):
            agents = list(range(1, n + 1))
            for m in range(1, n + 1):
                # blocks of m agents in a row, the last one shorter
                part = uk.Partition(tuple(tuple(agents[i : i + m]) for i in range(0, n, m)))
                res = uk.numeric_partition_bound(mixed_devices(x, n), part, 0.0)
                assert res.converged
                assert res.value == pytest.approx(uk.closed_form_bound(x, n, m).g, abs=1e-12), part.label

    @pytest.mark.parametrize("text", ["1,2,3,4,5,6,7", "1|2,3,4,5,6,7,8"])
    def test_blocks_with_a_tiny_top_keep_their_range(self, text):
        # x = 0.05: the block of seven tops out at 7.8e-10, below RANGE_TOL, yet
        # <C_B> spans [0, hi], so c = 0 and the top hold the block on its edges
        part = uk.Partition.parse(text)
        povms = mixed_devices(0.05, part.n_agents)
        blocks = dense_blocks(povms, part)
        top = math.prod(b.hi for b in blocks)
        for res in (uk.numeric_partition_bound(povms, part, 0.0), multipartite._block_bound(blocks, 0.0)):
            assert res.value == pytest.approx(uk.closed_form_bound(0.05, part.n_agents, 7).g, abs=1e-12)
        # at the top every agent sits on |V>, where <Pi_2> = (1 - x) / 2
        for res in (uk.numeric_partition_bound(povms, part, top), multipartite._block_bound(blocks, top)):
            assert res.value == pytest.approx(0.475**part.n_agents, abs=1e-15)
        res, ref = uk.numeric_partition_bound(povms, part, 0.3 * top), multipartite._block_bound(blocks, 0.3 * top)
        assert res.converged and ref.converged and res.value == pytest.approx(ref.value, abs=1e-14)

    def test_twelve_agents_at_interior_c(self):
        # a block of eleven beside a singleton; L = |W><W| and C = |U><U| on the
        # whole system, so the maximizer's <L> and <C> are one overlap each
        povms = mixed_devices(X, 12)
        part = uk.Partition.parse("1|2,3,4,5,6,7,8,9,10,11,12")
        c = 0.3 * X**12
        res = uk.numeric_partition_bound(povms, part, c)
        assert res.converged
        psi = res.maximizer.amplitudes
        w = reduce(np.kron, [uk.chi_vectors(p.params)[0] for p in povms])
        assert abs(w.conj() @ psi) ** 2 == pytest.approx(res.value, abs=1e-12)
        assert X**12 * abs(psi[-1]) ** 2 == pytest.approx(c, abs=1e-9)
        assert res.value <= uk.closed_form_bound(X, 12, 12).g

    def test_capacity_limit(self):
        with pytest.raises(uk.CapacityError):
            uk.numeric_partition_bound(devices(X, 13), uk.Partition(tuple((i,) for i in range(1, 14))), 0.0)

    def test_device_count_must_match_partition(self):
        with pytest.raises(ValueError, match="partition covers 3 agents, got 2 devices"):
            uk.numeric_partition_bound(devices(X, 2), uk.Partition.parse("1|2,3"), 0.0)

    def test_c_range_validation(self):
        with pytest.raises(ValueError):
            uk.numeric_partition_bound(devices(X, 2), uk.Partition.parse("1|2"), c=0.6)
        with pytest.raises(ValueError):
            uk.numeric_partition_bound(devices(X, 2), uk.Partition.parse("1|2"), c=float("nan"))
        plist = [uk.ThreeOutcomeParams(0.5, 0.0), uk.ThreeOutcomeParams(0.8, 0.0)]
        with pytest.raises(ValueError, match=r"constraint value 0\.41 outside the spectrum \[0, 0\.4\] of C"):
            uk.numeric_partition_bound([uk.build_three_outcome(p) for p in plist], uk.Partition.parse("1|2"), c=0.41)


class TestRateExchange:
    """Splits settled on equal marginal rates, against the best split of a
    scan of the same frontiers at the same total log-deficit, each scan
    refined around its best point until a step moves log m by < 1e-16."""

    @staticmethod
    def scan_two(blocks, s, n=20001):
        lo, hi = 0.0, s
        for _ in range(2):
            r = np.linspace(lo, hi, n)
            f = blocks[0].log_frontier_at(r) + blocks[1].log_frontier_at(s - r)
            k = int(np.argmax(f))
            lo, hi = r[max(k - 1, 0)], r[min(k + 1, n - 1)]
        return math.exp(f[k])

    @staticmethod
    def scan_three(blocks, s, n=801):
        box = [(0.0, s), (0.0, s)]
        for _ in range(3):
            r0, r1 = (np.linspace(a, b, n) for a, b in box)
            f = (blocks[0].log_frontier_at(r0)[:, None] + blocks[1].log_frontier_at(r1)[None, :]
                 + blocks[2].log_frontier_at(s - r0[:, None] - r1[None, :]))
            i, j = np.unravel_index(np.argmax(f), f.shape)
            box = [(r[max(k - 1, 0)], r[min(k + 1, n - 1)]) for r, k in ((r0, i), (r1, j))]
        return math.exp(f[i, j])

    @pytest.mark.parametrize("f", [1.0 - 1e-6, 1.0 - 1e-9, 0.1])
    def test_two_parties_reach_the_best_split(self, f):
        # two different parties near the top of the range, where sum log m_B
        # varies little across splits, and inside it
        povms = [uk.build_three_outcome(uk.ThreeOutcomeParams(x, 0.3)) for x in (0.5, 0.8)]
        blocks = [_Ellipse(p.effect(2).op, p.effect(1).op) for p in povms]
        c = f * blocks[0].hi * blocks[1].hi
        res = uk.product_constrained_bound(povms, (2, 2), (1, 1), c)
        assert res.converged
        scan = self.scan_two(blocks, multipartite._log_deficit([b.hi for b in blocks], c))
        assert res.value >= scan - 1e-15 * scan

    @pytest.mark.parametrize("f", [0.01, 0.1, 0.5, 0.999])
    def test_frontier_falling_to_zero_at_the_top(self, f):
        # diagonal, so commuting, effects: each party's frontier is the hull of
        # (<C>, <L>) = (0, 0.6), (0.3, 0.5), (0.9, 0), which reaches m = 0 at the top
        # of its range; no block may start or settle there
        qutrit = uk.Povm(tuple(uk.Effect(uk.HermitianOperator((3,), np.diag(d))) for d in ([0, 0.3, 0.9], [0.6, 0.5, 0], [0.4, 0.2, 0.1])))
        c = f * 0.81
        res = uk.product_constrained_bound([qutrit, qutrit], (2, 2), (1, 1), c)
        assert res.converged and res.feasibility_residual <= 1e-15
        # a dense scan of the split q_1 q_2 = c on the exact hull, refined once around its best point
        m = lambda q: np.interp(q, [0.0, 0.3, 0.9], [0.6, 0.5, 0.0])  # noqa: E731
        lo, hi = c / 0.9, 0.9
        for _ in range(2):
            q = np.linspace(lo, hi, 200001)
            g = m(q) * m(c / q)
            k = int(np.argmax(g))
            lo, hi = q[max(k - 1, 0)], q[min(k + 1, q.size - 1)]
        assert abs(res.value - g[k]) <= 1e-12 * g[k]

    def test_three_blocks_reach_the_best_split(self):
        povms = mixed_devices(0.8, 4)
        part = uk.Partition.parse("1|2|3,4")
        blocks = [multipartite._partition_block([povms[i - 1] for i in b]) for b in part.blocks]
        c = 0.3 * math.prod(b.hi for b in blocks)
        res = uk.numeric_partition_bound(povms, part, c)
        assert res.converged
        scan = self.scan_three(blocks, multipartite._log_deficit([b.hi for b in blocks], c))
        assert res.value >= scan - 1e-15 * scan


class TestBrentq:
    """`_root`, which closes each exchange of `_settle`, against scipy's `brentq`
    at the same xtol as the oracle: both roots lie within xtol + 4 eps |root|."""

    # `_root` evaluations over each sweep below, counted with the scipy `brentq`
    # port it replaced; `_root` may take at most 10 % more
    PORT_EVALS = {
        (0.1, 0.0): 1213, (0.1, 0.3): 1209, (0.5, 0.0): 269, (0.5, 0.3): 269, (X, 0.0): 1195, (X, 0.3): 1198,
        (0.8, 0.0): 1170, (0.8, 0.3): 1182, (0.95, 0.0): 1159, (0.95, 0.3): 1166, 3: 629, 4: 3191, 5: 17984,
    }

    @pytest.fixture
    def brackets(self, monkeypatch):
        """Solve every bracket `_settle` builds with both, recording (ours, scipy's, xtol);
        counts the evaluations ours makes."""
        roots, evals, ours = [], [0], multipartite._root

        def both(f, a, b, xtol):
            def counted(t):
                evals[0] += 1
                return f(t)

            roots.append((ours(counted, a, b, xtol), brentq(f, a, b, xtol=xtol), xtol))
            return roots[-1][0]

        monkeypatch.setattr(multipartite, "_root", both)
        return roots, evals

    @staticmethod
    def close(roots):
        return roots and all(abs(mine - ref) <= xtol + 4 * np.finfo(float).eps * abs(ref) for mine, ref, xtol in roots)

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    @pytest.mark.parametrize("x", [0.1, 0.5, X, 0.8, 0.95])
    def test_curve_brackets(self, brackets, x, theta):
        # the device beside itself, whose symmetric splits mostly land on the
        # grid, and beside another device, whose splits need the root
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(x, theta))
        for povms in ([device, device], [device, uk.build_three_outcome(uk.ThreeOutcomeParams(0.5, theta + 0.3))]):
            lo, hi = uk.attainable_constraint_range(povms, (1, 1))
            uk.separability_curve(povms, (2, 2), (1, 1), np.linspace(lo, hi, 201))
        roots, evals = brackets
        assert self.close(roots) and evals[0] <= 1.1 * self.PORT_EVALS[x, theta]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_partition_brackets(self, brackets, n):
        povms = mixed_devices(0.8, n)
        for part in (uk.Partition(blocks) for blocks in all_partitions(n) if len(blocks) > 1):
            hi = math.prod(multipartite._partition_block([povms[i - 1] for i in b]).hi for b in part.blocks)
            for f in (0.01, 0.3, 0.9):
                uk.numeric_partition_bound(povms, part, f * hi)
        roots, evals = brackets
        assert self.close(roots) and evals[0] <= 1.1 * self.PORT_EVALS[n]

    @classmethod
    def solve(cls, f, a, b, xtol=1e-12):
        root = multipartite._root(f, a, b, xtol)
        assert cls.close([(root, brentq(f, a, b, xtol=xtol), xtol)])
        return root

    def test_zero_at_an_end(self):
        assert self.solve(lambda t: t, 0.0, 1.0) == 0.0
        assert self.solve(lambda t: t - 1.0, 0.0, 1.0) == 1.0

    def test_infinite_end_value(self):
        # a rate at an end of a block's range, where m = 0, is infinite
        assert self.solve(lambda t: math.inf if t == 0.0 else 0.3 - t, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)
        assert self.solve(lambda t: -math.inf if t == 1.0 else 0.3 - t, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("g", [lambda t: t**3 - 0.3, lambda t: math.exp(t) - 2.0, lambda t: 0.5 - t - t**5])
    def test_scaled_values_find_the_same_root(self, g):
        # the steps read ratios of values, so values ~1e-110 find the same root
        assert abs(self.solve(lambda t: 1e-110 * g(t), 0.0, 1.0) - self.solve(g, 0.0, 1.0)) <= 1e-12

    def test_rejects_a_bracket_without_a_sign_change_or_a_nan_value(self):
        with pytest.raises(ValueError):
            multipartite._root(lambda t: t + 1.0, 0.0, 1.0, 1e-12)
        with pytest.raises(ValueError):
            multipartite._root(lambda t: 0.3 - t if t in (0.0, 1.0) else math.nan, 0.0, 1.0, 1e-12)

    def test_iteration_cap(self):
        # a step function bisects, and at xtol 0 a root at 1e-300 needs about 1000 halvings
        with pytest.raises(RuntimeError):
            multipartite._root(lambda t: -1.0 if t < 1e-300 else 1.0, -1.0, 1.0, 0.0)


class TestStackedFrontier:
    """`_Block` stacks the eigenproblems of its table; every result must be
    bitwise that of one eigenproblem per slope, the reference below."""

    @staticmethod
    def top(block, t, scale=1.0):
        return np.linalg.eigh(math.cos(t) * block.l_mat - math.sin(t) / scale * block.c_mat)[1][:, -1]

    def serial_frontier(self, block, q):
        # the frontier bisects the angle of L_B against C_B / hi
        a, b = -np.pi / 2, np.pi / 2
        va, vb = block.edge(block.hi), block.edge(block.lo)
        while b - a > 4 * np.finfo(float).eps:
            t = 0.5 * (a + b)
            v = self.top(block, t, block.hi)
            if block.values(v)[0] >= q:
                a, va = t, v
            else:
                b, vb = t, v
        qa, qb = block.values(va)[0], block.values(vb)[0]
        vec = va if qa - q <= q - qb else vb
        if qa - qb > RANGE_TOL * block.hi:
            basis = np.linalg.qr(np.column_stack([va, vb]))[0]
            w, u = np.linalg.eigh(basis.conj().T @ block.c_mat @ basis)
            s = min(max((w[1] - q) / (w[1] - w[0]), 0.0), 1.0)
            vec = basis @ (math.sqrt(1.0 - s) * u[:, 1] + math.sqrt(s) * u[:, 0])
        return vec, math.tan(0.5 * (a + b)) / block.hi

    def serial_frontier_points(self, block):
        angles = np.arctan(np.sinh(np.linspace(20.0, -20.0, 801)))
        points = [block.values(self.top(block, t)) for t in angles]
        q, l = np.array([block.values(block.edge(block.lo)), *points, block.values(block.edge(block.hi))]).T
        return np.maximum.accumulate(q), l

    @staticmethod
    def random_pair(d, seed):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(2):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mats.append(a @ a.conj().T / d + 0.1 * np.eye(d))
        return _Block(*(uk.HermitianOperator((d,), m) for m in mats))

    def assert_bitwise(self, block):
        span = block.hi - block.lo
        for q in [block.lo + 1e-12 * span, block.lo + 1e-7 * span, block.lo + 0.37 * span,
                  block.hi - 1e-7 * span, block.hi - 1e-12 * span]:
            (vec, slope), (ref, ref_slope) = block.frontier(q), self.serial_frontier(block, q)
            assert np.array_equal(vec, ref), q
            assert slope == ref_slope, q
        for got, ref in zip(block.frontier_points, self.serial_frontier_points(block)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_random_pairs(self, d):
        for seed in range(3):
            self.assert_bitwise(self.random_pair(d, seed))

    @staticmethod
    def straight_pair():
        # the pair of the straight-frontier curve test: L = 1 - C on one qubit
        e1 = np.diag([0.9, 0.2])
        return _Block(uk.HermitianOperator((2,), np.eye(2) - e1), uk.HermitianOperator((2,), e1))

    def test_straight_segment_pair(self):
        self.assert_bitwise(self.straight_pair())

    def test_stacks_hold_at_most_the_entry_cap(self, monkeypatch):
        # a block of six agents is 64-dimensional, so 801 slopes would be
        # 3.3 M entries in one stack; the cap splits them
        sizes, eigh = [], np.linalg.eigh

        def counted(m):
            sizes.append(np.asarray(m).size)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        block = _Block(*uk.multi_operators(devices(X, 6)))
        block.frontier_points
        block.frontier(0.3 * block.hi)
        assert max(sizes) == STACK_ENTRIES

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, None])
    def test_memo_is_invisible(self, d):
        # one block, its edge states solved once and kept, answers a shuffled run
        # of q with repeats, close neighbours and near-end values; each answer
        # is bitwise the serial reference's and a fresh block's (d None: the
        # straight-segment pair)
        make = self.straight_pair if d is None else lambda: self.random_pair(d, 7)
        block = make()
        lo, span = block.lo, block.hi - block.lo
        qs = [lo + f * span for f in (1e-12, 0.3, 0.3 + 1e-9, 0.3 - 1e-9, 0.3 + 2e-9, 0.71, 1.0 - 1e-12)]
        qs += [qs[1], qs[2], qs[-1], qs[0]]
        np.random.default_rng(3).shuffle(qs)
        for q in qs:
            (vec, slope), (ref, ref_slope) = block.frontier(q), self.serial_frontier(block, q)
            fresh, fresh_slope = make().frontier(q)
            assert np.array_equal(vec, ref) and np.array_equal(vec, fresh), q
            assert slope == ref_slope == fresh_slope, q


class TestRankOneBlock:
    """A block of the paper's devices as one ellipse, against `_Block` on its
    dense operators; `_Block` itself against the closed form on one qubit."""

    def test_block_matches_qubit_ellipse(self):
        # away from the ends, where bisecting the slope resolves <C_B> less finely
        for l_op, c_op in TestQubitEllipse.device_pairs():
            block, ellipse = _Block(l_op, c_op), _Ellipse(l_op, c_op)
            for f in [1e-3, 0.3, 0.5, 0.7, 0.9]:
                assert abs(block.point(-math.log(f))[1] - ellipse.point(-math.log(f))[1]) <= 1e-15, f

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_block(self, n):
        for x in [0.5, X, 0.8]:
            agents = mixed_devices(x, n)
            ellipse, block = _RankOneBlock(agents), _Block(*uk.multi_operators(agents))
            assert ellipse.lo == 0.0 and ellipse.hi == block.hi == math.prod(p.params.x for p in agents)
            for s in np.linspace(0.01, 5.0, 8):
                vec, value, _ = ellipse.point(s)
                assert abs(value - block.point(s)[1]) <= 1e-14, (x, s)
                # the touch state, expanded to 2^n amplitudes, attains the point
                assert block.values(ellipse.amplitudes(vec)) == pytest.approx((block.hi * math.exp(-s), value), abs=1e-14)
            for vec, ref in zip([*ellipse.edges, ellipse.free], [*block.edges, block.free]):
                assert block.values(ellipse.amplitudes(vec)) == pytest.approx(block.values(ref), abs=1e-15)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_small_block_matches_ellipse(self, n):
        # x = 0.1, so C_B tops out at 1e-n: the dense block bisects its angle
        # against C_B / hi, and an unscaled angle read six agents 6e-10 off
        for agents in [devices(0.1, n), mixed_devices(0.1, n)]:
            ellipse, block = _RankOneBlock(agents), _Block(*uk.multi_operators(agents))
            for c in [1e-7, 3e-7, 5e-7, 9e-7]:
                ref = multipartite._block_bound([ellipse], c).value
                assert multipartite._block_bound([block], c).value == pytest.approx(ref, rel=1e-13, abs=0.0), c


class TestQubitEllipse:
    """A qubit block's frontier in closed form, against a 50-digit `decimal`
    evaluation from the float effects' own entries."""

    DEFICITS = [1e-15, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 1e-3, 0.05, 0.3, 0.7, 1.0]

    @staticmethod
    def devices():
        for x in [0.1, 0.5, 2.0 / 3.0, 0.8, 0.95]:
            for theta in [0.0, 0.3, 1.7]:
                yield uk.build_three_outcome(uk.ThreeOutcomeParams(x, theta))

    @staticmethod
    def device_pairs():
        for device in TestQubitEllipse.devices():
            yield device.effect(2).op, device.effect(1).op

    @staticmethod
    def random_pairs():
        rng = np.random.default_rng(5)
        for _ in range(6):
            mats = []
            for _ in range(2):
                a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                mats.append(uk.HermitianOperator((2,), a @ a.conj().T / np.trace(a @ a.conj().T).real))
            yield mats

    def assert_matches_reference(self, pairs):
        for l_op, c_op in pairs:
            ellipse = _Ellipse(l_op, c_op)
            for side in (1, -1):
                for t in self.DEFICITS:
                    _, value, slope = ellipse.at(t, side)
                    ref_value, ref_slope = decimal_frontier(c_op.mat, l_op.mat, t, side)
                    assert abs(value - float(ref_value)) <= 1e-15, (t, side)
                    assert abs(slope - float(ref_slope)) <= 1e-15 * max(1.0, abs(float(ref_slope))), (t, side)

    def test_devices_match_decimal_reference(self):
        self.assert_matches_reference(self.device_pairs())

    def test_random_complex_pairs_match_decimal_reference(self):
        self.assert_matches_reference(self.random_pairs())

    def test_log_deficits_reach_both_ends(self):
        # the device's C = Pi_1 spans [0, x] exactly, so s = log(x / q) names q
        # exactly: 1 - q/x from the top, q/x from the bottom, both from 1e-15 up
        for l_op, c_op in self.device_pairs():
            ellipse = _Ellipse(l_op, c_op)
            assert ellipse.lo == 0.0 and ellipse.hi == ellipse.c0 + ellipse.width
            for t in self.DEFICITS:
                for side, s in [(1, -math.log1p(-t / 2)), (-1, -math.log(t / 2))]:
                    vec, value, slope = ellipse.point(s)
                    ref_value, ref_slope = decimal_frontier(c_op.mat, l_op.mat, t, side)
                    # s is t rounded to a float and back: compare with the relative error that leaves
                    assert value == pytest.approx(float(ref_value), rel=1e-14, abs=1e-15), (t, side)
                    assert slope == pytest.approx(float(ref_slope), rel=1e-13), (t, side)
                    assert np.log(value) == ellipse.log_frontier_at(np.array([s]))[0]
                    # the touch state attains the point, however close to an end
                    q = ellipse.hi * math.exp(-s)
                    assert ellipse.values(vec) == pytest.approx((q, value), abs=1e-15), (t, side)

    def test_straight_frontier(self):
        # beta = 0: L = 1 - C on one qubit, so the frontier is 1 - q, slope -1
        e1 = uk.HermitianOperator((2,), np.diag([0.9, 0.2]))
        ellipse = _Ellipse(uk.HermitianOperator((2,), np.eye(2) - e1.mat), e1)
        assert ellipse.beta == 0.0 and ellipse.lo == pytest.approx(0.2, abs=1e-15) and ellipse.hi == 0.9
        for s in [1e-15, 1e-9, 0.3, 1.2, math.log(0.9 / 0.2)]:
            vec, value, slope = ellipse.point(s)
            q = 0.9 * math.exp(-s)
            assert value == pytest.approx(1.0 - q, abs=1e-15)
            assert slope == pytest.approx(-1.0, abs=1e-15)
            assert ellipse.values(vec) == pytest.approx((max(q, ellipse.lo), 1.0 - q), abs=1e-15)
        assert ellipse.log_frontier_at(np.array([0.0, 1.0, 2.0]))[-1] == -np.inf  # q below 0.2

    def test_zero_width_holds_the_top_of_l(self):
        # |c| = 0: C = I/2 gives one <C>, and both edges are the top state of L
        l_op = uk.HermitianOperator((2,), np.array([[0.7, 0.2j], [-0.2j, 0.1]]))
        ellipse = _Ellipse(l_op, uk.HermitianOperator((2,), np.eye(2) / 2))
        assert ellipse.width == 0.0 and ellipse.lo == ellipse.hi == 0.5
        top = np.linalg.eigvalsh(l_op.mat)[-1]
        for vec in ellipse.edges:
            assert ellipse.values(vec) == pytest.approx((0.5, top), abs=1e-15)


class TestQubitPair:
    """Two-qubit sums L = sum_i beta_i A_i (x) B_i under C = C_1 (x) C_2, solved on party 1's Bloch sphere."""

    @staticmethod
    def random_sum(rng, i):
        def psd(rank):
            vecs = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
            m = vecs @ vecs.conj().T
            return m / np.linalg.eigvalsh(m)[-1] * rng.uniform(0.2, 1.0)

        terms = [(rng.uniform(-1.0, 1.0), psd(2), psd(2)) for _ in range(1 + i % 3)]
        # singular constraint effects on party 1, party 2, both or neither, so c = 0 takes every branch set
        c_mats = [psd(1 + (i >> 2) % 2), psd(1 + (i >> 3) % 2)]
        return terms, c_mats

    @staticmethod
    def pair(terms, c_mats):
        """The `_QubitPair` of a sum, handed each party's range of <C_k> as `witness.tighten` builds it."""
        parties = [multipartite._constraint_range(uk.HermitianOperator((2,), m)) for m in c_mats]
        return multipartite._QubitPair(terms, parties)

    @staticmethod
    def dense(terms, c_mats):
        l_mat = sum(b * np.kron(a1, a2) for b, a1, a2 in terms)
        return uk.HermitianOperator((2, 2), l_mat), uk.HermitianOperator((2, 2), np.kron(*c_mats))

    @staticmethod
    def expect(mat, vec):
        return float((vec.conj() @ mat @ vec).real)

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_sums_match_the_multistart(self, chunk):
        # 200 sums in all; per sum the unconstrained bound, both ends of the range and one c inside it
        rng, settings = np.random.default_rng(2800 + chunk), uk.OptimizerSettings(restarts=4)
        for i in range(50):
            terms, c_mats = self.random_sum(rng, i)
            pair, (l_op, c_op) = self.pair(terms, c_mats), self.dense(terms, c_mats)
            old = pair.bound()
            assert old.converged and abs(old.value - uk.sew_bound(l_op, settings=settings).value) <= 1e-14, i
            (w1, v1), (w2, v2) = (np.linalg.eigh(m) for m in c_mats)
            # a singular C_k's bottom eigenvalue is 0 up to rounding: within dim eps of its top
            kernel = [w[0] <= w.size * np.finfo(float).eps * w[-1] for w in (w1, w2)]
            lo, hi = math.prod(0.0 if k else w[0] for k, w in zip(kernel, (w1, w2))), w1[-1] * w2[-1]
            # an end, read half the range slack RANGE_TOL hi beyond it, as eigenvalues and Bloch forms place it
            # a rounding apart
            # the top: one state, both parties on the top eigenvectors of their C_k
            top = pair.bound(hi + RANGE_TOL * hi / 2).value
            assert top == pytest.approx(self.expect(l_op.mat, np.kron(v1[:, -1], v2[:, -1])), abs=1e-15), i
            # the bottom: both on bottom eigenvectors, or at c = 0 one party on the kernel of its C_k, the other free
            if lo > 0.0:
                ends = [self.expect(l_op.mat, np.kron(v1[:, 0], v2[:, 0]))]
            else:
                l4 = l_op.mat.reshape(2, 2, 2, 2)
                ends = [np.linalg.eigvalsh(np.einsum("i,ijkl,k->jl", v.conj(), l4, v) if k == 0 else
                                           np.einsum("j,ijkl,l->ik", v.conj(), l4, v))[-1]
                        for k, v in enumerate((v1[:, 0], v2[:, 0])) if kernel[k]]
            assert pair.bound(lo - RANGE_TOL * hi / 2).value == pytest.approx(max(ends), abs=1e-15), i
            # inside, away from the ends, where one rounding of <C> moves g by < 1e-14: at the
            # multistart's own <C> the search reads no lower than the <L> it reached
            ref = uk.constrained_bound(l_op, c_op, lo + (hi - lo) * rng.uniform(0.01, 0.99), settings=settings)
            vec = ref.maximizer.amplitudes
            res = pair.bound(self.expect(c_op.mat, vec))
            assert res.converged and res.value >= self.expect(l_op.mat, vec) - 1e-14, i
            # and its own maximizer attains its value at its c
            vec = res.maximizer.amplitudes
            assert abs(self.expect(l_op.mat, vec) - res.value) <= 1e-15 and res.feasibility_residual <= 1e-15, i

    @pytest.mark.parametrize("l_indices,c_indices", [((2, 2), (1, 1)), ((2, 3), (1, 1)), ((3, 2), (1, 2))])
    def test_one_term_matches_the_block_engine(self, l_indices, c_indices):
        # one term with beta > 0 is a product of effects: the sphere search meets the
        # exact product bounds, at both ends of the range and inside it
        fractions = [1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6]
        for device in TestQubitEllipse.devices():
            povms = [device, device]
            terms = [(1.0, *(e.op.mat for e in uk.povm.selected_effects(povms, l_indices)))]
            pair = self.pair(terms, [e.op.mat for e in uk.povm.selected_effects(povms, c_indices)])
            old = pair.bound().value
            assert abs(old - uk.product_sew_bound(povms, l_indices).value) <= 1e-15
            lo, hi = uk.attainable_constraint_range(povms, c_indices)
            for c in [lo, hi, *(lo + f * (hi - lo) for f in fractions)]:
                ref = uk.product_constrained_bound(povms, l_indices, c_indices, c).value
                assert pair.bound(c).value == pytest.approx(ref, rel=2e-14, abs=0.0), c

    def test_a_tiny_constraint_keeps_its_range(self):
        # x = 1e-10: each <Pi_1> spans [0, 1e-10], a range however small, so the
        # ends hold both parties as the block engine does
        povms = [uk.build_three_outcome(uk.ThreeOutcomeParams(1e-10, 0.3))] * 2
        terms = [(1.0, *(e.op.mat for e in uk.povm.selected_effects(povms, (2, 2))))]
        pair = self.pair(terms, [e.op.mat for e in uk.povm.selected_effects(povms, (1, 1))])
        lo, hi = uk.attainable_constraint_range(povms, (1, 1))
        for c in (lo, 0.3 * hi, hi):
            ref = uk.product_constrained_bound(povms, (2, 2), (1, 1), c).value
            assert pair.bound(c).value == pytest.approx(ref, rel=1e-14, abs=0.0), c
        assert pair.bound(lo).value == pytest.approx(uk.closed_form_bound(1e-10, 2, 1).g, abs=1e-15)

    @pytest.mark.parametrize("flat", [0, 1])
    def test_a_flat_constraint_party_is_free(self, flat):
        # C_k = I/2 on one party: its <C_k> is fixed, so c fixes the other party's <C> and it is free
        e1 = np.diag([0.9, 0.2]).astype(complex)
        terms = [(0.6, e1, np.eye(2) / 2), (0.4, np.eye(2) - e1, np.diag([0.3, 0.7]))]
        c_mats = [e1, np.eye(2) / 2]
        if flat == 0:  # the same pair with the parties exchanged
            terms, c_mats = [(b, a2, a1) for b, a1, a2 in terms], c_mats[::-1]
        pair, (l_op, c_op) = self.pair(terms, c_mats), self.dense(terms, c_mats)
        settings = uk.OptimizerSettings(restarts=4)
        assert abs(pair.bound().value - uk.sew_bound(l_op, settings=settings).value) <= 1e-14
        for c in (0.1, 0.2, 0.3, 0.45):
            vec = uk.constrained_bound(l_op, c_op, c, settings=settings).maximizer.amplitudes
            res = pair.bound(self.expect(c_op.mat, vec))
            assert res.converged and res.value >= self.expect(l_op.mat, vec) - 1e-15, c
            vec = res.maximizer.amplitudes
            assert abs(self.expect(l_op.mat, vec) - res.value) <= 1e-15 and res.feasibility_residual <= 1e-15, c

    # searches of the seeded sweep (`conftest.qubit_sum_sweep`) whose maximum lies 7.6e-7 to 1.6e-4 from a
    # pole of party 1's sphere (1 - |u_1|), where phi loses meaning: trial -> the 128-restart multistart's
    # value with no constraint, or its own (<C>, <L>) at c, which it reaches only to ~7e-13 while g falls
    # there by ~2.4 per unit of c (trial 3)
    POLE_SWEEP = {
        "free": {15: 0.7758494850020451, 111: 0.25248619798744615, 120: 0.7742029063191203,
                 187: 0.7074936892887418, 245: -0.035602361696265496},
        "at_c": {3: (0.45159680570088956, 0.4516121797689083), 111: (0.2063910226031565, 0.19951071984014862),
                 218: (0.08349156223092155, -0.14376446631573606)},
    }

    @classmethod
    def sweep(cls, trials):
        """Each sum of the seeded sweep (`conftest.qubit_sum_sweep`) as a `_QubitPair`, with its c."""
        for povms, betas, pairs, cpair, u in conftest.qubit_sum_sweep(trials):
            terms = [(b, *(e.op.mat for e in uk.povm.selected_effects(povms, q))) for b, q in zip(betas, pairs)]
            pair = cls.pair(terms, [e.op.mat for e in uk.povm.selected_effects(povms, cpair)])
            lo, hi = multipartite._product_range(pair.parties)
            yield pair, lo + (hi - lo) * u

    def test_maxima_near_party_1s_pole_converge(self):
        for trial, (pair, c) in enumerate(self.sweep(246)):
            if trial in self.POLE_SWEEP["free"]:
                res = pair.bound()
                assert res.converged and res.value >= self.POLE_SWEEP["free"][trial] - 1e-12, trial
            if trial in self.POLE_SWEEP["at_c"]:
                assert pair.bound(c).converged, trial
                c_ref, l_ref = self.POLE_SWEEP["at_c"][trial]
                res = pair.bound(c_ref)
                assert res.converged and res.value >= l_ref - 1e-12, trial

    @staticmethod
    def count_values(monkeypatch):
        """A list that gains an entry at each call of `_QubitPair._values`."""
        calls, values = [], multipartite._QubitPair._values
        monkeypatch.setattr(multipartite._QubitPair, "_values", lambda *args: calls.append(1) or values(*args))
        return calls

    def test_bench_sum_search_calls(self, monkeypatch):
        # L = 0.6 Pi_2 x Pi_2 + 0.4 Pi_3 x Pi_3 and C = Pi_1 x Pi_1 at x = 2/3, the `tighten` sum of the
        # benchmark: the grid and the local solve call `_values` 6 times with no constraint and 5 times at
        # c = 0.097658; a count, so it holds on any machine
        povms = [uk.build_three_outcome(uk.ThreeOutcomeParams(X, 0.0))] * 2
        terms = [(b, *(e.op.mat for e in uk.povm.selected_effects(povms, q))) for b, q in ((0.6, (2, 2)), (0.4, (3, 3)))]
        pair = self.pair(terms, [e.op.mat for e in uk.povm.selected_effects(povms, (1, 1))])
        calls, counts = self.count_values(monkeypatch), []
        for c in (None, 0.097658):
            calls.clear()
            assert pair.bound(c).converged
            counts.append(len(calls))
        assert counts[0] <= 6 and counts[1] <= 5, counts

    def test_sweep_converges_in_few_calls(self, monkeypatch):
        # the 600 searches of the seeded sweep, each sum with no constraint and at one c inside its range:
        # every one converges, at the median in six calls of `_values` (the grid and five rounds), 3650 in
        # all here; the bound leaves room for rounding elsewhere, not for searches that halve to float
        # resolution
        calls, counts = self.count_values(monkeypatch), []
        for trial, (pair, c) in enumerate(self.sweep(300)):
            for at in (None, c):
                calls.clear()
                assert pair.bound(at).converged, (trial, at)
                counts.append(len(calls))
        assert np.median(counts) <= 6 and sum(counts) <= 3800, (np.median(counts), sum(counts))

    def test_chart_points_are_pure_states(self):
        # every (theta, phi) is a unit Bloch vector of party 1 at <C_1> = hi_1 exp(-x), also at theta = 0 and pi,
        # the ends of the band, where one of the parties sits at a pole
        theta, phi = np.repeat(np.linspace(0.0, np.pi, 9), 4), np.tile([0.0, 1.0, 2.0, 4.0], 9)
        for pair, c in self.sweep(40):
            s_total = multipartite._log_deficit([p.hi for p in pair.parties], c)
            n, _ = pair._chart(s_total, theta, phi)
            assert np.abs(np.linalg.norm(n[1:], axis=0) - 1.0).max() <= 4e-16
            p1, (a, b) = pair.parties[0], pair._band(s_total)
            q = p1.c0 + p1.width * n[1]
            assert np.allclose(q, p1.hi * np.exp(-(a + (b - a) * np.sin(theta / 2.0) ** 2)), rtol=1e-13, atol=0.0)
