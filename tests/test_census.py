from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qge
from qge import (
    Graph,
    ParameterError,
    ValidationError,
    WorkBudgetError,
    census_report,
    cycle_bond_census,
    generate_random_regular,
    girth,
    lemma_sides,
    near_cycle_census,
)

from conftest import (
    assert_same_returns,
    cage46,
    k5,
    oracle_cycle_census,
    oracle_min_return,
    oracle_near_census,
    petersen,
)


def bfs_min_return_lengths(bi, cap):
    """The one-directional search the meet-in-the-middle one replaced: a
    full BFS from the successors of each bond until it returns."""
    two_b = bi.num_directed
    succ = bi.successors.tolist()
    out = [None] * two_b
    for b0 in range(bi.B):
        dist = [-1] * two_b
        queue = deque()
        for c in succ[b0]:
            dist[c] = 1
            queue.append(c)
        found = None
        while queue:
            b = queue.popleft()
            if dist[b] >= cap:
                continue
            for c in succ[b]:
                if c == b0:
                    found = dist[b] + 1
                    queue.clear()
                    break
                if dist[c] < 0:
                    dist[c] = dist[b] + 1
                    queue.append(c)
        if found is not None and found <= cap:
            out[b0] = found
            out[b0 + bi.B] = found
    return out


class TestCycleCensus:
    def test_k5_t3_all_edges(self):
        assert cycle_bond_census(k5(), 3) == frozenset(range(10))

    def test_petersen_below_girth_empty(self):
        assert cycle_bond_census(petersen(), 4) == frozenset()

    def test_petersen_t5_all_edges(self):
        # oracle: every edge closes a non-backtracking walk of length 5
        pet = petersen()
        assert oracle_cycle_census(pet, 5) == frozenset(range(15))
        assert cycle_bond_census(pet, 5) == frozenset(range(15))

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(4):
            g = generate_random_regular(20, 4, seed=seed)
            for t in (3, 4, 5, 6):
                assert cycle_bond_census(g, t) == oracle_cycle_census(g, t)

    def test_monotone_in_t(self):
        g = generate_random_regular(24, 4, seed=11)
        prev = frozenset()
        for t in range(3, 9):
            cur = cycle_bond_census(g, t)
            assert prev <= cur
            prev = cur

    def test_empty_below_girth(self):
        for g in (petersen(), cage46()):
            gth = girth(g)
            for t in range(3, gth):
                assert cycle_bond_census(g, t) == frozenset()
            assert cycle_bond_census(g, gth) != frozenset()

    def test_precondition(self):
        with pytest.raises(ParameterError):
            cycle_bond_census(k5(), 2)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(qge.census, "DEFAULT_WORK_BUDGET", 10)
        with pytest.raises(WorkBudgetError):
            cycle_bond_census(k5(), 8)

    def test_direct_search_checks_the_budget(self, monkeypatch):
        # the search itself refuses, before any block of roots runs
        def search(*args):
            raise AssertionError("a block ran over the budget")

        g = generate_random_regular(30, 4, seed=2)
        monkeypatch.setattr(qge.census, "_block_returns", search)
        monkeypatch.setattr(qge.census, "DEFAULT_WORK_BUDGET", qge.census._search_cost(g.bond_index, 6) - 1)
        with pytest.raises(WorkBudgetError, match="census search to length 6 estimated cost"):
            qge.census.min_return_lengths(g.bond_index, 6)


class TestWorkBudget:
    @pytest.mark.parametrize("n,d", [(200, 4), (60, 6), (26, 4)])
    def test_visits_within_estimate(self, monkeypatch, n, d):
        g = cage46() if n == 26 else generate_random_regular(n, d, seed=n)
        visits = []
        advance = qge.census._advance

        def spy(keys, bonds, step):
            visits.append(len(bonds) * step.shape[1])
            return advance(keys, bonds, step)

        monkeypatch.setattr(qge.census, "_advance", spy)
        for cap in range(3, 13):
            visits.clear()
            qge.census.min_return_lengths(g.bond_index, cap)
            # the d seed bonds per root plus every successor scanned
            assert g.B * g.d + sum(visits) <= qge.census._search_cost(g.bond_index, cap)

    def test_default_admits_t6_at_n_1e5(self):
        # graph census --t 6 on an n = 10^5, d = 4 graph searches to length 12
        bi = SimpleNamespace(B=100_000 * 4 // 2, successors=np.empty((0, 3)))
        assert qge.census._search_cost(bi, 12) == 437_200_000
        assert qge.census._search_cost(bi, 12) <= qge.census.DEFAULT_WORK_BUDGET

    def test_charged_at_search_cap(self, monkeypatch):
        g = generate_random_regular(30, 4, seed=2)

        def charged(census, t, cap):
            # runs at a budget of exactly the cost of a search to cap, not below
            cost = qge.census._search_cost(g.bond_index, cap)
            monkeypatch.setattr(qge.census, "DEFAULT_WORK_BUDGET", cost)
            census(g, t)
            monkeypatch.setattr(qge.census, "DEFAULT_WORK_BUDGET", cost - 1)
            with pytest.raises(WorkBudgetError):
                census(g, t)

        for t in (2, 3):
            for census in (census_report, near_cycle_census, lemma_sides):
                charged(census, t, 2 * t)
        charged(cycle_bond_census, 5, 5)


class TestMinReturnLengths:
    def test_matches_oracle(self):
        g = generate_random_regular(16, 4, seed=3)
        assert_same_returns(qge.census.min_return_lengths(g.bond_index, 8), oracle_min_return(g, 8))

    @pytest.mark.parametrize("graph", [k5, petersen, cage46])
    def test_matches_oracle_all_caps(self, graph):
        g = graph()
        for cap in range(3, 13):
            assert_same_returns(qge.census.min_return_lengths(g.bond_index, cap), oracle_min_return(g, cap))

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 12, 14, 16]),
        d=st.sampled_from([3, 4, 5]),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_matches_oracle_random(self, n, d, seed):
        g = generate_random_regular(n, d, seed=seed)
        for cap in range(3, 13):
            assert_same_returns(qge.census.min_return_lengths(g.bond_index, cap), oracle_min_return(g, cap))

    def test_matches_full_bfs_n200(self):
        g = generate_random_regular(200, 4, seed=29)
        ours = qge.census.min_return_lengths(g.bond_index, 12)
        assert_same_returns(ours, bfs_min_return_lengths(g.bond_index, 12))

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 12, 14, 16]),
        d=st.sampled_from([3, 4, 5]),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        block=st.integers(min_value=1, max_value=5),
    )
    def test_blocks_of_few_roots(self, n, d, seed, block):
        # every block boundary starts a new stamp generation
        g = generate_random_regular(n, d, seed=seed)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(qge.census, "_BLOCK", block)
            for cap in range(3, 13):
                ours = qge.census.min_return_lengths(g.bond_index, cap)
                assert_same_returns(ours, oracle_min_return(g, cap))
                assert_same_returns(ours, bfs_min_return_lengths(g.bond_index, cap))

    def test_blocks_of_few_roots_n200(self, monkeypatch):
        g = generate_random_regular(200, 4, seed=29)
        oracle = oracle_min_return(g, 12)
        assert bfs_min_return_lengths(g.bond_index, 12) == oracle
        # at one root per block the 400 blocks wrap the 255 stamp generations
        for block in (1, 3, 7):
            monkeypatch.setattr(qge.census, "_BLOCK", block)
            assert_same_returns(qge.census.min_return_lengths(g.bond_index, 12), oracle)

    def test_stamp_bytes_cap_the_block(self, monkeypatch):
        g = generate_random_regular(200, 4, seed=29)
        sizes = []
        search = qge.census._block_returns

        def spy(roots, *args):
            sizes.append(len(roots))
            return search(roots, *args)

        monkeypatch.setattr(qge.census, "_block_returns", spy)
        monkeypatch.setattr(qge.census, "_STAMP_BYTES", 2 * 5 * 2 * g.B + 1)
        ours = qge.census.min_return_lengths(g.bond_index, 12)
        assert_same_returns(ours, bfs_min_return_lengths(g.bond_index, 12))
        assert sizes == [5] * 80

    def test_reversal_symmetry(self):
        g = petersen()
        ret = qge.census.min_return_lengths(g.bond_index, 7)
        np.testing.assert_array_equal(ret[: g.B], ret[g.B :])


class TestNearCycleCensus:
    def test_petersen_t2_empty(self):
        assert near_cycle_census(petersen(), 2) == frozenset()

    def test_k5_t2_all_directed(self):
        assert near_cycle_census(k5(), 2) == frozenset(range(20))

    def test_matches_oracle(self):
        for g in (k5(), petersen()):
            for t in (2, 3, 4):
                assert near_cycle_census(g, t) == oracle_near_census(g, t)
        for seed in range(3):
            g = generate_random_regular(18, 4, seed=seed)
            for t in (2, 3):
                assert near_cycle_census(g, t) == oracle_near_census(g, t)

    def test_monotone_in_t(self):
        g = generate_random_regular(20, 4, seed=5)
        prev = frozenset()
        for t in range(2, 6):
            cur = near_cycle_census(g, t)
            assert prev <= cur
            prev = cur

    def test_empty_when_2t_below_girth(self):
        g = cage46()  # girth 6
        assert near_cycle_census(g, 2) == frozenset()
        assert near_cycle_census(g, 3) != frozenset()

    def test_precondition(self):
        with pytest.raises(ParameterError):
            near_cycle_census(k5(), 1)


class TestCensusInequality:
    def test_exact_integer_inequality(self):
        graphs = [k5(), petersen()]
        graphs += [generate_random_regular(20, 4, seed=s) for s in range(3)]
        for g in graphs:
            for t in (2, 3):
                lhs, rhs = lemma_sides(g, t)
                assert isinstance(lhs, int)
                assert isinstance(rhs, Fraction)
                assert lhs <= rhs

    def test_random_n20_t3_example(self):
        g = generate_random_regular(20, 4, seed=1)
        # both sides computed independently of lemma_sides
        lhs = len(oracle_near_census(g, 3))
        rhs = Fraction(3**2 * 2 * len(oracle_cycle_census(g, 6)), 2)
        assert lhs <= rhs
        assert lemma_sides(g, 3) == (lhs, rhs)

    def test_one_search_matches_separate_censuses(self, monkeypatch):
        # the graphs of criterion 10
        graphs = [k5(), petersen()]
        sizes = [12, 14, 16, 18, 20, 22, 24, 26, 28, 30]
        graphs += [generate_random_regular(n, 4, seed=s) for s, n in enumerate(sizes)]
        search = qge.census.min_return_lengths
        for g in graphs:
            for t in (2, 3, 4):
                c_directed = 2 * len(cycle_bond_census(g, 2 * t))
                separate = (
                    len(near_cycle_census(g, t)),
                    Fraction((g.d - 1) ** (t - 1) * c_directed, g.d - 2),
                )
                caps = []

                def spy(bi, cap):
                    caps.append(cap)
                    return search(bi, cap)

                with monkeypatch.context() as m:
                    m.setattr(qge.census, "min_return_lengths", spy)
                    assert lemma_sides(g, t) == separate
                assert caps == [2 * t]


class TestCensusReport:
    def test_petersen_report(self):
        rep = census_report(petersen(), 4)
        assert rep.c_set == frozenset()
        assert rep.to_json_dict() == {"t": 4, "c_bonds": [], "t_bonds": sorted(rep.t_set)}

    def test_matches_separate_censuses(self):
        graphs = [k5(), petersen(), cage46()]
        graphs += [generate_random_regular(24, 4, seed=s) for s in range(3)]
        for g in graphs:
            for t in (2, 3, 4):
                rep = census_report(g, t)
                assert rep.c_set == (cycle_bond_census(g, t) if t >= 3 else frozenset())
                assert rep.t_set == near_cycle_census(g, t)

    def test_t2_report_has_empty_cycle_set(self):
        rep = census_report(k5(), 2)
        assert rep.c_set == frozenset()
        assert rep.t_set == frozenset(range(20))

    def test_search_missing_every_cycle_is_corrupt(self, monkeypatch):
        # K5 has triangles, so its cycle census at t = 3 cannot be empty
        monkeypatch.setattr(qge.census, "min_return_lengths", lambda bi, cap: np.full(bi.num_directed, np.nan))
        with pytest.raises(ValidationError, match="census is corrupt"):
            census_report(k5(), 3)

    def test_search_finding_a_cycle_below_girth_is_corrupt(self, monkeypatch):
        # Petersen has girth 5, so its cycle census at t = 4 must be empty
        monkeypatch.setattr(qge.census, "min_return_lengths", lambda bi, cap: np.full(bi.num_directed, 4.0))
        with pytest.raises(ValidationError, match="census is corrupt"):
            census_report(petersen(), 4)


class TestRelabelling:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([8, 12, 16, 24, 30]),
        d=st.sampled_from([3, 4, 5]),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        relabel=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_invariant_under_relabelling(self, n, d, seed, relabel):
        # permute the vertices, reorder the edge list and reverse some edges
        g = generate_random_regular(n, d, seed=seed)
        rng = np.random.default_rng(relabel)
        order = rng.permutation(g.B)  # edge i of h is edge order[i] of g
        flip = rng.random(g.B) < 0.5
        edges = rng.permutation(n)[g.edges]
        edges[flip] = edges[flip, ::-1]
        h = Graph(n=n, d=d, edges=edges[order])
        edge_map = np.argsort(order)
        e = np.arange(2 * g.B) % g.B
        bond_map = edge_map[e] + g.B * ((np.arange(2 * g.B) >= g.B) ^ flip[e])

        assert girth(h) == girth(g)
        ret_g = qge.census.min_return_lengths(g.bond_index, 12)
        ret_h = qge.census.min_return_lengths(h.bond_index, 12)
        np.testing.assert_array_equal(ret_h[bond_map], ret_g)
        for t in (2, 3, 4):
            rep_g, rep_h = census_report(g, t), census_report(h, t)
            assert rep_h.c_set == frozenset(edge_map[sorted(rep_g.c_set)].tolist())
            assert rep_h.t_set == frozenset(bond_map[sorted(rep_g.t_set)].tolist())
