"""Tests for Algorithm 2 (compact elimination / surviving numbers) — repro.core.surviving."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.exact_kcore import coreness
from repro.core.rounds import guarantee_after_rounds
from repro.core.surviving import (
    compact_elimination,
    iterate_to_fixed_point,
    run_compact_elimination,
)
from repro.engine.kernels import compact_trajectory
from repro.errors import AlgorithmError
from repro.graph.csr import graph_to_csr
from repro.graph.generators.random_graphs import barabasi_albert, erdos_renyi_gnp
from repro.graph.generators.structured import complete_graph, cycle_graph, path_graph, star_graph
from repro.graph.generators.weights import with_uniform_integer_weights
from repro.graph.graph import Graph


class TestKnownValues:
    def test_first_round_equals_weighted_degree(self, small_weighted):
        result = compact_elimination(small_weighted, rounds=1)
        for v in small_weighted.nodes():
            assert result.values[v] == pytest.approx(small_weighted.degree(v))

    def test_complete_graph_reaches_coreness_immediately(self, k6):
        # In K6 the surviving number is n-1 = coreness from round 2 onwards.
        result = compact_elimination(k6, rounds=2)
        assert all(v == pytest.approx(5.0) for v in result.values.values())

    def test_star_converges_to_one(self):
        g = star_graph(6)
        result = compact_elimination(g, rounds=2)
        assert result.values[0] == pytest.approx(1.0)      # centre
        assert result.values[1] == pytest.approx(1.0)      # leaf

    def test_cycle_values_are_two(self, cycle8):
        result = compact_elimination(cycle8, rounds=3)
        assert set(result.values.values()) == {2.0}

    def test_path_values_converge_to_one(self):
        g = path_graph(9)
        # Convergence needs about n/2 rounds on a path; run enough rounds.
        result = compact_elimination(g, rounds=9)
        assert set(result.values.values()) == {1.0}

    def test_isolated_node_value_is_zero(self):
        g = Graph(nodes=[0, 1], edges=[(0, 1)])
        g.add_node(2)
        result = compact_elimination(g, rounds=2)
        assert result.values[2] == 0.0

    def test_self_loop_floor(self):
        g = Graph(edges=[(0, 0, 4.0), (0, 1, 1.0)])
        result = compact_elimination(g, rounds=3)
        assert result.values[0] >= 4.0
        assert result.values[1] == pytest.approx(1.0)

    def test_small_weighted_exact_values(self, small_weighted):
        # After 2+ rounds: triangle nodes stabilise at 6 (their coreness), node 3 at 1.
        result = compact_elimination(small_weighted, rounds=3)
        assert result.values[0] == pytest.approx(6.0)
        assert result.values[1] == pytest.approx(6.0)
        assert result.values[2] == pytest.approx(6.0)
        assert result.values[3] == pytest.approx(1.0)


class TestEngineEquivalence:
    @pytest.mark.parametrize("rounds", [1, 2, 4])
    def test_vectorized_matches_simulation_unweighted(self, ba_graph, rounds):
        sim, _ = run_compact_elimination(ba_graph, rounds, track_kept=False)
        vec = compact_elimination(ba_graph, rounds, engine="vectorized", track_kept=False)
        for v in ba_graph.nodes():
            assert vec.values[v] == pytest.approx(sim.values[v])

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_vectorized_matches_simulation_weighted(self, ba_weighted, rounds):
        sim, _ = run_compact_elimination(ba_weighted, rounds, track_kept=False)
        vec = compact_elimination(ba_weighted, rounds, engine="vectorized", track_kept=False)
        for v in ba_weighted.nodes():
            assert vec.values[v] == pytest.approx(sim.values[v])

    def test_vectorized_matches_simulation_with_lambda(self, ba_weighted):
        sim, _ = run_compact_elimination(ba_weighted, 4, lam=0.25, track_kept=False)
        vec = compact_elimination(ba_weighted, 4, lam=0.25, engine="vectorized",
                                  track_kept=False)
        for v in ba_weighted.nodes():
            assert vec.values[v] == pytest.approx(sim.values[v])

    def test_kept_sets_match_between_engines(self, two_communities):
        sim, _ = run_compact_elimination(two_communities, 4, track_kept=True)
        vec = compact_elimination(two_communities, 4, engine="vectorized", track_kept=True)
        assert sim.kept == vec.kept

    def test_unknown_engine_rejected(self, k6):
        with pytest.raises(AlgorithmError):
            compact_elimination(k6, 2, engine="quantum")


class TestTrajectoryProperties:
    def test_trajectory_shape_and_initial_row(self, cycle8):
        csr = graph_to_csr(cycle8)
        traj = compact_trajectory(csr, 5)
        assert traj.shape == (6, 8)
        assert np.all(np.isinf(traj[0]))

    def test_trajectory_monotone_non_increasing(self, ba_graph):
        csr = graph_to_csr(ba_graph)
        traj = compact_trajectory(csr, 8)
        assert np.all(traj[1:] <= traj[:-1] + 1e-12)

    def test_trajectory_lower_bounded_by_coreness(self, ba_graph):
        """Lemma III.2: surviving numbers never drop below the coreness."""
        csr = graph_to_csr(ba_graph)
        traj = compact_trajectory(csr, 10)
        exact = coreness(ba_graph)
        labels = csr.labels()
        for i, label in enumerate(labels):
            assert traj[10, i] >= exact[label] - 1e-9

    def test_zero_rounds_allowed(self, k6):
        traj = compact_trajectory(graph_to_csr(k6), 0)
        assert traj.shape == (1, 6)

    def test_lambda_rounding_never_increases_values(self, ba_weighted):
        csr = graph_to_csr(ba_weighted)
        exact_traj = compact_trajectory(csr, 5, lam=0.0)
        rounded_traj = compact_trajectory(csr, 5, lam=0.5)
        assert np.all(rounded_traj[5] <= exact_traj[5] + 1e-12)

    def test_lambda_rounding_respects_corollary_iii10(self, ba_weighted):
        """b_v >= c(v)/(1+λ) under Λ-rounding (Corollary III.10, lower side)."""
        lam = 0.5
        csr = graph_to_csr(ba_weighted)
        traj = compact_trajectory(csr, 12, lam=lam)
        exact = coreness(ba_weighted)
        labels = csr.labels()
        for i, label in enumerate(labels):
            assert traj[12, i] >= exact[label] / (1 + lam) - 1e-9


class TestFixedPoint:
    def test_fixed_point_equals_exact_coreness_unweighted(self, ba_graph):
        csr = graph_to_csr(ba_graph)
        values, rounds = iterate_to_fixed_point(csr)
        exact = coreness(ba_graph)
        labels = csr.labels()
        for i, label in enumerate(labels):
            assert values[i] == pytest.approx(exact[label])
        assert 1 <= rounds <= ba_graph.num_nodes

    def test_fixed_point_equals_exact_coreness_weighted(self, small_weighted):
        csr = graph_to_csr(small_weighted)
        values, _ = iterate_to_fixed_point(csr)
        exact = coreness(small_weighted)
        labels = csr.labels()
        for i, label in enumerate(labels):
            assert values[i] == pytest.approx(exact[label])

    def test_max_rounds_cap_is_respected(self, ba_graph):
        csr = graph_to_csr(ba_graph)
        _, rounds = iterate_to_fixed_point(csr, max_rounds=2)
        assert rounds <= 2


class TestSurvivingNumbersResult:
    def test_guarantee_property(self, k6):
        result = compact_elimination(k6, rounds=3)
        assert result.guarantee == pytest.approx(guarantee_after_rounds(6, 3))

    def test_value_of_accessor(self, k6):
        result = compact_elimination(k6, rounds=2)
        assert result.value_of(0) == result.values[0]

    def test_simulation_records_stats(self, triangle):
        result, run = run_compact_elimination(triangle, 2)
        assert "rounds=2" in result.stats_summary
        assert run.stats.total_messages == 3 * 2 * 2

    def test_rounds_must_be_positive(self, k6):
        with pytest.raises(AlgorithmError):
            compact_elimination(k6, 0)
        with pytest.raises(AlgorithmError):
            run_compact_elimination(k6, 0)

    def test_invalid_tie_break_rejected(self, k6):
        with pytest.raises(AlgorithmError):
            compact_elimination(k6, 2, engine="simulation", tie_break="bogus")


class TestGuaranteeOnRandomGraphs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_theorem_i1_upper_bound_er(self, seed):
        g = erdos_renyi_gnp(60, 0.08, seed=seed)
        exact = coreness(g)
        for T in (2, 4, 6):
            result = compact_elimination(g, rounds=T, track_kept=False)
            bound = guarantee_after_rounds(g.num_nodes, T)
            for v in g.nodes():
                assert exact[v] - 1e-9 <= result.values[v]
                # The theorem bounds b by gamma * r(v) <= gamma * c(v).
                assert result.values[v] <= bound * max(exact[v], 0.0) + 1e-9 or exact[v] == 0

    def test_theorem_i1_upper_bound_weighted_ba(self):
        g = with_uniform_integer_weights(barabasi_albert(80, 3, seed=3), 1, 7, seed=4)
        exact = coreness(g)
        T = 5
        result = compact_elimination(g, rounds=T, track_kept=False)
        bound = guarantee_after_rounds(g.num_nodes, T)
        for v in g.nodes():
            assert exact[v] - 1e-9 <= result.values[v] <= bound * exact[v] + 1e-9
