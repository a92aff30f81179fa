"""Tests for the engine registry and engine construction — repro.engine.base."""

from __future__ import annotations

import pytest

from repro.core.surviving import compact_elimination
from repro.engine import (
    Engine,
    available_engines,
    get_engine,
    parse_engine_spec,
    register_engine,
)
from repro.engine.kernels import shard_plan
from repro.engine.vectorized import DEFAULT_SHARD_NODES, VectorizedEngine
from repro.errors import AlgorithmError


class TestRegistryResolution:
    def test_builtin_names_resolve(self):
        assert available_engines() == ("faithful", "vectorized")
        for name in available_engines():
            engine = get_engine(name)
            assert isinstance(engine, Engine)
            assert engine.name == name

    @pytest.mark.parametrize("alias, canonical", [
        ("simulation", "faithful"),
        ("distsim", "faithful"),
        ("numpy", "vectorized"),
        ("sharded", "vectorized"),
    ])
    def test_aliases_resolve(self, alias, canonical):
        assert get_engine(alias).name == canonical

    @pytest.mark.parametrize("spec", ["vectorized", "numpy", "sharded",
                                      "sharded:4", "vectorized:4", "numpy:4"])
    def test_one_class_serves_every_array_spec(self, spec):
        assert type(get_engine(spec)) is VectorizedEngine

    def test_names_are_case_insensitive(self):
        assert get_engine("Vectorized").name == "vectorized"
        assert get_engine("SHARDED:2").num_shards == 2

    def test_unknown_engine_raises(self):
        with pytest.raises(AlgorithmError, match="unknown engine 'quantum'"):
            get_engine("quantum")

    def test_default_is_vectorized(self):
        assert isinstance(get_engine(), VectorizedEngine)

    def test_engine_instance_passes_through(self):
        engine = VectorizedEngine(num_shards=3)
        assert get_engine(engine) is engine

    def test_engine_instance_rejects_extra_options(self):
        with pytest.raises(AlgorithmError, match="already-constructed"):
            get_engine(VectorizedEngine(), num_shards=2)

    def test_non_string_non_engine_rejected(self):
        with pytest.raises(AlgorithmError, match="name string or an Engine"):
            get_engine(42)

    def test_register_custom_engine(self):
        class EchoEngine(VectorizedEngine):
            name = "echo-test"

        register_engine("echo-test", lambda **opts: EchoEngine())
        try:
            assert "echo-test" in available_engines()
            assert get_engine("echo-test").name == "echo-test"
        finally:
            # keep the global registry clean for the other tests
            from repro.engine import base

            base._FACTORIES.pop("echo-test", None)

    def test_compact_elimination_routes_through_registry(self, k6):
        with pytest.raises(AlgorithmError):
            compact_elimination(k6, 2, engine="quantum")
        result = compact_elimination(k6, 2, engine=VectorizedEngine(num_shards=2))
        assert all(v == pytest.approx(5.0) for v in result.values.values())


class TestSpecParsing:
    def test_plain_name(self):
        assert parse_engine_spec("vectorized") == ("vectorized", {})

    def test_positional_shorthand(self):
        assert parse_engine_spec("sharded:4") == ("sharded", {"num_shards": 4})

    def test_key_value_options(self):
        name, options = parse_engine_spec("sharded:num_shards=4,max_workers=2")
        assert name == "sharded"
        assert options == {"num_shards": 4, "max_workers": 2}

    def test_positional_through_alias_namespace(self):
        # parsing resolves the shorthand against the canonical name
        engine = get_engine("sharded:8")
        assert engine.num_shards == 8

    def test_positional_rejected_without_shorthand(self):
        with pytest.raises(AlgorithmError, match="no positional option"):
            get_engine("faithful:4")

    def test_invalid_option_name_raises(self):
        with pytest.raises(AlgorithmError, match="invalid options"):
            get_engine("sharded:bogus_option=1")

    def test_kwargs_override_spec_options(self):
        assert get_engine("sharded:2", num_shards=5).num_shards == 5

    def test_friendly_option_spellings(self):
        """The spellings advertised by the CLI hint resolve too."""
        engine = get_engine("sharded:shards=4,workers=2")
        assert engine.num_shards == 4
        assert engine.max_workers == 2
        engine = get_engine("sharded:shards=4,max_workers=2")
        assert engine.num_shards == 4
        assert engine.max_workers == 2


class TestShardedConstruction:
    def test_invalid_shard_count(self):
        with pytest.raises(AlgorithmError, match="num_shards must be >= 1"):
            VectorizedEngine(num_shards=0)

    def test_invalid_worker_count(self):
        with pytest.raises(AlgorithmError, match="max_workers must be >= 1"):
            VectorizedEngine(max_workers=0)

    def test_auto_plan_scales_with_graph(self):
        engine = VectorizedEngine()
        assert engine.plan_for(100) == ((0, 100),)
        assert engine.plan_for(DEFAULT_SHARD_NODES) == ((0, DEFAULT_SHARD_NODES),)
        assert len(engine.plan_for(DEFAULT_SHARD_NODES + 1)) == 2
        plan = engine.plan_for(40000)
        assert len(plan) == 3

    def test_parallel_mode_validation(self):
        with pytest.raises(AlgorithmError, match="parallel"):
            VectorizedEngine(parallel="gpu")
        assert VectorizedEngine(parallel="none").parallel is None
        assert VectorizedEngine(parallel="THREAD").parallel == "thread"

    def test_workers_without_parallel_means_thread(self):
        engine = VectorizedEngine(num_shards=3, max_workers=2)
        assert engine.parallel == "thread"

    def test_parallel_without_workers_defaults_to_cpu_count(self):
        engine = VectorizedEngine(parallel="thread")
        assert engine.effective_workers() >= 1

    def test_spec_string_resolves_thread_mode(self):
        engine = get_engine("sharded:shards=3,workers=2,parallel=thread")
        assert isinstance(engine, VectorizedEngine)
        assert (engine.num_shards, engine.max_workers, engine.parallel) == \
            (3, 2, "thread")
        assert "threadx2" in engine.describe()

    def test_parallel_auto_plan_covers_workers(self):
        engine = VectorizedEngine(parallel="thread", max_workers=4)
        assert len(engine.plan_for(100)) == 4  # auto-sizing would give 1 shard
        assert len(engine.plan_for(2)) == 2    # still clamped to n

    def test_invalid_workers_rejected(self):
        with pytest.raises(AlgorithmError, match="max_workers"):
            VectorizedEngine(max_workers=0, parallel="thread")

    def test_describe_mentions_configuration(self):
        assert "shards=4" in VectorizedEngine(num_shards=4).describe()

    @pytest.mark.parametrize("build", [
        lambda: get_engine("sharded:parallel=process"),
        lambda: get_engine("vectorized", parallel="process"),
        lambda: VectorizedEngine(num_shards=4, parallel="process"),
    ])
    def test_process_mode_is_rejected_towards_threads(self, build):
        with pytest.raises(AlgorithmError, match="parallel=thread"):
            build()


class TestShardPlan:
    @pytest.mark.parametrize("n, k", [(10, 1), (10, 3), (10, 10), (10, 25), (1, 1)])
    def test_plan_partitions_the_range(self, n, k):
        plan = shard_plan(n, k)
        assert plan[0][0] == 0
        assert plan[-1][1] == n
        for (_, hi), (lo, _) in zip(plan, plan[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in plan]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert len(plan) == min(n, k)

    def test_empty_graph_plan(self):
        assert shard_plan(0, 4) == ((0, 0),)

    def test_invalid_shards(self):
        with pytest.raises(AlgorithmError):
            shard_plan(5, 0)


class TestShardPlanEdgeCases:
    def test_more_shards_than_nodes_clamps_to_n(self):
        plan = shard_plan(3, 10)
        assert plan == ((0, 1), (1, 2), (2, 3))

    def test_empty_graph_yields_single_empty_range(self):
        assert shard_plan(0, 4) == ((0, 0),)
        assert shard_plan(-1, 4) == ((0, 0),)

    def test_single_node(self):
        assert shard_plan(1, 1) == ((0, 1),)
        assert shard_plan(1, 7) == ((0, 1),)

    @pytest.mark.parametrize("n, k", [(10, 3), (11, 4), (7, 2), (100, 7), (5, 5)])
    def test_uneven_ranges_cover_everything_once(self, n, k):
        plan = shard_plan(n, k)
        assert plan[0][0] == 0 and plan[-1][1] == n
        for (_, hi), (lo, _) in zip(plan, plan[1:]):
            assert hi == lo  # contiguous, disjoint
        sizes = [hi - lo for lo, hi in plan]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1  # near-equal
        # the larger shards come first (the divmod remainder)
        assert sizes == sorted(sizes, reverse=True)

    def test_invalid_shard_count_raises(self):
        with pytest.raises(AlgorithmError, match="num_shards"):
            shard_plan(5, 0)
