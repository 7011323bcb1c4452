"""The campaign engine's invariants: sharding, parallelism, spill backend.

The load-bearing contract: for a fixed seed, *how* a campaign is executed
(worker count, shard size, store backend) must never change *what* it
collects — ``study_digest`` equality is the oracle.
"""

import dataclasses
import pickle

import pytest

from repro import StudyConfig, run_study, study_digest
from repro.collection.backends import MemoryBackend, SpillBackend
from repro.collection.batches import ColumnarRecords
from repro.collection.engine import run_campaign, run_shard, shard_count
from repro.collection.path import PathConfig
from repro.collection.storage import RecordStore
from repro.simulation.deployment import (
    DeploymentConfig,
    build_deployment_plan,
    materialize_shard,
)
from repro.simulation.timebase import StudyWindows

#: A deliberately tiny deployment (5 homes across 3 countries) so each
#: test can afford several full collection passes.
SMALL = DeploymentConfig(
    seed=11, windows=StudyWindows().scaled(0.02), router_scale=0.05,
    traffic_consents=2, low_activity_consents=0,
    countries=("US", "IN", "BR"))

#: No path loss, so record-level comparisons are exact without relying on
#: the shared-path rng (which engine ordering already pins elsewhere).
LOSSLESS = PathConfig(packet_loss=0.0, outage_rate_per_day=0.0)


@pytest.fixture(scope="module")
def plan():
    return build_deployment_plan(SMALL)


@pytest.fixture(scope="module")
def serial_data(plan):
    return run_campaign(plan, workers=1)


class TestShardPartition:
    def test_shards_partition_homes(self, plan):
        for n_shards in (1, 2, 3, len(plan), len(plan) + 4):
            ids = [config.router_id
                   for index in range(n_shards)
                   for config in plan.shard_configs(index, n_shards)]
            assert ids == plan.router_ids

    def test_more_shards_than_homes(self, plan):
        n_shards = len(plan) + 3
        sizes = [len(plan.shard_configs(index, n_shards))
                 for index in range(n_shards)]
        assert sum(sizes) == len(plan)
        assert max(sizes) == 1  # no shard ever gets more than its share

    def test_single_home_plan(self):
        plan = build_deployment_plan(DeploymentConfig(
            seed=3, windows=StudyWindows().scaled(0.02), router_scale=0.05,
            traffic_consents=0, low_activity_consents=0, countries=("TH",)))
        assert len(plan) == 1
        assert plan.shard_bounds(0, 4) == (0, 0)
        assert plan.shard_bounds(3, 4) == (0, 1)
        homes = materialize_shard(plan, 3, 4)
        assert [h.router_id for h in homes] == plan.router_ids
        data = run_campaign(plan, workers=2, shard_size=1)
        assert set(data.routers) == set(plan.router_ids)

    def test_shard_bounds_validation(self, plan):
        with pytest.raises(ValueError):
            plan.shard_bounds(0, 0)
        with pytest.raises(ValueError):
            plan.shard_bounds(2, 2)

    def test_shard_count(self):
        assert shard_count(0) == 1
        assert shard_count(5, shard_size=2) == 3
        assert shard_count(5, shard_size=100) == 1
        with pytest.raises(ValueError):
            shard_count(5, shard_size=0)

    def test_materialized_shard_matches_full(self, plan):
        full = materialize_shard(plan, 0, 1)
        part = materialize_shard(plan, 1, 3)
        lo, hi = plan.shard_bounds(1, 3)
        for a, b in zip(full[lo:hi], part):
            assert a.router_id == b.router_id
            assert a.link.config.downstream_mbps == \
                b.link.config.downstream_mbps
            assert [d.mac for d in a.devices] == [d.mac for d in b.devices]

    def test_run_shard_empty_slice(self, plan):
        n_shards = len(plan) + 2
        assert plan.shard_bounds(0, n_shards) == (0, 0)
        assert run_shard(plan, 0, n_shards) == []

    def test_plan_is_picklable(self, plan):
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.router_ids == plan.router_ids
        assert clone.wifi_routers == plan.wifi_routers


class TestEngineDeterminism:
    def test_shard_size_is_invisible(self, plan, serial_data):
        reference = study_digest(serial_data)
        for shard_size in (1, 2, 100):
            data = run_campaign(plan, shard_size=shard_size)
            assert study_digest(data) == reference

    def test_parallel_equals_serial(self, plan, serial_data):
        parallel = run_campaign(plan, workers=2, shard_size=2)
        assert study_digest(parallel) == study_digest(serial_data)

    def test_run_study_workers_equal(self):
        config = StudyConfig(seed=404, router_scale=0.1, duration_scale=0.02,
                             traffic_consents=3, low_activity_consents=1)
        serial = run_study(config)
        parallel = run_study(dataclasses.replace(config, workers=4))
        assert study_digest(parallel.data) == study_digest(serial.data)

    def test_run_study_config_workers_field(self):
        config = StudyConfig(seed=404, router_scale=0.05, duration_scale=0.02,
                             traffic_consents=2, low_activity_consents=0,
                             workers=2, shard_size=3)
        result = run_study(config)
        assert len(result.data.routers) == len(result.deployment)

    def test_workers_validation(self, plan):
        with pytest.raises(ValueError):
            run_campaign(plan, workers=0)
        with pytest.raises(ValueError):
            StudyConfig(workers=0)
        with pytest.raises(ValueError):
            StudyConfig(store_backend="redis")


class TestSpillBackend:
    def test_spill_matches_memory_bitwise(self, plan, serial_data):
        backend = SpillBackend(max_buffered_records=64)
        data = run_campaign(plan, store=RecordStore(plan.windows, backend))
        assert study_digest(data) == study_digest(serial_data)

    def test_spill_record_equality(self, plan):
        memory = run_campaign(plan, path_config=LOSSLESS)
        backend = SpillBackend(max_buffered_records=64)
        spilled = run_campaign(plan, path_config=LOSSLESS,
                               store=RecordStore(plan.windows, backend))
        assert spilled.uptime_reports == memory.uptime_reports
        assert spilled.capacity == memory.capacity
        assert spilled.device_counts == memory.device_counts
        assert spilled.roster == memory.roster
        assert spilled.wifi_scans == memory.wifi_scans
        assert spilled.flows == memory.flows
        assert spilled.dns == memory.dns
        # Exports iterate these dicts, so insertion *order* must match the
        # memory backend too, not just the key sets.
        assert list(spilled.heartbeats) == list(memory.heartbeats)
        assert list(spilled.throughput) == list(memory.throughput)
        for rid, series in memory.throughput.items():
            other = spilled.throughput[rid]
            assert other.start == series.start
            # The spill round-trip must not promote an int interval to float.
            assert other.interval_seconds == series.interval_seconds
            assert type(other.interval_seconds) is type(series.interval_seconds)

    def test_peak_residency_bounded(self, plan):
        limit = 128
        backend = SpillBackend(max_buffered_records=limit)
        data = run_campaign(plan, store=RecordStore(plan.windows, backend),
                            shard_size=2)
        total = (len(data.uptime_reports) + len(data.capacity)
                 + len(data.device_counts) + len(data.roster)
                 + len(data.wifi_scans) + len(data.flows) + len(data.dns))
        assert total > limit  # the bound was actually exercised
        # One over-sized batch may exceed the buffer; nothing else may.
        from repro.collection.batches import DEFAULT_BATCH_RECORDS
        assert backend.peak_buffered_records <= max(limit,
                                                    DEFAULT_BATCH_RECORDS)

    def test_spill_uses_given_directory(self, plan, tmp_path):
        backend = SpillBackend(directory=tmp_path / "spill",
                               max_buffered_records=32)
        run_campaign(plan, store=RecordStore(plan.windows, backend))
        runs = list((tmp_path / "spill" / "runs").glob("*.seg"))
        assert runs  # records actually hit disk
        assert list((tmp_path / "spill" / "heartbeats").glob("*.npy"))

    def test_study_config_spill_selection(self, tmp_path):
        config = StudyConfig(seed=7, router_scale=0.05, duration_scale=0.02,
                             traffic_consents=2, low_activity_consents=0,
                             store_backend="spill",
                             spill_dir=str(tmp_path / "campaign"),
                             spill_buffer_records=64)
        store = config.make_store(config.windows())
        assert isinstance(store.backend, SpillBackend)
        assert isinstance(StudyConfig().make_store(
            StudyConfig().windows()).backend, MemoryBackend)


class TestSpillDurability:
    def test_empty_spill_does_not_advance_runs(self, tmp_path):
        backend = SpillBackend(directory=tmp_path, max_buffered_records=4)
        backend.flush()
        backend.flush()
        assert backend._n_runs == 0
        backend.append("uptime", ColumnarRecords(
            "uptime", "r0", {"timestamp": [1.0], "uptime_seconds": [2.0]}))
        backend.flush()
        assert backend._n_runs == 1
        backend.flush()  # nothing buffered: run numbering must hold still
        assert backend._n_runs == 1
        assert [p.name for p in backend._runs["uptime"]] == \
            ["uptime-00000.seg"]

    def test_state_dict_round_trip(self, plan, tmp_path):
        backend = SpillBackend(directory=tmp_path / "spill",
                               max_buffered_records=64)
        data = run_campaign(plan, store=RecordStore(plan.windows, backend))
        # to_study_data already read the runs; snapshot a second backend
        # over the same directory from the recorded state.
        state = backend.state_dict()
        clone = SpillBackend(directory=tmp_path / "spill",
                             max_buffered_records=64)
        clone.restore_state(state)

        def records(dataset):
            return [record for _, home in clone.iter_homes(dataset)
                    for record in home]

        assert [rid for rid, _ in clone.iter_homes("heartbeats")] == \
            list(data.heartbeats)
        assert records("uptime") == data.uptime_reports
        assert records("dns") == data.dns

    def test_restore_requires_fresh_backend(self, plan, tmp_path):
        backend = SpillBackend(directory=tmp_path / "spill",
                               max_buffered_records=64)
        run_campaign(plan, store=RecordStore(plan.windows, backend))
        state = backend.state_dict()
        with pytest.raises(RuntimeError):
            backend.restore_state(state)  # not fresh: already has runs

    def test_restore_rejects_missing_files(self, tmp_path):
        backend = SpillBackend(directory=tmp_path / "a")
        state = backend.state_dict()
        state["runs"]["uptime"] = ["uptime-00099.jsonl"]
        clone = SpillBackend(directory=tmp_path / "b")
        with pytest.raises(RuntimeError):
            clone.restore_state(state)


class TestStudyConfigIsolation:
    def test_path_default_not_shared(self):
        a, b = StudyConfig(), StudyConfig()
        assert a.path is not b.path  # field(default_factory=...) guard
