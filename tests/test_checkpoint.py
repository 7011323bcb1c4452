"""Crash-safe campaign checkpoints and resume.

A checkpointed campaign killed mid-flight and resumed later must yield a
``study_digest`` bitwise-identical to the uninterrupted run — that is
the whole point of recording the path-RNG state and the spill manifest.
"""

import json

import pytest

from repro import StudyConfig, run_study, study_digest
from repro.cli import main
from repro.collection.checkpoint import (
    CHECKPOINT_NAME,
    CampaignCheckpoint,
    CheckpointError,
    CheckpointManager,
    campaign_fingerprint,
)
from repro.collection.engine import ShardFailed, resume_campaign, run_campaign
from repro.collection.faults import FaultPlan, FaultSpec
from repro.collection.path import PathConfig
from repro.collection.storage import RecordStore
from repro.simulation.deployment import DeploymentConfig, build_deployment_plan
from repro.simulation.timebase import StudyWindows

SMALL = DeploymentConfig(
    seed=11, windows=StudyWindows().scaled(0.02), router_scale=0.05,
    traffic_consents=2, low_activity_consents=0,
    countries=("US", "IN", "BR"))

SHARD_SIZE = 1

#: A crash on shard 2's only allowed attempt kills the campaign partway
#: through — the "pull the plug" fixture for resume tests.
KILL_AT_2 = dict(max_shard_retries=0, retry_backoff=0.0,
                 fault_plan=FaultPlan((FaultSpec(shard=2, kind="crash"),)))


@pytest.fixture(scope="module")
def plan():
    return build_deployment_plan(SMALL)


@pytest.fixture(scope="module")
def reference_data(plan):
    return run_campaign(plan, shard_size=SHARD_SIZE)


@pytest.fixture(scope="module")
def reference(reference_data):
    return study_digest(reference_data)


class TestFingerprint:
    def test_stable_and_sensitive(self, plan):
        base = campaign_fingerprint(plan, 11, 5, PathConfig())
        assert base == campaign_fingerprint(plan, 11, 5, PathConfig())
        assert base != campaign_fingerprint(plan, 12, 5, PathConfig())
        assert base != campaign_fingerprint(plan, 11, 4, PathConfig())
        assert base != campaign_fingerprint(
            plan, 11, 5, PathConfig(packet_loss=0.0))

    def test_malformed_payload_rejected(self):
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.from_dict({"fingerprint": "x"})


class TestCheckpointManager:
    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path / "ckpt").load()

    def test_version_mismatch_rejected(self, tmp_path, plan):
        run_campaign(plan, shard_size=SHARD_SIZE,
                     checkpoint_dir=tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / CHECKPOINT_NAME
        payload = json.loads(manifest.read_text())
        # Version 1 manifests kept upload fingerprints in the store state.
        for version in (999, 1):
            payload["version"] = version
            manifest.write_text(json.dumps(payload))
            with pytest.raises(CheckpointError):
                CheckpointManager(tmp_path / "ckpt").load()

    def test_manifest_written_and_complete(self, tmp_path, plan):
        manager = CheckpointManager(tmp_path / "ckpt")
        run_campaign(plan, shard_size=SHARD_SIZE,
                     checkpoint_dir=manager.directory)
        checkpoint = manager.load()
        assert checkpoint.complete
        assert checkpoint.shards_ingested == checkpoint.n_shards == len(plan)
        assert (manager.store_dir / "runs").exists()

    def test_engine_owns_store_when_checkpointing(self, tmp_path, plan):
        with pytest.raises(ValueError):
            run_campaign(plan, checkpoint_dir=tmp_path / "ckpt",
                         store=RecordStore(plan.windows))
        with pytest.raises(ValueError):
            run_campaign(plan, resume=True)


class TestKillAndResume:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_resume_is_bitwise_identical(self, tmp_path, plan, reference,
                                         workers):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(ShardFailed):
            run_campaign(plan, shard_size=SHARD_SIZE, workers=workers,
                         checkpoint_dir=ckpt, **KILL_AT_2)
        checkpoint = CheckpointManager(ckpt).load()
        assert not checkpoint.complete
        assert checkpoint.shards_ingested < checkpoint.n_shards
        data = resume_campaign(plan, ckpt, shard_size=SHARD_SIZE,
                               workers=workers)
        assert study_digest(data) == reference

    def test_resume_under_different_worker_count(self, tmp_path, plan,
                                                 reference):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(ShardFailed):
            run_campaign(plan, shard_size=SHARD_SIZE, checkpoint_dir=ckpt,
                         **KILL_AT_2)
        data = resume_campaign(plan, ckpt, shard_size=SHARD_SIZE, workers=3)
        assert study_digest(data) == reference

    def test_resume_preserves_archive_row_order(self, tmp_path, plan,
                                                reference_data):
        # study_digest canonicalizes ordering, so it alone would miss a
        # checkpoint round-trip that alphabetizes the store's dicts —
        # the archive CSVs iterate them in insertion (ingest) order.
        ckpt = tmp_path / "ckpt"
        with pytest.raises(ShardFailed):
            run_campaign(plan, shard_size=SHARD_SIZE, checkpoint_dir=ckpt,
                         **KILL_AT_2)
        data = resume_campaign(plan, ckpt, shard_size=SHARD_SIZE)
        assert list(data.routers) == list(reference_data.routers)
        assert list(data.heartbeats) == list(reference_data.heartbeats)
        assert list(data.heartbeat_delivery) == \
            list(reference_data.heartbeat_delivery)

    def test_resume_of_complete_campaign(self, tmp_path, plan, reference):
        ckpt = tmp_path / "ckpt"
        run_campaign(plan, shard_size=SHARD_SIZE, checkpoint_dir=ckpt)
        data = resume_campaign(plan, ckpt, shard_size=SHARD_SIZE)
        assert study_digest(data) == reference

    def test_resume_rejects_different_campaign(self, tmp_path, plan):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(ShardFailed):
            run_campaign(plan, shard_size=SHARD_SIZE, checkpoint_dir=ckpt,
                         **KILL_AT_2)
        with pytest.raises(CheckpointError):
            resume_campaign(plan, ckpt, seed=999, shard_size=SHARD_SIZE)
        with pytest.raises(CheckpointError):
            # A different shard layout replays different ingest units.
            resume_campaign(plan, ckpt, shard_size=2)

    def test_resume_without_checkpoint(self, tmp_path, plan):
        with pytest.raises(CheckpointError):
            resume_campaign(plan, tmp_path / "nothing",
                            shard_size=SHARD_SIZE)


class TestStudyConfigAndCli:
    CONFIG = dict(seed=5, router_scale=0.05, duration_scale=0.02,
                  traffic_consents=2, low_activity_consents=0)

    def test_run_study_checkpoint_and_resume(self, tmp_path):
        reference = study_digest(run_study(StudyConfig(**self.CONFIG)).data)
        config = StudyConfig(checkpoint_dir=str(tmp_path / "ckpt"),
                             shard_size=1, max_shard_retries=0,
                             **self.CONFIG)
        with pytest.raises(ShardFailed):
            run_study(config,
                      fault_plan=FaultPlan((FaultSpec(shard=1,
                                                      kind="crash"),)))
        data = run_study(config, resume=True).data
        assert study_digest(data) == reference

    def test_study_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(max_shard_retries=-1)
        with pytest.raises(ValueError):
            StudyConfig(shard_timeout=-5.0)

    def test_cli_checkpoint_flag_writes_manifest(self, tmp_path, capsys):
        args = ["--seed", "5", "--scale", "0.05", "--duration", "0.02",
                "--consents", "2"]
        ckpt = tmp_path / "ckpt"
        assert main(["run", "--out", str(tmp_path / "archive"),
                     "--checkpoint-dir", str(ckpt)] + args) == 0
        assert (ckpt / CHECKPOINT_NAME).exists()
        capsys.readouterr()

    def test_cli_resume_requires_checkpoint_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--out", str(tmp_path / "a"), "--resume",
                  "--seed", "5", "--scale", "0.05", "--duration", "0.02"])
