"""Crash-safe campaign checkpoints: resume an interrupted collection.

A checkpointed campaign can be killed at any moment — a crashed parent,
an exhausted retry budget, a pre-empted VM — and resumed later with a
bitwise-identical final ``StudyData``.  Three facts make that possible:

* all shard randomness derives from ``(seed, router_id)``, so a re-run
  shard reproduces its uploads byte for byte;
* the only ingest-order-sensitive randomness (heartbeat path loss) comes
  from one ``numpy`` generator whose bit-generator state is recorded in
  the checkpoint and restored on resume;
* the record store's contents live in a :class:`SpillBackend` directory
  on disk, and the checkpoint records exactly which spill runs and keyed
  values belong to the ingested prefix — stray files from a partially-
  ingested shard are simply not referenced and get overwritten on re-ingest.

The manifest (``checkpoint.json``) is written atomically (temp file +
``os.replace``) after every shard ingest, and carries a *config
fingerprint* — a hash of the seed, shard layout, deployment membership,
windows, and path-loss config — so resuming under a different
configuration fails loudly instead of silently mixing campaigns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro import trace
from repro.collection.path import PathConfig
from repro.simulation.deployment import DeploymentPlan
from repro.telemetry import events, metrics

logger = logging.getLogger(__name__)

#: Bump when the checkpoint schema changes incompatibly.
CHECKPOINT_VERSION = 2

#: File name of the manifest inside the checkpoint directory.
CHECKPOINT_NAME = "checkpoint.json"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, unreadable, or from another campaign."""


def campaign_fingerprint(plan: DeploymentPlan, seed: int, n_shards: int,
                         path_config: PathConfig) -> str:
    """Hash everything that must match for a resume to be sound.

    Covers the engine seed, the shard layout (a resume replays ingest in
    shard units, so shard boundaries must agree), the deployment
    membership and windows, and the path-loss configuration.  Worker
    count and store buffer sizes are deliberately excluded — the
    determinism contract makes them invisible.
    """
    payload = {
        "seed": seed,
        "plan_seed": plan.seed,
        "n_shards": n_shards,
        "router_ids": plan.router_ids,
        "uptime_routers": sorted(plan.uptime_routers),
        "devices_routers": sorted(plan.devices_routers),
        "wifi_routers": sorted(plan.wifi_routers),
        "traffic_routers": sorted(plan.traffic_routers),
        "windows": {
            name: [repr(float(edge))
                   for edge in getattr(plan.windows, name)]
            for name in ("heartbeats", "uptime", "capacity", "devices",
                         "wifi", "traffic")
        },
        "path": dataclasses.asdict(path_config),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CampaignCheckpoint:
    """The resumable state of a partially-ingested campaign."""

    fingerprint: str
    n_shards: int
    #: Shards fully ingested (the high-water mark; resume starts here).
    shards_ingested: int
    #: True once every shard is ingested (resume just finalizes).
    complete: bool
    #: ``numpy`` bit-generator state of the collection-path RNG.
    path_rng_state: dict
    #: :meth:`RecordStore.state_dict` — registrations and heartbeat
    #: delivery tallies.
    store_state: dict
    #: :meth:`SpillBackend.state_dict` — the spill runs and keyed values
    #: (routers and their scalars) of the ingested prefix.
    backend_state: dict
    version: int = CHECKPOINT_VERSION

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignCheckpoint":
        known = {f.name for f in dataclasses.fields(cls)}
        try:
            return cls(**{k: v for k, v in payload.items() if k in known})
        except TypeError as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc


@dataclass
class CheckpointManager:
    """Owns one checkpoint directory: the manifest plus the spill store."""

    directory: Union[str, Path]
    path: Path = field(init=False)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / CHECKPOINT_NAME

    @property
    def store_dir(self) -> Path:
        """Where the campaign's durable spill store lives."""
        return Path(self.directory) / "store"

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, checkpoint: CampaignCheckpoint) -> None:
        """Atomically replace the manifest (temp file + rename)."""
        with trace.span("checkpoint.write", cat="engine",
                        shards_ingested=checkpoint.shards_ingested):
            tmp = self.path.with_suffix(".json.tmp")
            # No sort_keys: the store state's dict order *is* ingest
            # order, and the archive CSVs iterate those dicts — sorting
            # here would reorder a resumed campaign's export rows.
            tmp.write_text(json.dumps(checkpoint.to_dict(), indent=2))
            os.replace(tmp, self.path)
        metrics.inc("checkpoints_written_total")
        events.emit("checkpoint_written",
                    shards_ingested=checkpoint.shards_ingested,
                    shards=checkpoint.n_shards,
                    complete=checkpoint.complete)
        logger.debug("checkpoint: %d/%d shard(s) ingested",
                     checkpoint.shards_ingested, checkpoint.n_shards)

    def load(self) -> CampaignCheckpoint:
        """Read and validate the manifest (CheckpointError on trouble)."""
        if not self.path.exists():
            raise CheckpointError(
                f"no checkpoint manifest at {self.path} — nothing to resume")
        try:
            payload = json.loads(self.path.read_text())
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"unreadable checkpoint at {self.path}: {exc}") from exc
        checkpoint = CampaignCheckpoint.from_dict(payload)
        if checkpoint.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {checkpoint.version} is not "
                f"supported (expected {CHECKPOINT_VERSION})")
        return checkpoint

    def validate(self, checkpoint: CampaignCheckpoint,
                 fingerprint: str) -> None:
        """Refuse to resume a checkpoint from a different campaign."""
        if checkpoint.fingerprint != fingerprint:
            raise CheckpointError(
                "checkpoint fingerprint mismatch: the checkpoint was "
                "written by a campaign with a different seed, shard "
                "layout, deployment, or path config")
        if checkpoint.shards_ingested > checkpoint.n_shards:
            raise CheckpointError("corrupt checkpoint: high-water mark "
                                  "exceeds shard count")


def write_campaign_checkpoint(manager: CheckpointManager, fingerprint: str,
                              n_shards: int, shards_ingested: int,
                              path, store) -> None:
    """Snapshot the live campaign state after one shard's ingest.

    Flushes the spill backend (``state_dict`` spills any buffered
    records) so everything the manifest references is durably on disk
    before the manifest that references it is renamed into place.
    """
    manager.save(CampaignCheckpoint(
        fingerprint=fingerprint,
        n_shards=n_shards,
        shards_ingested=shards_ingested,
        complete=shards_ingested >= n_shards,
        path_rng_state=path.rng_state(),
        store_state=store.state_dict(),
        backend_state=store.backend.state_dict(),
    ))


__all__ = [
    "CHECKPOINT_VERSION",
    "CHECKPOINT_NAME",
    "CampaignCheckpoint",
    "CheckpointError",
    "CheckpointManager",
    "campaign_fingerprint",
    "write_campaign_checkpoint",
]
