"""The central collection infrastructure (the Georgia-Tech side).

Routers upload to one server; heartbeats cross a lossy network path
(:mod:`repro.collection.path`), the server assembles the six data sets
(:mod:`repro.collection.server` / :mod:`repro.collection.storage`), and
:mod:`repro.collection.export` round-trips everything to CSV/JSON the way
the paper publicly released its non-PII data.
"""

from repro.collection.path import CollectionPath, PathConfig
from repro.collection.server import CollectionServer, UploadRejected
from repro.collection.storage import RecordStore
from repro.collection.netserve import (
    IngestClient,
    IngestDaemon,
    ServeConfig,
    run_campaign_over_socket,
)
from repro.collection.loadgen import (
    LoadConfig,
    LoadReport,
    run_load,
    run_load_over_loopback,
)
from repro.collection.export import export_study, load_study
from repro.collection.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    CheckpointManager,
    campaign_fingerprint,
)
from repro.collection.faults import FaultPlan, FaultSpec, InjectedFault
from repro.collection.engine import (
    ShardFailed,
    resume_campaign,
    run_campaign,
)

__all__ = [
    "CollectionPath",
    "PathConfig",
    "CollectionServer",
    "UploadRejected",
    "RecordStore",
    "IngestClient",
    "IngestDaemon",
    "ServeConfig",
    "run_campaign_over_socket",
    "LoadConfig",
    "LoadReport",
    "run_load",
    "run_load_over_loopback",
    "export_study",
    "load_study",
    "CampaignCheckpoint",
    "CheckpointError",
    "CheckpointManager",
    "campaign_fingerprint",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ShardFailed",
    "resume_campaign",
    "run_campaign",
]
