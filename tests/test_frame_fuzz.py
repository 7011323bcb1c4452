"""Mutated upload frames: the frame decoder and ingest, fuzzed.

Two valid upload payloads are mutated: a campaign upload that carries
every record-list data set and a throughput series (a few records of
each), and a ``synthetic_upload`` of the load generator.  A drawn
mutation truncates the payload or overwrites one to three of its bytes,
and a sweep sets each byte to 0 in turn.  Every mutation must end in
one of three ways:

* ``decode_payload`` raises ``FrameError``;
* ingest into a memory store and into a spill store that spills every
  record both raise ``UploadRejected``, and each server keeps the study
  digest, the path RNG state and the ingest counters it had;
* both stores accept the upload, read back the same ``study_digest``,
  and ``compute_figures`` accepts the study of each.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import study_digest
from repro.collection.backends import SpillBackend
from repro.collection.batches import (
    FRAME_HEADER,
    FrameError,
    build_upload,
    decode_payload,
    encode_frame,
)
from repro.collection.engine import _shard_statics
from repro.collection.loadgen import LoadConfig, synthetic_upload
from repro.collection.path import CollectionPath, PathConfig
from repro.collection.server import CollectionServer, UploadRejected
from repro.collection.storage import RecordStore
from repro.core.datasets import ThroughputSeries
from repro.core.records import LIST_DATASETS
from repro.core.streaming import compute_figures
from repro.firmware.shard_collect import collect_shard
from repro.simulation.deployment import (
    DeploymentConfig,
    build_deployment_plan,
    materialize_shard,
)
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import StudyWindows
from repro.telemetry import metrics

#: Records kept of each data set of the campaign upload: enough for
#: every container shape, few enough that a mutation often lands in the
#: pickle's structure rather than in a long run of floats.
KEEP = 3


def _campaign_upload():
    """The first collected upload carrying every data set, cut short."""
    plan = build_deployment_plan(DeploymentConfig(
        seed=2013, router_scale=0.05, windows=StudyWindows().scaled(0.01),
        traffic_consents=2, low_activity_consents=1))
    universe, policy = _shard_statics()
    cohort = materialize_shard(plan, 0, 1, domain_universe=universe)
    upload = next(
        upload for upload in collect_shard(cohort, plan,
                                           SeedHierarchy(plan.seed), policy)
        if upload.throughput is not None
        and {batch.dataset for batch in upload.batches} == set(LIST_DATASETS))
    lists = {batch.dataset: {name: column[:KEEP]
                             for name, column in batch.columns.items()}
             for batch in upload.batches}
    series = upload.throughput
    return build_upload(upload.info, upload.heartbeat_sends[:KEEP], lists,
                        ThroughputSeries(series.router_id, series.start,
                                         series.up_bps[:KEEP],
                                         series.down_bps[:KEEP]))


@functools.lru_cache(maxsize=None)
def _payloads():
    uploads = (_campaign_upload(), synthetic_upload(
        0, StudyWindows().scaled(0.01).span,
        LoadConfig(clients=1, connections=1, heartbeats_per_upload=6,
                   uptime_reports_per_upload=2, seed=3)))
    return tuple(encode_frame(("upload", 0, upload))[FRAME_HEADER.size:]
                 for upload in uploads)


@st.composite
def mutated_payloads(draw):
    payload = draw(st.sampled_from(_payloads()))
    if draw(st.booleans()):
        return payload[:draw(st.integers(0, len(payload) - 1))]
    data = bytearray(payload)
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def _server(backend):
    windows = StudyWindows().scaled(0.01)
    return CollectionServer(
        RecordStore(windows, backend),
        CollectionPath(np.random.default_rng(7), windows.span,
                       PathConfig(packet_loss=0.2, outage_rate_per_day=0.0)))


def _state(server, registry):
    """What a rejected upload must leave as it was."""
    return (study_digest(server.store.to_study_data()),
            server.path.rng_state(), dict(registry.counters))


def _check(payload):
    """Hold one payload to the contract; returns how it ended."""
    try:
        _, _, upload = decode_payload(payload)
    except FrameError:
        return "frame-error"
    registry = metrics.enable()
    registry.clear()
    servers = [_server(None), _server(SpillBackend(max_buffered_records=1))]
    with servers[0].store, servers[1].store:
        try:
            outcomes = []
            for server in servers:
                before = _state(server, registry)
                try:
                    outcomes.append(server.ingest(upload))
                except UploadRejected:
                    outcomes.append(None)
                    assert _state(server, registry) == before
        finally:
            metrics.disable()
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is None:
            return "rejected"
        studies = [server.store.to_study_data() for server in servers]
    assert study_digest(studies[0]) == study_digest(studies[1])
    for study in studies:
        compute_figures(study)
    return "accepted"


class TestMutatedFrames:
    def test_payloads_are_accepted(self):
        assert [_check(payload) for payload in _payloads()] == \
            ["accepted", "accepted"]

    @pytest.mark.parametrize("index", [0, 1], ids=["campaign", "fleet"])
    def test_every_byte_zeroed(self, index):
        """A deterministic sweep: each byte of the payload set to 0."""
        payload = _payloads()[index]
        for offset in range(len(payload)):
            mutated = bytearray(payload)
            mutated[offset] = 0
            try:
                _check(bytes(mutated))
            except Exception as exc:
                raise AssertionError(f"byte {offset} zeroed: {exc!r}") from exc

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_payloads())
    def test_refused_cleanly_or_analyzable(self, payload):
        _check(payload)
