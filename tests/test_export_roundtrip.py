"""Archive round-trip exactness: export → load must be digest-identical.

The paper's public release was the archive; if round-tripping it loses
routers (zero-heartbeat homes) or precision (fixed-point truncation),
every analysis over the archive silently diverges from the campaign.
"""

import csv
import dataclasses
import hashlib
import re

import numpy as np
import pytest

from repro import study_digest
from repro.collection.backends import SpillBackend
from repro.collection.batches import ColumnarRecords
from repro.collection.engine import run_campaign
from repro.collection.export import export_study, load_study
from repro.collection.loadgen import LoadConfig, synthetic_upload
from repro.collection.path import CollectionPath
from repro.collection.server import CollectionServer
from repro.collection.storage import RecordStore
from repro.core.datasets import HeartbeatLog, ThroughputSeries
from repro.simulation.deployment import DeploymentConfig, build_deployment_plan
from repro.simulation.timebase import StudyWindows, utc

SMALL = DeploymentConfig(
    seed=11, windows=StudyWindows().scaled(0.02), router_scale=0.05,
    traffic_consents=2, low_activity_consents=0,
    countries=("US", "IN", "BR"))


#: sha256 of every file ``export_study`` writes for the campaign fixture.
#: A round trip passes whatever the bytes are; these pin the archive
#: format itself.
ARCHIVE_PINS = {
    "capacity.csv":
        "5c0e2cc7dace5a30015858cfed825c3a783036913d2c1d9bc8d251f43c5f3e09",
    "devices.csv":
        "3bb524cb1c56fbb870d5bb8354cb5984195167c237336dfdee79a3765991b6d1",
    "dns.csv":
        "2ffa3a4fd7d1dc6f27fc3749cc511e29c0e295625e5577e470c05bdc92d3e079",
    "flows.csv":
        "f8079a017a302eb53f96e9348db362f0e739c085e763301c548922900afd6a65",
    "heartbeat_delivery.csv":
        "e41dcb20a49cd12a6ba90a7d1857bbe252e0c7d666c22b8c54aac4615e881b5e",
    "heartbeats.csv":
        "50a0e29316564a4c80628ea1e16f92dd68c59f5890495208c2747508676c68c9",
    "manifest.json":
        "998f96899309f9e9e3072592d88af5e7b7db4cca60b30bdb781deaf7a92ac638",
    "roster.csv":
        "f2f1c93664114c67bc7924548349307920babca105688f40e542606fce18a019",
    "routers.csv":
        "3a63ad8394a54002617d10664e662cfb71b0f91c5fcc169fe6a0ab4f3a533bb5",
    "throughput.csv":
        "5fe3fd5b1dd5d56a1c2e93a8cea2acdcd213703dea1fb55cc19711cb9bb22603",
    "uptime.csv":
        "ef168542642a632c0bb807a2861a365ec9f0921c6fe15b3f973f7a206ebed357",
    "wifi.csv":
        "a42ca4045cecc990296b958ca76ce5d5f9ee88008c5aaad45cbef080db61d7c1",
}

#: The public archive withholds the Traffic files; only its manifest differs.
PUBLIC_MANIFEST_PIN = (
    "92a94c7fa567e73ace66aa05dbc3d5688ececa7387852b94262425ace17d24f1")


@pytest.fixture(scope="module")
def campaign():
    """A seeded campaign with one router's heartbeats all forced lost."""
    plan = build_deployment_plan(SMALL)
    data = run_campaign(plan)
    # Force a zero-delivered-heartbeat router — the regression this file
    # pins is load_study dropping such routers from the archive.
    victim = plan.router_ids[0]
    sent = data.heartbeat_delivery.get(victim, (len(data.heartbeats[victim]),
                                                0))[0]
    data.heartbeats[victim] = HeartbeatLog(victim,
                                           np.array([], dtype=float))
    data.heartbeat_delivery[victim] = (sent, 0)
    return data, victim


class TestDigestRoundTrip:
    def test_full_archive_digest_identical(self, campaign, tmp_path):
        data, victim = campaign
        load = load_study(export_study(data, tmp_path / "full"))
        assert victim in load.heartbeats
        assert len(load.heartbeats[victim]) == 0
        assert study_digest(load) == study_digest(data)

    def test_public_archive_digest_identical(self, campaign, tmp_path):
        data, _ = campaign
        load = load_study(export_study(data, tmp_path / "public",
                                       include_pii_datasets=False))
        withheld = dataclasses.replace(data, flows=[], throughput={},
                                       dns=[])
        assert study_digest(load) == study_digest(withheld)

    def test_double_round_trip_stable(self, campaign, tmp_path):
        data, _ = campaign
        once = load_study(export_study(data, tmp_path / "one"))
        twice = load_study(export_study(once, tmp_path / "two"))
        assert study_digest(twice) == study_digest(once)


class TestNumericExactness:
    def test_awkward_floats_survive(self, campaign, tmp_path):
        data, _ = campaign
        rid = next(rid for rid, log in data.heartbeats.items() if len(log))
        # Values whose shortest repr needs all 17 significant digits —
        # the cases a fixed .3f/.1f truncation destroyed.
        awkward = np.array([0.1 + 0.2, 1.0 / 3.0, 1e9 + 1e-6])
        data = dataclasses.replace(
            data, heartbeats={**data.heartbeats,
                              rid: HeartbeatLog(rid, awkward)})
        load = load_study(export_study(data, tmp_path / "awkward"))
        assert np.array_equal(load.heartbeats[rid].timestamps, awkward)
        assert study_digest(load) == study_digest(data)

    @pytest.mark.parametrize("interval", [60, 60.5])
    def test_interval_kind_preserved(self, campaign, tmp_path, interval):
        data, _ = campaign
        assert data.throughput  # fixture includes traffic homes
        rid, series = next(iter(data.throughput.items()))
        data = dataclasses.replace(
            data, throughput={
                **data.throughput,
                rid: dataclasses.replace(series,
                                         interval_seconds=interval)})
        load = load_study(export_study(data, tmp_path / f"i{interval}"))
        back = load.throughput[rid]
        assert back.interval_seconds == interval
        assert type(back.interval_seconds) is type(interval)
        assert type(back.start) is type(series.start)

    def test_throughput_values_exact(self, campaign, tmp_path):
        data, _ = campaign
        load = load_study(export_study(data, tmp_path / "tp"))
        for rid, series in data.throughput.items():
            back = load.throughput[rid]
            assert np.array_equal(back.up_bps, series.up_bps)
            assert np.array_equal(back.down_bps, series.down_bps)
            assert back.start == series.start


class TestSyntheticSeries:
    def test_manual_series_round_trip(self, tmp_path, campaign):
        # A hand-built series with an integer start and interval: the
        # kinds must survive export → load untouched.
        data, _ = campaign
        rid = next(iter(data.throughput))
        series = ThroughputSeries(
            router_id=rid, start=86400,
            up_bps=np.array([0.1, 2.0 / 7.0]),
            down_bps=np.array([1e7, 3.3]),
            interval_seconds=60)
        data = dataclasses.replace(data,
                                   throughput={**data.throughput,
                                               rid: series})
        back = load_study(export_study(data, tmp_path / "manual"))
        loaded = back.throughput[rid]
        assert loaded.start == 86400 and type(loaded.start) is int
        assert loaded.interval_seconds == 60
        assert type(loaded.interval_seconds) is int
        assert np.array_equal(loaded.up_bps, series.up_bps)
        assert np.array_equal(loaded.down_bps, series.down_bps)


def _file_digests(root):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.iterdir())}


class TestArchiveBytes:
    def test_full_archive_files_pinned(self, campaign, tmp_path):
        data, _ = campaign
        assert _file_digests(export_study(data, tmp_path / "full")) \
            == ARCHIVE_PINS

    def test_public_archive_files_pinned(self, campaign, tmp_path):
        data, _ = campaign
        root = export_study(data, tmp_path / "public",
                            include_pii_datasets=False)
        public = {name: digest for name, digest in ARCHIVE_PINS.items()
                  if name not in ("flows.csv", "throughput.csv", "dns.csv")}
        public["manifest.json"] = PUBLIC_MANIFEST_PIN
        assert _file_digests(root) == public

    def test_memory_and_spill_stores_export_the_same_bytes(self, tmp_path):
        """A float column given ints: the memory store builds floats from
        the list, a spill segment stores floats, and both archives read
        ``1.0``."""
        span = (utc(2013, 3, 1), utc(2013, 3, 15))
        upload = synthetic_upload(0, span, LoadConfig(
            clients=1, connections=1, seed=3))
        flows = ColumnarRecords("flows", upload.router_id, {
            "timestamp": [span[0] + 60.0],
            "device_mac": ["3c:07:54:aa:bb:cc"], "domain": ["google.com"],
            "remote_ip": [1], "port": [443], "application": ["https"],
            "bytes_up": [1], "bytes_down": [2], "duration_seconds": [3]})
        upload = dataclasses.replace(
            upload, batches=upload.batches + (flows,))
        roots = []
        for name, backend in (("memory", None),
                              ("spill", SpillBackend(tmp_path / "runs"))):
            server = CollectionServer(
                RecordStore(StudyWindows(), backend),
                CollectionPath.for_study(3, span))
            server.ingest(upload)
            roots.append(export_study(server.store.to_study_data(),
                                      tmp_path / name))
        memory, spill = map(_file_digests, roots)
        assert memory == spill
        with (roots[0] / "flows.csv").open() as handle:
            assert next(csv.DictReader(handle))["bytes_up"] == "1.0"

    def test_wifi_without_channel_column_loads_channel_zero(self, campaign,
                                                            tmp_path):
        # Archives written before scans recorded their channel lack the
        # column; their scans load with the record's default, channel 0.
        data, _ = campaign
        root = export_study(data, tmp_path / "legacy")
        path = root / "wifi.csv"
        with path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and any(int(row["channel"]) for row in rows)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(
                handle, [name for name in rows[0] if name != "channel"],
                extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        scans = load_study(root).wifi_scans
        assert len(scans) == len(data.wifi_scans)
        assert {scan.channel for scan in scans} == {0}
        assert [dataclasses.replace(scan, channel=0)
                for scan in data.wifi_scans] == scans


#: Stands for a router of the campaign's ``routers.csv`` in a row below.
KNOWN = "<known>"


class TestArchiveRowChecks:
    """``load_study`` rejects a data-file row for a router missing from
    ``routers.csv``, and a row its record's constructor rejects."""

    @pytest.mark.parametrize("file, row", [
        ("heartbeats.csv", ["GHOST01", "1.0"]),
        ("uptime.csv", ["GHOST02", "1.0", "2.0"]),
        ("heartbeat_delivery.csv", ["GHOST03", "4", "3"]),
        ("throughput.csv", ["GHOST04", "0.0", "60", "1.0", "1.0"]),
        ("dns.csv", ["GHOST05", "1.0", "3c:07:54:aa:bb:cc", "google.com",
                     "A", "1"]),
        ("heartbeats.csv", [KNOWN, "nan"]),
        ("uptime.csv", [KNOWN, "1.0", "nan"]),
        ("flows.csv", [KNOWN, "1.0", "3c:07:54:aa:bb:cc", "google.com", "1",
                       "443", "https", "1.0", "nan", "3.0"]),
        ("throughput.csv", [KNOWN, "0.0", "60", "-1.0", "1.0"]),
    ], ids=["heartbeats-unknown-router", "uptime-unknown-router",
            "delivery-unknown-router", "throughput-unknown-router",
            "dns-unknown-router", "heartbeats-nan", "uptime-nan",
            "flows-nan-bytes", "throughput-negative"])
    def test_bad_row_rejected(self, campaign, tmp_path, file, row):
        data, _ = campaign
        root = export_study(data, tmp_path / "archive")
        known = next(iter(data.routers))
        row = [known if cell == KNOWN else cell for cell in row]
        with (root / file).open("a", newline="") as handle:
            csv.writer(handle).writerow(row)
        line = len((root / file).read_text().splitlines())
        with pytest.raises(ValueError, match=re.escape(
                f"{file} line {line}, router {row[0]!r}: ")):
            load_study(root)

    def test_unparsable_router_cell_names_its_field(self, campaign,
                                                    tmp_path):
        """routers.csv is read through its RowCodec like every data
        file, so a cell that does not parse names file, line and
        field."""
        data, _ = campaign
        root = export_study(data, tmp_path / "archive")
        lines = (root / "routers.csv").read_text().splitlines()
        router, country, _, *rest = lines[1].split(",")
        lines[1] = ",".join([router, country, "x", *rest])
        (root / "routers.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"routers.csv line 2, router {router!r}: developed: ")):
            load_study(root)
