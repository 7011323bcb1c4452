"""Pinned study digests: the cross-PR bitwise-determinism contract.

Every optimization PR must leave ``study_digest`` bitwise-identical for a
fixed :class:`StudyConfig`.  These pins were captured before the PR-2
hot-path vectorization and must never change without an explicit,
documented decision to break the determinism contract (bump the pins in
the same commit that changes the simulation, and say why in CHANGES.md).

``BENCH_PIN`` is the digest of the 252-home configuration that the
end-to-end benchmark's ``wide`` workload runs: ``benchmarks/e2e/spec.py``
pins the same ``study_digest`` for it.  The tier-1 pins below use
smaller configs so the suite stays fast.
"""

import hashlib

from repro import StudyConfig, run_study, study_digest, trace

#: seed 2013, router_scale=2.0, duration_scale=0.02, traffic_consents=10,
#: low_activity_consents=2 — the e2e ``wide`` workload's pinned digest.
BENCH_PIN = "cd4a9b8740c634a18b2915acc793f42993b42e6b285bc99fe131370a2f54c0c8"

TINY = dict(seed=2013, router_scale=0.1, duration_scale=0.02,
            traffic_consents=2, low_activity_consents=0)
TINY_PIN = "9a925616da8ec32902b4593e5ba687e003e9020d64d21cc233bfe8b7375f0515"

SMALL = dict(seed=2013, router_scale=0.25, duration_scale=0.02,
             traffic_consents=4, low_activity_consents=1)
SMALL_PIN = "d4b25e1c0f63b30017d4f96573e2f8d6fcb4d1a9bbb7c05cf741e4c50bcbe08d"


#: sha256 of every segment a spilled TINY campaign writes with
#: ``spill_buffer_records=512`` (48 runs, independent of PYTHONHASHSEED).
SPILL_RUN_PINS = {
    "capacity-00000.seg":
        "6ba67e3922c4591897a832a57a34e59c0d7ef58b1ae4e4e0f63c4289240e41f1",
    "capacity-00001.seg":
        "b09b7f21acc2b868d6f2bb493678aff552451bc3675843f1488e779912026c4e",
    "capacity-00002.seg":
        "c91fd1e2a523bad98a379e167d77954d710a09dbad034812dcf32ee2c0594026",
    "capacity-00003.seg":
        "0743f3cbc8690af2f74c1474fdc8fd71a83b61887800550ab5c9599790e0074b",
    "capacity-00004.seg":
        "9fbb9a860617f21e5a3ea8b19e39518c354b78893d99f61cc548f843e88c7638",
    "capacity-00005.seg":
        "79e921e5eea60beaa1db129aa74be59a8a0bde16553d32677913ffab505940ee",
    "capacity-00006.seg":
        "2cfd9a540ae494d188e7e3799e666fe565e1746deb61ec785ea5c6b4d0e892c4",
    "capacity-00007.seg":
        "3e69866dd0f84d816b535a3eaca1e47ef8c80bc0a1fb9121f6d147cea23b2e90",
    "capacity-00008.seg":
        "c2cf3cbdab3304fcc598b7ad64c28a00de293165ba71024cc7bba4f1bcb8fbd2",
    "device_counts-00000.seg":
        "f7f86b2e5b8de44a8127639d9515b4d57d0f2131fb39882f68268497cb6b324e",
    "device_counts-00001.seg":
        "fb93c9569b7e6396e7ae4f99f8abe3f32f06ae872e9a55fb48ae422f2ebc85a8",
    "device_counts-00002.seg":
        "ff84b1b413e5a0ce7ff210bccb2a9ef8909d33204e9aff14a0f7581d0851a999",
    "device_counts-00003.seg":
        "04b8b594f8a5b055bcf1264ff1d04d311900f41b96da67e6f8496284a5a8aff2",
    "device_counts-00004.seg":
        "7490ab54f4866e3e8c42167ffcf460e37b3c8896f84180f92e1cbb9b1164991e",
    "device_counts-00005.seg":
        "d4478d818e8353099e0e6123aa58c9d4e0dd4ad5b8829901352e60585b002a3c",
    "device_counts-00006.seg":
        "e943248d3b52b052a19a01017b9dc7c2d9bd65594995eea572e09e5981a79b43",
    "device_counts-00007.seg":
        "2b7d4f57fbd1d2bf9610b3978012d758eec6f434074057dc339d4da06aef4f32",
    "device_counts-00008.seg":
        "243d3e1f03de83834cc7089c0471c1618a78383eb920fa14a2153a5d22d983c6",
    "dns-00001.seg":
        "79eb2be8d8394b68145e4785601cc1e92217e449d1d1cd48bab55fa964cce578",
    "dns-00002.seg":
        "a6cda0c3cc281ac72ef001d930ec49e1bd00ad05bc04223c6f8ad9f3684a4cfc",
    "flows-00000.seg":
        "0b4e1e00bfcbd9835241a3672a3f298adae0ea45eb72408dc60813fa6b3e662d",
    "flows-00002.seg":
        "4ffd0a023c8fc8d2611ca860721ed2851077162cfb5219098baa72beb7339227",
    "roster-00000.seg":
        "c86ab011b81510dd8721ff961bf556a2c76c0ec5bf6006be6f9cd7ec893ebbd5",
    "roster-00001.seg":
        "93072e8b59d152aa90b5b21a97cf63eb38d8554b8d988f604acb6e8ef45e023d",
    "roster-00002.seg":
        "beb4b064beb2a213ac29e5f5fe8a3cfe1bb729a218b4dd5950973ecc633b1586",
    "roster-00003.seg":
        "65658aec2ceaf8262ac8f21dd11756cd4e8e74590a5e1a15fac569bf42da058a",
    "roster-00004.seg":
        "aeedb587a869ec2308756598f1e301b41df4954f06eadfed39acf0108fdc7979",
    "roster-00005.seg":
        "00694e4f4c3290df43672bb4a3363a2bcf4f72e2262bb5e93498f48d26258740",
    "roster-00006.seg":
        "659db8377cf1eff8408b8ff90c17f07ac5cfe1ee6261809f11631a9dc61b3f23",
    "roster-00007.seg":
        "418fb71bea1a2bf92de34633da380e5eba2b8434c051cc53f885ed0edff4ac87",
    "roster-00008.seg":
        "752c5b08618a0aa67bf7ed87d7152b9f563b4fca8b8650ce63b605bfcb2ef9ee",
    "uptime-00000.seg":
        "ef8ca438937147fa8ba470b1266cf20cd47607035dc339e157e5235c7a85dcb9",
    "uptime-00001.seg":
        "5d1150a1092c7b7039ddd5ef6ad9ac86b7cee10ec0404cbb406261b48f8c9fd1",
    "uptime-00002.seg":
        "fb0018787c13a128422a0845692849ce87337d73083d9c17ba27a247e9772a54",
    "uptime-00003.seg":
        "951dab935f1c81393878e496ef9cb601955967ca928a7e43835f9fd87ef7c0ed",
    "uptime-00004.seg":
        "fe59050f10ac5f768831f7677d1bdd631efcdc7daa19a8ce94f637a18f522e6c",
    "uptime-00005.seg":
        "cf52ad16ed2173079a2ae7443eb097f1d9f03578cc08ba54993ecd4612ad1dd1",
    "uptime-00006.seg":
        "cf58659e7b236aabe8ab7a3b241a24351b0415f87de630048b03f1708a253438",
    "uptime-00007.seg":
        "cfad6960973853f054d1e5ffbcb76ca648462d6a024d23fa86c4fc3a21a7caec",
    "uptime-00008.seg":
        "aa7f82ae3ba6ad4497b1d72e35abd84bdf9907a06aa7607dbba912467fd7f05f",
    "wifi_scans-00000.seg":
        "70821121bf2563db89882583a9b471050f038465b156fb6303163f9538650b49",
    "wifi_scans-00001.seg":
        "fe6a8229f56a1d70da698d170a89f5d828fa915718930756a91a084864fa14cb",
    "wifi_scans-00003.seg":
        "a12ad5b43c6d763cfc95b5370a6e7261cb489374eb36b088d322ff052cd6213c",
    "wifi_scans-00004.seg":
        "b6849685caf746ab25ba0dc622c25cdbb4464c9637a00560224eb97ba4e6de78",
    "wifi_scans-00005.seg":
        "05a3490758483d671bd548b31d65ff7165176bd2a96991185c332edebff6f25c",
    "wifi_scans-00006.seg":
        "fcae2943d58f72ab65ac4d1bb471b0da32da4865fad984d110859a669ff96fa9",
    "wifi_scans-00007.seg":
        "d5a408303093a2b48bcfc99fa970df2c6fbcd97dc02157b877558e0b23d6d3e1",
    "wifi_scans-00008.seg":
        "4a9ab0d86d21244c9d40a54339a30d28e719efc019afccfb2c2b0b6b0dfe06e4",
}

#: sha256 over the keyed files of the same spilled campaign (each
#: ``<dataset>/<router_id>.<field>.npy`` path, then its bytes, in path
#: order): 24 heartbeat logs and 2 throughput series.
SPILL_KEYED_PIN = (
    "f91a8aaf10a8f79b8d9427392a0620c0e8d5fee7516afa21f3602d6783e84d08")


BENCH = dict(seed=2013, router_scale=2.0, duration_scale=0.02,
             traffic_consents=10, low_activity_consents=2)


def test_tiny_config_digest_pin():
    data = run_study(StudyConfig(**TINY)).data
    assert study_digest(data) == TINY_PIN


def test_small_config_digest_pin():
    data = run_study(StudyConfig(**SMALL)).data
    assert study_digest(data) == SMALL_PIN


def test_bench_config_digest_pin():
    """The router_scale=2.0 bench configuration, pinned in tier-1 too.

    The columnar materializer (PR 6) made this 252-home run cheap enough
    to assert here rather than only in the benchmark, closing the gap
    between the fast tier-1 pins (scales 0.1 and 0.25) and the bench pin.
    """
    data = run_study(StudyConfig(**BENCH)).data
    assert study_digest(data) == BENCH_PIN


def test_profiling_does_not_perturb_digest():
    """--profile (a trace capture around the run) must be an observer:
    same records, same digest."""
    with trace.Capture() as capture:
        data = run_study(StudyConfig(**TINY)).data
        assert capture.spans()
    assert study_digest(data) == TINY_PIN


def test_parallel_execution_matches_pin():
    data = run_study(StudyConfig(**TINY, workers=2)).data
    assert study_digest(data) == TINY_PIN


def test_telemetry_does_not_perturb_digest(tmp_path):
    """Full telemetry (metrics + events + manifest) is an observer too."""
    data = run_study(StudyConfig(**TINY),
                     telemetry_dir=tmp_path / "telemetry").data
    assert study_digest(data) == TINY_PIN


def test_spill_run_files_pinned(tmp_path):
    """The spill format: every segment of a spilled TINY campaign, and
    its keyed data sets' array files."""
    data = run_study(StudyConfig(**TINY, store_backend="spill",
                                 spill_dir=str(tmp_path),
                                 spill_buffer_records=512)).data
    assert study_digest(data) == TINY_PIN
    runs = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / "runs").glob("*.seg"))}
    assert runs == SPILL_RUN_PINS
    keyed = hashlib.sha256()
    for path in sorted(tmp_path.glob("*/*.npy")):
        keyed.update(path.relative_to(tmp_path).as_posix().encode())
        keyed.update(path.read_bytes())
    assert keyed.hexdigest() == SPILL_KEYED_PIN
