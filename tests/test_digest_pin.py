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


#: sha256 of every JSONL run a spilled TINY campaign writes with
#: ``spill_buffer_records=512`` (48 runs, independent of PYTHONHASHSEED).
SPILL_RUN_PINS = {
    "capacity-00000.jsonl":
        "a5ceb94fef92999b4e2b44258fe1654657beb923ad793b6e3212e4065b609fe6",
    "capacity-00001.jsonl":
        "0f27cf56936aba2bffea9930f472c0d310c6137b7662796716c9f01b2663944d",
    "capacity-00002.jsonl":
        "005e7a82630e24cbab830f9ec34dc08e4da42f80c2bc8b77669962a680dc9c03",
    "capacity-00003.jsonl":
        "ff022eefb4fee3c29a5483eb9bc08932319748260ad4b4a445d41e548050d6db",
    "capacity-00004.jsonl":
        "2ae8a6028243895aaafdfed8188af90253041067c6eee96e814663723a412441",
    "capacity-00005.jsonl":
        "93bf5f35cb546163a096fff7cd2500137f3f5c9eb6b626d3e3c8277c1d63a5be",
    "capacity-00006.jsonl":
        "71667964891e283fedab2816a862cb99aa2a87b2db74cb9c5c4bca486a68b2fe",
    "capacity-00007.jsonl":
        "b5e67d51bb6fb778c9f6b2366e168dadd8ec1a80fbc853576c803a8a2634f069",
    "capacity-00008.jsonl":
        "ab14468d3f7cc291bcb8a43238bdc6198d8bd1c4301da07aa7039a06eecf0abb",
    "device_counts-00000.jsonl":
        "3abd8a3c75389969089de2d03f54c9840051fc2e71106389986f3cbf8d6fbb45",
    "device_counts-00001.jsonl":
        "23935e96cab445f99858db5ad73145f6e0c6c12f5e16df4c90d13e3834994d2c",
    "device_counts-00002.jsonl":
        "61ef0fe1d987eaa336c1bf8941a446b3329ce41075d008016e85201fad44772e",
    "device_counts-00003.jsonl":
        "5265e1f6c8ac3c6c197e050c74119d94bc1dd66c7a930c3830c398f2570093fe",
    "device_counts-00004.jsonl":
        "2694612adc7fe9eb18d267ca27a895598cadbdeb5f6c48f5648ca2287e6b96c4",
    "device_counts-00005.jsonl":
        "2cb7a27dfd5c2a3ff988c0cbbfdc3680a471bebcc8b3a0741d012eb06263ece6",
    "device_counts-00006.jsonl":
        "2bab9b1dfd11e3a37fff352f5ede301df34dd6a3d72f5b86085ad45defded336",
    "device_counts-00007.jsonl":
        "ebb11199ca8c077b84b43f0c8d98708d94f8423f5e1b60b08baf03cdad1a50ec",
    "device_counts-00008.jsonl":
        "651df0f0b619a04c0c49f8cf9a56ea6f3936c868bb570458a219572ed0bea06b",
    "dns-00001.jsonl":
        "6452190855a7caeee7ab55393532e55771ad9ab6ee3c6b18b231fe7a76272899",
    "dns-00002.jsonl":
        "272585a277128232d9486624e452b2368289a7d462bf96318246f31f79208e73",
    "flows-00000.jsonl":
        "c91aa8f104bc5840ce94410ab9b45a1fcb55c9fa1e6d55a31852bd4ff3c67afe",
    "flows-00002.jsonl":
        "11b686dde6e454adf9c65c515efdc6d7a77946853b60d0fed6c3026dca8f99fa",
    "roster-00000.jsonl":
        "6679c4c7d0e9d9c558275c15386c71304e1d3ec7abb46fe9adfa6c1c4567a833",
    "roster-00001.jsonl":
        "c6f987ca0949a891b017f09b150b2f79cb15c507204d9ca69d0bfe7dcc9a46f2",
    "roster-00002.jsonl":
        "774e2fe356e9ecb8dcbceb2b19cfb1447c53d0f3afe0f6b945d811a1158439d9",
    "roster-00003.jsonl":
        "daf3c09a8d700349ef080692b42c817ffba2eb0915c66090501c741e3b1f2fda",
    "roster-00004.jsonl":
        "95a9c3079354f8667916b27abf6f57999694466e06f45c92a19413b741272ccb",
    "roster-00005.jsonl":
        "8d54b5e8f6f58d0080c77e045a466e6f6dae8a8337d807279fdaf88a88990fb2",
    "roster-00006.jsonl":
        "d785416db136b99642d1f3e46879f95b3514299aaf71786605ef21cc93515c18",
    "roster-00007.jsonl":
        "c47d5dbbe98bf31d664559eac9ebab7690388c619fec8be1d72e9c7cfa1e38f3",
    "roster-00008.jsonl":
        "3e1f32496b79c2267ee0600aa0ccdda4ce89128e403ef4ecfc20d4894fa97e30",
    "uptime-00000.jsonl":
        "9f19a4fc7cb390ff4dc35899e7a2fe43f457e29d524cbe9d6593be55915fc26d",
    "uptime-00001.jsonl":
        "ee2bea94fc0bd2cadfa1ed5cabb52335d691042c32849d6c747336b7d607c54a",
    "uptime-00002.jsonl":
        "202d93ada051e36cf49f0b43243180c349fff685c163bea73c26b447781c6576",
    "uptime-00003.jsonl":
        "a31085fd6116de9a297a66c12a90ad8c579c12382aad0e37748a699542603ae0",
    "uptime-00004.jsonl":
        "d2bb2f51bfea737f210c4725abc1d746fa7125ea07dc82e4943f275299d6d3b5",
    "uptime-00005.jsonl":
        "c5cce83676c2ec2a06f8dd1e17399bfa8f12ebb71b617d6bf7d8021249552502",
    "uptime-00006.jsonl":
        "4f030e932b9d1aabe3cfb9af571ac703fcacfd78d78cf70defe8ae6c29e65cfd",
    "uptime-00007.jsonl":
        "b48f44f6bbe185d59b480d597bca1293471a3aca817f32e5fc3038ead23db637",
    "uptime-00008.jsonl":
        "6ecda7b5e3896a19294a7ca7a2e42aacbb8a26bd71e9d5890c1324400b2ae502",
    "wifi_scans-00000.jsonl":
        "bc9932222d5157bc2f7ce456df64d31fde17b395f96f3dc52073d69141d50fc3",
    "wifi_scans-00001.jsonl":
        "b00c904cce11264bbfa8aa69b5611a550b772f48af9c2a27343d10f81d6feddc",
    "wifi_scans-00003.jsonl":
        "b4777e83c98aace65769cfd0ab73e2cbaed20841a70863640bf4457c19fb64f0",
    "wifi_scans-00004.jsonl":
        "2f166e91566ae20f67e4eb47bafbe84b32168f2cc7b95b37837644b947c6c3d6",
    "wifi_scans-00005.jsonl":
        "acfa16c085db1149f6eaff5a57443b0e40cc55e75fb662dd83e79dfef9417dea",
    "wifi_scans-00006.jsonl":
        "535fb9748494f57be94728075e87fee76c5a12d51c890ee06b606c7f434de6fb",
    "wifi_scans-00007.jsonl":
        "04fcd7fb2910f5641283e0ba2c52b60c43f10408ac93bad6ede75eb8d08b9828",
    "wifi_scans-00008.jsonl":
        "bcc68461a0d6262371110e851d34bb450968c85f4034ca6cc6a65b8a7e58fe0b",
}


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
    """The spill run format: every JSONL run of a spilled TINY campaign."""
    data = run_study(StudyConfig(**TINY, store_backend="spill",
                                 spill_dir=str(tmp_path),
                                 spill_buffer_records=512)).data
    assert study_digest(data) == TINY_PIN
    runs = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / "runs").glob("*.jsonl"))}
    assert runs == SPILL_RUN_PINS
