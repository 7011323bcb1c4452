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
