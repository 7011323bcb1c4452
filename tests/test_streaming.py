"""Exact-vs-streamed figure parity, and the no-materialization guarantee.

``compute_figures`` and ``stream_figures`` run the same per-home folds
and differ only by sketch compression, which no distribution in these
studies reaches: every figure must match bitwise (nan-aware), whichever
source the stream path reads.  Compression itself is covered by
``tests/test_sketches.py::TestQuantileSketchCompressed``.  The spill
tests additionally prove the stream path never builds the study's
record lists, keeps at most one run file open per dataset, and stays
O(sketch) in memory.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from repro import StudyConfig, run_study_streaming, study_digest
from repro.collection.backends import SpillBackend
from repro.collection.engine import run_campaign
from repro.collection.storage import RecordStore
from repro.core.paperkit import reproduce_all, render_report
from repro.core.streaming import (
    StoreSource,
    StudyDataSource,
    StudyFigures,
    compute_figures,
    stream_figures,
)
from repro.simulation.deployment import build_deployment_plan

FIGURE_FIELDS = [f.name for f in dataclasses.fields(StudyFigures)
                 if f.name != "records_streamed"]


def assert_close(a, b, path=""):
    """Recursive nan-aware bitwise comparison."""
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        assert a == b or (np.isnan(a) and np.isnan(b)), f"{path}: {a} != {b}"
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert np.array_equal(a, b, equal_nan=True), path
    elif hasattr(a, "quantile") and hasattr(a, "n"):
        # CDF-shaped: the sketches both entry points hold.
        assert a.n == b.n, f"{path}.n"
        if a.n:
            for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
                assert_close(a.quantile(q), b.quantile(q),
                             f"{path}.quantile({q})")
            assert_close(a.mean, b.mean, f"{path}.mean")
            assert_close(a.series(), b.series(), f"{path}.series")
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_close(getattr(a, f.name), getattr(b, f.name),
                         f"{path}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), f"{path}: keys {list(a)} != {list(b)}"
        for key in a:
            assert_close(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: len {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_close(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def interleaved(data):
    """*data* with every record list dealt round-robin across homes.

    No home's records stay contiguous, but homes keep their
    first-appearance order and each home its record order.
    """
    def deal(records):
        homes = {}
        for record in records:
            homes.setdefault(record.router_id, []).append(record)
        return [record for row in itertools.zip_longest(*homes.values())
                for record in row if record is not None]

    return dataclasses.replace(data, **{
        name: deal(getattr(data, name))
        for name in ("uptime_reports", "capacity", "device_counts",
                     "roster", "wifi_scans", "flows")})


@pytest.fixture(scope="module")
def exact_figures(small_data):
    return compute_figures(small_data)


@pytest.fixture(scope="module")
def streamed_figures(small_data):
    return stream_figures(StudyDataSource(small_data))


class TestStreamParity:
    """Every figure off the stream path matches compute_figures."""

    @pytest.mark.parametrize("name", FIGURE_FIELDS)
    def test_field_matches(self, name, exact_figures, streamed_figures):
        assert_close(getattr(exact_figures, name),
                     getattr(streamed_figures, name), name)

    def test_records_streamed(self, exact_figures, streamed_figures):
        assert streamed_figures.records_streamed > 0
        assert exact_figures.records_streamed == \
            streamed_figures.records_streamed

    def test_small_study_quantiles_are_exact(self, streamed_figures):
        # At this scale no per-group sketch crosses the exact threshold,
        # so CDFs must be bitwise, not merely within rank tolerance.
        for cdf in streamed_figures.fig3.values():
            assert not cdf.compressed
        assert not streamed_figures.fig7.compressed

    def test_same_report_both_paths(self, small_data, streamed_figures):
        exact_report = render_report(reproduce_all(small_data))
        stream_report = render_report(reproduce_all(streamed_figures))
        assert stream_report == exact_report


class TestInterleavedHomes:
    """A hand-built StudyData need not keep each home's records together."""

    @pytest.fixture(scope="class")
    def shuffled(self, small_data):
        shuffled = interleaved(small_data)
        assert [r.router_id for r in shuffled.flows] != \
            [r.router_id for r in small_data.flows]
        return shuffled

    @pytest.mark.parametrize("analyze", [
        compute_figures,
        lambda data: stream_figures(StudyDataSource(data)),
    ], ids=["compute_figures", "stream_figures"])
    def test_matches_router_sorted_copy(self, analyze, shuffled,
                                        exact_figures):
        # small_data is the router-sorted copy: the store sorts every
        # record list by (router, timestamp).
        figures = analyze(shuffled)
        for name in FIGURE_FIELDS + ["records_streamed"]:
            assert_close(getattr(exact_figures, name),
                         getattr(figures, name), name)


class TestSpillStreaming:
    """The stream path over a spilled store: no lists, bounded fds and
    memory."""

    CONFIG = StudyConfig(seed=2013, router_scale=0.1, duration_scale=0.02,
                         traffic_consents=4, low_activity_consents=1)

    @pytest.fixture(scope="class")
    def spilled(self, tmp_path_factory):
        plan = build_deployment_plan(self.CONFIG.deployment_config())
        backend = SpillBackend(
            directory=tmp_path_factory.mktemp("spill"),
            max_buffered_records=256)
        store = run_campaign(plan, seed=self.CONFIG.seed,
                             store=RecordStore(plan.windows, backend),
                             materialize=False)
        # Prove the stream path never materializes: to_study_data() is
        # the only way to build the record lists, so make it fatal.
        def forbidden():
            raise AssertionError("stream path called store.to_study_data()")
        store.to_study_data = forbidden
        figures = stream_figures(StoreSource(store))
        del store.to_study_data
        return store, figures

    @pytest.fixture(scope="class")
    def oracle(self):
        plan = build_deployment_plan(self.CONFIG.deployment_config())
        data = run_campaign(plan, seed=self.CONFIG.seed)
        return compute_figures(data)

    @pytest.mark.parametrize("name", FIGURE_FIELDS)
    def test_matches_memory_oracle(self, name, spilled, oracle):
        _, figures = spilled
        assert_close(getattr(oracle, name), getattr(figures, name), name)

    def test_fd_budget(self, spilled):
        store, _ = spilled
        # The heap merge streams runs chunk-at-a-time: at most one run
        # file open at any moment, however many runs spilled.
        assert store.backend._n_runs > 1
        assert store.backend.peak_open_run_files <= 1

    def test_records_streamed(self, spilled):
        _, figures = spilled
        assert figures.records_streamed > 0

    def test_stream_pass_memory_is_o_sketch(self, spilled):
        # Bounded memory is why the stream path exists: it holds spill
        # read chunks and per-group sketches, never the records, so
        # `figures --stream --store spill` can analyze a campaign larger
        # than RAM.  A pass over this store peaks near 0.4 MB of Python
        # heap (to_study_data on the same campaign: 2.2 MB) and near
        # 0.45 MB at 2.4x the records, so 1 MB catches per-record state.
        # The fixture's own pass already filled the lazy per-process
        # caches, which a cold pass would count too (~1.45 MB).
        store, _ = spilled
        tracemalloc.start()
        try:
            stream_figures(StoreSource(store))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"stream pass peaked at {peak / 1e6:.2f} MB"

    def test_store_survives_for_second_pass(self, spilled, oracle):
        store, figures = spilled
        again = stream_figures(StoreSource(store))
        assert again.records_streamed == figures.records_streamed
        assert_close(oracle.fig12, again.fig12, "fig12")

    def test_spilled_store_reads_twice(self, spilled):
        store, _ = spilled
        plan = build_deployment_plan(self.CONFIG.deployment_config())
        expected = study_digest(run_campaign(plan, seed=self.CONFIG.seed))
        assert study_digest(store.to_study_data()) == expected
        assert study_digest(store.to_study_data()) == expected


class TestRunStudyStreaming:
    def test_end_to_end(self):
        streamed = run_study_streaming(
            StudyConfig(seed=99, router_scale=0.06, duration_scale=0.02,
                        traffic_consents=2, low_activity_consents=0,
                        store_backend="spill", spill_buffer_records=512))
        assert streamed.figures.records_streamed > 0
        expected = {info.country_code
                    for info in streamed.store.routers.values()
                    if info.developed}
        assert {p.country_code for p in streamed.figures.fig5
                if p.developed} <= expected


class TestReproduceAllDispatch:
    def test_accepts_study_data(self, small_data):
        assert reproduce_all(small_data).rows()

    def test_accepts_figures(self, streamed_figures):
        assert reproduce_all(streamed_figures).rows()

    def test_accepts_source(self, small_data):
        report = reproduce_all(StudyDataSource(small_data))
        assert render_report(report) == \
            render_report(reproduce_all(small_data))

    def test_rejects_other(self):
        with pytest.raises(TypeError):
            reproduce_all(42)
