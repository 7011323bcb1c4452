"""Columnar materialization equivalence: cohort views == reference homes.

The shard-wide columnar materializer (``repro.simulation.cohort``) must be
a pure re-expression of the per-home reference path: same streams, same
draw order, bitwise-identical models.  These tests compare every model
payload of every home for every shard split of a small plan against
households built the pre-refactor way — ``Household(seeds, config)`` —
and cover the O(shard) deployment lookups that ride on the cohort.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet
from repro.simulation.cohort import (LOOKBACK_HOURS, ReadHours,
                                     _AssociationBatch, run_epochs)
from repro.simulation.device_models import (TABLE_SLOTS, _markov_runs,
                                            transition_probs)
from repro.simulation.deployment import (
    Deployment,
    DeploymentConfig,
    build_deployment_plan,
    materialize_shard,
)
from repro.simulation.household import Household
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import HOUR, StudyWindows, utc


@pytest.fixture(scope="module")
def plan():
    return build_deployment_plan(DeploymentConfig(
        seed=2013, router_scale=0.05,
        windows=StudyWindows().scaled(0.05),
        traffic_consents=2, low_activity_consents=1))


@pytest.fixture(scope="module")
def reference_homes(plan):
    seeds = SeedHierarchy(plan.seed)
    return [Household(seeds, config) for config in plan.household_configs]


def assert_same_home(ref, view):
    assert view.router_id == ref.router_id
    assert view.config == ref.config
    # Activity schedule: exact curve arrays.
    for name in ("presence_weekday", "presence_weekend",
                 "activity_weekday", "activity_weekend"):
        assert np.array_equal(getattr(ref.schedule, name),
                              getattr(view.schedule, name)), name
    # Power: concrete class, mode, and exact on-intervals.
    assert type(view.power) is type(ref.power)
    assert view.power.mode == ref.power.mode
    assert view.power.on_intervals == ref.power.on_intervals
    # Link: jittered config and every interval layer, including the
    # internal outage set the uptime analyses consult.
    assert view.link.config == ref.link.config
    assert view.link.up == ref.link.up
    assert view.link._outages == ref.link._outages
    assert view.link.bad_periods == ref.link.bad_periods
    # Wireless: density class and the full neighborhood channel lists.
    assert view.wireless.sparse == ref.wireless.sparse
    assert view.wireless._neighbors == ref.wireless._neighbors
    # Devices: every drawn field plus the association timeline.
    assert len(view.devices) == len(ref.devices)
    for ref_dev, view_dev in zip(ref.devices, view.devices):
        assert view_dev.device_id == ref_dev.device_id
        assert view_dev.kind is ref_dev.kind
        assert view_dev.mac == ref_dev.mac
        assert view_dev.medium is ref_dev.medium
        assert view_dev.spectrum == ref_dev.spectrum
        assert view_dev.always_connected == ref_dev.always_connected
        assert view_dev.traffic_weight == ref_dev.traffic_weight
        assert view_dev.connected == ref_dev.connected


@pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 7, 100])
def test_every_shard_split_matches_reference(plan, reference_homes, n_shards):
    """Columnar output is bitwise-identical for every shard split."""
    covered = 0
    for shard_index in range(n_shards):
        cohort = materialize_shard(plan, shard_index, n_shards)
        lo, hi = plan.shard_bounds(shard_index, n_shards)
        assert len(cohort) == hi - lo
        for offset, view in enumerate(cohort):
            assert_same_home(reference_homes[lo + offset], view)
        covered += len(cohort)
    assert covered == len(plan)


def test_cohort_sequence_protocol(plan):
    cohort = materialize_shard(plan, 0, 1)
    assert len(cohort) == len(plan)
    # Indexing caches the view; slices and negative indices work.
    assert cohort[0] is cohort[0]
    assert cohort[-1].router_id == plan.household_configs[-1].router_id
    sliced = cohort[:3]
    assert [h.router_id for h in sliced] == plan.router_ids[:3]
    with pytest.raises(IndexError):
        cohort[len(plan)]


def test_empty_shard(plan):
    # With more shards than homes the early shards come out empty
    # (shard 0 of 5n owns [0, n//5n) = nothing).
    cohort = materialize_shard(plan, 0, 5 * len(plan))
    assert len(cohort) == 0
    assert list(cohort) == []


def test_uptime_at_matches_linear_scan(plan, reference_homes):
    """The bisect-based uptime_at agrees with the former linear scan."""
    home = reference_homes[0]
    span = home.span
    probes = np.linspace(span[0], span[1], 400)
    for epoch in probes.tolist():
        expected = None
        for on_start, on_end in home.power.on_intervals:
            if on_start <= epoch < on_end:
                expected = epoch - on_start
                break
        assert home.uptime_at(epoch) == expected


def test_deployment_point_lookup_stays_shardwise(plan):
    deployment = Deployment(plan)
    rid = plan.router_ids[len(plan) // 2]
    home = deployment.household(rid)
    assert home.router_id == rid
    # The point lookup must not have materialized the whole plan.
    assert deployment._households is None
    # Repeat lookups in the same shard reuse the cached cohort view.
    assert deployment.household(rid) is home
    with pytest.raises(KeyError):
        deployment.household("nope")


def test_deployment_routers_in_matches_full(plan):
    shardwise = Deployment(plan)
    full = Deployment(plan)
    _ = full.households  # force the full materialization path
    for country in shardwise.countries:
        lazy_ids = [h.router_id for h in shardwise.routers_in(country.code)]
        full_ids = [h.router_id for h in full.routers_in(country.code)]
        assert lazy_ids == full_ids
    assert shardwise._households is None


def test_interval_array_paths_match_tuple_paths():
    """Array-backed IntervalSet ops equal the tuple-backed reference."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        starts = rng.uniform(0.0, 100.0, size=12)
        ends = starts + rng.uniform(0.0, 8.0, size=12)
        other_starts = rng.uniform(0.0, 100.0, size=9)
        other_ends = other_starts + rng.uniform(0.0, 8.0, size=9)

        array_a = IntervalSet.from_event_arrays(starts, ends)
        tuple_a = IntervalSet(zip(starts.tolist(), ends.tolist()))
        array_b = IntervalSet.from_event_arrays(other_starts, other_ends)
        tuple_b = IntervalSet(zip(other_starts.tolist(), other_ends.tolist()))

        assert array_a == tuple_a
        assert array_a.total_duration() == tuple_a.total_duration()
        assert array_a.union(array_b) == tuple_a.union(tuple_b)
        assert array_a.intersection(array_b) == tuple_a.intersection(tuple_b)
        assert array_a.complement((10.0, 90.0)) == \
            tuple_a.complement((10.0, 90.0))
        assert array_a.clip(25.0, 75.0) == tuple_a.clip(25.0, 75.0)
        assert array_a.filter_min_duration(2.0) == \
            tuple_a.filter_min_duration(2.0)


#: Draws and probabilities from a few shared values, so a draw often
#: equals a threshold (``<`` against ``>=``), and from anywhere in [0, 1).
_UNIT = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                  st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def _association_rows(draw, hours):
    """One device's draws and per-hour ``(prob_off, prob_on)`` with
    ``prob_off <= prob_on``."""
    values = st.lists(_UNIT, min_size=hours, max_size=hours)
    first, second = (np.array(draw(values)) for _ in range(2))
    return (np.array(draw(values)), np.minimum(first, second),
            np.maximum(first, second))


def _edge_rows(hours):
    """A row never forced off, one on only in its last hour, one never
    on, and one on from its first hour with no on-hour or forced-off
    hour after it, so no lookback fixes its state."""
    low, high = np.full(hours, 0.25), np.full(hours, 0.75)
    last_on = np.full(hours, 0.9)
    last_on[-1] = 0.1
    unfixed = np.full(hours, 0.5)
    unfixed[0] = 0.1
    never_off, never_on = np.zeros(hours), np.ones(hours)
    never_off[0], never_on[0] = 0.25, 0.75
    return [(np.tile([0.1, 0.5], hours)[:hours], low, np.ones(hours)),
            (last_on, low, high), (np.full(hours, 0.1), np.zeros(hours), high),
            (unfixed, never_off, never_on)]


@st.composite
def _read_ranges(draw, hours):
    """One to three ranges of a span's *hours*, which may overlap, touch
    or fall past the lookback; at least one holds an hour, so every case
    compares runs."""
    bound = st.integers(0, hours)
    ranges = draw(st.lists(st.tuples(bound, bound).map(sorted), max_size=2))
    lo = draw(st.integers(0, hours - 1))
    ranges.insert(draw(st.integers(0, len(ranges))),
                  (lo, draw(st.integers(lo + 1, hours))))
    return ranges


@st.composite
def _association_cases(draw):
    """A span's hour count, up to four devices' rows and its hour
    ranges."""
    hours = draw(st.integers(1, 3 * LOOKBACK_HOURS))
    return (hours, draw(st.lists(_association_rows(hours), max_size=4)),
            draw(_read_ranges(hours)))


def _hex_runs(runs):
    return [bound.hex() for run in runs for bound in run]


def _range_epochs(span, ranges):
    """Hour ranges of *span* as epochs, the last clipped to its end."""
    return [(span[0] + lo * HOUR, min(span[0] + hi * HOUR, span[1]))
            for lo, hi in ranges]


def _clipped(span, runs, ranges):
    """*runs* cut to the hour ranges (merged, in order), as epochs."""
    return [run for lo, hi in _range_epochs(span, ranges)
            for run in runs.clip(lo, hi)]


@settings(max_examples=200, deadline=None)
@given(_association_cases(), st.sampled_from([0.0, 0.5, 0.999]))
@example((1, [], [(0, 1)]), 0.5)  # a one-hour span that ends mid-hour
@example((60, [], [(0, 60)]), 0.0)  # the whole span, as a view solves it
@example((60, [], [(40, 45), (10, 20), (20, 30), (50, 70)]), 0.5)
def test_association_runs_match_scalar_walk(case, cut):
    """The solved runs over the read hours are the scalar walk's cut to
    the ranges, bit for bit, over a span of whole hours or one that ends
    mid-hour, including rows whose lookback fixes no state."""
    hours, rows, ranges = case
    start = utc(2013, 3, 1)
    span = (start, start + (hours - cut) * HOUR)
    rows = rows + _edge_rows(hours)
    read = ReadHours(hours, ranges)
    replayed = []

    def full_rows(indices):
        replayed.extend(indices.tolist())
        return tuple(np.array([rows[i][k] for i in indices.tolist()])
                     for k in range(3))

    starts, ends, offsets = read.solve(
        *(np.array([row[k][read.columns] for row in rows])
          for k in range(3)), full_rows)
    starts, ends = run_epochs(span, starts, ends)
    for index, row in enumerate(rows):
        lo, hi = offsets[index], offsets[index + 1]
        got = IntervalSet.from_normalized_arrays(starts[lo:hi], ends[lo:hi])
        want = _clipped(span, _markov_runs(span, *row), read.ranges)
        assert _hex_runs(got) == _hex_runs(want)
    if any(lo > LOOKBACK_HOURS for lo, _ in read.ranges):
        assert len(rows) - 1 in replayed  # the unfixed edge row


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.data())
def test_batch_gathers_tables_and_replays(seed, n_rows, data):
    """A batch's runs come from each row's 48-slot table gathered by its
    clock, and a row whose lookback fixes no state from its replayed
    draws: the scalar walk's runs cut to the read hours."""
    hours = 4 * LOOKBACK_HOURS
    start = utc(2013, 3, 1)
    span = (start, start + hours * HOUR)
    ranges = data.draw(_read_ranges(hours))
    rng = np.random.default_rng(seed)
    clocks = [rng.integers(0, TABLE_SLOTS, size=hours) for _ in range(2)]
    rows = [(rng.random(hours), rng.random(TABLE_SLOTS),
             float(rng.uniform(0.1, 2.0)), int(rng.integers(0, 2)))
            for _ in range(n_rows)]
    # On in hour 0 (slot 0: level 1), then neither an on-hour nor a
    # forced-off hour (slot 1: level 0, so 0 <= draw < 0.55).
    unfixed_clock = np.ones(hours, dtype=np.int64)
    unfixed_clock[0] = 0
    unfixed_levels = np.zeros(TABLE_SLOTS)
    unfixed_levels[0] = 1.0
    unfixed_draws = np.full(hours, 0.3)
    unfixed_draws[0] = 0.1
    rows.append((unfixed_draws, unfixed_levels, 1.0, 2))
    clocks.append(unfixed_clock)
    read = ReadHours(hours, ranges)
    batch = _AssociationBatch(span, read, lambda slot: rows[slot][0])
    ids = [batch.add_clock(clock) for clock in clocks]
    slots = [batch.push(draws, levels, scale, ids[clock])
             for draws, levels, scale, clock in rows]
    starts, ends, offsets = batch.finalize()
    for slot, (draws, levels, scale, clock) in zip(slots, rows):
        prob_off, prob_on = transition_probs(levels, scale)
        want = _markov_runs(span, draws, prob_off[clocks[clock]],
                            prob_on[clocks[clock]])
        lo, hi = offsets[slot], offsets[slot + 1]
        got = IntervalSet.from_normalized_arrays(starts[lo:hi], ends[lo:hi])
        assert _hex_runs(got) == _hex_runs(_clipped(span, want, read.ranges))
    assert list(batch.solved) == _range_epochs(span, read.ranges)
