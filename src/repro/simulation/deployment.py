"""The full BISmark deployment: 126 homes, 19 countries, 4 consent tiers.

The deployment is described in two stages so large campaigns can be
materialized shard-by-shard across worker processes:

* :func:`build_deployment_plan` produces a :class:`DeploymentPlan` — the
  cheap, picklable description of every home (membership sets, consent
  tiers, one :class:`HouseholdConfig` per home) with **no** ``Household``
  objects instantiated;
* :func:`materialize_shard` instantiates one contiguous slice of the
  plan's homes, so a worker holds only O(shard) state.

:func:`build_deployment` remains the one-call convenience API and returns
a :class:`Deployment` — now a thin, lazily-materializing view over the
plan that keeps the original attribute surface.

Data-set membership matches Table 2 of the paper:

=========  =====================================================
Heartbeats  all routers
Capacity    all routers
Uptime      113 of 126 (a few homes never enabled the reporter)
Devices     the same 113
WiFi        93 routers across 15 countries
Traffic     consenting US homes only (the paper had 53 consents
            of which 25 crossed the ≥100 MB activity bar)
=========  =====================================================

Membership draws are deterministic in the study seed.  The two Fig. 16
uplink saturators are always assigned among consenting US homes: one
``"continuous"`` (the scientific-data uploader) and one ``"diurnal"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.simulation.cohort import ShardCohort, build_shard_cohort
from repro.simulation.countries import COUNTRIES, Country
from repro.simulation.domains import Domain, default_universe
from repro.simulation.household import Household, HouseholdConfig
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import StudyWindows

#: Countries whose routers never produced WiFi scans (keeps 15 of 19).
_WIFI_EXCLUDED_COUNTRIES = ("FR", "IT", "MY", "ID")

#: Homes per lookup shard for point queries (``Deployment.household``):
#: small enough that a single lookup materializes O(64) homes, large
#: enough that scanning a country still touches few shards.
_LOOKUP_SHARD_SIZE = 64


@dataclass(frozen=True)
class DeploymentConfig:
    """Knobs for instantiating the deployment."""

    seed: int = 2013
    windows: StudyWindows = field(default_factory=StudyWindows)
    #: Scale factor on per-country router counts (1.0 = the paper's 126).
    router_scale: float = 1.0
    #: Target number of traffic-consenting US homes before the ≥100 MB
    #: filter; the paper had 53 consents and 25 qualifying homes.  We
    #: default to 28 consents of which ~25 qualify.
    traffic_consents: int = 28
    #: How many of the consenting homes are barely active (sub-100 MB),
    #: exercising the paper's activity filter.
    low_activity_consents: int = 3
    #: Traffic-consenting homes *outside* the US — the paper's Section 7
    #: plan ("we recently started gathering Traffic data in several
    #: developing countries").  Allocated round-robin over the largest
    #: non-US cohorts.  The paper's own Traffic data set used 0.
    international_consents: int = 0
    #: Restrict to these country codes (None = all of Table 1).
    countries: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.router_scale <= 0:
            raise ValueError("router_scale must be positive")
        if self.traffic_consents < 0 or self.low_activity_consents < 0:
            raise ValueError("consent counts cannot be negative")
        if self.low_activity_consents > self.traffic_consents:
            raise ValueError("low-activity consents cannot exceed consents")


@dataclass(frozen=True)
class DeploymentPlan:
    """Everything the campaign needs to know about a deployment, lazily.

    A plan is cheap to build (membership RNG draws only), cheap to pickle
    (per-home configs, no per-home models), and is the unit shipped to
    shard workers.  ``Household`` objects are instantiated on demand via
    :func:`materialize_shard`.
    """

    seed: int
    windows: StudyWindows
    household_configs: Tuple[HouseholdConfig, ...]
    uptime_routers: FrozenSet[str]
    devices_routers: FrozenSet[str]
    wifi_routers: FrozenSet[str]
    traffic_routers: FrozenSet[str]

    def __len__(self) -> int:
        return len(self.household_configs)

    @property
    def router_ids(self) -> List[str]:
        """All router ids in deployment order (no materialization)."""
        return [config.router_id for config in self.household_configs]

    def shard_bounds(self, shard_index: int, n_shards: int) -> Tuple[int, int]:
        """Half-open ``[lo, hi)`` slice of homes owned by one shard.

        Shards partition the deployment in order: concatenating the slices
        for ``shard_index = 0 .. n_shards-1`` reproduces the full home list
        exactly, which is what makes shard-parallel collection ingestible
        in a deterministic order.  With ``n_shards > len(plan)`` the excess
        shards are simply empty.
        """
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if not 0 <= shard_index < n_shards:
            raise ValueError(
                f"shard_index {shard_index} out of range for {n_shards} shards")
        n = len(self)
        return (shard_index * n) // n_shards, ((shard_index + 1) * n) // n_shards

    def shard_configs(self, shard_index: int,
                      n_shards: int) -> Tuple[HouseholdConfig, ...]:
        """The household configs one shard owns."""
        lo, hi = self.shard_bounds(shard_index, n_shards)
        return self.household_configs[lo:hi]


def materialize_shard(plan: DeploymentPlan, shard_index: int, n_shards: int,
                      domain_universe: Optional[Sequence[Domain]] = None,
                      ) -> ShardCohort:
    """Materialize the households of one shard of *plan*, columnar-style.

    Each household's randomness derives only from ``(plan.seed,
    router_id)`` via :class:`SeedHierarchy`, so materializing a home inside
    any shard split — or no split at all — yields bitwise-identical models.
    The result is a :class:`~repro.simulation.cohort.ShardCohort`: it
    iterates, indexes, and slices like the list of ``Household`` objects it
    used to be, but the per-home models are assembled lazily from the
    cohort's column arrays.  Device associations are solved only over the
    hours of the plan's windows that collectors read devices in.  Workers
    may pass a pre-built *domain_universe* to share it across shards
    within a process; omitted, the memoized deterministic default is used.
    """
    universe = (domain_universe if domain_universe is not None
                else default_universe())
    return build_shard_cohort(plan.seed,
                              plan.shard_configs(shard_index, n_shards),
                              plan.windows, universe)


class Deployment:
    """Thin view over a :class:`DeploymentPlan` with lazy households.

    Keeps the pre-plan attribute surface (``households``, membership sets,
    ``household()``, ``countries`` …) but defers ``Household``
    materialization until ground truth is actually inspected — running a
    campaign through the engine never touches it.
    """

    def __init__(self, plan: DeploymentPlan):
        self.plan = plan
        self.windows = plan.windows
        self.uptime_routers: Set[str] = set(plan.uptime_routers)
        self.devices_routers: Set[str] = set(plan.devices_routers)
        self.wifi_routers: Set[str] = set(plan.wifi_routers)
        self.traffic_routers: Set[str] = set(plan.traffic_routers)
        self._households: Optional[Sequence[Household]] = None
        self._universe: Optional[List[Domain]] = None
        self._position: Optional[Dict[str, int]] = None
        self._lookup_cohorts: Dict[int, ShardCohort] = {}

    @property
    def universe(self) -> List[Domain]:
        """The domain universe (deterministic; built on first use)."""
        if self._universe is None:
            self._universe = list(default_universe())
        return self._universe

    @property
    def households(self) -> Sequence[Household]:
        """Every home, materializing the whole plan on first access."""
        if self._households is None:
            self._households = materialize_shard(
                self.plan, 0, 1, domain_universe=self.universe)
        return self._households

    def __len__(self) -> int:
        return len(self.plan)

    def _home_at(self, position: int) -> Household:
        """The home at one deployment position, materializing O(shard).

        Point lookups must not materialize the whole plan: the owning
        lookup shard (:data:`_LOOKUP_SHARD_SIZE` homes) is materialized on
        first touch and cached.  When the full cohort already exists it is
        used directly.
        """
        if self._households is not None:
            return self._households[position]
        n = len(self.plan)
        n_shards = max(1, -(-n // _LOOKUP_SHARD_SIZE))
        # Invert the shard_bounds partition lo_i = (i*n)//k: position pos
        # belongs to shard ceil(k*(pos+1)/n) - 1.
        shard = (n_shards * (position + 1) + n - 1) // n - 1
        cohort = self._lookup_cohorts.get(shard)
        if cohort is None:
            cohort = materialize_shard(self.plan, shard, n_shards,
                                       domain_universe=self.universe)
            self._lookup_cohorts[shard] = cohort
        lo, _ = self.plan.shard_bounds(shard, n_shards)
        return cohort[position - lo]

    def household(self, router_id: str) -> Household:
        """Look up a household by router id (KeyError if absent).

        Resolves via the home's deployment position and its owning lookup
        shard's cohort — O(shard), never a full-plan materialization.
        """
        if self._position is None:
            self._position = {
                config.router_id: index
                for index, config in enumerate(self.plan.household_configs)}
        return self._home_at(self._position[router_id])

    @property
    def countries(self) -> List[Country]:
        """Distinct countries present, in Table 1 order."""
        seen = {config.country.code for config in self.plan.household_configs}
        return [c for c in COUNTRIES if c.code in seen]

    def routers_in(self, country_code: str) -> List[Household]:
        """Households deployed in one country.

        Materializes only the lookup shards that country's contiguous
        run of homes occupies, not the whole plan.
        """
        code = country_code.upper()
        return [self._home_at(index)
                for index, config in enumerate(self.plan.household_configs)
                if config.country.code == code]


def _scaled_count(count: int, scale: float) -> int:
    """Scale a per-country router count, keeping every country populated.

    Rounds half-up explicitly: ``round()`` would round half-to-even
    (banker's rounding), making e.g. a 10-router cohort at scale 0.25
    shrink to 2 homes while an 18-router cohort at the same scale keeps
    its expected 4.5 → 4 — cohort sizes should grow monotonically with
    the unrounded product instead.
    """
    scaled = math.floor(count * scale + 0.5)
    if scale >= 1.0:
        return scaled
    return max(1, scaled)


def build_deployment_plan(
        config: Optional[DeploymentConfig] = None) -> DeploymentPlan:
    """Draw the deployment described by *config* without materializing it.

    All membership randomness (appliance stratification, Uptime/Devices
    drops, WiFi subset) is consumed here, in a fixed order, from the
    ``"membership"`` stream — so the plan is deterministic in the seed and
    identical no matter how it is later sharded.
    """
    config = config or DeploymentConfig()
    seeds = SeedHierarchy(config.seed)
    windows = config.windows
    span = windows.span

    selected = [c for c in COUNTRIES
                if config.countries is None
                or c.code in tuple(code.upper() for code in config.countries)]
    if not selected:
        raise ValueError("no countries selected for the deployment")

    membership_rng = seeds.generator("membership")

    # -- traffic consents: US homes, with saturators and low-activity homes.
    us_count = next((_scaled_count(c.routers, config.router_scale)
                     for c in selected if c.code == "US"), 0)
    consents = min(config.traffic_consents, us_count)
    consent_indices = set(range(consents))  # first N US homes consent
    low_activity = set(range(max(consents - config.low_activity_consents, 0),
                             consents))
    saturator_modes: Dict[int, str] = {}
    active_consents = sorted(consent_indices - low_activity)
    if len(active_consents) >= 2:
        saturator_modes[active_consents[0]] = "continuous"
        saturator_modes[active_consents[1]] = "diurnal"

    # -- international consents: round-robin over the largest non-US
    #    cohorts (GB, IN, ZA, ...), one home per country per round.
    international: Dict[str, Set[int]] = {}
    if config.international_consents > 0:
        ordered = sorted((c for c in selected if c.code != "US"),
                         key=lambda c: -c.routers)
        remaining = config.international_consents
        round_index = 0
        while remaining > 0 and ordered:
            progressed = False
            for country in ordered:
                count = _scaled_count(country.routers, config.router_scale)
                if round_index < count and remaining > 0:
                    international.setdefault(country.code,
                                             set()).add(round_index)
                    remaining -= 1
                    progressed = True
            if not progressed:
                break
            round_index += 1

    household_configs: List[HouseholdConfig] = []
    for country in selected:
        count = _scaled_count(country.routers, config.router_scale)
        # Stratify appliance-mode homes: each country gets exactly its
        # calibrated share (rounded), so small cohorts cannot drift into
        # majority-appliance by Bernoulli luck.
        n_appliance = int(round(count * country.behavior.appliance_probability))
        if n_appliance:
            appliance_indices = set(membership_rng.choice(
                count, size=n_appliance, replace=False).tolist())
        else:
            appliance_indices = set()
        for index in range(count):
            router_id = f"{country.code}{index:03d}"
            is_us = country.code == "US"
            consent = (is_us and index in consent_indices) or \
                index in international.get(country.code, set())
            household_configs.append(HouseholdConfig(
                router_id=router_id,
                country=country,
                span=span,
                traffic_consent=consent,
                uplink_saturator=saturator_modes.get(index) if is_us else None,
                traffic_intensity=(0.002 if (is_us and index in low_activity)
                                   else 1.0),
                appliance_hint=index in appliance_indices,
            ))

    all_ids = [config_.router_id for config_ in household_configs]

    # -- Uptime/Devices: drop ~10% of homes, matching 113-of-126.
    drop_fraction = 13 / 126
    n_drop = int(round(len(all_ids) * drop_fraction))
    dropped = set(membership_rng.choice(all_ids, size=n_drop, replace=False)
                  .tolist()) if n_drop else set()
    uptime_routers = frozenset(rid for rid in all_ids if rid not in dropped)

    # -- WiFi: exclude four countries, then keep ~93/122 of the rest.
    wifi_candidates = [config_.router_id for config_ in household_configs
                       if config_.country.code not in _WIFI_EXCLUDED_COUNTRIES]
    keep_fraction = 93 / 122
    n_keep = max(1, int(round(len(wifi_candidates) * keep_fraction)))
    wifi_routers = frozenset(membership_rng.choice(
        wifi_candidates, size=min(n_keep, len(wifi_candidates)),
        replace=False).tolist())

    traffic_routers = frozenset(
        config_.router_id for config_ in household_configs
        if config_.traffic_consent)

    return DeploymentPlan(
        seed=config.seed,
        windows=windows,
        household_configs=tuple(household_configs),
        uptime_routers=uptime_routers,
        devices_routers=uptime_routers,
        wifi_routers=wifi_routers,
        traffic_routers=traffic_routers,
    )


def build_deployment(config: Optional[DeploymentConfig] = None) -> Deployment:
    """Instantiate the deployment described by *config* (deterministic).

    Returns a lazy :class:`Deployment` view; households materialize on
    first access to :attr:`Deployment.households`.
    """
    return Deployment(build_deployment_plan(config))
