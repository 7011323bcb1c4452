"""One simulated home: link + power + devices + wireless + traffic.

A :class:`Household` is the unit the firmware simulator instruments.  It
wires together every per-home model with independent random streams derived
from the study seed, and exposes the queries the collectors need:

* when was the router powered (:attr:`power`), the link up (:attr:`link`),
  and both (:meth:`online_intervals`) — heartbeats need the conjunction;
* which devices were associated when (:attr:`devices`);
* what the radio neighborhood looks like (:attr:`wireless`);
* the generated traffic, for consenting homes (:meth:`traffic`).

Households come into existence two ways with identical results:

* the **reference path** — ``Household(seeds, config)`` draws and expands
  every model eagerly, one home at a time;
* the **cohort path** — ``repro.simulation.cohort`` draws a whole shard
  columnar-style and hands out :meth:`_from_cohort` views whose model
  attributes assemble lazily from the shard's column arrays (the
  devices' full-span timelines from a replay of the home's stream).

The cohort equivalence suite pins the two paths together bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.intervals import IntervalSet
from repro.core.records import RouterInfo
from repro.simulation.behavior import ActivitySchedule
from repro.simulation.countries import Country
from repro.simulation.device_models import SimDevice, generate_devices
from repro.simulation.domains import Domain, DomainSampler, default_universe
from repro.simulation.link import AccessLink, AccessLinkConfig
from repro.simulation.power import PowerModel, draw_power_model
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import StudyCalendar
from repro.simulation.traffic_model import HomeTraffic, TrafficGenerator
from repro.simulation.wireless import WirelessEnvironment, WirelessEnvironmentConfig


@dataclass(frozen=True)
class HouseholdConfig:
    """Static description of one home before any randomness is drawn."""

    router_id: str
    country: Country
    span: Tuple[float, float]
    traffic_consent: bool = False
    #: None, "continuous", or "diurnal" — the Fig. 16 uplink saturators.
    uplink_saturator: Optional[str] = None
    #: Multiplier on traffic volume; <1 models barely-active homes that the
    #: paper's ≥100 MB Traffic filter excludes.
    traffic_intensity: float = 1.0
    #: Deployment-stratified appliance-mode decision.  None keeps the
    #: per-home Bernoulli draw; True/False pins the mode so each country
    #: gets exactly its calibrated share of appliance homes.
    appliance_hint: "Optional[bool]" = None

    def __post_init__(self) -> None:
        if self.span[1] <= self.span[0]:
            raise ValueError("household span must be non-empty")
        if self.traffic_intensity <= 0:
            raise ValueError("traffic_intensity must be positive")


class Household:
    """A fully-instantiated home, deterministic given (seed, config)."""

    def __init__(self, seeds: SeedHierarchy, config: HouseholdConfig,
                 domain_universe: Optional[Sequence[Domain]] = None):
        self.config = config
        self.country = config.country
        self.router_id = config.router_id
        self.span = config.span
        self.calendar = StudyCalendar(config.country.tz_offset_hours)
        self._cohort = None
        self._cohort_index = -1

        scope = seeds.child("household", config.router_id)
        profile = config.country.behavior

        self._schedule: Optional[ActivitySchedule] = \
            ActivitySchedule.generate(scope.generator("schedule"))
        if config.appliance_hint is None:
            appliance_probability = profile.appliance_probability
        else:
            appliance_probability = 1.0 if config.appliance_hint else 0.0
        self._power: Optional[PowerModel] = draw_power_model(
            scope.generator("power"), config.span, self.calendar,
            self._schedule, appliance_probability,
            config.country.developed,
            nightly_off_probability=profile.nightly_off_probability)

        link_rng = scope.generator("link")
        capacity_jitter = float(link_rng.lognormal(0.0, 0.35))
        self._link: Optional[AccessLink] = AccessLink(
            link_rng, config.span, AccessLinkConfig(
                downstream_mbps=profile.downstream_mbps * capacity_jitter,
                upstream_mbps=profile.upstream_mbps * capacity_jitter,
                outage_rate_per_day=profile.isp_outage_rate_per_day,
                outage_median_seconds=profile.isp_outage_median_seconds,
                outage_duration_sigma=profile.isp_outage_duration_sigma,
            ))

        self._wireless: Optional[WirelessEnvironment] = WirelessEnvironment(
            scope.generator("wireless"),
            WirelessEnvironmentConfig(
                neighbor_ap_level=profile.neighbor_ap_level,
                sparse_probability=0.30 if config.country.developed else 0.42,
            ))

        self._devices: Optional[List[SimDevice]] = generate_devices(
            scope.generator("devices"), config.router_id, config.span,
            self.calendar, self._schedule, config.country.developed,
            profile.mean_devices, profile.always_wired_probability,
            profile.always_wireless_probability)

        self._universe = (list(domain_universe) if domain_universe is not None
                          else default_universe())
        self._sampler: Optional[DomainSampler] = None
        self._traffic_cache: "dict[Tuple[float, float], HomeTraffic]" = {}
        self._seeds = scope

    @classmethod
    def _from_cohort(cls, cohort, index: int) -> "Household":
        """A lazy view into a :class:`~repro.simulation.cohort.ShardCohort`.

        No RNG is consumed here: every draw already happened during the
        cohort's columnar pass.  Model attributes assemble on first touch
        from the cohort's column arrays; the devices, whose timelines the
        cohort solved only over the hours collectors read, replay the
        home's ``"devices"`` stream from a fresh generator.
        """
        config = cohort.configs[index]
        obj = cls.__new__(cls)
        obj.config = config
        obj.country = config.country
        obj.router_id = config.router_id
        obj.span = config.span
        obj.calendar = cohort.calendar_for(config)
        obj._cohort = cohort
        obj._cohort_index = index
        obj._schedule = None
        obj._power = None
        obj._link = None
        obj._wireless = None
        obj._devices = None
        obj._universe = cohort.universe
        obj._sampler = None
        obj._traffic_cache = {}
        obj._seeds = cohort.seeds.child("household", config.router_id)
        return obj

    # -- model attributes (eager on the reference path, lazy on cohorts) -------

    @property
    def schedule(self) -> ActivitySchedule:
        """The home's presence/activity curves."""
        if self._schedule is None:
            self._schedule = self._cohort._build_schedule(self._cohort_index)
        return self._schedule

    @property
    def power(self) -> PowerModel:
        """When the router is powered (always-on or appliance mode)."""
        if self._power is None:
            self._power = self._cohort._build_power(self._cohort_index)
        return self._power

    @property
    def link(self) -> AccessLink:
        """The ISP access link: capacity, outages, bufferbloat."""
        if self._link is None:
            self._link = self._cohort._build_link(self._cohort_index)
        return self._link

    @property
    def wireless(self) -> WirelessEnvironment:
        """The radio neighborhood the WiFi collector scans."""
        if self._wireless is None:
            self._wireless = self._cohort._build_wireless(self._cohort_index)
        return self._wireless

    @property
    def devices(self) -> List[SimDevice]:
        """The home's device population with association timelines."""
        if self._devices is None:
            self._devices = self._cohort._build_devices(self._cohort_index)
        return self._devices

    @property
    def info(self) -> RouterInfo:
        """Deployment metadata record for this home's gateway."""
        return RouterInfo(
            router_id=self.router_id,
            country_code=self.country.code,
            developed=self.country.developed,
            tz_offset_hours=self.country.tz_offset_hours,
            gdp_ppp_per_capita=self.country.gdp_ppp_per_capita,
        )

    @property
    def domain_sampler(self) -> DomainSampler:
        """This home's domain taste (lazy: only traffic homes need it)."""
        if self._sampler is None:
            self._sampler = DomainSampler(
                self._seeds.generator("domains"), self._universe)
        return self._sampler

    # -- availability queries ---------------------------------------------------

    def online_intervals(self, start: float, end: float) -> IntervalSet:
        """When the router was powered AND the access link was up."""
        return self.power.up_intervals(start, end).intersection(
            self.link.up_intervals(start, end))

    def is_online(self, epoch: float) -> bool:
        """True when both power and link were up at *epoch*."""
        return self.power.is_on(epoch) and self.link.is_up(epoch)

    def uptime_at(self, epoch: float) -> Optional[float]:
        """Seconds since last boot at *epoch*, or None if powered off.

        This is what the 12-hourly Uptime reports carry; it resets on every
        power cycle but *not* on ISP outages, which is precisely how the
        paper distinguishes powered-off routers from offline ones.
        """
        interval = self.power.on_intervals.interval_at(epoch)
        if interval is None:
            return None
        return epoch - interval[0]

    # -- traffic -----------------------------------------------------------------

    def _devices_within(self, start: float, end: float) -> List[SimDevice]:
        """The devices, their timelines exact inside ``[start, end)``.

        A cohort view takes its cohort's solved runs when the window lies
        inside them, which spares the full-span replay of :attr:`devices`.
        """
        if self._devices is None and self._cohort is not None:
            devices = self._cohort._devices_within(self._cohort_index,
                                                   start, end)
            if devices is not None:
                return devices
        return self.devices

    def traffic(self, start: float, end: float) -> HomeTraffic:
        """Generated traffic for a window (cached per window)."""
        key = (start, end)
        cached = self._traffic_cache.get(key)
        if cached is not None:
            return cached
        generator = TrafficGenerator(
            rng=self._seeds.generator("traffic"),
            devices=self._devices_within(start, end),
            schedule=self.schedule,
            calendar=self.calendar,
            sampler=self.domain_sampler,
            online=self.online_intervals(start, end),
            uplink_saturator=self.config.uplink_saturator,
            upstream_capacity_bps=self.link.upstream_bps,
            intensity=self.config.traffic_intensity,
        )
        traffic = generator.generate(start, end)
        self._traffic_cache[key] = traffic
        return traffic
