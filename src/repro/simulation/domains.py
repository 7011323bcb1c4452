"""The domain universe: popularity ranks, categories, and device profiles.

Sections 6.4 and 3.2.2 of the paper hinge on a *whitelist* of the Alexa
top-200 US domains: traffic to whitelisted domains keeps its name, anything
else is obfuscated before leaving the home, and whitelisted traffic covers
about 65% of bytes.  This module builds that universe:

* a ranked whitelist whose head is the real one (google, youtube, facebook,
  amazon, apple, twitter, ...) and whose tail is synthetic;
* a *category* per domain (streaming / web / social / cloud / update /
  gaming / other) fixing its flow shape — streaming moves two orders of
  magnitude more bytes per connection than web browsing, which is exactly
  why the volume-top domain carries ~38% of bytes on ~14% of connections
  (Fig. 19);
* per-device-kind domain preference profiles — a Roku talks almost only to
  streaming services, a desktop syncs dropbox (Fig. 20).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Sentinel name prefix for the non-whitelisted tail the firmware obfuscates.
TAIL_DOMAIN_PREFIX = "tail-site-"

WHITELIST_SIZE = 200


@dataclass(frozen=True)
class DomainProfile:
    """Flow shape of one domain category."""

    #: Median bytes transferred per connection (downstream-dominant).
    bytes_per_connection: float
    #: Lognormal sigma for per-connection bytes.
    bytes_sigma: float
    #: Mean connections opened per session touching this domain.
    connections_per_session: float
    #: Fraction of the bytes that flow upstream.
    upstream_fraction: float
    #: Typical flow duration in seconds (streaming runs long).
    duration_seconds: float
    #: Dominant destination port.
    port: int


#: Flow shapes per category, calibrated to make streaming byte-heavy and
#: connection-light, and web the reverse (Fig. 19a vs 19b).
CATEGORY_PROFILES: Dict[str, DomainProfile] = {
    "streaming": DomainProfile(
        bytes_per_connection=45e6, bytes_sigma=1.0,
        connections_per_session=2.0, upstream_fraction=0.02,
        duration_seconds=1500.0, port=443),
    "web": DomainProfile(
        bytes_per_connection=450e3, bytes_sigma=1.2,
        connections_per_session=10.0, upstream_fraction=0.10,
        duration_seconds=20.0, port=80),
    "social": DomainProfile(
        bytes_per_connection=500e3, bytes_sigma=1.2,
        connections_per_session=9.0, upstream_fraction=0.15,
        duration_seconds=45.0, port=443),
    "cloud": DomainProfile(
        bytes_per_connection=15e6, bytes_sigma=1.5,
        connections_per_session=3.0, upstream_fraction=0.45,
        duration_seconds=300.0, port=443),
    "update": DomainProfile(
        bytes_per_connection=25e6, bytes_sigma=1.3,
        connections_per_session=2.0, upstream_fraction=0.02,
        duration_seconds=240.0, port=443),
    "gaming": DomainProfile(
        bytes_per_connection=6e6, bytes_sigma=1.2,
        connections_per_session=3.0, upstream_fraction=0.20,
        duration_seconds=1800.0, port=3074),
    "other": DomainProfile(
        bytes_per_connection=800e3, bytes_sigma=1.6,
        connections_per_session=5.0, upstream_fraction=0.15,
        duration_seconds=60.0, port=443),
}


@dataclass(frozen=True)
class Domain:
    """One destination domain with its global rank and category."""

    name: str
    rank: int
    category: str
    whitelisted: bool

    @property
    def profile(self) -> DomainProfile:
        """Flow shape for this domain's category."""
        return CATEGORY_PROFILES[self.category]


# The whitelist head mirrors the real Alexa-top-US head the paper names
# (Google, YouTube, Facebook, Amazon, Apple, Twitter are "the most
# consistently popular domains"), plus the streaming/cloud services that
# Figs. 14-20 discuss by name.
_HEAD: Tuple[Tuple[str, str], ...] = (
    ("google.com", "web"),
    ("youtube.com", "streaming"),
    ("facebook.com", "social"),
    ("amazon.com", "web"),
    ("apple.com", "update"),
    ("twitter.com", "social"),
    ("netflix.com", "streaming"),
    ("yahoo.com", "web"),
    ("wikipedia.org", "web"),
    ("hulu.com", "streaming"),
    ("pandora.com", "streaming"),
    ("dropbox.com", "cloud"),
    ("microsoft.com", "update"),
    ("ebay.com", "web"),
    ("bing.com", "web"),
    ("craigslist.org", "web"),
    ("linkedin.com", "social"),
    ("pinterest.com", "social"),
    ("instagram.com", "social"),
    ("tumblr.com", "social"),
    ("espn.com", "web"),
    ("cnn.com", "web"),
    ("nytimes.com", "web"),
    ("imgur.com", "web"),
    ("paypal.com", "web"),
    ("live.com", "web"),
    ("blogspot.com", "web"),
    ("wordpress.com", "web"),
    ("reddit.com", "web"),
    ("aol.com", "web"),
    ("xboxlive.com", "gaming"),
    ("steampowered.com", "gaming"),
    ("icloud.com", "cloud"),
    ("twitch.tv", "streaming"),
    ("vimeo.com", "streaming"),
    ("spotify.com", "streaming"),
)


def build_domain_universe(tail_domains: int = 400) -> List[Domain]:
    """Build the ranked universe: 200 whitelisted + an obfuscated tail.

    Ranks 1..200 form the whitelist (real head, synthetic ``site-N.com``
    filler); ranks beyond are the long tail the firmware obfuscates.
    """
    if tail_domains < 0:
        raise ValueError("tail_domains cannot be negative")
    domains: List[Domain] = []
    for index, (name, category) in enumerate(_HEAD):
        domains.append(Domain(name, index + 1, category, whitelisted=True))
    for rank in range(len(_HEAD) + 1, WHITELIST_SIZE + 1):
        # Synthetic filler for the rest of the top-200: mostly web, with a
        # sprinkling of streaming/cloud so mid-ranks can matter in Fig. 18.
        if rank % 29 == 0:
            category = "streaming"
        elif rank % 17 == 0:
            category = "cloud"
        else:
            category = "web"
        domains.append(Domain(f"site-{rank:03d}.com", rank, category,
                              whitelisted=True))
    for offset in range(tail_domains):
        rank = WHITELIST_SIZE + 1 + offset
        # The obfuscated tail is not all small-object traffic: it includes
        # CDNs, adult streaming, and sync services, which is how ~35% of
        # bytes end up outside the whitelist (Fig. 19's "Total" caveat).
        if rank % 11 == 0:
            category = "streaming"
        elif rank % 7 == 0:
            category = "cloud"
        else:
            category = "other"
        domains.append(Domain(f"{TAIL_DOMAIN_PREFIX}{offset:04d}.com",
                              rank, category, whitelisted=False))
    return domains


@lru_cache(maxsize=1)
def default_universe() -> Tuple[Domain, ...]:
    """The default domain universe, memoized per process.

    Shard workers, fault-tolerance retries, and default
    ``materialize_shard`` calls all need the same deterministic universe;
    building it once per process instead of once per shard keeps retry and
    resubmission paths from redoing the construction.  The tuple is shared,
    so callers must treat it as immutable (every ``Domain`` already is).
    """
    return tuple(build_domain_universe())


def zipf_weights(ranks: Sequence[int], exponent: float = 0.75) -> np.ndarray:
    """Zipf popularity weights over global ranks (normalized)."""
    arr = np.asarray(list(ranks), dtype=float)
    if np.any(arr < 1):
        raise ValueError("ranks start at 1")
    weights = arr ** -exponent
    return weights / weights.sum()


#: Device-kind → per-category appetite multipliers (Fig. 20's separation).
KIND_CATEGORY_APPETITE: Dict[str, Dict[str, float]] = {
    "phone": {"web": 1.0, "social": 2.5, "streaming": 0.8, "cloud": 0.3,
              "update": 0.8, "gaming": 0.1, "other": 1.0},
    "tablet": {"web": 1.0, "social": 1.5, "streaming": 1.8, "cloud": 0.3,
               "update": 0.6, "gaming": 0.3, "other": 0.8},
    "laptop": {"web": 1.3, "social": 1.0, "streaming": 1.2, "cloud": 0.8,
               "update": 0.6, "gaming": 0.2, "other": 1.2},
    "desktop": {"web": 1.3, "social": 0.7, "streaming": 0.8, "cloud": 2.5,
                "update": 0.8, "gaming": 0.3, "other": 1.2},
    "media_box": {"web": 0.02, "social": 0.0, "streaming": 12.0, "cloud": 0.0,
                  "update": 0.1, "gaming": 0.0, "other": 0.05},
    "console": {"web": 0.1, "social": 0.05, "streaming": 2.0, "cloud": 0.0,
                "update": 1.0, "gaming": 8.0, "other": 0.1},
    "background": {"web": 0.3, "social": 0.05, "streaming": 0.05,
                   "cloud": 0.5, "update": 1.5, "gaming": 0.0, "other": 1.0},
}


class DomainSampler:
    """Per-home domain sampling: global popularity × device appetite × taste.

    Each home picks a *favorite* streaming service whose weight is boosted,
    which is what concentrates ~38% of a home's bytes on one domain while
    different homes favor different services (Fig. 18's long tail of
    locally-popular domains).
    """

    def __init__(self, rng: np.random.Generator,
                 universe: Sequence[Domain],
                 favorite_boost: float = 1.3,
                 taste_sigma: float = 0.8,
                 tail_weight_multiplier: float = 1.6):
        if not universe:
            raise ValueError("domain universe must be non-empty")
        if tail_weight_multiplier < 0:
            raise ValueError("tail_weight_multiplier cannot be negative")
        self.universe = list(universe)
        base = zipf_weights([d.rank for d in self.universe])
        # Household taste: independent lognormal jitter per domain.
        taste = rng.lognormal(0.0, taste_sigma, size=len(self.universe))
        weights = base * taste
        tail_mask = np.asarray([not d.whitelisted for d in self.universe])
        weights[tail_mask] *= tail_weight_multiplier
        streaming_idx = [i for i, d in enumerate(self.universe)
                         if d.category == "streaming" and d.whitelisted]
        if streaming_idx:
            favorite = int(rng.choice(streaming_idx))
            weights[favorite] *= favorite_boost
            self.favorite_domain = self.universe[favorite].name
        else:
            self.favorite_domain = None
        self._home_weights = weights / weights.sum()
        self._by_kind: Dict[str, np.ndarray] = {}

    def _kind_cdf(self, profile_key: str) -> np.ndarray:
        """The cumulative domain weights of a device profile, as
        ``Generator.choice(p=...)`` builds them: the weights' ``cumsum``
        divided by its last element."""
        cached = self._by_kind.get(profile_key)
        if cached is not None:
            return cached
        appetite = KIND_CATEGORY_APPETITE.get(
            profile_key, KIND_CATEGORY_APPETITE["laptop"])
        scales = np.asarray([appetite.get(d.category, 0.1)
                             for d in self.universe])
        weights = self._home_weights * scales
        total = weights.sum()
        if total == 0:
            weights = self._home_weights.copy()
            total = weights.sum()
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        self._by_kind[profile_key] = cdf
        return cdf

    def sample(self, rng: np.random.Generator, profile_key: str,
               count: int) -> List[Domain]:
        """Draw *count* session target domains for a device profile.

        ``rng.choice(len(universe), size=count, p=weights)`` draws one
        uniform per domain and binary-searches the weights' CDF; this
        does the same against the cached CDF, so it returns the same
        domains and leaves *rng* at the same position.
        """
        if count < 0:
            raise ValueError("count cannot be negative")
        if count == 0:
            return []
        idx = np.searchsorted(self._kind_cdf(profile_key), rng.random(count),
                              side="right")
        return [self.universe[i] for i in idx.tolist()]
