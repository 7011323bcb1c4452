"""The traffic monitor: packet, flow, and DNS collection (Section 3.2.2).

For the consenting homes only, the firmware records:

* **Packet statistics** — reduced on-router to the per-minute peak
  one-second throughput, the statistic Section 6.2 analyzes.  The peak is
  the mean minute rate amplified by a burstiness factor, then clamped by
  the physical link: downlink at line rate, uplink at line rate *plus* the
  bufferbloat overshoot (Figs. 15, 16).
* **Flow statistics** — one record per connection with obfuscated
  device MAC, whitelisted-or-obfuscated domain, pseudonymous remote IP,
  and the application port.
* **DNS responses** — a sample of A/CNAME answers, same domain policy.

Flows and DNS answers leave the monitor as the columns of a
:class:`~repro.collection.batches.ColumnarRecords`, not as records.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any, Dict, Tuple

import numpy as np

from repro.collection.batches import batch_columns
from repro.core.datasets import ThroughputSeries
from repro.netutils.ports import port_application
from repro.simulation.household import Household
from repro.simulation.timebase import MINUTE
from repro.simulation.traffic_model import HomeTraffic
from repro.firmware.anonymize import AnonymizationPolicy

#: Fraction of flows that also yield a sampled DNS response record.
DNS_SAMPLE_FRACTION = 0.25


@lru_cache(maxsize=65536)
def _domain_ip(domain: str) -> int:
    """A stable fake public IPv4 for a domain (pre-anonymization).

    Memoized: a campaign sees each domain name across thousands of flows,
    and the mapping is a pure (salt-free) function of the name, so one
    SHA-256 per distinct domain suffices instead of one per flow.
    """
    digest = hashlib.sha256(domain.encode("utf-8")).digest()
    value = int.from_bytes(digest[:4], "big")
    # Pin the first octet to 23/24/25/26 — always-public CDN-ish space.
    first_octet = 23 + (value >> 24) % 4
    return (first_octet << 24) | (value & 0x00FFFFFF)


def monitor_traffic(household: Household, start: float, end: float,
                    rng: np.random.Generator,
                    policy: AnonymizationPolicy,
                    ) -> Tuple[ThroughputSeries, Dict[str, Any],
                               Dict[str, Any]]:
    """Run the traffic monitor over ``[start, end)`` for one home: its
    throughput series, flow columns and DNS columns."""
    traffic = household.traffic(start, end)
    series = _throughput_series(household, traffic, rng)
    flows, dns = _flow_records(traffic, rng, policy)
    return series, flows, dns


def _throughput_series(household: Household, traffic: HomeTraffic,
                       rng: np.random.Generator) -> ThroughputSeries:
    """Per-minute peak throughput, physically shaped by the access link."""
    n = traffic.minutes
    mean_up = traffic.minute_up_bytes * 8 / MINUTE
    mean_down = traffic.minute_down_bytes * 8 / MINUTE
    bursts = np.clip(rng.lognormal(np.log(2.2), 0.5, size=n), 1.0, 6.0)
    # Vectorized shaping: downlink clamping is RNG-free and the uplink
    # shaper draws only for bufferbloat minutes in minute order, exactly
    # as the per-minute scalar loop did.
    link = household.link
    peak_down = link.shape_downlink_peak_many(mean_down * bursts)
    peak_up = link.shape_uplink_peak_many(mean_up * bursts, rng)
    return ThroughputSeries(
        router_id=household.router_id,
        start=traffic.window[0],
        up_bps=peak_up,
        down_bps=peak_down,
    )


def _flow_records(traffic: HomeTraffic, rng: np.random.Generator,
                  policy: AnonymizationPolicy,
                  ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Anonymize the generated connections and sample their DNS answers,
    as flow and DNS columns."""
    flows = []
    dns = []
    macs = [policy.anonymize_mac(device.mac) for device in traffic.devices]
    # Per-campaign domain cache: each distinct domain name resolves its
    # whitelist filtering and IP pseudonym once, not once per flow.
    domain_cache: "dict[str, Tuple[str, int]]" = {}
    for flow in traffic.flows:
        name = flow.domain.name
        cached = domain_cache.get(name)
        if cached is None:
            cached = (policy.filter_domain(name),
                      policy.anonymize_ip(_domain_ip(name)))
            domain_cache[name] = cached
        domain, remote_ip = cached
        port = flow.domain.profile.port
        device_mac = macs[flow.device_index]
        flows.append((flow.timestamp, device_mac, domain, remote_ip, port,
                      port_application(port), flow.bytes_up,
                      flow.bytes_down, flow.duration_seconds))
        if rng.random() < DNS_SAMPLE_FRACTION:
            cname = rng.random() < 0.15
            # A CNAME resolves to no address: 0, flagged null.
            dns.append((flow.timestamp - float(rng.uniform(0.01, 0.5)),
                        device_mac, domain, "CNAME" if cname else "A",
                        0 if cname else remote_ip, cname))
    return batch_columns("flows", flows), batch_columns("dns", dns)
