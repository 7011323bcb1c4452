"""repro — a reproduction of "Peeking Behind the NAT" (IMC 2013).

The package rebuilds the paper's entire system from scratch:

* :mod:`repro.simulation` — the world: 126 households in 19 countries with
  GDP-calibrated behaviour (the substitute for the real homes);
* :mod:`repro.firmware` — the BISmark router: six measurement daemons plus
  the gateway-side anonymization pipeline;
* :mod:`repro.collection` — the central server, the lossy heartbeat path,
  and CSV/JSON archive round-trips;
* :mod:`repro.core` — the paper's contribution: the analysis pipeline that
  turns the six data sets into every figure and table of Sections 4-6;
* :mod:`repro.telemetry` — campaign observability: metrics registry,
  JSONL event log, run manifests, and deployment-health reports.

Quickstart::

    from repro import StudyConfig, run_study
    from repro.core import availability

    result = run_study(StudyConfig(router_scale=0.3, duration_scale=0.1))
    cdf = availability.downtime_rate_cdf(result.data, developed=True)
    print(cdf.median, "downtimes/day (median developed home)")

The package logs through stdlib :mod:`logging` under the ``"repro"``
namespace and installs only a ``NullHandler`` — attach your own handler
(or use the CLI's ``-v``/``-vv``) to see engine and telemetry progress.
"""

import logging as _logging

_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from repro.core.pipeline import (
    StreamedStudy,
    StudyConfig,
    StudyResult,
    run_study,
    run_study_streaming,
)
from repro.core.datasets import (
    DatasetSummary,
    HeartbeatLog,
    StudyData,
    ThroughputSeries,
    study_digest,
    summarize_datasets,
)
from repro.core.intervals import IntervalSet
from repro.core.records import (
    CapacityMeasurement,
    DeviceCountSample,
    DeviceRosterEntry,
    DnsRecord,
    FlowRecord,
    Medium,
    OBFUSCATED_DOMAIN,
    RouterInfo,
    Spectrum,
    ThroughputSample,
    UptimeReport,
    WifiScanSample,
)

__version__ = "1.0.0"

__all__ = [
    "StreamedStudy",
    "StudyConfig",
    "StudyResult",
    "run_study",
    "run_study_streaming",
    "DatasetSummary",
    "HeartbeatLog",
    "StudyData",
    "ThroughputSeries",
    "study_digest",
    "summarize_datasets",
    "IntervalSet",
    "CapacityMeasurement",
    "DeviceCountSample",
    "DeviceRosterEntry",
    "DnsRecord",
    "FlowRecord",
    "Medium",
    "OBFUSCATED_DOMAIN",
    "RouterInfo",
    "Spectrum",
    "ThroughputSample",
    "UptimeReport",
    "WifiScanSample",
    "__version__",
]
