"""The paper's contribution: the BISmark measurement-analysis pipeline.

``repro.core`` turns the six raw data sets (Heartbeats, Uptime, Capacity,
Devices, WiFi, Traffic — Section 3 of the paper) into every statistic in the
paper's evaluation:

* :mod:`repro.core.availability` — Section 4 (downtime frequency, duration,
  GDP correlation, availability timelines).
* :mod:`repro.core.infrastructure` — Section 5 (device censuses, spectrum
  occupancy, neighbor APs, vendor profiles).
* :mod:`repro.core.usage` — Section 6 (diurnal profiles, link saturation,
  per-device and per-domain traffic shares).
* :mod:`repro.core.fingerprint` — Section 6.4/7 (device fingerprinting from
  domain mixes).
* :mod:`repro.core.pipeline` — one-call orchestration of
  simulate → collect → analyze.
"""

from repro.core.records import (
    CapacityMeasurement,
    DeviceCountSample,
    DnsRecord,
    FlowRecord,
    RouterInfo,
    Spectrum,
    ThroughputSample,
    UptimeReport,
    WifiScanSample,
)
from repro.core.intervals import IntervalSet
from repro.core.datasets import StudyData, DatasetSummary, summarize_datasets
from repro.core.pipeline import (
    StreamedStudy,
    StudyConfig,
    run_study,
    run_study_streaming,
)
from repro.core.sketches import QuantileSketch
from repro.core.streaming import (
    StoreSource,
    StudyDataSource,
    StudyFigures,
    compute_figures,
    stream_figures,
)

__all__ = [
    "CapacityMeasurement",
    "DeviceCountSample",
    "DnsRecord",
    "FlowRecord",
    "RouterInfo",
    "Spectrum",
    "ThroughputSample",
    "UptimeReport",
    "WifiScanSample",
    "IntervalSet",
    "StudyData",
    "DatasetSummary",
    "summarize_datasets",
    "StudyConfig",
    "run_study",
    "StreamedStudy",
    "run_study_streaming",
    "QuantileSketch",
    "StoreSource",
    "StudyDataSource",
    "StudyFigures",
    "compute_figures",
    "stream_figures",
]
