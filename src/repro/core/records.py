"""Record schemas for the six BISmark data sets (paper Section 3.2).

Every collector in :mod:`repro.firmware` emits these records, the collection
server stores them, and the analysis modules consume them.  The schemas
deliberately contain only what the paper says was collected — e.g. flow
records carry an *obfuscated* device MAC and a domain that is either
whitelisted or the ``OBFUSCATED_DOMAIN`` sentinel.

:data:`RECORD_DATASETS` is the one table of the seven record-list data
sets: each name's record class, its :class:`~repro.core.datasets.StudyData`
attribute, and a :class:`RowCodec` derived from the class's fields.  Every
row format (spill segments, the CSV archive, ``study_digest``, columnar
batches) reads its field layout from that codec, so a field change
touches this module only.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator
import typing
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Sentinel domain used when a DNS name was not on the whitelist.  The
#: firmware replaces the name *before* the record leaves the home.
OBFUSCATED_DOMAIN = "(obfuscated)"


class Spectrum(enum.Enum):
    """The two wireless bands the BISmark routers operate (802.11gn/an)."""

    GHZ_2_4 = "2.4GHz"
    GHZ_5 = "5GHz"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Column codes of an optional Spectrum; 0 is no radio (a wired device).
#: They are the spill segment's enum codes (:attr:`RowCodec.codes`).
SPECTRUM_NONE, SPECTRUM_2_4, SPECTRUM_5 = 0, 1, 2
SPECTRUM_BY_CODE: Tuple[Optional[Spectrum], ...] = (
    None, Spectrum.GHZ_2_4, Spectrum.GHZ_5)


#: One past the largest value an ``int`` field holds: a spill segment
#: stores it as ``<i8``.
INT64_END = 2 ** 63

#: One past the largest IPv4 address as an int (``obfuscate_ipv4``'s range).
IPV4_END = 2 ** 32


def _check_timestamp(timestamp: float) -> None:
    if not math.isfinite(timestamp):
        raise ValueError("timestamp must be finite")


class Medium(enum.Enum):
    """How a device attaches to the gateway."""

    WIRED = "wired"
    WIRELESS = "wireless"


@dataclass(frozen=True)
class RouterInfo:
    """Deployment metadata for one gateway (who/where, not measurements)."""

    router_id: str
    country_code: str
    developed: bool
    tz_offset_hours: float
    #: Per-capita GDP (PPP, international dollars) of the router's country.
    gdp_ppp_per_capita: float

    def __post_init__(self) -> None:
        if not self.router_id:
            raise ValueError("router_id must be non-empty")
        if not (math.isfinite(self.gdp_ppp_per_capita)
                and self.gdp_ppp_per_capita > 0):
            raise ValueError("gdp_ppp_per_capita must be finite and positive")
        if not math.isfinite(self.tz_offset_hours):
            raise ValueError("tz_offset_hours must be finite")


@dataclass(frozen=True)
class Heartbeat:
    """One ~1-minute keepalive received by the central server.

    A heartbeat proves the router was powered on, its access link was up,
    and the path to the server worked at ``timestamp``.  Heartbeats are not
    retransmitted (Section 3.2.2), so absence is ambiguous — resolving that
    ambiguity is the availability analysis's job.
    """

    router_id: str
    timestamp: float


@dataclass(frozen=True)
class UptimeReport:
    """12-hourly report of seconds since the router last booted."""

    router_id: str
    timestamp: float
    uptime_seconds: float

    def __post_init__(self) -> None:
        _check_timestamp(self.timestamp)
        if not 0 <= self.uptime_seconds < math.inf:
            raise ValueError("uptime_seconds must be finite and non-negative")

    @property
    def boot_time(self) -> float:
        """Epoch at which this router last powered on."""
        return self.timestamp - self.uptime_seconds


@dataclass(frozen=True)
class CapacityMeasurement:
    """12-hourly ShaperProbe-style estimate of access-link capacity (Mbps)."""

    router_id: str
    timestamp: float
    downstream_mbps: float
    upstream_mbps: float

    def __post_init__(self) -> None:
        _check_timestamp(self.timestamp)
        if not (0 <= self.downstream_mbps < math.inf
                and 0 <= self.upstream_mbps < math.inf):
            raise ValueError("capacity must be finite and non-negative")


@dataclass(frozen=True)
class DeviceCountSample:
    """Hourly census: devices on Ethernet ports and per wireless band."""

    router_id: str
    timestamp: float
    wired: int
    wireless_2_4: int
    wireless_5: int

    def __post_init__(self) -> None:
        _check_timestamp(self.timestamp)
        if not (0 <= self.wired < INT64_END
                and 0 <= self.wireless_2_4 < INT64_END
                and 0 <= self.wireless_5 < INT64_END):
            raise ValueError("device counts must be finite and non-negative")

    @property
    def wireless(self) -> int:
        """Total wireless devices across both bands."""
        return self.wireless_2_4 + self.wireless_5

    @property
    def total(self) -> int:
        """All devices connected at this sample."""
        return self.wired + self.wireless


@dataclass(frozen=True)
class DeviceRosterEntry:
    """One device ever seen by a gateway (Devices data set, non-PII).

    The MAC is anonymized (lower 24 bits hashed) but keeps its OUI, so the
    analysis can resolve the manufacturer (Fig. 12) without identifying the
    device.  ``always_connected`` records whether the device was associated
    whenever the router was powered across the whole Devices window — the
    paper's Table 5 "never disconnects for over five weeks" criterion.
    """

    router_id: str
    device_mac: str
    medium: Medium
    spectrum: Optional[Spectrum]
    first_seen: float
    last_seen: float
    always_connected: bool

    def __post_init__(self) -> None:
        if not -math.inf < self.first_seen <= self.last_seen < math.inf:
            raise ValueError("first/last seen must be finite and in order")
        if not isinstance(self.medium, Medium):
            raise ValueError(f"medium {self.medium!r} is not a Medium")
        if not (self.spectrum is None or isinstance(self.spectrum, Spectrum)):
            raise ValueError(f"spectrum {self.spectrum!r} is not a Spectrum")
        if self.medium is Medium.WIRED and self.spectrum is not None:
            raise ValueError("wired devices have no spectrum")


@dataclass(frozen=True)
class WifiScanSample:
    """~10-minute scan of one channel for neighboring APs.

    ``channel`` records which channel was scanned; the deployed firmware
    only scanned the configured channel (11 on 2.4 GHz, 36 on 5 GHz), but
    the full-spectrum extension sweeps them all.  0 means unknown (legacy
    records).
    """

    router_id: str
    timestamp: float
    spectrum: Spectrum
    neighbor_aps: int
    associated_clients: int
    channel: int = 0

    def __post_init__(self) -> None:
        _check_timestamp(self.timestamp)
        if not isinstance(self.spectrum, Spectrum):
            raise ValueError(f"spectrum {self.spectrum!r} is not a Spectrum")
        if not (0 <= self.neighbor_aps < INT64_END
                and 0 <= self.associated_clients < INT64_END
                and 0 <= self.channel < INT64_END):
            raise ValueError("scan counts must be finite and non-negative")


@dataclass(frozen=True)
class FlowRecord:
    """One sampled Internet-bound flow (Traffic data set, consented homes).

    ``device_mac`` has its lower 24 bits hashed; ``domain`` is a whitelisted
    name or :data:`OBFUSCATED_DOMAIN`; ``remote_ip`` is the deterministic
    pseudonym from :func:`repro.netutils.ip.obfuscate_ipv4`.
    """

    router_id: str
    timestamp: float
    device_mac: str
    domain: str
    remote_ip: int
    port: int
    application: str
    bytes_up: float
    bytes_down: float
    duration_seconds: float

    def __post_init__(self) -> None:
        _check_timestamp(self.timestamp)
        if not (0 <= self.bytes_up < math.inf
                and 0 <= self.bytes_down < math.inf):
            raise ValueError("flow bytes must be finite and non-negative")
        if not 0 <= self.duration_seconds < math.inf:
            raise ValueError("flow duration must be finite and non-negative")
        if not 0 <= self.remote_ip < IPV4_END:
            raise ValueError("remote_ip must be an IPv4 address as an int")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")

    @property
    def bytes_total(self) -> float:
        """Bytes in both directions."""
        return self.bytes_up + self.bytes_down


@dataclass(frozen=True)
class ThroughputSample:
    """Per-minute traffic sample: the peak 1-second throughput in the minute.

    This is exactly the statistic the paper computes for Section 6.2 ("the
    maximum per-second throughput every minute"), recorded at the gateway.
    """

    router_id: str
    timestamp: float
    up_bps: float
    down_bps: float

    def __post_init__(self) -> None:
        if not (0 <= self.up_bps < math.inf and 0 <= self.down_bps < math.inf):
            raise ValueError("throughput must be finite and non-negative")


@dataclass(frozen=True)
class DnsRecord:
    """A sampled A/CNAME response, domain whitelisted-or-obfuscated."""

    router_id: str
    timestamp: float
    device_mac: str
    domain: str
    record_type: str
    #: Resolved (obfuscated) address for A records; None for CNAMEs.
    address: Optional[int] = None

    def __post_init__(self) -> None:
        _check_timestamp(self.timestamp)
        if self.record_type not in ("A", "CNAME"):
            raise ValueError(f"unsupported DNS record type {self.record_type!r}")
        if not (self.address is None or 0 <= self.address < IPV4_END):
            raise ValueError("address must be None or an IPv4 address as an int")


# -- the record table ---------------------------------------------------------


class RowField(NamedTuple):
    """One record field as the row formats see it."""

    name: str
    #: float, int, bool, str or an enum class (``Optional`` unwrapped).
    kind: type
    #: Whether the field may hold ``None``.
    optional: bool
    #: The dataclass default, or :data:`dataclasses.MISSING`.
    default: Any


def _row_field(spec: dataclasses.Field, hint: Any) -> RowField:
    args = typing.get_args(hint)
    optional = typing.get_origin(hint) is typing.Union and type(None) in args
    kind = next(arg for arg in args if arg is not type(None)) \
        if optional else hint
    return RowField(spec.name, kind, optional, spec.default)


def _encoder(field: RowField) -> Callable[[Any], Any]:
    encode = (operator.attrgetter("value")
              if issubclass(field.kind, enum.Enum) else field.kind)
    if field.optional:
        return lambda value: None if value is None else encode(value)
    return encode


#: A spill segment's column type per plain field kind (:attr:`RowCodec.layout`).
_SEGMENT_TYPES: Dict[type, str] = {
    float: "<f8", int: "<i8", bool: "|b1", str: "<i4"}


def _segment_columns(field: RowField) -> list:
    if issubclass(field.kind, enum.Enum):
        return [(field.name, "|u1")]
    columns = [(field.name, _SEGMENT_TYPES[field.kind])]
    if field.optional:
        columns.append((f"{field.name}_null", "|b1"))
    return columns


class RowCodec:
    """A record class's rows of plain values, built once from its fields.

    :meth:`to_row` lists a record's fields in declaration order as plain
    values: floats through ``float``, ints through ``int``, bools through
    ``bool``, enums as their ``.value`` and ``None`` kept, so no numpy
    scalar reaches an encoder.  :meth:`from_row` rebuilds the record
    through its constructor (its invariants run); a row of plain values
    already has every type right but the enums, so only those convert.

    :attr:`layout` is the same row as one packed numpy record, the row
    of a spill segment; :meth:`to_columns` and :meth:`from_columns`
    convert between records and its columns.
    """

    def __init__(self, record: type) -> None:
        hints = typing.get_type_hints(record)
        self.record = record
        self.fields = tuple(_row_field(spec, hints[spec.name])
                            for spec in dataclasses.fields(record))
        self._encoders = tuple((f.name, _encoder(f)) for f in self.fields)
        self._enums = tuple((index, f.kind)
                            for index, f in enumerate(self.fields)
                            if issubclass(f.kind, enum.Enum))
        #: Per enum field, its values by code: 0 is ``None``, then the
        #: members in declaration order (so a ``Spectrum`` code is its
        #: ``SPECTRUM_*`` column code).
        self.codes: Dict[str, Tuple[Any, ...]] = {
            f.name: (None, *f.kind) for f in self.fields
            if issubclass(f.kind, enum.Enum)}
        self._code_tables = {name: np.array(values, dtype=object)
                             for name, values in self.codes.items()}
        self._value_codes = {
            name: {None if member is None else member.value: code
                   for code, member in enumerate(values)}
            for name, values in self.codes.items()}
        #: One spill-segment row, packed: a float is ``<f8``, an int
        #: ``<i8``, a bool ``|b1``, an enum its ``|u1`` code and a str an
        #: ``<i4`` index into the segment's string table; an optional
        #: field that is not an enum adds a ``|b1`` ``<name>_null`` flag.
        self.layout = np.dtype([column for f in self.fields
                                for column in _segment_columns(f)])

    def to_row(self, record: Any) -> list:
        """The record's field values as plain values."""
        return [encode(getattr(record, name))
                for name, encode in self._encoders]

    def from_row(self, row: Sequence) -> Any:
        """Inverse of :meth:`to_row`."""
        if self._enums:
            row = list(row)
            for index, kind in self._enums:
                if row[index] is not None:
                    row[index] = kind(row[index])
        return self.record(*row)

    def to_columns(self, records: Sequence) -> Dict[str, np.ndarray]:
        """The records as :attr:`layout` columns, each value as
        :meth:`to_row` gives it.

        A str column stays an object array of the strings: a segment
        codes it against its own string table when it is written.
        """
        columns: Dict[str, np.ndarray] = {}
        for field, (name, encode) in zip(self.fields, self._encoders):
            values = list(map(encode, map(operator.attrgetter(name), records)))
            if field.kind is str:
                columns[name] = np.array(values, dtype=object)
            elif name in self.codes:
                columns[name] = np.array(
                    list(map(self._value_codes[name].__getitem__, values)),
                    dtype=self.layout[name])
            elif field.optional:
                columns[f"{name}_null"] = np.array(
                    [value is None for value in values], dtype=bool)
                columns[name] = np.array(
                    [0 if value is None else value for value in values],
                    dtype=self.layout[name])
            else:
                columns[name] = np.array(values, dtype=self.layout[name])
        return columns

    def from_columns(self, rows: np.ndarray, strings: np.ndarray) -> list:
        """Rebuild :attr:`layout` rows into records through the
        constructor, as :meth:`from_row` does.

        *strings* is the segment's string table, an object array.  A
        string or enum code outside its table raises ``ValueError``, as
        the constructor does for a value outside its range.
        """
        values = []
        for field in self.fields:
            column = rows[field.name]
            table = strings if field.kind is str \
                else self._code_tables.get(field.name)
            if table is not None:
                if len(column) and not (
                        column.min() >= 0 and column.max() < len(table)):
                    raise ValueError(f"{field.name} code outside its table")
                values.append(table[column].tolist())
            elif field.optional:
                values.append([None if null else value for value, null in zip(
                    column.tolist(), rows[f"{field.name}_null"].tolist())])
            else:
                values.append(column.tolist())
        return list(map(self.record, *values))


class RecordDataset(NamedTuple):
    """One record-list data set's entry in :data:`RECORD_DATASETS`."""

    record: type
    #: The :class:`~repro.core.datasets.StudyData` attribute holding it.
    attr: str
    codec: RowCodec


#: The seven record-list data sets, in ``StudyData`` order.
RECORD_DATASETS: Dict[str, RecordDataset] = {
    name: RecordDataset(record, attr, RowCodec(record))
    for name, record, attr in (
        ("uptime", UptimeReport, "uptime_reports"),
        ("capacity", CapacityMeasurement, "capacity"),
        ("device_counts", DeviceCountSample, "device_counts"),
        ("roster", DeviceRosterEntry, "roster"),
        ("wifi_scans", WifiScanSample, "wifi_scans"),
        ("flows", FlowRecord, "flows"),
        ("dns", DnsRecord, "dns"),
    )}

#: Their names, in the same order.
LIST_DATASETS = tuple(RECORD_DATASETS)
