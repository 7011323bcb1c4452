"""Record schemas for the six BISmark data sets (paper Section 3.2).

Every collector in :mod:`repro.firmware` emits these records, the collection
server stores them, and the analysis modules consume them.  The schemas
deliberately contain only what the paper says was collected — e.g. flow
records carry an *obfuscated* device MAC and a domain that is either
whitelisted or the ``OBFUSCATED_DOMAIN`` sentinel.

A field states its rule once: its type names its kind, and a number may
declare a :class:`Range` (``Annotated[float, NON_NEGATIVE]``, every
timestamp ``Annotated[float, TIMESTAMP]``); a float is otherwise finite,
an int in ``[0, INT64_END)``.  :class:`RowCodec` derives from the fields
the record check every :class:`Record` constructor runs and the column
check of columnar batches and spill reads.  A rule between fields, or on
one text field's syntax, is a :class:`Relation` in the class's
``RELATIONS``: written once, run on a record's values and on a batch's
columns.

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
import functools
import itertools
import math
import operator
import re
import reprlib
import sys
import typing
from dataclasses import dataclass
from typing import (Annotated, Any, Callable, ClassVar, Dict, Mapping,
                    NamedTuple, Optional, Sequence, Tuple)

import numpy as np

from repro.netutils.mac import is_mac

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


class Range(NamedTuple):
    """A number field's declared range: ``low <= value < high``."""

    low: float
    high: float


#: Bytes, seconds, capacities and rates.
NON_NEGATIVE = Range(0, math.inf)

#: A router id: non-empty ASCII letters, digits, ``-`` and ``_``.
ROUTER_ID = re.compile(r"[A-Za-z0-9_-]+")

#: Epoch seconds a record's time may take: every collected epoch lies
#: inside, and a day count of any of them, in any time zone, fits the
#: int64 day arithmetic of :class:`~repro.simulation.timebase.StudyCalendar`.
TIMESTAMP = Range(0, 2 ** 32)

#: UTC offsets of real time zones, UTC-12 through UTC+14: the offsets a
#: household's :class:`~repro.simulation.timebase.StudyCalendar` takes.
TZ_OFFSET_HOURS = Range(-12.0, math.nextafter(14.0, math.inf))


class Relation(NamedTuple):
    """A rule between a record's fields, or on one text field.

    *holds* takes the fields' values in *fields* order, an enum as its
    column code, and says whether they keep the rule.  A rule on numbers
    and codes only must hold for whole columns too (numpy arrays, one
    bool per row); a rule that reads text takes one row's values.
    *refusal* is the ``ValueError`` message, formatted with the fields'
    values of the first row that breaks the rule.
    """

    fields: Tuple[str, ...]
    holds: Callable[..., Any]
    refusal: str


class Record:
    """A record dataclass: construction checks each field's kind and
    range, then the class's :attr:`RELATIONS` (:meth:`RowCodec.check`)."""

    #: The rules between fields, which :meth:`RowCodec.check` runs on a
    #: record and :meth:`RowCodec.check_columns` on columns.
    RELATIONS: ClassVar[Tuple[Relation, ...]] = ()

    def __post_init__(self) -> None:
        codec(type(self)).check(self)


class Medium(enum.Enum):
    """How a device attaches to the gateway."""

    WIRED = "wired"
    WIRELESS = "wireless"


#: The column code of a wired medium (:attr:`RowCodec.codes`).
MEDIUM_WIRED = 1 + [*Medium].index(Medium.WIRED)


@dataclass(frozen=True)
class RouterInfo(Record):
    """Deployment metadata for one gateway (who/where, not measurements)."""

    router_id: str
    country_code: str
    developed: bool
    tz_offset_hours: Annotated[float, TZ_OFFSET_HOURS]
    #: Per-capita GDP (PPP, international dollars) of the router's country.
    gdp_ppp_per_capita: float

    RELATIONS = (
        # A router id names files of a spill store's keyed data sets.
        Relation(("router_id",),
                 lambda router_id: ROUTER_ID.fullmatch(router_id) is not None,
                 "router_id must be ASCII letters, digits, '-' or '_'"),
        Relation(("gdp_ppp_per_capita",), lambda gdp: gdp > 0,
                 "gdp_ppp_per_capita must be positive"),
    )


@dataclass(frozen=True)
class UptimeReport(Record):
    """12-hourly report of seconds since the router last booted."""

    router_id: str
    timestamp: Annotated[float, TIMESTAMP]
    uptime_seconds: Annotated[float, NON_NEGATIVE]

    @property
    def boot_time(self) -> float:
        """Epoch at which this router last powered on."""
        return self.timestamp - self.uptime_seconds


@dataclass(frozen=True)
class CapacityMeasurement(Record):
    """12-hourly ShaperProbe-style estimate of access-link capacity (Mbps)."""

    router_id: str
    timestamp: Annotated[float, TIMESTAMP]
    downstream_mbps: Annotated[float, NON_NEGATIVE]
    upstream_mbps: Annotated[float, NON_NEGATIVE]


@dataclass(frozen=True)
class DeviceCountSample(Record):
    """Hourly census: devices on Ethernet ports and per wireless band."""

    router_id: str
    timestamp: Annotated[float, TIMESTAMP]
    wired: int
    wireless_2_4: int
    wireless_5: int

    @property
    def wireless(self) -> int:
        """Total wireless devices across both bands."""
        return self.wireless_2_4 + self.wireless_5

    @property
    def total(self) -> int:
        """All devices connected at this sample."""
        return self.wired + self.wireless


@dataclass(frozen=True)
class DeviceRosterEntry(Record):
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
    first_seen: Annotated[float, TIMESTAMP]
    last_seen: Annotated[float, TIMESTAMP]
    always_connected: bool

    RELATIONS = (
        Relation(("first_seen", "last_seen"),
                 lambda first, last: first <= last,
                 "first_seen must not be after last_seen"),
        Relation(("medium", "spectrum"),
                 lambda medium, spectrum: ((medium != MEDIUM_WIRED)
                                           | (spectrum == SPECTRUM_NONE)),
                 "wired devices have no spectrum"),
        # The vendor analysis parses the MAC for its OUI.
        Relation(("device_mac",), is_mac, "not a MAC address: {device_mac!r}"),
    )


@dataclass(frozen=True)
class WifiScanSample(Record):
    """~10-minute scan of one channel for neighboring APs.

    ``channel`` records which channel was scanned; the deployed firmware
    only scanned the configured channel (11 on 2.4 GHz, 36 on 5 GHz), but
    the full-spectrum extension sweeps them all.  0 means unknown (legacy
    records).
    """

    router_id: str
    timestamp: Annotated[float, TIMESTAMP]
    spectrum: Spectrum
    neighbor_aps: int
    associated_clients: int
    channel: int = 0


@dataclass(frozen=True)
class FlowRecord(Record):
    """One sampled Internet-bound flow (Traffic data set, consented homes).

    ``device_mac`` has its lower 24 bits hashed; ``domain`` is a whitelisted
    name or :data:`OBFUSCATED_DOMAIN`; ``remote_ip`` is the deterministic
    pseudonym from :func:`repro.netutils.ip.obfuscate_ipv4`.
    """

    router_id: str
    timestamp: Annotated[float, TIMESTAMP]
    device_mac: str
    domain: str
    remote_ip: Annotated[int, Range(0, IPV4_END)]
    port: Annotated[int, Range(0, 65536)]
    application: str
    bytes_up: Annotated[float, NON_NEGATIVE]
    bytes_down: Annotated[float, NON_NEGATIVE]
    duration_seconds: Annotated[float, NON_NEGATIVE]

    @property
    def bytes_total(self) -> float:
        """Bytes in both directions."""
        return self.bytes_up + self.bytes_down


@dataclass(frozen=True)
class ThroughputSample(Record):
    """Per-minute traffic sample: the peak 1-second throughput in the minute.

    This is exactly the statistic the paper computes for Section 6.2 ("the
    maximum per-second throughput every minute"), recorded at the gateway.
    """

    router_id: str
    timestamp: Annotated[float, TIMESTAMP]
    up_bps: Annotated[float, NON_NEGATIVE]
    down_bps: Annotated[float, NON_NEGATIVE]


@dataclass(frozen=True)
class DnsRecord(Record):
    """A sampled A/CNAME response, domain whitelisted-or-obfuscated."""

    router_id: str
    timestamp: Annotated[float, TIMESTAMP]
    device_mac: str
    domain: str
    record_type: str
    #: Resolved (obfuscated) address for A records; None for CNAMEs.
    address: Optional[Annotated[int, Range(0, IPV4_END)]] = None

    RELATIONS = (
        Relation(("record_type",), ("A", "CNAME").__contains__,
                 "unsupported DNS record type {record_type!r}"),
    )


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
    #: A number's range, declared or by kind; None for any other kind.
    range: Optional[Range]


def _row_field(spec: dataclasses.Field, hint: Any) -> RowField:
    args = typing.get_args(hint)
    optional = typing.get_origin(hint) is typing.Union and type(None) in args
    if optional:
        hint = next(arg for arg in args if arg is not type(None))
    if typing.get_origin(hint) is Annotated:
        kind, declared = typing.get_args(hint)[:2]
    else:  # an int fits a spill segment's ``<i8``; a float is finite
        kind, declared = hint, {float: Range(-math.inf, math.inf),
                                int: Range(0, INT64_END)}.get(hint)
    return RowField(spec.name, kind, optional, spec.default, declared)


#: What a number field may hold per kind: its Python types (a bool is
#: an int to Python, never a number to a record) and its numpy scalars.
_NUMBERS: Dict[type, tuple] = {
    float: ((float, int), (np.floating, np.integer)),
    int: ((int,), (np.integer,))}


def _value_test(field: RowField) -> Callable[[Any], bool]:
    """Whether a value is one *field* may hold: of its kind and, for a
    number, finite and in its range."""
    kind = field.kind
    if kind in _NUMBERS:
        plain, scalars = _NUMBERS[kind]
        # The range's least and greatest values; a float's are finite.
        low = max(field.range.low, -sys.float_info.max)
        high = math.nextafter(field.range.high, -math.inf) \
            if kind is float else field.range.high - 1

        def test(value: Any) -> bool:
            if type(value) not in plain:
                if not isinstance(value, scalars):
                    return False
                value = value.item()  # compare as a Python number
            return low <= value <= high
    elif kind is str:
        # Exactly a str: a frame carries no subclass and no numpy str_,
        # so a cell of either fails where it is built, not at decode.
        def test(value: Any) -> bool:
            return type(value) is str
    else:
        test = kind.__instancecheck__  # isinstance(value, kind), one C call
    if field.optional:
        return lambda value: value is None or test(value)
    return test


def _column_test(field: RowField) -> Callable[[Any], bool]:
    """Whether a column holds only values *field* may hold.

    A list column, and any text column, is tested value by value with
    the test :meth:`RowCodec.check` runs; an array column by its dtype
    kind and its extreme values.  An enum column holds codes (0 for
    ``None``), and an optional number's column 0 for ``None``.
    """
    kinds = {float: "iuf", bool: "b", str: "O"}.get(field.kind, "iu")
    if issubclass(field.kind, enum.Enum):
        field = field._replace(kind=int, range=Range(
            0 if field.optional else 1, len(field.kind) + 1))
    bound = _value_test(field._replace(optional=False))

    def test(column: Any) -> bool:
        if isinstance(column, np.ndarray):
            if column.ndim != 1 or column.dtype.kind not in kinds:
                return False
            if field.kind is not str:
                # .item() is a Python number, so a uint64 compares exactly.
                return not len(column) or (bound(column.min().item())
                                           and bound(column.max().item()))
        elif not isinstance(column, list):
            return False
        if field.kind is str:  # the str value test as one C loop
            return _STR.issuperset(map(type, column))
        return all(map(bound, column))
    return test


#: The one type a text cell may have (:func:`_value_test`).
_STR = frozenset((str,))


def _wanted(field: RowField) -> str:
    """What *field* holds, for an error message."""
    wanted = ("finite " if field.kind is float else "") + field.kind.__name__
    if field.kind is str:
        wanted += " (not a subclass)"
    if field.range:
        wanted += " in [{}, {})".format(*field.range)
    return wanted + " or None" if field.optional else wanted


def _shown(value: Any) -> str:
    try:
        return reprlib.repr(value)
    except ValueError:  # an int past the interpreter's digit limit
        return type(value).__name__


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
    """A record class's checks and rows of plain values, from its fields.

    :meth:`to_row` lists a record's fields in declaration order as plain
    values: floats through ``float``, ints through ``int``, bools through
    ``bool``, enums as their ``.value`` and ``None`` kept, so no numpy
    scalar reaches an encoder.  :meth:`from_row` rebuilds the record
    through its constructor (its checks run); a row of plain values
    already has every type right but the enums, so only those convert.

    :attr:`layout` is the same row as one packed numpy record, the row
    of a spill segment.  A batch of records is its columns:
    :meth:`check_columns` checks them as :meth:`check` would check the
    records, and :meth:`from_columns` builds the records.
    """

    def __init__(self, record: type) -> None:
        hints = typing.get_type_hints(record, include_extras=True)
        self.record = record
        self.fields = tuple(_row_field(spec, hints[spec.name])
                            for spec in dataclasses.fields(record))
        self._names = tuple(f.name for f in self.fields)
        self._values = operator.attrgetter(*self._names)
        self._tests = tuple(map(_value_test, self.fields))
        self._encoders = tuple((f.name, _encoder(f)) for f in self.fields)
        #: Per field name, the field and its :meth:`to_row` encoder.
        self._by_name = {name: (f, encode) for f, (name, encode)
                         in zip(self.fields, self._encoders)}
        self._enums = tuple((index, f.kind)
                            for index, f in enumerate(self.fields)
                            if issubclass(f.kind, enum.Enum))
        #: Per enum field, its values by code: 0 is ``None``, then the
        #: members in declaration order (so a ``Spectrum`` code is its
        #: ``SPECTRUM_*`` column code).
        self.codes: Dict[str, Tuple[Any, ...]] = {
            f.name: (None, *f.kind) for f in self.fields
            if issubclass(f.kind, enum.Enum)}
        self._member_codes = {
            name: {member: code for code, member in enumerate(values)}
            for name, values in self.codes.items()}
        #: One spill-segment row, packed: a float is ``<f8``, an int
        #: ``<i8``, a bool ``|b1``, an enum its ``|u1`` code and a str an
        #: ``<i4`` index into the segment's string table; an optional
        #: field that is not an enum adds a ``|b1`` ``<name>_null`` flag.
        self.layout = np.dtype([column for f in self.fields
                                for column in _segment_columns(f)])
        #: The str fields: a segment codes them against its string table.
        self.text = tuple(f.name for f in self.fields if f.kind is str)
        flags = (RowField(f"{f.name}_null", bool, False, None, None)
                 for f in self.fields
                 if f.optional and f.name not in self.codes)
        self._column_tests = tuple((f, _column_test(f))
                                   for f in (*self.fields, *flags))
        self._decoders = tuple(map(self._decoder, self.fields))
        #: Per relation: its row of a record's values (an enum member as
        #: its code) and whether it reads text (so takes one row).
        self._relations = tuple(
            (relation, self._relation_row(relation.fields),
             any(name in self.text for name in relation.fields))
            for relation in record.RELATIONS)

    def check(self, record: Any) -> None:
        """Raise ``ValueError`` naming the first field of *record* not of
        its kind, or a number not finite and in its range, or with the
        refusal of the first :attr:`Record.RELATIONS` rule it breaks."""
        for field, test, value in zip(self.fields, self._tests,
                                      self._values(record)):
            if not test(value):
                raise ValueError(
                    f"{self.record.__name__}.{field.name} must hold "
                    f"{_wanted(field)}, not {_shown(value)}")
        for relation, row_of, _ in self._relations:
            row = row_of(record)
            if not relation.holds(*row):
                raise ValueError(relation.refusal.format(
                    **dict(zip(relation.fields, row))))

    def _relation_row(self, fields: Tuple[str, ...],
                      ) -> Callable[[Any], Sequence]:
        """A record's values of *fields* as a relation reads them."""
        if not any(name in self.codes for name in fields):
            values = operator.attrgetter(*fields)
            return values if len(fields) > 1 else lambda r: (values(r),)
        codes = [self._member_codes.get(name) for name in fields]
        return lambda record: [
            getattr(record, name) if code is None
            else code[getattr(record, name)]
            for name, code in zip(fields, codes)]

    def check_columns(self, columns: Mapping[str, Any],
                      router_id: Optional[str] = None) -> None:
        """Raise ``ValueError`` naming the first column of :attr:`layout`
        with a value :meth:`check` would refuse (:func:`_column_test`),
        or with the refusal of the first row that breaks a
        :attr:`Record.RELATIONS` rule: a rule on numbers and codes runs
        once on whole columns, a rule that reads text in one pass over
        the rows.

        Given *router_id*, the rows are one router's: *columns* are the
        layout's after ``router_id``, and the id is tested once.
        """
        tests = self._column_tests
        if router_id is not None:
            tests = tests[1:]
            if not self._tests[0](router_id):
                field = self.fields[0]
                raise ValueError(f"{self.record.__name__}.{field.name} "
                                 f"must hold {_wanted(field)}, not "
                                 f"{_shown(router_id)}")
        for field, test in tests:
            if not test(columns[field.name]):
                raise ValueError(f"{self.record.__name__}.{field.name} "
                                 f"column must hold {_wanted(field)}")
        for relation, _, reads_text in self._relations:
            values = [columns[name] if name in self.text
                      else self.array(name, columns[name])
                      for name in relation.fields]
            if reads_text:
                holds = np.fromiter(map(relation.holds, *values), dtype=bool,
                                    count=len(values[0]))
            else:
                holds = np.asarray(relation.holds(*values), dtype=bool)
            if not holds.all():
                row = int(np.argmin(holds))
                raise ValueError(relation.refusal.format(**{
                    name: value[row] if name in self.text
                    else value[row].item()
                    for name, value in zip(relation.fields, values)}))

    def _decoder(self, field: RowField) -> Callable[[Mapping], Sequence]:
        """One field's values out of checked columns, as plain values."""
        name = field.name
        if field.kind is str:
            return operator.itemgetter(name)
        if name in self.codes:
            table = np.array(self.codes[name], dtype=object)
            return lambda columns: table[
                np.asarray(columns[name], dtype=np.intp)].tolist()
        if field.optional:  # a value column and its null flags
            return lambda columns: np.where(
                columns[f"{name}_null"], None,
                self.array(name, columns[name])).tolist()
        return lambda columns: self.array(name, columns[name]).tolist()

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

    def column(self, records: Sequence, name: str) -> np.ndarray:
        """Field *name* of the records as its :attr:`layout` column, each
        value as :meth:`to_row` gives it: an enum as its code, a ``None``
        as 0 (a flag column marks it), text as an object array."""
        field, encode = self._by_name[name]
        values = map(operator.attrgetter(name), records)
        if name in self.codes:
            values = map(self._member_codes[name].__getitem__, values)
        elif field.optional:
            values = (0 if value is None else encode(value)
                      for value in values)
        else:
            values = map(encode, values)
        if field.kind is str:
            return np.array(list(values), dtype=object)
        return np.fromiter(values, dtype=self.layout[name],
                           count=len(records))

    def array(self, name: str, column: Any) -> np.ndarray:
        """Checked column *name* typed as :meth:`column` types it, value
        by value (``np.asarray`` alone makes int64-uint64 mixes floats)."""
        return np.asarray(column, dtype=object if name in self.text
                          else self.layout[name])

    def from_columns(self, columns: Mapping[str, Any],
                     router_id: Optional[str] = None) -> list:
        """Build records from columns that passed :meth:`check_columns`
        (a str field's column is its text) without checking them again;
        given *router_id*, as :meth:`check_columns` takes it."""
        record_class, names = self.record, self._names
        new = record_class.__new__
        records = []
        append = records.append
        if router_id is None:
            values = [decode(columns) for decode in self._decoders]
        else:
            values = [itertools.repeat(router_id),
                      *(decode(columns) for decode in self._decoders[1:])]
        for row in zip(*values):
            record = new(record_class)
            record.__dict__.update(zip(names, row))
            append(record)
        return records


#: The :class:`RowCodec` of a record class, built once.
codec = functools.lru_cache(maxsize=None)(RowCodec)


class RecordDataset(NamedTuple):
    """One record-list data set's entry in :data:`RECORD_DATASETS`."""

    record: type
    #: The :class:`~repro.core.datasets.StudyData` attribute holding it.
    attr: str
    codec: RowCodec


#: The seven record-list data sets, in ``StudyData`` order.
RECORD_DATASETS: Dict[str, RecordDataset] = {
    name: RecordDataset(record, attr, codec(record))
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
