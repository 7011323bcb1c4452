"""Record lists as the ``ColumnarRecords`` batches producers ship."""

import numpy as np

from repro.collection.batches import ColumnarRecords
from repro.core.records import RECORD_DATASETS


def columns(dataset, records):
    """*records* as a batch's columns: each field after ``router_id`` as
    ``RowCodec.column`` gives it, and a ``<name>_null`` flag column for
    an optional number."""
    codec = RECORD_DATASETS[dataset].codec
    out = {}
    for field in codec.fields[1:]:
        out[field.name] = codec.column(records, field.name)
        flag = f"{field.name}_null"
        if flag in codec.layout.names:
            out[flag] = np.array([getattr(record, field.name) is None
                                  for record in records], dtype=bool)
    return out


def batch(dataset, records):
    """*records*, all of one router, as one batch."""
    return ColumnarRecords(dataset, records[0].router_id,
                           columns(dataset, records))
