"""Dataset persistence helpers.

Thin convenience wrappers over the streaming CSV source/sink for saving a
generated dataset to disk and loading it back — benchmark runs cache the
expensive air-quality generation this way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.streaming.record import Record
from repro.streaming.schema import Schema
from repro.streaming.sink import CsvSink
from repro.streaming.source import CsvSource


def save_records(records: Sequence[Record], schema: Schema, path: str | Path) -> None:
    """Write records to a CSV file (schema attributes only, header row)."""
    sink = CsvSink(schema, Path(path))
    sink.open()
    try:
        sink.invoke_batch(records)
    finally:
        sink.close()


def load_records(schema: Schema, path: str | Path, validate: bool = False) -> list[Record]:
    """Read records back from a CSV written by :func:`save_records`."""
    return list(CsvSource(schema, Path(path), validate=validate))
