"""Stream sinks.

Sinks terminate a dataflow. The pollution process writes two outputs
(Fig. 2): the polluted stream and, optionally, a log of the pollution for
reproducibility. Experiments additionally need a pass-through pipeline that
only loads and writes data (the Experiment 3 baseline), which
:class:`CsvSink` and :class:`NullSink` provide.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.streaming.record import Record
from repro.streaming.schema import Schema


class Sink:
    """Base class for sinks. Subclasses implement :meth:`invoke`."""

    def open(self) -> None:
        """Called once before the first record."""

    def invoke(self, record: Record) -> None:
        raise NotImplementedError

    def invoke_batch(self, records: Iterable[Record]) -> None:
        """Take records in stream order; sinks with a bulk write override it."""
        for record in records:
            self.invoke(record)

    def close(self) -> None:
        """Called once after the last record."""

    def snapshot_state(self) -> Any | None:
        """Serializable sink state for a checkpoint (``None`` = not restorable).

        Sinks that cannot rewind their output (e.g. a CSV file already
        written) return ``None``; resuming from a checkpoint then replays
        into a fresh sink and the caller is responsible for splicing output.
        In-memory sinks snapshot their contents so a resumed run continues
        exactly where the checkpoint left off.
        """
        return None

    def restore_state(self, state: Any) -> None:
        """Restore sink state produced by :meth:`snapshot_state`."""


class CollectSink(Sink):
    """Accumulates records in memory; the default sink for experiments."""

    def __init__(self) -> None:
        self.records: list[Record] = []

    def invoke(self, record: Record) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def snapshot_state(self) -> list[Record]:
        return [r.copy() for r in self.records]

    def restore_state(self, state: list[Record]) -> None:
        self.records = [r.copy() for r in state]


class CountingSink(Sink):
    """Counts records without retaining them (cheap throughput measurements)."""

    def __init__(self) -> None:
        self.count = 0

    def invoke(self, record: Record) -> None:
        self.count += 1

    def snapshot_state(self) -> int:
        return self.count

    def restore_state(self, state: int) -> None:
        self.count = state


class NullSink(Sink):
    """Discards all records."""

    def invoke(self, record: Record) -> None:
        pass


class CsvSink(Sink):
    """Writes records to a CSV file (or any text buffer).

    ``None`` values are written as empty cells; floats keep full repr
    precision so round-tripping through :class:`CsvSource` is lossless for
    representable values.
    """

    def __init__(
        self,
        schema: Schema,
        path: str | Path | io.TextIOBase,
        include_metadata: bool = False,
    ) -> None:
        self._schema = schema
        self._path = path
        self._include_metadata = include_metadata
        self._file: Any = None
        self._writer: Any = None
        self._owns_file = not isinstance(path, io.TextIOBase)

    def open(self) -> None:
        if self._owns_file:
            self._file = open(self._path, "w", newline="")  # noqa: SIM115
        else:
            self._file = self._path
        header = list(self._schema.names)
        if self._include_metadata:
            header = ["record_id", "substream", *header]
        self._writer = csv.writer(self._file)
        self._writer.writerow(header)

    def invoke(self, record: Record) -> None:
        self.invoke_batch((record,))

    def invoke_batch(self, records: Iterable[Record]) -> None:
        if self._writer is None:
            self.open()
        # The writer pulls one rendered row at a time, so a batch of any
        # length never holds all its rows in memory.
        self._writer.writerows(
            _rows(records, self._schema.names, self._include_metadata)
        )

    def close(self) -> None:
        if self._file is not None and self._owns_file:
            self._file.close()
        self._file = None
        self._writer = None

    def __getstate__(self) -> dict[str, Any]:
        # The open file handle and csv writer cannot cross a process
        # boundary; a pickled sink arrives closed and re-opens on first use.
        # Only a path-backed sink can be shipped at all — an injected text
        # buffer lives in the sending process.
        if not self._owns_file:
            raise TypeError(
                "CsvSink wrapping an in-memory buffer cannot be pickled; "
                "construct it with a file path to use it in a worker process"
            )
        state = dict(self.__dict__)
        state["_file"] = None
        state["_writer"] = None
        return state


def _rows(
    records: Iterable[Record], names: tuple[str, ...], include_metadata: bool
) -> Iterator[list[str]]:
    for record in records:
        values: Iterable[Any] = record.get_many(names)
        if include_metadata:
            values = (record.record_id, record.substream, *values)
        # ``None`` is an empty cell and NaN is written ``NaN``: left to
        # itself, csv.writer writes NaN as ``nan`` and float subclasses by repr.
        yield [
            "" if v is None else "NaN" if isinstance(v, float) and v != v else str(v)
            for v in values
        ]
