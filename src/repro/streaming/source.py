"""Stream sources.

A source yields :class:`~repro.streaming.record.Record` objects in stream
order. Sources validate records against the stream schema eagerly, so that
pollution operates on well-typed clean data (Fig. 2's "Prepare Data" step
assumes a parseable input). Micro-batched input (§2.1: "a data stream split
into small batches") is flattened back to tuple-wise order by
:class:`MicroBatchSource`.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import StreamError
from repro.streaming.record import Record
from repro.streaming.schema import COLUMN_PARSERS, Schema

#: Rows a :class:`CsvSource` parses at a time, one column after another.
CSV_SLAB_ROWS = 1024


class Source:
    """Base class for stream sources."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema

    @property
    def schema(self) -> Schema:
        return self._schema

    def __iter__(self) -> Iterator[Record]:
        raise NotImplementedError

    def iter_from(self, offset: int) -> Iterator[Record]:
        """Iterate the stream starting at record index ``offset``.

        Used by checkpoint resume: sources must be re-iterable and
        deterministic, so skipping the first ``offset`` records replays the
        exact remainder of the original stream. Subclasses with cheap random
        access may override; the default skips via iteration.
        """
        return itertools.islice(iter(self), offset, None)

    def _to_record(self, values: Mapping[str, Any], validate: bool) -> Record:
        if validate:
            self._schema.validate_values(values)
        return Record(values)


class CollectionSource(Source):
    """Source over an in-memory sequence of value mappings or records.

    The common entry point for tests and experiments: build rows as dicts,
    wrap them in a source, pollute, inspect.
    """

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Mapping[str, Any] | Record],
        validate: bool = True,
    ) -> None:
        super().__init__(schema)
        self._rows = list(rows)
        self._validate = validate

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Record]:
        return self.iter_from(0)

    def iter_from(self, offset: int) -> Iterator[Record]:
        for row in self._rows[offset:]:
            if isinstance(row, Record):
                if self._validate:
                    self._schema.validate_values(row.as_dict())
                yield row.copy()
            else:
                yield self._to_record(row, self._validate)


class GeneratorSource(Source):
    """Source driven by a factory of row iterators.

    The factory is invoked per iteration, so the source is re-iterable —
    important because the pollution runner reads the input twice conceptually
    (clean + dirty); in practice it reads once and copies, but benchmarks
    re-run sources many times.
    """

    def __init__(
        self,
        schema: Schema,
        factory: Callable[[], Iterable[Mapping[str, Any]]],
        validate: bool = False,
    ) -> None:
        super().__init__(schema)
        self._factory = factory
        self._validate = validate

    def __iter__(self) -> Iterator[Record]:
        for row in self._factory():
            yield self._to_record(row, self._validate)


class MicroBatchSource(Source):
    """Flattens a sequence of micro-batches into a tuple-wise stream.

    §2.1: "The pollution process can either take a real data stream or a data
    stream split into small batches (i.e., micro-batching) as input. Within
    our framework, each input is treated tuple-wise as a data stream."
    """

    def __init__(
        self,
        schema: Schema,
        batches: Iterable[Sequence[Mapping[str, Any] | Record]],
        validate: bool = True,
    ) -> None:
        super().__init__(schema)
        self._batches = [list(b) for b in batches]
        self._validate = validate

    @property
    def batch_sizes(self) -> list[int]:
        return [len(b) for b in self._batches]

    def __iter__(self) -> Iterator[Record]:
        for batch in self._batches:
            for row in batch:
                if isinstance(row, Record):
                    yield row.copy()
                else:
                    yield self._to_record(row, self._validate)


class CsvSource(Source):
    """Reads records from a CSV file, parsing cells via the schema.

    The header row must name every schema attribute (extra columns are
    ignored; of a repeated name the last wins; blank lines are skipped).
    Cells parse by :data:`COLUMN_PARSERS`, column by column in slabs of
    :data:`CSV_SLAB_ROWS` rows: empty cells and NA literals become ``None``.
    """

    def __init__(self, schema: Schema, path: str | Path, validate: bool = False) -> None:
        super().__init__(schema)
        self._path = Path(path)
        self._validate = validate

    def __iter__(self) -> Iterator[Record]:
        names = self._schema.names
        with open(self._path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise StreamError(f"CSV file {self._path} has no header row")
            index = {name: i for i, name in enumerate(header)}
            missing = [n for n in names if n not in index]
            if missing:
                raise StreamError(
                    f"CSV file {self._path} is missing schema columns: {missing}"
                )
            columns = [(index[a.name], COLUMN_PARSERS[a.dtype]) for a in self._schema]
            width = 1 + max(i for i, _ in columns)
            done = 0
            while slab := list(itertools.islice(reader, CSV_SLAB_ROWS)):
                rows = [row for row in slab if row]
                if min(map(len, rows), default=width) < width:
                    short = next(i for i, row in enumerate(rows) if len(row) < width)
                    raise self._short_row(done + short, width)
                values = [parse([row[i] for row in rows]) for i, parse in columns]
                done += len(rows)
                del slab, rows  # the cell texts need not outlive the parse
                for row_values in zip(*values):
                    yield self._to_record(dict(zip(names, row_values)), self._validate)

    def _short_row(self, data_row: int, width: int) -> StreamError:
        """The error for data row ``data_row`` (0-based, blank lines not counted)."""
        with open(self._path, newline="") as f:
            reader = csv.reader(f)
            row = next(itertools.islice(filter(None, reader), data_row + 1, None))
        return StreamError(
            f"CSV file {self._path} line {reader.line_num}: row has "
            f"{len(row)} cells, the schema columns need {width}"
        )
