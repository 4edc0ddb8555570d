"""Property tests for the slab CSV reader and writer.

The reference below is the row-wise I/O the slabs replaced: ``csv.DictReader``
with one ``parse`` call per cell, and one ``writerow`` per record with one
``render`` call per cell. Every file hypothesis generates is read both ways
and every record list is written both ways; the records must agree by
``repr`` (so NaN, ``None`` and int/float count) and the CSVs byte for byte.
"""

import csv
import io
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.io import load_records, save_records
from repro.errors import SchemaError, StreamError
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CsvSink
from repro.streaming.source import CSV_SLAB_ROWS, CsvSource

REPO = Path(__file__).resolve().parents[2]

# -- the row-wise reference ---------------------------------------------------


def reference_parse(attr, text):
    if text == "" or text in ("NA", "NaN", "nan", "null", "None"):
        return None
    if attr.dtype is DataType.FLOAT:
        return float(text)
    if attr.dtype in (DataType.INT, DataType.TIMESTAMP):
        return int(float(text))
    if attr.dtype is DataType.BOOL:
        return text.strip().lower() in ("1", "true", "yes")
    return text


def reference_read(schema, path, validate=False):
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            values = {attr.name: reference_parse(attr, row[attr.name]) for attr in schema}
            if validate:
                schema.validate_values(values)
            yield Record(values)


def reference_render(value):
    if value is None:
        return ""
    if isinstance(value, float) and value != value:
        return "NaN"
    return str(value)


def reference_write(schema, records, include_metadata=False):
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = list(schema.names)
    if include_metadata:
        header = ["record_id", "substream", *header]
    writer.writerow(header)
    for record in records:
        row = [reference_render(record.get(n)) for n in schema.names]
        if include_metadata:
            row = [reference_render(record.record_id), reference_render(record.substream), *row]
        writer.writerow(row)
    return buf.getvalue()


def consume(records):
    """Record reprs up to the first error, and that error's type and text."""
    out = []
    try:
        for record in records:
            out.append(repr(record))
    except (SchemaError, StreamError) as exc:
        return out, (type(exc), str(exc))
    return out, None


# -- strategies ---------------------------------------------------------------

NA_CELLS = st.sampled_from(["", "NA", "NaN", "nan", "null", "None"])
TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6,
) | st.sampled_from(['a,b', 'say "hi"', "two\nlines", "cr\r\nlf", " ", "None?"])
CELLS = {
    DataType.FLOAT: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-(10**6), 10**6).map(str),
        st.sampled_from(["1e5", " 2.5", "-0.0", "inf", "-Infinity"]),
    ),
    DataType.INT: st.one_of(
        st.integers(-(10**12), 10**12).map(str),
        st.sampled_from(["3.0", "-7.9", "1e3", " 12 "]),
    ),
    DataType.BOOL: st.sampled_from(["1", "0", "true", "True", " yes ", "no", "False", "x"]),
    DataType.STRING: TEXT,
    DataType.CATEGORY: st.sampled_from(["lo", "mid", "hi"]),
}
CELLS[DataType.TIMESTAMP] = CELLS[DataType.INT]
DTYPES = st.sampled_from(list(DataType))
SLAB_ROW_COUNTS = st.sampled_from([CSV_SLAB_ROWS - 1, CSV_SLAB_ROWS, CSV_SLAB_ROWS + 1])


@st.composite
def schemas(draw):
    attrs = [
        Attribute(f"c{i}", dtype, nullable=draw(st.booleans()))
        for i, dtype in enumerate(draw(st.lists(DTYPES, max_size=4)))
    ]
    position = draw(st.integers(0, len(attrs)))
    ts = Attribute("timestamp", DataType.TIMESTAMP, nullable=draw(st.booleans()))
    attrs.insert(position, ts)
    return Schema(attrs)


def cell(draw, dtype):
    return draw(st.one_of(CELLS[dtype], NA_CELLS) if draw(st.integers(0, 4)) == 0 else CELLS[dtype])


@st.composite
def csv_files(draw, row_counts=st.integers(0, 8)):
    """A schema and CSV text: columns reordered, extras, repeats, blank lines.

    Rows longer than needed may be cut short after the last schema column,
    which the reader accepts because only the extras go missing.
    """
    schema = draw(schemas())
    header = list(schema.names)
    header += draw(st.lists(st.sampled_from(["x", "y", "z"]), max_size=2))
    header += draw(st.lists(st.sampled_from(schema.names), max_size=2))  # repeats
    header = draw(st.permutations(header))
    dtype = {a.name: a.dtype for a in schema}
    needed = 1 + max(i for i, name in enumerate(header) if name in dtype)
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        row = [cell(draw, dtype[name]) if name in dtype else draw(TEXT) for name in header]
        pool.append(row[: draw(st.integers(needed, len(header)))])
    n_rows = draw(row_counts)
    blank_every = draw(st.sampled_from([0, 0, 1, 3, 500]))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for i in range(n_rows):
        if blank_every and i % blank_every == 0:
            buf.write("\r\n")
        writer.writerow(pool[i % len(pool)])
    return schema, buf.getvalue()


VALUES = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(float, st.just("nan")),
    st.integers(-(10**12), 10**12),
    st.booleans(),
    TEXT,
)


@st.composite
def record_lists(draw, row_counts=st.integers(0, 8)):
    schema = draw(schemas())
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        names = [n for n in schema.names if draw(st.integers(0, 9))]  # mostly all
        pool.append(Record(
            {n: draw(VALUES) for n in names},
            record_id=draw(st.one_of(st.none(), st.integers(0, 10**6))),
            substream=draw(st.one_of(st.none(), st.integers(0, 3))),
        ))
    n = draw(row_counts)
    return schema, [pool[i % len(pool)] for i in range(n)]


# -- reader -------------------------------------------------------------------


class TestReader:
    @settings(max_examples=150, deadline=None)
    @given(csv_files())
    def test_matches_row_wise_reader(self, tmp_path_factory, case):
        schema, text = case
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_text(text, newline="")
        assert consume(CsvSource(schema, path)) == consume(reference_read(schema, path))

    @settings(max_examples=12, deadline=None)
    @given(csv_files(row_counts=SLAB_ROW_COUNTS))
    def test_matches_row_wise_reader_at_slab_edges(self, tmp_path_factory, case):
        schema, text = case
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_text(text, newline="")
        assert consume(CsvSource(schema, path)) == consume(reference_read(schema, path))

    @settings(max_examples=100, deadline=None)
    @given(csv_files(row_counts=st.integers(0, 8) | SLAB_ROW_COUNTS))
    def test_validate_raises_on_the_same_row(self, tmp_path_factory, case):
        schema, text = case
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_text(text, newline="")
        assert consume(CsvSource(schema, path, validate=True)) == consume(
            reference_read(schema, path, validate=True)
        )

    @pytest.mark.parametrize("n_rows", [0, 1, CSV_SLAB_ROWS - 1, CSV_SLAB_ROWS, CSV_SLAB_ROWS + 1])
    def test_validate_error_after_n_rows(self, tmp_path, n_rows):
        schema = Schema([
            Attribute("v"), Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
        ])
        rows = [f"{i}.5,{i}" for i in range(n_rows)] + ["1.0,NA", "2.0,3"]
        path = tmp_path / "in.csv"
        path.write_text("v,timestamp\n" + "\n".join(rows) + "\n")
        got, error = consume(CsvSource(schema, path, validate=True))
        assert len(got) == n_rows
        assert error == (SchemaError, "attribute 'timestamp' is not nullable")
        assert (got, error) == consume(reference_read(schema, path, validate=True))

    @given(DTYPES, st.one_of(NA_CELLS, *CELLS.values()))
    def test_attribute_parse_matches_reference(self, dtype, text):
        attr = Attribute("a", dtype)

        def outcome(parse):
            try:
                return repr(parse(text))
            except (ValueError, OverflowError) as exc:
                return repr(exc)

        assert outcome(attr.parse) == outcome(lambda t: reference_parse(attr, t))


class TestRaggedRows:
    SCHEMA = Schema([
        Attribute("v"),
        Attribute("s", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP),
    ])

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text('v,s,timestamp\n1.0,a,1\n\n2.0,"b\nc",2\n3.0,x\n4.0,d,4\n')
        with pytest.raises(StreamError, match=rf"{path} line 6: row has 2 cells"):
            list(CsvSource(self.SCHEMA, path))

    def test_short_row_in_a_later_slab(self, tmp_path):
        path = tmp_path / "in.csv"
        rows = [f"{i}.0,s,{i}" for i in range(CSV_SLAB_ROWS + 5)]
        rows[CSV_SLAB_ROWS + 2] = "1.0"
        path.write_text("v,s,timestamp\n" + "\n".join(rows) + "\n")
        line = CSV_SLAB_ROWS + 4  # header is line 1
        with pytest.raises(StreamError, match=rf"line {line}: row has 1 cells"):
            list(CsvSource(self.SCHEMA, path))

    def test_missing_extra_cells_are_ignored(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("v,s,timestamp,extra\n1.0,a,1,e\n2.0,b,2\n")
        assert [r["timestamp"] for r in CsvSource(self.SCHEMA, path)] == [1, 2]

    def test_repeated_column_reads_last(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("v,s,timestamp,v\n1.0,a,1,9.5\n")
        assert [r["v"] for r in CsvSource(self.SCHEMA, path)] == [9.5]

    def test_cli_reports_short_row_without_traceback(self, tmp_path):
        (tmp_path / "schema.json").write_text(
            '{"attributes": [{"name": "v", "dtype": "float"},'
            ' {"name": "timestamp", "dtype": "timestamp"}]}'
        )
        (tmp_path / "config.json").write_text(
            '{"name": "d", "polluters": [{"type": "standard", "name": "n",'
            ' "attributes": ["v"], "error": {"type": "set_null"},'
            ' "condition": {"type": "probability", "p": 0.3}}]}'
        )
        (tmp_path / "in.csv").write_text("v,timestamp\n1.0,1\n2.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "pollute", "--config", "config.json",
             "--schema", "schema.json", "--input", "in.csv", "--output", "out.csv"],
            cwd=tmp_path, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "in.csv line 3: row has 1 cells" in proc.stderr


# -- writer -------------------------------------------------------------------


class TestWriter:
    @settings(max_examples=150, deadline=None)
    @given(record_lists(), st.booleans())
    def test_matches_row_wise_writer(self, case, include_metadata):
        schema, records = case
        expected = reference_write(schema, records, include_metadata)
        per_record = io.StringIO()
        sink = CsvSink(schema, per_record, include_metadata=include_metadata)
        sink.open()
        for record in records:
            sink.invoke(record)
        assert per_record.getvalue() == expected
        batched = io.StringIO()
        sink = CsvSink(schema, batched, include_metadata=include_metadata)
        half = len(records) // 2
        sink.invoke_batch(iter(records[:half]))  # opens on first use
        sink.invoke_batch(records[half:])
        assert batched.getvalue() == expected

    @settings(max_examples=12, deadline=None)
    @given(record_lists(row_counts=st.sampled_from([0, 1]) | SLAB_ROW_COUNTS))
    def test_save_records_bytes(self, tmp_path_factory, case):
        schema, records = case
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        save_records(records, schema, path)
        assert path.read_bytes() == reference_write(schema, records).encode("utf-8")

    def test_nan_written_as_NaN_reads_back_as_none(self, tmp_path):
        schema = Schema([Attribute("v"), Attribute("timestamp", DataType.TIMESTAMP)])
        records = [Record({"v": math.nan, "timestamp": 1}), Record({"v": None, "timestamp": 2})]
        path = tmp_path / "out.csv"
        save_records(records, schema, path)
        assert path.read_bytes() == b"v,timestamp\r\nNaN,1\r\n,2\r\n"
        assert [r["v"] for r in load_records(schema, path)] == [None, None]
