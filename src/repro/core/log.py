"""The pollution log: ground truth for every injected error.

Figure 2 shows "Log Data" as an optional output of the pollution step: a
record of *what was polluted, where, and how*, keyed by the tuple IDs
assigned during preparation. The log serves three purposes:

1. **ground truth** for evaluating DQ tools — an error detector's hits are
   scored against the log (Experiment 1);
2. **reproduction** — together with the run seed, the log documents the
   exact pollution; and
3. **analysis** — per-hour/per-attribute error counts (Fig. 4's orange
   bars come from the DQ tool, the blue bars from expectations computed
   over this log's domain).

Layout
------
The log is on by default, so it is stored column-wise: one list per field,
and index ``i`` across the lists is event ``i``. The polluter name, error
string and target tuple of a polluter are the same objects in every row it
writes. ``before``/``after`` hold one value tuple per event, aligned with
that event's target attributes; :data:`MISSING` marks a target absent from
the values, and an ``after`` of ``None`` is a drop. Batch kernels append a
fired slab with one :meth:`PollutionLog.record_slab` call. Queries and the
CSV/JSON writers read the columns; :class:`PollutionEvent` objects are only
built when :attr:`PollutionLog.events` (or iteration) asks for them.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from collections.abc import MutableSequence
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import IO, Any, Final, Iterable, Iterator, Mapping, Sequence, overload

from repro.streaming.record import Record
from repro.streaming.time import hour_of_day_int

#: Field names of the columns, in :class:`PollutionEvent` field order.
COLUMNS: Final = (
    "record_ids",
    "substreams",
    "polluters",
    "errors",
    "attributes",
    "taus",
    "befores",
    "afters",
    "emitted",
)

_CSV_HEADER: Final = [
    "record_id", "substream", "polluter", "error", "attribute",
    "tau", "before", "after", "emitted",
]


class _Missing:
    """A target attribute absent from an event's before/after values."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSING"

    def __reduce__(self) -> str:
        # Pickles by reference, so identity survives shard transport and
        # checkpoints.
        return "MISSING"


MISSING: Final = _Missing()


@dataclass(frozen=True)
class PollutionEvent:
    """One firing of one polluter on one tuple."""

    record_id: int | None
    substream: int | None
    polluter: str
    error: str
    attributes: tuple[str, ...]
    tau: int
    before: dict[str, Any]
    after: dict[str, Any] | None  # None => the tuple was dropped
    emitted: int  # how many records the error emitted (0 drop, 1 normal, >1 dup)

    @property
    def dropped(self) -> bool:
        return self.emitted == 0

    @property
    def duplicated(self) -> bool:
        return self.emitted > 1

    def changed_attributes(self) -> tuple[str, ...]:
        """The targeted attributes whose value actually changed."""
        if self.after is None:
            return self.attributes
        changed = []
        for a in self.attributes:
            b, c = self.before.get(a), self.after.get(a)
            if b is c:
                continue
            if isinstance(b, float) and isinstance(c, float) and b != b and c != c:
                continue  # NaN -> NaN
            if b != c:
                changed.append(a)
        return tuple(changed)


class PollutionLog:
    """Append-only pollution events, stored as columns, with query helpers.

    The columns are the attributes named in :data:`COLUMNS`. A log pickles
    as its columns, which is how shard logs and checkpoints carry it.
    """

    __slots__ = COLUMNS

    def __init__(self) -> None:
        self.record_ids: list[int | None] = []
        self.substreams: list[int | None] = []
        self.polluters: list[str] = []
        self.errors: list[str] = []
        self.attributes: list[tuple[str, ...]] = []
        self.taus: list[int] = []
        self.befores: list[tuple[Any, ...]] = []
        self.afters: list[tuple[Any, ...] | None] = []
        self.emitted: list[int] = []

    def _columns(self) -> tuple[list[Any], ...]:
        return (
            self.record_ids, self.substreams, self.polluters, self.errors,
            self.attributes, self.taus, self.befores, self.afters, self.emitted,
        )

    def __getstate__(self) -> tuple[list[Any], ...]:
        return self._columns()

    def __setstate__(self, state: tuple[list[Any], ...]) -> None:
        for name, column in zip(COLUMNS, state):
            setattr(self, name, column)

    # -- appends -------------------------------------------------------------

    def record_event(
        self,
        record: Record,
        polluter: str,
        error: str,
        attributes: tuple[str, ...],
        tau: int,
        before: Mapping[str, Any] | tuple[Any, ...],
        after: Mapping[str, Any] | tuple[Any, ...] | None,
        emitted: int,
    ) -> None:
        """Append one event.

        ``before``/``after`` are either mappings (only the values of
        ``attributes`` are kept) or tuples aligned with ``attributes``.
        """
        self._append(
            record.record_id, record.substream, polluter, error, attributes, tau,
            before, after, emitted,
        )

    def _append(
        self,
        record_id: int | None,
        substream: int | None,
        polluter: str,
        error: str,
        attributes: Sequence[str],
        tau: int,
        before: Mapping[str, Any] | tuple[Any, ...],
        after: Mapping[str, Any] | tuple[Any, ...] | None,
        emitted: int,
    ) -> None:
        targets = tuple(attributes)
        before = _aligned(targets, before)
        after = None if after is None else _aligned(targets, after)
        self.record_ids.append(record_id)
        self.substreams.append(substream)
        self.polluters.append(polluter)
        self.errors.append(error)
        self.attributes.append(targets)
        self.taus.append(tau)
        self.befores.append(before)
        self.afters.append(after)
        self.emitted.append(emitted)

    def record_slab(
        self,
        records: Sequence[Record],
        taus: Sequence[int],
        polluter: str,
        error: str,
        attributes: tuple[str, ...],
        befores: Sequence[tuple[Any, ...]],
        afters: Sequence[tuple[Any, ...] | None],
        emitted: int = 1,
    ) -> None:
        """Append one event per record that one polluter fired on in a slab.

        ``befores``/``afters`` hold one tuple per record, aligned with
        ``attributes``.
        """
        n = len(records)
        self.record_ids.extend([r.record_id for r in records])
        self.substreams.extend([r.substream for r in records])
        self.polluters.extend(repeat(polluter, n))
        self.errors.extend(repeat(error, n))
        self.attributes.extend(repeat(attributes, n))
        self.taus.extend(taus)
        self.befores.extend(befores)
        self.afters.extend(afters)
        self.emitted.extend(repeat(emitted, n))

    def extend(self, events: Iterable[PollutionEvent]) -> None:
        """Append events: another log's columns, or built events."""
        if isinstance(events, EventView):
            events = events.log
        if isinstance(events, PollutionLog):
            for mine, theirs in zip(self._columns(), events._columns()):
                mine.extend(theirs)
            return
        for e in events:
            self._append(
                e.record_id, e.substream, e.polluter, e.error, e.attributes, e.tau,
                e.before, e.after, e.emitted,
            )

    def truncate(self, length: int) -> None:
        """Drop every event from index ``length`` on."""
        for column in self._columns():
            del column[length:]

    def copy(self) -> PollutionLog:
        out = PollutionLog()
        out.extend(self)
        return out

    @classmethod
    def merged(cls, logs: Iterable[PollutionLog | Iterable[PollutionEvent]]) -> PollutionLog:
        """Deterministically merge per-shard logs back into one run log.

        A parallel run (:mod:`repro.parallel`) routes every record — and all
        of its split copies — to exactly one shard, so each record's events
        live contiguously, in chain order, inside a single shard log. The
        sequential log orders events by record arrival, which equals record
        ID order (IDs are assigned at arrival). A *stable* sort of the
        concatenation by record ID therefore reproduces the sequential log
        byte-for-byte: between records it restores arrival order, and within
        a record it preserves the shard's (correct) chain order. The same
        reorder restores a batched run's log, whose kernels append each
        slab polluter-major.

        The logs are joined column-wise and reordered once by a stable sort
        of the row indices; no event objects are built.
        """
        parts = list(logs)
        only = parts[0] if len(parts) == 1 else None
        if isinstance(only, PollutionLog):
            # Read in place, not copied: the reorder builds new columns, and
            # a copy would hold the log a third time at the run's peak.
            joined = only
        else:
            joined = cls()
            for log in parts:
                joined.extend(log)
        ids = joined.record_ids
        keys: list[Any] = ids
        if None in ids:
            keys = [(i is None, 0 if i is None else i) for i in ids]
        order = sorted(range(len(ids)), key=keys.__getitem__)
        out = cls()
        for name, column in zip(COLUMNS, joined._columns()):
            setattr(out, name, list(map(column.__getitem__, order)))
        return out

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.record_ids)

    def __iter__(self) -> Iterator[PollutionEvent]:
        return map(self._event, range(len(self)))

    @property
    def events(self) -> EventView:
        """The events as a mutable sequence; writes go to the columns."""
        return EventView(self)

    def _event(self, i: int) -> PollutionEvent:
        attributes = self.attributes[i]
        after = self.afters[i]
        return PollutionEvent(
            record_id=self.record_ids[i],
            substream=self.substreams[i],
            polluter=self.polluters[i],
            error=self.errors[i],
            attributes=attributes,
            tau=self.taus[i],
            before=_as_dict(attributes, self.befores[i]),
            after=None if after is None else _as_dict(attributes, after),
            emitted=self.emitted[i],
        )

    def by_polluter(self, qualified_name: str) -> list[PollutionEvent]:
        return [self._event(i) for i, p in enumerate(self.polluters) if p == qualified_name]

    def polluted_record_ids(self, polluter: str | None = None) -> set[int]:
        """IDs of tuples hit by (any or one) polluter."""
        return {
            r
            for r, p in zip(self.record_ids, self.polluters)
            if r is not None and (polluter is None or p == polluter)
        }

    def count_by_polluter(self) -> dict[str, int]:
        return dict(Counter(self.polluters))

    def count_by_hour(self, polluter: str | None = None) -> dict[int, int]:
        """Events per hour-of-day — the paper's Fig. 4 x-axis."""
        counts = Counter(
            hour_of_day_int(t)
            for t, p in zip(self.taus, self.polluters)
            if polluter is None or p == polluter
        )
        return {h: counts.get(h, 0) for h in range(24)}

    def count_changed(self, polluter: str | None = None) -> int:
        """Events that changed at least one attribute value (or dropped/duplicated)."""
        n = 0
        for p, attributes, before, after, emitted in zip(
            self.polluters, self.attributes, self.befores, self.afters, self.emitted
        ):
            if polluter is not None and p != polluter:
                continue
            if emitted == 0 or emitted > 1:
                n += 1  # dropped or duplicated
            elif after is None:
                n += bool(attributes)
            elif any(map(_changed, before, after)):
                n += 1
        return n

    # -- serialization -------------------------------------------------------

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize all events as a JSON array (returns the text)."""
        payload = [
            {
                "record_id": r,
                "substream": s,
                "polluter": p,
                "error": e,
                "attributes": list(attributes),
                "tau": tau,
                "before": _jsonable(attributes, before),
                "after": _jsonable(attributes, after) if after is not None else None,
                "emitted": emitted,
            }
            for r, s, p, e, attributes, tau, before, after, emitted in zip(*self._columns())
        ]
        text = json.dumps(payload, indent=2)
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_csv(self, path: str | Path | io.TextIOBase) -> None:
        """Write a flat CSV: one row per (event, attribute) pair.

        An event with no target attributes (a whole-tuple error) writes one
        row with an empty attribute.
        """
        if isinstance(path, io.TextIOBase):
            self._write_csv(path)
        else:
            with open(path, "w", newline="") as f:
                self._write_csv(f)

    def _write_csv(self, f: IO[str] | io.TextIOBase) -> None:
        writer = csv.writer(f)
        writer.writerow(_CSV_HEADER)
        writer.writerows(self._csv_rows())

    def _csv_rows(self) -> Iterator[list[Any]]:
        for r, s, p, e, attributes, tau, before, after, emitted in zip(*self._columns()):
            if not attributes:
                yield [r, s, p, e, "", tau, "", "", emitted]
                continue
            for a, b, c in zip(attributes, before, after or repeat(MISSING)):
                yield [r, s, p, e, a, tau, _cell(b), _cell(c), emitted]


class EventView(MutableSequence[PollutionEvent]):
    """:attr:`PollutionLog.events`: the log's columns seen as a list of events.

    Reads build :class:`PollutionEvent` objects on access; ``append``,
    ``extend``, item and slice assignment and ``del`` write through to the
    columns.
    """

    __slots__ = ("log",)

    def __init__(self, log: PollutionLog) -> None:
        self.log = log

    def __len__(self) -> int:
        return len(self.log)

    def __iter__(self) -> Iterator[PollutionEvent]:
        return iter(self.log)

    @overload
    def __getitem__(self, index: int) -> PollutionEvent: ...

    @overload
    def __getitem__(self, index: slice) -> list[PollutionEvent]: ...

    def __getitem__(self, index: int | slice) -> PollutionEvent | list[PollutionEvent]:
        rows = range(len(self.log))
        if isinstance(index, slice):
            return [self.log._event(i) for i in rows[index]]
        return self.log._event(rows[index])

    @overload
    def __setitem__(self, index: int, value: PollutionEvent) -> None: ...

    @overload
    def __setitem__(self, index: slice, value: Iterable[PollutionEvent]) -> None: ...

    def __setitem__(self, index: int | slice, value: Any) -> None:
        if not isinstance(index, slice):
            row = range(len(self.log))[index]
            self[row : row + 1] = [value]
            return
        staged = PollutionLog()
        staged.extend(value)
        for column, new in zip(self.log._columns(), staged._columns()):
            column[index] = new

    def __delitem__(self, index: int | slice) -> None:
        for column in self.log._columns():
            del column[index]

    def insert(self, index: int, value: PollutionEvent) -> None:
        self[index:index] = [value]

    def extend(self, values: Iterable[PollutionEvent]) -> None:
        self.log.extend(values)

    def clear(self) -> None:
        self.log.truncate(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (EventView, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventView({list(self)!r})"


def _aligned(
    attributes: tuple[str, ...], values: Mapping[str, Any] | tuple[Any, ...]
) -> tuple[Any, ...]:
    """Values as a tuple aligned with ``attributes`` (:data:`MISSING` if absent)."""
    if isinstance(values, tuple):
        if len(values) != len(attributes):
            raise ValueError(
                f"{len(values)} values for {len(attributes)} attributes {attributes}"
            )
        return values
    return tuple([values.get(a, MISSING) for a in attributes])


def _as_dict(attributes: tuple[str, ...], values: tuple[Any, ...]) -> dict[str, Any]:
    return {a: v for a, v in zip(attributes, values) if v is not MISSING}


def _jsonable(attributes: tuple[str, ...], values: tuple[Any, ...]) -> dict[str, Any]:
    return {
        a: "NaN" if isinstance(v, float) and v != v else v
        for a, v in _as_dict(attributes, values).items()
    }


def _cell(value: Any) -> Any:
    return "" if value is MISSING else value


def _changed(before: Any, after: Any) -> bool:
    """Whether one target's value changed (NaN -> NaN is no change)."""
    b = None if before is MISSING else before
    c = None if after is MISSING else after
    if b is c:
        return False
    if isinstance(b, float) and isinstance(c, float) and b != b and c != c:
        return False
    return bool(b != c)
