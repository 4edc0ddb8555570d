"""Property tests for the columnar pollution log.

:class:`ReferenceLog` below is the row-wise log the columns replaced: a list
of :class:`PollutionEvent` with its CSV/JSON writers and queries. Every
event sequence hypothesis generates is built four ways — per-event
``record_event``, per-slab ``record_slab``, ``extend`` with built events,
and ``merged`` of several logs — and each must give the reference's events,
CSV bytes, JSON text and query results.
"""

import csv
import io
import json
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.log import MISSING, PollutionEvent, PollutionLog
from repro.streaming.record import Record
from repro.streaming.time import hour_of_day_int


class ReferenceLog:
    """The row-wise log: one frozen event object per firing."""

    def __init__(self, events):
        self.events = list(events)

    @classmethod
    def merged(cls, parts):
        events = [e for part in parts for e in part]
        events.sort(key=lambda e: (e.record_id is None, e.record_id or 0))
        return cls(events)

    def count_by_polluter(self):
        return dict(Counter(e.polluter for e in self.events))

    def count_by_hour(self, polluter=None):
        counts = Counter(
            hour_of_day_int(e.tau)
            for e in self.events
            if polluter is None or e.polluter == polluter
        )
        return {h: counts.get(h, 0) for h in range(24)}

    def count_changed(self, polluter=None):
        return sum(
            1
            for e in self.events
            if (polluter is None or e.polluter == polluter)
            and (e.dropped or e.duplicated or e.changed_attributes())
        )

    def polluted_record_ids(self, polluter=None):
        return {
            e.record_id
            for e in self.events
            if e.record_id is not None and (polluter is None or e.polluter == polluter)
        }

    def by_polluter(self, polluter):
        return [e for e in self.events if e.polluter == polluter]

    def to_json(self):
        def jsonable(values):
            return {
                k: "NaN" if isinstance(v, float) and v != v else v
                for k, v in values.items()
            }

        return json.dumps(
            [
                {
                    "record_id": e.record_id,
                    "substream": e.substream,
                    "polluter": e.polluter,
                    "error": e.error,
                    "attributes": list(e.attributes),
                    "tau": e.tau,
                    "before": jsonable(e.before),
                    "after": jsonable(e.after) if e.after is not None else None,
                    "emitted": e.emitted,
                }
                for e in self.events
            ],
            indent=2,
        )

    def to_csv(self):
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(
            ["record_id", "substream", "polluter", "error", "attribute",
             "tau", "before", "after", "emitted"]
        )
        for e in self.events:
            for a in e.attributes or ("",):
                writer.writerow(
                    [e.record_id, e.substream, e.polluter, e.error, a, e.tau,
                     e.before.get(a, ""),
                     "" if e.after is None else e.after.get(a, ""),
                     e.emitted]
                )
        return out.getvalue()


# -- strategies ----------------------------------------------------------------

POLLUTERS = ("p", "q", "outer/r")
VALUES = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(float, st.just("nan")),  # a distinct NaN object per draw
    st.integers(-(10**6), 10**6),
    st.text(alphabet='xy,"\n ', max_size=3),
)
PRESENT = st.sampled_from([True, True, True, False])  # mostly present


@st.composite
def value_dicts(draw, targets):
    """Values for the distinct targets, in target order; some may be absent."""
    return {a: draw(VALUES) for a in dict.fromkeys(targets) if draw(PRESENT)}


@st.composite
def slabs(draw):
    """Runs of events sharing polluter, error, targets and multiplicity.

    Covers drops (``after`` None), duplicates, whole-tuple errors (no
    targets), NaN values, targets missing from ``before``/``after``,
    repeated target names and ``record_id`` None.
    """
    out = []
    for _ in range(draw(st.integers(0, 6))):
        targets = tuple(draw(st.lists(st.sampled_from("abc"), max_size=3)))
        emitted = draw(st.sampled_from([0, 1, 1, 1, 2, 3]))
        header = (
            draw(st.sampled_from(POLLUTERS)),
            draw(st.sampled_from(["set_null", "gaussian_noise(sigma=1.0)"])),
            targets,
            emitted,
        )
        rows = []
        for _ in range(draw(st.integers(1, 5))):
            rows.append(
                (
                    draw(st.one_of(st.none(), st.integers(0, 12))),
                    draw(st.one_of(st.none(), st.integers(0, 2))),
                    draw(st.integers(0, 3 * 86_400)),
                    draw(value_dicts(targets)),
                    None if emitted == 0 else draw(value_dicts(targets)),
                )
            )
        out.append((header, rows))
    return out


def events_of(slab_list):
    return [
        PollutionEvent(
            record_id=rid, substream=sub, polluter=polluter, error=error,
            attributes=targets, tau=tau, before=before, after=after, emitted=emitted,
        )
        for (polluter, error, targets, emitted), rows in slab_list
        for rid, sub, tau, before, after in rows
    ]


def aligned(targets, values):
    return None if values is None else tuple(values.get(a, MISSING) for a in targets)


# -- the four builds -----------------------------------------------------------


def by_record_event(slab_list):
    log = PollutionLog()
    for i, ((polluter, error, targets, emitted), rows) in enumerate(slab_list):
        for rid, sub, tau, before, after in rows:
            if i % 2:  # alternate the dict and the aligned-tuple call forms
                before, after = aligned(targets, before), aligned(targets, after)
            log.record_event(
                record=Record({}, record_id=rid, substream=sub),
                polluter=polluter, error=error, attributes=targets, tau=tau,
                before=before, after=after, emitted=emitted,
            )
    return log


def by_slab(slab_list):
    log = PollutionLog()
    for (polluter, error, targets, emitted), rows in slab_list:
        log.record_slab(
            [Record({}, record_id=rid, substream=sub) for rid, sub, _, _, _ in rows],
            [tau for _, _, tau, _, _ in rows],
            polluter,
            error,
            targets,
            [aligned(targets, before) for _, _, _, before, _ in rows],
            [aligned(targets, after) for _, _, _, _, after in rows],
            emitted,
        )
    return log


def by_extend(slab_list):
    log = PollutionLog()
    log.extend(events_of(slab_list))
    return log


def assert_matches(log, reference):
    # Compared by repr: NaN-tolerant, and stricter than == on value types
    # and on dict key order (which the JSON text depends on).
    assert len(log) == len(reference.events)
    assert repr(list(log.events)) == repr(reference.events)
    assert repr(list(log)) == repr(reference.events)
    buffer = io.StringIO()
    log.to_csv(buffer)
    assert buffer.getvalue() == reference.to_csv()
    assert log.to_json() == reference.to_json()
    assert log.count_by_polluter() == reference.count_by_polluter()
    assert log.count_by_hour() == reference.count_by_hour()
    assert log.count_changed() == reference.count_changed()
    assert log.polluted_record_ids() == reference.polluted_record_ids()
    for polluter in POLLUTERS:
        assert log.count_by_hour(polluter) == reference.count_by_hour(polluter)
        assert log.count_changed(polluter) == reference.count_changed(polluter)
        assert log.polluted_record_ids(polluter) == reference.polluted_record_ids(polluter)
        assert repr(log.by_polluter(polluter)) == repr(reference.by_polluter(polluter))


@settings(max_examples=150, deadline=None)
@given(slabs())
def test_every_build_matches_the_reference(slab_list):
    reference = ReferenceLog(events_of(slab_list))
    for build in (by_record_event, by_slab, by_extend):
        assert_matches(build(slab_list), reference)


@settings(max_examples=150, deadline=None)
@given(slabs(), st.lists(st.integers(0, 30), max_size=3))
def test_merged_matches_the_reference(slab_list, cuts):
    events = events_of(slab_list)
    bounds = [0, *sorted(min(c, len(events)) for c in cuts), len(events)]
    parts = [events[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    # Shard logs arrive as logs; plain event lists are accepted too.
    inputs = [_log_of(part) if i % 2 == 0 else part for i, part in enumerate(parts)]
    assert_matches(PollutionLog.merged(inputs), ReferenceLog.merged(parts))


def _log_of(events):
    log = PollutionLog()
    log.extend(events)
    return log


@settings(max_examples=100, deadline=None)
@given(slabs())
def test_pickle_carries_the_columns(slab_list):
    # An absent target must stay absent: MISSING unpickles as itself.
    restored = pickle.loads(pickle.dumps(by_slab(slab_list), pickle.HIGHEST_PROTOCOL))
    assert_matches(restored, ReferenceLog(events_of(slab_list)))


OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 10**6)),
    st.tuples(st.just("extend"), st.integers(0, 10**6), st.integers(0, 3)),
    st.tuples(st.just("setitem"), st.integers(-8, 8), st.integers(0, 10**6)),
    st.tuples(st.just("setslice"), st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 3)),
    st.tuples(st.just("delslice"), st.integers(-8, 8), st.integers(-8, 8)),
    st.tuples(st.just("delitem"), st.integers(-8, 8)),
    st.tuples(st.just("insert"), st.integers(-8, 8), st.integers(0, 10**6)),
    st.tuples(st.just("truncate"), st.integers(0, 8)),
)


@settings(max_examples=150, deadline=None)
@given(slabs(), st.lists(OPS, max_size=12))
def test_events_is_a_mutable_sequence_over_the_columns(slab_list, ops):
    def event(seed):
        return events_of([(("p", "e", ("a",), 1), [(seed % 7, 0, seed, {"a": seed}, {"a": -seed})])])[0]

    log = by_slab(slab_list)
    model = events_of(slab_list)
    for op in ops:
        view = log.events
        kind = op[0]
        if kind == "append":
            view.append(event(op[1]))
            model.append(event(op[1]))
        elif kind == "extend":
            new = [event(op[1] + k) for k in range(op[2])]
            view.extend(new)
            model.extend(new)
        elif kind == "setitem":
            if -len(model) <= op[1] < len(model):
                view[op[1]] = event(op[2])
                model[op[1]] = event(op[2])
        elif kind == "setslice":
            new = [event(k) for k in range(op[3])]
            view[op[1]:op[2]] = new
            model[op[1]:op[2]] = new
        elif kind == "delslice":
            del view[op[1]:op[2]]
            del model[op[1]:op[2]]
        elif kind == "delitem":
            if -len(model) <= op[1] < len(model):
                del view[op[1]]
                del model[op[1]]
        elif kind == "insert":
            view.insert(op[1], event(op[2]))
            model.insert(op[1], event(op[2]))
        else:
            log.truncate(op[1])
            del model[op[1]:]
        assert len(view) == len(model)
        assert {len(column) for column in log._columns()} == {len(model)}
    assert log.events == model
    assert log.events[1:3] == model[1:3]
    if model:
        assert log.events[-1] == model[-1]
    assert_matches(log, ReferenceLog(model))


def test_whole_tuple_event_writes_one_row_with_an_empty_attribute():
    log = PollutionLog()
    log.record_event(
        record=Record({}, record_id=4, substream=0), polluter="drop", error="drop",
        attributes=(), tau=7, before=(), after=None, emitted=0,
    )
    buffer = io.StringIO()
    log.to_csv(buffer)
    assert buffer.getvalue().splitlines()[1] == "4,0,drop,drop,,7,,,0"


def test_misaligned_tuple_is_rejected():
    log = PollutionLog()
    with pytest.raises(ValueError):
        log.record_event(
            record=Record({}), polluter="p", error="e", attributes=("a", "b"),
            tau=0, before=(1.0,), after=None, emitted=0,
        )
    assert {len(column) for column in log._columns()} == {0}
