import csv
import datetime
import re
import time
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attn_peaks.align

from attn_peaks import (
    ConsistencyError, DisasterRecord, InputError, NewsEvent, align_events, alignment_summary,
)
from attn_peaks.align import load_registry
from support import oracle_alignment_pairs, oracle_alignment_report, oracle_load_registry

D = datetime.date

REGISTRY_HEADER = "record_id,source,raw_type,onset_date,location,status\n"


def write_registry(tmp_path, body: str, name: str = "registry.csv", header: str = REGISTRY_HEADER):
    path = tmp_path / name
    path.write_text(header + body, encoding="utf-8")
    return path


def make_event(hazard: str, start: D, length: int = 1, peak_offset: int = 0) -> NewsEvent:
    days = tuple(
        (start + datetime.timedelta(days=i), 2 + (1 if i == peak_offset else 0))
        for i in range(length)
    )
    return NewsEvent(
        hazard=hazard,
        peak_date=start + datetime.timedelta(days=peak_offset),
        start_date=start,
        end_date=start + datetime.timedelta(days=length - 1),
        day_counts=days,
    )


def make_record(
    record_id: str, hazard: str, onset: D, source: str = "EMDAT"
) -> DisasterRecord:
    return DisasterRecord(
        record_id=record_id,
        source=source,
        hazard=hazard,
        onset_date=onset,
    )


class TestLoadRegistry:
    def test_empty_registry(self, tmp_path):
        path = write_registry(tmp_path, "")
        load = load_registry(path, "EMDAT")
        assert load.records == []
        assert load.n_ignored_by_type == 0

    def test_type_map_applies(self, tmp_path):
        path = write_registry(
            tmp_path,
            'r1,EMDAT,"Mass movement (wet)",2011-01-11,Rio de Janeiro,\n',
        )
        load = load_registry(path, "EMDAT")
        record = load.records[0]
        assert record.hazard == "landslide"
        assert record.onset_date == D(2011, 1, 11)
        assert record.source == "EMDAT"

    def test_status_filter_drops_and_counts(self, tmp_path):
        path = write_registry(
            tmp_path,
            "r1,S2ID,Deslizamentos,2011-01-11,Petropolis,registered\n"
            "r2,S2ID,Deslizamentos,2011-02-11,Petropolis,recognised\n",
        )
        load = load_registry(
            path, "S2ID", type_map={"Deslizamentos": "landslide"}, status_accept=("recognised",)
        )
        assert [r.record_id for r in load.records] == ["r2"]
        assert load.n_dropped_by_status == 1

    def test_no_status_filter_without_status_accept(self, tmp_path):
        # The loader names no source: S2ID statuses are filtered only when asked to.
        path = write_registry(tmp_path, "r1,,Wildfire,2011-01-11,,registered\n")
        for source in ("EMDAT", "S2ID"):
            load = load_registry(path, source)
            assert len(load.records) == 1
            assert load.n_dropped_by_status == 0

    def test_ignored_types_are_counted(self, tmp_path):
        path = write_registry(tmp_path, "r1,EMDAT,Epidemic,2011-01-11,,\n")
        load = load_registry(path, "EMDAT", type_map={"Epidemic": "ignore"})
        assert load.records == []
        assert load.n_ignored_by_type == 1

    def test_unmapped_raw_type_lists_the_label(self, tmp_path):
        path = write_registry(tmp_path, "r1,EMDAT,Volcanic activity,2011-01-11,,\n")
        with pytest.raises(InputError, match="'Volcanic activity'"):
            load_registry(path, "EMDAT")

    def test_invalid_date_names_the_row(self, tmp_path):
        path = write_registry(
            tmp_path,
            "r1,EMDAT,Wildfire,2011-01-11,,\n"
            "r2,EMDAT,Wildfire,2011-13-40,,\n",
        )
        message = f"row 2 of {str(path)!r}: invalid date '2011-13-40'"
        with pytest.raises(InputError, match=re.escape(message)):
            load_registry(path, "EMDAT")

    # Python 3.11's date.fromisoformat reads both as 2011-01-11.
    @pytest.mark.parametrize("onset", ["20110111", "2011-W02-2"])
    def test_onset_must_be_yyyy_mm_dd(self, tmp_path, onset):
        path = write_registry(
            tmp_path, f"r1,EMDAT,Wildfire,2011-01-11,,\nr2,EMDAT,Wildfire,{onset},,\n"
        )
        message = f"row 2 of {str(path)!r}: invalid date '{onset}'"
        with pytest.raises(InputError, match=re.escape(message)):
            load_registry(path, "EMDAT")

    def test_equal_onsets_share_one_date(self, tmp_path):
        path = write_registry(
            tmp_path, "r1,EMDAT,Wildfire,2011-01-11,,\nr2,EMDAT,Landslide,2011-01-11,,\n"
        )
        first, second = load_registry(path, "EMDAT").records
        assert first.onset_date == D(2011, 1, 11)
        assert first.onset_date is second.onset_date

    def test_a_record_holds_its_id_source_hazard_and_onset_alone(self, tmp_path):
        # 20,000 distinct 40-character locations: a kept location, type and
        # status would cost over 100 bytes a record more.
        n = 20_000
        rows = "".join(
            f"S2-{i:06d},S2ID,Deslizamentos,2011-01-{i % 28 + 1:02d},"
            f"{f'Município {i:06d}':<40},recognised\n"
            for i in range(n)
        )
        path = write_registry(tmp_path, rows)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            load = load_registry(
                path, "S2ID", {"Deslizamentos": "landslide"}, status_accept=("recognised",)
            )
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(load.records) == n
        assert retained < 160 * n, f"{retained / n:.0f} bytes per record"

    def test_unmapped_raw_type_is_reported_before_row_errors(self, tmp_path):
        path = write_registry(
            tmp_path,
            "r1,EMDAT,Wildfire,2011-13-40,,\n"
            "r1,S2ID,Wildfire,2011-01-11,,\n"
            "r3,EMDAT,Volcanic activity,2011-01-11,,\n",
        )
        with pytest.raises(InputError, match="missing from the type map: 'Volcanic activity'"):
            load_registry(path, "EMDAT")

    def test_source_mismatch_is_rejected(self, tmp_path):
        path = write_registry(tmp_path, "r1,S2ID,Wildfire,2011-01-11,,\n")
        reason = "declares source 'S2ID' but the file was loaded as 'EMDAT'"
        message = f"row 1 of {str(path)!r}: {reason}"
        with pytest.raises(InputError, match=re.escape(message)):
            load_registry(path, "EMDAT")

    def test_blank_source_column_inherits_argument(self, tmp_path):
        path = write_registry(tmp_path, "r1,,Wildfire,2011-01-11,,\n")
        assert load_registry(path, "EMDAT").records[0].source == "EMDAT"

    def test_empty_source_label_is_refused(self, tmp_path):
        path = write_registry(tmp_path, "r1,,Wildfire,2011-01-11,,\n")
        with pytest.raises(InputError, match="registry source must be a non-empty label"):
            load_registry(path, "")

    def test_duplicate_record_id_is_rejected(self, tmp_path):
        path = write_registry(
            tmp_path,
            "r1,EMDAT,Wildfire,2011-01-11,,\nr1,EMDAT,Wildfire,2011-01-12,,\n",
        )
        message = f"row 2 of {str(path)!r}: duplicate record id 'r1'"
        with pytest.raises(InputError, match=re.escape(message)):
            load_registry(path, "EMDAT")

    def test_csv_parse_error_names_the_row(self, tmp_path, monkeypatch):
        # A strict reader turns the stray quote in row 2 into a csv.Error.
        # The registry is read through ingest.csv_rows, so its reader is patched there.
        monkeypatch.setattr(
            attn_peaks.ingest, "csv_reader", lambda handle: csv.reader(handle, strict=True)
        )
        path = write_registry(
            tmp_path, 'r1,EMDAT,Wildfire,2011-01-11,,\nr2,EMDAT,Wildfire,2011-01-12,"a"b,\n'
        )
        with pytest.raises(InputError, match=re.escape(f"row 2 of {str(path)!r}: malformed CSV: ")):
            load_registry(path, "EMDAT")

    def test_unexpected_header_is_rejected(self, tmp_path):
        path = write_registry(tmp_path, "", header="id,source,type,onset,loc,status\n")
        with pytest.raises(InputError, match="unexpected registry header"):
            load_registry(path, "EMDAT")


_ORACLE_TYPE_MAP = {
    "Landslide": "landslide",
    "Wildfire": "fire",
    "Incêndio florestal": "fire",
    "Flood": "ignore",
}
_VALID_ONSETS = ["2020-01-05", "2019-12-31", "2020-02-29", "2020-01-05", "2019-12-31"]
# Each row breaks a rule with a small chance, so that both loads that succeed
# and each kind of error are common: many-times-repeated entries are the
# valid ones, single entries the broken ones.
_REGISTRY_ROWS = st.lists(
    st.tuples(
        st.sampled_from([f"R{i}" for i in range(20)] + ["Rö-4", "R,5", ""]),
        st.sampled_from([""] * 30 + ["EMDAT", "S2ID", "Other"]),
        st.sampled_from(["Landslide", "Wildfire", "Incêndio florestal", "Flood"] * 6 + ["Hail"]),
        st.sampled_from(
            _VALID_ONSETS * 6
            + ["2021-02-29", "20200105", "2020-1-05", "", "２０２０-01-05", "2020-01-05 "]
        ),
        st.sampled_from(["", "Acre", 'Rio "de" Janeiro', "Petrópolis, RJ"]),
        st.sampled_from(["recognised", "recognised", " Recognised ", "RECOGNISED", "pending", ""]),
        # Fields taken away or added: a wrong width in a few rows.
        st.sampled_from([0] * 60 + [-1, -6, 1]),
    ),
    max_size=8,
)


def _registry_outcome(loader, path, source, status_accept):
    """The records field by field and the tallies, or the error message."""
    try:
        load = loader(path, source, _ORACLE_TYPE_MAP, status_accept)
    except InputError as exc:
        return "error", str(exc)
    fields = DisasterRecord.__dataclass_fields__
    records = [[getattr(record, name) for name in fields] for record in load.records]
    return records, load.n_ignored_by_type, load.n_dropped_by_status


class TestLoadRegistryOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        rows=_REGISTRY_ROWS,
        source=st.sampled_from(["EMDAT", "S2ID"]),
        status_accept=st.sampled_from([None, ("recognised",)]),
    )
    @example(rows=[], source="EMDAT", status_accept=None)
    @example(  # a wrong width is reported before an unmapped type
        rows=[("R1", "", "Hail", "2020-01-05", "", "", 0), ("R2", "", "Flood", "x", "", "", 1)],
        source="EMDAT",
        status_accept=None,
    )
    @example(  # an unmapped type is reported before a duplicate id and a bad date
        rows=[("R1", "", "Wildfire", "x", "", "", 0), ("R1", "", "Hail", "x", "", "", 0)],
        source="EMDAT",
        status_accept=None,
    )
    @example(  # a wrong width in row 2 is reported before a bad date in row 1
        rows=[("R1", "", "Wildfire", "x", "", "", 0), ("R2", "", "Wildfire", "x", "", "", -1)],
        source="EMDAT",
        status_accept=None,
    )
    @example(  # an unmapped type in the last row is reported before a duplicate id
        rows=[
            ("R1", "", "Wildfire", "2020-01-05", "", "", 0),
            ("R1", "", "Wildfire", "2020-01-05", "", "", 0),
            ("R3", "", "Hail", "2020-01-05", "", "", 0),
        ],
        source="EMDAT",
        status_accept=None,
    )
    @example(  # of two row errors, the first one is reported
        rows=[("R1", "", "Wildfire", "x", "", "", 0), ("R2", "S2ID", "Landslide", "x", "", "", 0)],
        source="EMDAT",
        status_accept=None,
    )
    @example(  # dropped rows never have their dates read
        rows=[
            ("R1", "", "Flood", "x", "", "recognised", 0),
            ("R2", "S2ID", "Wildfire", "x", "", "pending", 0),
            ("R3", "", "Landslide", "2020-01-05", "", " Recognised ", 0),
        ],
        source="S2ID",
        status_accept=("recognised",),
    )
    def test_equals_the_plain_loader(self, tmp_path_factory, rows, source, status_accept):
        path = tmp_path_factory.mktemp("registry") / "registry.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(REGISTRY_HEADER.strip().split(","))
            for *fields, width_change in rows:
                if width_change < 0:
                    fields = fields[:width_change]
                writer.writerow(fields + ["x"] * width_change)
        want = _registry_outcome(oracle_load_registry, path, source, status_accept)
        assert _registry_outcome(load_registry, path, source, status_accept) == want


class TestAlignEvents:
    def test_onset_on_first_news_day_aligns_with_lag_zero(self):
        ev = make_event("landslide", D(2011, 1, 12))
        rec = make_record("r1", "landslide", D(2011, 1, 12))
        report = align_events([ev], [rec], window_days=5)
        assert len(report.pairs) == 1
        assert report.pairs[0].lag_days == 0

    def test_window_boundaries_are_inclusive(self):
        ev = make_event("landslide", D(2011, 1, 12))
        at_window = make_record("r1", "landslide", D(2011, 1, 7))
        beyond = make_record("r2", "landslide", D(2011, 1, 6))
        report = align_events([ev], [at_window, beyond], window_days=5)
        assert [p.record_id for p in report.pairs] == ["r1"]
        assert report.pairs[0].lag_days == 5
        assert report.unmatched_records == [("EMDAT", "r2")]

    def test_news_before_onset_never_aligns(self):
        ev = make_event("landslide", D(2011, 1, 12))
        rec = make_record("r1", "landslide", D(2011, 1, 13))
        assert align_events([ev], [rec], window_days=5).pairs == []

    def test_event_can_align_with_multiple_records(self):
        ev = make_event("landslide", D(2011, 1, 12))
        records = [
            make_record("r1", "landslide", D(2011, 1, 11)),
            make_record("r2", "landslide", D(2011, 1, 9)),
        ]
        report = align_events([ev], records, window_days=5)
        assert {(p.record_id, p.lag_days) for p in report.pairs} == {("r1", 1), ("r2", 3)}
        assert report.aligned_by_source == {"EMDAT": {"landslide": 1}}

    def test_hazard_separation(self):
        ev = make_event("fire", D(2011, 1, 12))
        rec = make_record("r1", "landslide", D(2011, 1, 12))
        report = align_events([ev], [rec], window_days=5)
        assert report.pairs == []
        assert report.unmatched_events == ["fire-2011-01-12"]
        assert report.unmatched_records == [("EMDAT", "r1")]

    def test_negative_window_is_rejected(self):
        with pytest.raises(ValueError, match="window_days"):
            align_events([], [], window_days=-1)

    def test_matches_all_pairs_oracle_on_random_fixtures(self):
        rng = np.random.default_rng(13)
        base = D(2010, 1, 1)
        for _ in range(30):
            events = [
                make_event(
                    rng.choice(["landslide", "fire"]),
                    base + datetime.timedelta(days=int(rng.integers(0, 200)) * 3),
                )
                for _ in range(20)
            ]
            # keep event ids unique per hazard+start
            events = list({e.event_id: e for e in events}.values())
            records = [
                make_record(
                    f"r{i}",
                    rng.choice(["landslide", "fire"]),
                    base + datetime.timedelta(days=int(rng.integers(-5, 605))),
                    source=rng.choice(["EMDAT", "S2ID"]),
                )
                for i in range(25)
            ]
            window = int(rng.integers(0, 9))
            report = align_events(events, records, window)
            got = {(p.event_id, p.source, p.record_id, p.lag_days) for p in report.pairs}
            assert got == oracle_alignment_pairs(events, records, window)
            # symmetric bookkeeping
            matched_events = {p.event_id for p in report.pairs}
            assert len(report.unmatched_events) + len(matched_events) == len(events)
            matched_records = {(p.source, p.record_id) for p in report.pairs}
            assert len(report.unmatched_records) + len(matched_records) == len(records)

    def test_widening_window_is_monotone(self):
        rng = np.random.default_rng(17)
        base = D(2015, 6, 1)
        events = [
            make_event("fire", base + datetime.timedelta(days=int(d) * 2))
            for d in rng.integers(0, 100, 12)
        ]
        events = list({e.event_id: e for e in events}.values())
        records = [
            make_record(f"r{i}", "fire", base + datetime.timedelta(days=int(d)))
            for i, d in enumerate(rng.integers(-10, 210, 30))
        ]
        previous: set = set()
        for window in range(0, 12):
            pairs = {
                (p.event_id, p.source, p.record_id)
                for p in align_events(events, records, window).pairs
            }
            assert previous <= pairs
            previous = pairs


SPAN_START = D(2010, 1, 1)
SPAN_DAYS = 40


def _day(offset: int) -> D:
    return SPAN_START + datetime.timedelta(days=offset)


_HAZARDS = st.sampled_from(["landslide", "fire", "flood"])
_DAYS = st.integers(0, SPAN_DAYS)
_EVENT = st.builds(
    lambda hazard, day, length: make_event(hazard, _day(day), length, length // 2),
    _HAZARDS,
    _DAYS,
    st.integers(1, 4),
)
_RECORD = st.builds(
    lambda record_id, hazard, day, source: make_record(f"r{record_id}", hazard, _day(day), source),
    st.integers(0, 19),
    _HAZARDS,
    st.one_of(_DAYS, st.just(10)),
    st.sampled_from(["EMDAT", "S2ID"]),
)
# Event ids and (source, record_id) keys are distinct, as in a run; the
# small day pool makes many records on one onset day common.
_EVENTS = st.lists(_EVENT, max_size=12, unique_by=attrgetter("event_id"))
_RECORDS = st.lists(_RECORD, max_size=30, unique_by=attrgetter("source", "record_id"))
_WINDOWS = st.one_of(
    st.integers(0, 8),
    st.integers(SPAN_DAYS, 3 * SPAN_DAYS),
    st.integers(0, 10**6),
    st.sampled_from([0, 10**6]),
)


@st.composite
def _inputs_with_one_repeat(draw):
    """Valid events, records and window, then one event id or record key given twice.

    The twin of an event has the same hazard and peak day but its own span;
    the twin of a record has the same key but its own hazard and onset.
    Returns the four values and the text of the error that names the repeat.
    """
    events, records = draw(_EVENTS), draw(_RECORDS)
    if draw(st.booleans()):
        events = events or [draw(_EVENT)]
        twin = draw(st.sampled_from(events))
        length = draw(st.integers(1, 4))
        offset = draw(st.integers(0, length - 1))
        start = twin.peak_date - datetime.timedelta(days=offset)
        copy = make_event(twin.hazard, start, length, offset)
        events.insert(draw(st.integers(0, len(events))), copy)
        message = f"event {twin.event_id} is repeated"
    else:
        records = records or [draw(_RECORD)]
        twin = draw(st.sampled_from(records))
        copy = make_record(twin.record_id, draw(_HAZARDS), _day(draw(_DAYS)), twin.source)
        records.insert(draw(st.integers(0, len(records))), copy)
        message = f"record {twin.record_id!r} of registry {twin.source!r} is repeated"
    return events, records, draw(_WINDOWS), message


class TestAlignmentOracle:
    @settings(max_examples=400, deadline=None)
    @given(events=_EVENTS, records=_RECORDS, window=_WINDOWS)
    @example(  # many records sharing one onset day, window 0
        events=[make_event("fire", _day(10))],
        records=[make_record(f"r{i}", "fire", _day(10)) for i in (3, 1, 2, 0)],
        window=0,
    )
    @example(  # hazards with records but no events, and the reverse
        events=[make_event("fire", _day(10)), make_event("flood", _day(12))],
        records=[make_record("r1", "landslide", _day(9)), make_record("r2", "fire", _day(9))],
        window=3,
    )
    @example(  # a window wider than any date span
        events=[make_event("landslide", _day(0)), make_event("landslide", _day(SPAN_DAYS))],
        records=[
            make_record(f"r{i}", "landslide", _day(day))
            for i, day in ((3, SPAN_DAYS), (1, 0), (2, 20))
        ],
        window=10**6,
    )
    @example(  # records out of (source, record_id) order, some matching nothing
        events=[make_event("fire", _day(10)), make_event("landslide", _day(12))],
        records=[
            make_record("r9", "fire", _day(8), "S2ID"),
            make_record("r4", "fire", _day(30)),  # matches nothing
            make_record("r7", "landslide", _day(12)),
            make_record("r1", "fire", _day(6), "S2ID"),
            make_record("r5", "fire", _day(40)),  # matches nothing
            make_record("r8", "fire", _day(10)),
            make_record("r2", "landslide", _day(9), "S2ID"),
            make_record("r0", "fire", _day(2)),  # matches nothing
        ],
        window=5,
    )
    def test_report_equals_all_pairs_oracle(self, events, records, window):
        assert align_events(events, records, window) == oracle_alignment_report(
            events, records, window
        )

    @settings(max_examples=200, deadline=None)
    @given(case=_inputs_with_one_repeat())
    @example(  # a record key with two onsets, and an event id twice: the key is named
        case=(
            [make_event("fire", _day(9), 3, 1), make_event("fire", _day(10))],
            [
                make_record("r1", "fire", _day(8)),
                make_record("r1", "fire", _day(5)),
                make_record("r1", "fire", _day(7), "S2ID"),
            ],
            5,
            "record 'r1' of registry 'EMDAT' is repeated",
        )
    )
    @example(  # two events with one event_id whose windows interleave by (source, record_id)
        case=(
            [make_event("fire", _day(9), 3, 1), make_event("fire", _day(10))],
            [
                make_record("r5", "fire", _day(10)),  # the second event's only
                make_record("r1", "fire", _day(4)),  # the first event's only
                make_record("r2", "fire", _day(10)),
                make_record("r3", "fire", _day(4)),
                make_record("r5", "fire", _day(4)),  # the same key, the other onset
                make_record("r4", "fire", _day(4), "S2ID"),
                make_record("r1", "fire", _day(10), "S2ID"),
                make_record("r6", "fire", _day(7)),  # both events'
            ],
            5,
            "record 'r5' of registry 'EMDAT' is repeated",
        )
    )
    @example(  # the same events with distinct keys: the event id is named
        case=(
            [make_event("fire", _day(9), 3, 1), make_event("fire", _day(10))],
            [make_record("r5", "fire", _day(10)), make_record("r1", "fire", _day(4))],
            5,
            "event fire-2010-01-11 is repeated",
        )
    )
    def test_a_repeated_event_id_or_record_key_is_refused(self, case):
        events, records, window, message = case
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            align_events(events, records, window)

    def test_scale_2k_events_26k_records_under_two_seconds(self):
        # 26,000 records is about the size of a global EM-DAT export; the
        # all-pairs scan takes several seconds at this size.
        events, records = _scale_inputs()
        started = time.perf_counter()
        report = align_events(events, records, 5)
        elapsed = time.perf_counter() - started
        assert report.pairs
        assert elapsed < 2.0, f"align_events took {elapsed:.2f} s"

    def test_peak_memory_is_a_small_multiple_of_the_report(self):
        # About 17,000 pairs and 13,000 unmatched records. A tuple per pair
        # found, a list of onset days and a set of the matched keys peaked at
        # 2.8-2.9 times the report on Python 3.10-3.13; arrays of onset days
        # and ranks, a key number a record and tuples of each id's hits at
        # 1.30-1.33; the arrays and a byte per matched rank at 1.22-1.24.
        events, records = _scale_inputs()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = align_events(events, records, 5)
            retained, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(report.pairs) > 10_000
        assert peak < 1.3 * retained, f"peak {peak / retained:.2f} times the report"


def _scale_inputs() -> tuple[list[NewsEvent], list[DisasterRecord]]:
    """2,000 events and 26,000 records of two hazards and two sources over 9,000 days."""
    rng = np.random.default_rng(2026)
    base = D(2000, 1, 1)
    hazards = ("landslide", "fire")
    # Each hazard's peak days are drawn without replacement: event ids are distinct.
    events = [
        make_event(hazard, base + datetime.timedelta(days=int(d)))
        for hazard in hazards
        for d in rng.choice(9000, 1000, replace=False)
    ]
    records = [
        make_record(
            f"r{i}",
            hazards[int(h)],
            base + datetime.timedelta(days=int(d)),
            source=("EMDAT", "S2ID")[i % 2],
        )
        for i, (h, d) in enumerate(
            zip(rng.integers(0, 2, 26_000), rng.integers(-10, 9000, 26_000))
        )
    ]
    return events, records


class TestAlignmentSummary:
    def test_no_pairs(self):
        report = align_events([make_event("fire", D(2020, 1, 1))], [], 5)
        summary = alignment_summary(report, 1)
        assert summary["events_aligned_any_source"] == 0
        assert summary["aligned_fraction"] == 0.0

    def test_two_of_eight(self):
        events = [
            make_event("fire", D(2020, 1, 1) + datetime.timedelta(days=20 * i))
            for i in range(8)
        ]
        records = [
            make_record("r1", "fire", events[0].start_date),
            make_record("r2", "fire", events[3].start_date - datetime.timedelta(days=2)),
        ]
        summary = alignment_summary(align_events(events, records, 5), 8)
        assert summary["events_aligned_any_source"] == 2
        assert summary["aligned_fraction"] == 0.25

    def test_zero_events_reports_null_fraction(self):
        summary = alignment_summary(align_events([], [], 5), 0)
        assert summary["aligned_fraction"] is None

    def test_miniature_corpus_reproduces_constructed_tallies(self):
        # 88 events (58 landslide + 30 fire), spaced far apart; registry built
        # so exactly 24 landslide + 3 fire events align with EMDAT entries.
        base = D(2001, 1, 1)
        landslide = [
            make_event("landslide", base + datetime.timedelta(days=40 * i))
            for i in range(58)
        ]
        fire = [
            make_event("fire", base + datetime.timedelta(days=40 * i + 20))
            for i in range(30)
        ]
        records = [
            make_record(f"em-l{i}", "landslide", landslide[i].start_date - datetime.timedelta(days=i % 6))
            for i in range(24)
        ] + [
            make_record(f"em-f{i}", "fire", fire[i].start_date - datetime.timedelta(days=i % 6))
            for i in range(3)
        ] + [
            # entries that never match: wrong side of the window
            make_record(f"em-x{i}", "landslide", landslide[30 + i].start_date + datetime.timedelta(days=1))
            for i in range(10)
        ]
        report = align_events(landslide + fire, records, 5)
        summary = alignment_summary(report, 88)
        assert summary["by_source"]["EMDAT"]["aligned_events_by_hazard"] == {
            "fire": 3,
            "landslide": 24,
        }
        assert summary["by_source"]["EMDAT"]["aligned_events_total"] == 27
        assert summary["events_aligned_any_source"] == 27
        assert summary["aligned_fraction"] == pytest.approx(27 / 88)
        assert summary["by_source"]["EMDAT"]["unmatched_records"] == 10
