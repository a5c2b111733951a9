import datetime
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attn_peaks import (
    ConsistencyError,
    Corpus,
    NewsEvent,
    PeakParams,
    detect_events,
    measure_events,
    summarize,
)
from support import (
    docs_matching_series,
    make_doc,
    make_series,
    oracle_measures,
    oracle_summarize,
    random_corpus,
    random_series,
)

D = datetime.date


def event(hazard, peak, start, end, day_counts):
    return NewsEvent(
        hazard=hazard,
        peak_date=peak,
        start_date=start,
        end_date=end,
        day_counts=tuple(day_counts),
    )


class TestCharacterize:
    def test_three_day_burst(self):
        d = D(2020, 3, 10)
        ev = event(
            "landslide",
            d + datetime.timedelta(days=1),
            d,
            d + datetime.timedelta(days=2),
            [(d, 1), (d + datetime.timedelta(days=1), 3), (d + datetime.timedelta(days=2), 1)],
        )
        docs = [
            make_doc("a", d),
            make_doc("b", d + datetime.timedelta(days=1)),
            make_doc("c", d + datetime.timedelta(days=1)),
            make_doc("d", d + datetime.timedelta(days=1)),
            make_doc("e", d + datetime.timedelta(days=2)),
        ]
        m = measure_events([ev], Corpus.from_rows(docs))[0]
        assert m.total_volume == 5
        assert m.duration_days == 3
        assert m.days_to_peak == 1
        assert m.days_to_fade == 1
        assert m.n_at_peak == 3

    def test_single_day_burst(self):
        d = D(2020, 3, 10)
        ev = event("fire", d, d, d, [(d, 2)])
        docs = [make_doc("a", d, hazard="fire"), make_doc("b", d, hazard="fire")]
        m = measure_events([ev], Corpus.from_rows(docs))[0]
        assert m.duration_days == 1
        assert m.days_to_peak == 0
        assert m.days_to_fade == 0
        assert m.total_volume == 2

    def test_text_and_outlet_cardinalities(self):
        d = D(2020, 3, 10)
        ev = event("landslide", d, d, d, [(d, 2)])
        docs = [
            make_doc("a", d, outlet="A", text_key="same"),
            make_doc("b", d, outlet="B", text_key="same"),
        ]
        m = measure_events([ev], Corpus.from_rows(docs))[0]
        assert m.n_text_types == 1
        assert m.n_outlets == 2
        assert m.total_volume == 2

    def test_documents_of_other_hazards_are_ignored(self):
        d = D(2020, 3, 10)
        ev = event("landslide", d, d, d, [(d, 2)])
        docs = [make_doc("a", d), make_doc("b", d), make_doc("c", d, hazard="fire", outlet="F")]
        m = measure_events([ev], Corpus.from_rows(docs))[0]
        assert (m.total_volume, m.n_outlets) == (2, 1)

    def test_event_day_without_documents_is_inconsistent(self):
        d = D(2020, 3, 10)
        ev = event("landslide", d, d, d, [(d, 2)])
        with pytest.raises(ConsistencyError, match="no documents"):
            measure_events([ev], Corpus())[0]

    def test_document_count_mismatch_is_inconsistent(self):
        d = D(2020, 3, 10)
        ev = event("landslide", d, d, d, [(d, 2)])
        with pytest.raises(ConsistencyError, match="corpus/series mismatch"):
            measure_events([ev], Corpus.from_rows([make_doc("a", d)]))[0]

    def test_day_counted_zero_without_documents_is_consistent(self):
        # segment_events never makes such a day; a hand-built event may hold one.
        d = D(2020, 3, 10)
        after = d + datetime.timedelta(days=1)
        ev = event("landslide", d, d, after, [(d, 1), (after, 0)])
        m = measure_events([ev], Corpus.from_rows([make_doc("a", d)]))[0]
        assert (m.total_volume, m.duration_days, m.n_outlets) == (1, 2, 1)


def gap_measures(events):
    """``(days_since_last, days_since_last_peak)`` per event; one document per counted unit."""
    docs = [
        make_doc(f"{e.event_id}-{day}-{n}", day, hazard=e.hazard)
        for e in events
        for day, count in e.day_counts
        for n in range(count)
    ]
    measures = measure_events(events, Corpus.from_rows(docs))
    return [(m.days_since_last, m.days_since_last_peak) for m in measures]


class TestGaps:
    def test_single_event_has_no_gap(self):
        ev = event("fire", D(2020, 1, 5), D(2020, 1, 5), D(2020, 1, 5), [(D(2020, 1, 5), 2)])
        assert gap_measures([ev]) == [(None, None)]

    def test_gap_is_end_to_start(self):
        first = event(
            "fire", D(2020, 1, 9), D(2020, 1, 8), D(2020, 1, 10), [(D(2020, 1, 9), 2)]
        )
        second = event(
            "fire", D(2020, 1, 17), D(2020, 1, 17), D(2020, 1, 18), [(D(2020, 1, 17), 2)]
        )
        assert [gap for gap, _ in gap_measures([first, second])] == [None, 7]

    def test_adjacent_events_have_gap_one(self):
        first = event(
            "fire", D(2020, 1, 9), D(2020, 1, 8), D(2020, 1, 10), [(D(2020, 1, 9), 2)]
        )
        second = event(
            "fire", D(2020, 1, 11), D(2020, 1, 11), D(2020, 1, 12), [(D(2020, 1, 11), 2)]
        )
        assert [gap for gap, _ in gap_measures([first, second])] == [None, 1]

    def test_overlapping_events_are_rejected(self):
        first = event(
            "fire", D(2020, 1, 9), D(2020, 1, 8), D(2020, 1, 12), [(D(2020, 1, 9), 2)]
        )
        second = event(
            "fire", D(2020, 1, 11), D(2020, 1, 11), D(2020, 1, 14), [(D(2020, 1, 11), 2)]
        )
        with pytest.raises(ConsistencyError, match="overlap"):
            gap_measures([first, second])

    def test_peak_gaps_variant(self):
        first = event(
            "fire", D(2020, 1, 9), D(2020, 1, 8), D(2020, 1, 10), [(D(2020, 1, 9), 2)]
        )
        second = event(
            "fire", D(2020, 1, 17), D(2020, 1, 17), D(2020, 1, 18), [(D(2020, 1, 17), 2)]
        )
        assert [peak_gap for _, peak_gap in gap_measures([first, second])] == [None, 8]

    def test_events_of_two_hazards_are_rejected(self):
        first = event(
            "fire", D(2020, 1, 9), D(2020, 1, 8), D(2020, 1, 10), [(D(2020, 1, 9), 2)]
        )
        second = event(
            "landslide", D(2020, 1, 17), D(2020, 1, 17), D(2020, 1, 18), [(D(2020, 1, 17), 2)]
        )
        with pytest.raises(ConsistencyError, match="gap between different hazards"):
            gap_measures([first, second])


class TestSummarize:
    def test_singleton(self):
        box = summarize([5])
        assert box.median == box.q1 == box.q3 == 5.0
        assert box.whisker_low == box.whisker_high == 5.0
        assert box.outliers == []
        assert box.n == 1

    def test_tukey_fence_flags_extreme_point(self):
        box = summarize([1, 2, 3, 4, 100])
        # order statistics: q1=2, median=3, q3=4, fences [-1, 7]
        assert box.q1 == 2.0
        assert box.median == 3.0
        assert box.q3 == 4.0
        assert box.outliers == [100.0]
        assert box.whisker_high == 4.0
        assert box.whisker_low == 1.0

    def test_even_count_interpolates_median(self):
        box = summarize([1, 2, 3, 4])
        assert box.median == 2.5
        assert box.q1 == 1.75
        assert box.q3 == 3.25
        assert box.outliers == []

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError, match="at least one value"):
            summarize([])

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError, match="excluded"):
            summarize([1.0, float("nan")])

    @pytest.mark.parametrize(
        "values",
        [[float("inf")], [-float("inf")], [1.0, float("inf")]],
        ids=["inf", "-inf", "1,inf"],
    )
    def test_infinity_is_rejected(self, values):
        with pytest.raises(ValueError, match="infinite"):
            summarize(values)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        values = rng.integers(0, 50, 40).tolist()
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert summarize(values) == summarize(shuffled)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        values = rng.integers(1, 50, 25).tolist()
        base = summarize(values)
        scaled = summarize([3.0 * v for v in values])
        assert scaled.median == pytest.approx(3.0 * base.median)
        assert scaled.q1 == pytest.approx(3.0 * base.q1)
        assert scaled.q3 == pytest.approx(3.0 * base.q3)
        assert scaled.whisker_low == pytest.approx(3.0 * base.whisker_low)
        assert scaled.whisker_high == pytest.approx(3.0 * base.whisker_high)
        assert scaled.outliers == pytest.approx([3.0 * v for v in base.outliers])



def _bits(box, zeros_by_value: bool = False):
    """Every number of a BoxStats, floats as their exact bits.

    With ``zeros_by_value``, a zero is shown as ``0`` whatever its sign.
    """
    numbers = (box.median, box.q1, box.q3, box.whisker_low, box.whisker_high, *box.outliers)
    return ["0" if zeros_by_value and v == 0 else v.hex() for v in numbers], box.n


def _holds_both_signed_zeros(values) -> bool:
    return len({math.copysign(1.0, v) for v in values if v == 0}) == 2


@st.composite
def _values(draw):
    """1-7, 8-128 or up to 4,000 counts or floats, as summarize receives them."""
    n = draw(st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 4000)))
    if n <= 128 and draw(st.booleans()):
        element = st.one_of(st.integers(0, 400), st.floats(-1e6, 1e6, allow_nan=False))
        return draw(st.lists(element, min_size=n, max_size=n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([1, 5, 60, 10**6]))
    # Mostly small values with a long tail, so that some fall outside the fences.
    return [int(rng.paretovariate(1.5)) % (top + 1) for _ in range(n)]


# Lists where 0, 0.0 and -0.0 are common, next to a few other values.
_SIGNED_ZEROS = st.lists(
    st.sampled_from([0, 0.0, -0.0, -0.0, 1.5, -2.0, 400]), min_size=1, max_size=40
)


class TestSummarizeAgainstNumpy:
    @settings(max_examples=300, deadline=None)
    @given(values=_values())
    @example(values=[0] * 7 + [-0.0])  # numpy's whisker_low is -0.0 here
    def test_equals_numpy_percentile_bit_for_bit(self, values):
        # -0.0 == 0.0, and numpy keeps equal values in input order, so for
        # an input with both zeros the sign of a zero statistic depends on
        # that order: np.array([0.0, -0.0]).min() is -0.0, but
        # np.array([-0.0, 0.0]).min() is 0.0. summarize puts -0.0 first
        # whatever the order, so such zeros are compared by value only.
        zeros_by_value = _holds_both_signed_zeros(values)
        assert _bits(summarize(values), zeros_by_value) == _bits(
            oracle_summarize(values), zeros_by_value
        )

    def test_linear_interpolation_from_the_nearer_order_statistic(self):
        # numpy interpolates from b when the fraction is at least 0.5:
        # 0.1 + (16.8 - 0.1) * 0.75 rounds to 12.624999999999998, but
        # 16.8 - (16.8 - 0.1) * 0.25 to 12.625, which is numpy's result.
        assert summarize([0.1, 16.8]).q3 == 12.625 == oracle_summarize([0.1, 16.8]).q3


class TestSummarizeIgnoresOrder:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_shuffled_input_gives_identical_bits(self, data):
        values = data.draw(st.one_of(_values(), _SIGNED_ZEROS), label="values")
        shuffled = data.draw(st.permutations(values), label="shuffled")
        assert _bits(summarize(shuffled)) == _bits(summarize(values))

    def test_negative_zero_sorts_before_zero(self):
        for values in ([0, -0.0], [-0.0, 0], [0.0, -0.0, 0.0]):
            box = summarize(values)
            assert math.copysign(1.0, box.whisker_low) == -1.0, values
            assert math.copysign(1.0, box.whisker_high) == 1.0, values


class TestMeasureEvents:
    def test_fills_gap_measures(self):
        series = make_series([0, 1, 3, 1, 0, 0, 0, 0, 0, 4, 0])
        docs = docs_matching_series(series)
        events = detect_events(series, PeakParams(2, 3))
        measures = measure_events(events, Corpus.from_rows(docs))
        assert [m.days_since_last for m in measures] == [None, 6]
        assert [m.days_since_last_peak for m in measures] == [None, 7]

    def test_identities_on_random_suite(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(60):
            series = random_series(rng, max_len=120, max_value=6)
            params = PeakParams(
                min_height=int(rng.integers(1, 5)),
                min_distance=int(rng.integers(1, 15)),
            )
            events = detect_events(series, params)
            measures = measure_events(events, Corpus.from_rows(docs_matching_series(series)))
            for m in measures:
                assert m.duration_days == m.days_to_peak + m.days_to_fade + 1
                assert m.total_volume >= m.duration_days
                assert m.total_volume >= m.n_at_peak >= params.min_height
                assert m.n_outlets >= 1
                assert m.n_text_types >= 1
                if m.days_since_last is not None:
                    assert m.days_since_last > 0
                checked += 1
        assert checked > 50


def _random_events(rng):
    series = random_series(rng, max_len=150, max_value=6)
    params = PeakParams(min_height=int(rng.integers(1, 4)), min_distance=int(rng.integers(1, 10)))
    return series, detect_events(series, params)


class TestMeasuresAgainstOracle:
    def test_equal_oracle_on_random_series(self):
        rng = np.random.default_rng(17)
        n_events = 0
        for _ in range(80):
            series, events = _random_events(rng)
            docs = random_corpus(rng, series)
            # The oracle counts the keys themselves; the corpus holds their labels.
            assert measure_events(events, Corpus.from_rows(docs)) == oracle_measures(events, docs)
            n_events += len(events)
        assert n_events > 500

    def test_mismatched_corpus_raises_on_both_sides(self):
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 40:
            series, events = _random_events(rng)
            if not events:
                continue
            docs = random_corpus(rng, series)
            # One document more, or one fewer, on a random day of a random event.
            target = events[int(rng.integers(len(events)))]
            day = target.day_counts[int(rng.integers(len(target.day_counts)))][0]
            if rng.random() < 0.5:
                docs.append(make_doc("extra", day))
            else:
                docs.remove(
                    next(d for d in docs if d.date == day and d.hazard == "landslide")
                )
            corpus = Corpus.from_rows(docs)
            with pytest.raises(ConsistencyError):
                measure_events(events, corpus)
            with pytest.raises(ConsistencyError):
                oracle_measures(events, list(corpus.rows()))
            checked += 1
