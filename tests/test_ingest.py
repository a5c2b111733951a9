import csv
import datetime
import gc
import io
import json
import random
import re
import tempfile
import tracemalloc
import unicodedata
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attn_peaks.ingest

from attn_peaks import (
    ConsistencyError,
    Corpus,
    CountSeries,
    Document,
    InputError,
    PeakParams,
    build_count_series,
    detect_events,
    load_documents,
    measure_events,
)
from attn_peaks.ingest import (
    _COLUMNS,
    Gazetteer,
    _n_distinct,
    _pairwise_sum,
    canonical_tokens,
    corpus_stats,
    extract_country_mentions,
    filter_single_country,
    load_gazetteer,
    text_digest,
)
import support
from support import (
    count_calls,
    first_key_rows,
    hash_alike,
    in_corpus_order,
    make_doc,
    make_series,
    oracle_count_series,
    oracle_country_mentions,
    oracle_filter_ids,
    oracle_load_documents,
    oracle_measures,
    oracle_tokens,
    random_corpus,
    random_series,
)

D = datetime.date
README = Path(__file__).parents[1] / "README.md"

CSV_HEADER = "id,date,outlet,text_type,hazard,text\n"


def write_csv(tmp_path, body: str, name: str = "docs.csv", header: str = CSV_HEADER):
    path = tmp_path / name
    path.write_text(header + body, encoding="utf-8")
    return path


def kept_rows(docs, gazetteer: Gazetteer) -> list:
    """The documents of ``docs`` whose rows the filter keeps of a corpus of them.

    A corpus numbers the documents by position, so the position maps a row
    back to its document; with its input id, the row must equal it field by
    field, the key labels parting the rows as the keys do.
    """
    kept = list(filter_single_country(Corpus.from_rows(docs), gazetteer).rows())
    rows = [row._replace(id=docs[row.id - 1].id) for row in kept]
    given = [docs[row.id - 1] for row in kept]
    assert first_key_rows(rows) == first_key_rows(given)
    return given


@pytest.fixture
def south_america() -> Gazetteer:
    return Gazetteer(entries=("Brasilien", "Kolumbien", "Peru"), target="Brasilien")


class TestLoadDocuments:
    def test_header_only_file_yields_empty_set(self, tmp_path):
        path = write_csv(tmp_path, "")
        corpus = load_documents(path)
        assert (len(corpus), list(corpus.rows())) == (0, [])
        assert list(corpus.columns) == ["landslide", "fire"]

    def test_empty_file_is_refused(self, tmp_path):
        path = write_csv(tmp_path, "", header="")
        message = f"document file {str(path)!r} is empty (header expected)"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(path)

    def test_three_row_fixture_parsed_field_by_field(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a1,2011-01-12,Spiegel,Bericht,landslide,Erdrutsch in Brasilien\n"
            "a2,2011-01-13,Zeit,Meldung,fire,Feuer in Brasilien\n"
            'a3,2011-01-14,Welt,Bericht,landslide,"Regen, Brasilien"\n',
        )
        corpus = load_documents(path)
        assert len(corpus) == 3
        docs = list(corpus.rows())
        first = docs[0]
        assert first.id == 1
        assert first.date == D(2011, 1, 12)
        assert first.outlet == "Spiegel"
        assert first.text_type == "Bericht"
        assert first.hazard == "landslide"
        assert first.text == "Erdrutsch in Brasilien"
        # Without a key the body's digest stands for it, labelled by its hash.
        assert first.text_key == hash(text_digest("Erdrutsch in Brasilien"))
        # Hazard by hazard, in file order within each; the id slot holds the row.
        assert [d.id for d in docs] == [1, 3, 2]
        assert docs[1].text == "Regen, Brasilien"

    def test_impossible_calendar_day_is_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a1,2011-01-12,Spiegel,Bericht,landslide,x\n"
            "a2,2024-02-30,Zeit,Meldung,fire,y\n",
        )
        with pytest.raises(InputError, match=re.escape(f"row 2 of {str(path)!r}: invalid date")):
            load_documents(path)

    def test_duplicate_id_is_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a1,2011-01-12,Spiegel,Bericht,landslide,x\n"
            "a1,2011-01-13,Zeit,Meldung,fire,y\n",
        )
        message = f"row 2 of {str(path)!r}: duplicate document id 'a1'"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(path)

    def test_unknown_hazard_label_is_listed(self, tmp_path):
        path = write_csv(tmp_path, "a1,2011-01-12,Spiegel,Bericht,earthquake,x\n")
        message = f"row 1 of {str(path)!r}: unknown hazard label 'earthquake'"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(path)

    def test_short_row_names_row_number(self, tmp_path):
        path = write_csv(tmp_path, "a1,2011-01-12,Spiegel,Bericht,landslide\n")
        message = f"row 1 of {str(path)!r}: expected 6 fields, got 5"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(path)

    def test_unexpected_header_is_rejected(self, tmp_path):
        path = write_csv(tmp_path, "", header="id,day,outlet,text_type,hazard,text\n")
        with pytest.raises(InputError, match="unexpected document header"):
            load_documents(path)

    def test_explicit_text_key_column_overrides_digest(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a1,2011-01-12,Spiegel,Bericht,landslide,foo,k1\n"
            "a2,2011-01-13,Zeit,Meldung,fire,bar,\n",
            header="id,date,outlet,text_type,hazard,text,text_key\n",
        )
        docs = list(load_documents(path).rows())
        assert docs[0].text_key == hash("k1")
        assert docs[1].text_key == hash(text_digest("bar"))

    def test_csv_parse_error_names_the_row(self, tmp_path, monkeypatch):
        # A strict reader turns the stray quote in row 2 into a csv.Error.
        monkeypatch.setattr(
            attn_peaks.ingest, "csv_reader", lambda handle: csv.reader(handle, strict=True)
        )
        path = write_csv(
            tmp_path,
            "a1,2011-01-12,Spiegel,Bericht,landslide,x\n"
            'a2,2011-01-13,Zeit,Meldung,fire,"y"z\n',
        )
        with pytest.raises(InputError, match=re.escape(f"row 2 of {str(path)!r}: malformed CSV: ")):
            load_documents(path)

    def test_undecodable_header_is_named(self, tmp_path):
        path = tmp_path / "docs.csv"
        path.write_bytes(b"id,da\xfete,outlet,text_type,hazard,text\n")
        message = f"the header of {str(path)!r}: byte 0xfe is not valid UTF-8"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(path)

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"id": "a1", "date": "2011-01-12", "outlet": "Spiegel",'
            ' "text_type": "Bericht", "hazard": "landslide", "text": "x"}\n',
            encoding="utf-8",
        )
        docs = list(load_documents(path, format="jsonl").rows())
        assert len(docs) == 1
        assert docs[0].date == D(2011, 1, 12)
        assert docs[0].text_key == hash(text_digest("x"))

    def test_jsonl_unknown_field_is_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"id": "a1", "date": "2011-01-12", "outlet": "o",'
            ' "text_type": "t", "hazard": "fire", "text": "x", "extra": 1}\n',
            encoding="utf-8",
        )
        message = f"row 1 of {str(path)!r}: unknown field 'extra'"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(path, format="jsonl")

    def test_jsonl_missing_field_is_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a1", "date": "2011-01-12"}\n', encoding="utf-8")
        message = f"row 1 of {str(path)!r}: missing field 'outlet'"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(path, format="jsonl")

    @pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFF", "\\ude00\\ud83d"])
    @pytest.mark.parametrize("field", ["outlet", "text", "text_key"])
    def test_jsonl_lone_surrogate_escape_names_row_and_field(self, tmp_path, escape, field):
        record = dict(id="a1", date="2020-01-10", outlet="o", text_type="t", hazard="fire")
        record.update(text="Brasilien", text_key="")
        good = json.dumps(record)
        record[field] = "PLACEHOLDER"
        bad = json.dumps(record).replace("PLACEHOLDER", f"Brasilien {escape}")
        path = tmp_path / "docs.jsonl"
        path.write_text(good.replace("a1", "a0") + "\n" + bad + "\n", encoding="utf-8")
        message = f"row 2 of {str(path)!r}: field '{field}' holds an unpaired surrogate escape"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(path, format="jsonl")

    def test_jsonl_surrogate_pair_escape_is_one_character(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"id": "a1", "date": "2011-01-12", "outlet": "\\ud83d\\ude00",'
            ' "text_type": "t", "hazard": "fire", "text": "Feuer \\uD83D\\uDD25"}\n',
            encoding="utf-8",
        )
        [doc] = load_documents(path, format="jsonl").rows()
        assert (doc.outlet, doc.text) == ("\U0001f600", "Feuer \U0001f525")
        assert doc.text_key == hash(text_digest("Feuer \U0001f525"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_documents(tmp_path / "nope.csv")

    def test_unknown_format(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(InputError, match="unknown document format"):
            load_documents(path, format="xml")

    def test_jsonl_may_start_with_a_bom(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"id": "a1", "date": "2011-01-12", "outlet": "Spiegel",'
            ' "text_type": "Bericht", "hazard": "landslide", "text": "x"}\n',
            encoding="utf-8-sig",
        )
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        docs = load_documents(path, format="jsonl").rows()
        assert [(d.id, d.date) for d in docs] == [(1, D(2011, 1, 12))]

    # Python 3.11's date.fromisoformat reads the first two as 2020-01-10.
    @pytest.mark.parametrize(
        "day", ["20200110", "2020-W02-5", "2020-1-10", "2020-01-10 ", "\uff12020-01-10"]
    )
    def test_date_must_be_yyyy_mm_dd_in_both_formats(self, tmp_path, day):
        csv_path = write_csv(
            tmp_path, f"a1,2020-01-10,o,t,fire,x\na2,{day},o,t,fire,x\n"
        )
        message = f"row 2 of {str(csv_path)!r}: invalid date {day!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(csv_path)
        jsonl_path = tmp_path / "docs.jsonl"
        jsonl_path.write_text(
            json.dumps(dict(id="a1", date=day, outlet="o", text_type="t", hazard="fire", text="x"))
            + "\n",
            encoding="utf-8",
        )
        message = f"row 1 of {str(jsonl_path)!r}: invalid date {day!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            load_documents(jsonl_path, format="jsonl")

    def test_repeated_labels_share_one_code(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a1,2020-01-10,Spiegel,Bericht,fire,x\na2,2020-01-10,Spiegel,Bericht,fire,y\n",
        )
        corpus = load_documents(path)
        fire = corpus.columns["fire"]
        assert list(fire.days) == [D(2020, 1, 10).toordinal()] * 2
        assert (list(fire.outlets), list(fire.genres), list(fire.texts)) == ([0, 0], [0, 0], [0, 1])
        assert corpus.outlets == ["Spiegel"]
        assert (corpus.genres, corpus.texts) == (["Bericht"], ["x", "y"])
        first, second = corpus.rows()
        assert first.hazard is second.hazard

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_no_document_is_an_object_the_gc_tracks(self, tmp_path, fmt):
        texts = ["Erdrutsch in Brasilien nach Starkregen", "Feuer in Brasilien nach Hitze"]
        records = [
            dict(id=f"a{i}", date=f"2020-01-1{i % 3}", outlet=f"Blatt {i % 2}",
                 text_type="Bericht", hazard="fire", text=texts[i % 2])
            for i in range(6)
        ]
        path = tmp_path / f"docs.{fmt}"
        if fmt == "csv":
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.DictWriter(handle, fieldnames=list(records[0]))
                writer.writeheader()
                writer.writerows(records)
        else:
            path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        corpus = load_documents(path, fmt)
        fire = corpus.columns["fire"]
        # A collection scans each column as one object: no row is one it tracks.
        for name in _COLUMNS:
            assert [o for o in gc.get_referents(getattr(fire, name)) if gc.is_tracked(o)] in (
                [], [array]
            )
        # Reprints share one text code.
        assert (corpus.texts, list(fire.texts)) == (texts, [0, 1] * 3)
        docs = list(corpus.rows())
        assert docs[0].text is docs[2].text is docs[4].text
        assert docs[1].text is docs[3].text is docs[5].text
        assert first_key_rows(docs) == first_key_rows(oracle_load_documents(path, fmt))


class TestDocumentFields:
    """``Document`` declares the document fields once: the row, the CSV header, the JSON keys."""

    def test_fields_are_the_readme_header(self):
        text = README.read_text(encoding="utf-8")
        section = re.search(r"^## File formats\n(.*?)^## ", text, re.M | re.S).group(1)
        header = re.search(r"CSV with header\s+`([^`]*)`", section).group(1)
        *required, optional = Document._fields
        assert header == ",".join(required) + f"[,{optional}]"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_rows_are_the_records_field_by_field(self, tmp_path, fmt):
        values = [
            ("a1", "2011-01-12", "Spiegel", "Bericht", "landslide", "Erdrutsch in Brasilien", "k"),
            ("a2", "2011-02-03", "Zeit", "Kommentar", "fire", "Feuer in Brasilien", "k2"),
        ]
        records = [dict(zip(Document._fields, row)) for row in values]
        path = tmp_path / f"docs.{fmt}"
        if fmt == "csv":
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.DictWriter(handle, fieldnames=Document._fields)
                writer.writeheader()
                writer.writerows(records)
        else:
            path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        rows = list(load_documents(path, fmt).rows())
        assert all(type(row) is Document for row in rows)
        assert len(rows) == len(records)
        for number, (row, record) in enumerate(zip(rows, records), 1):
            fields = row._asdict()
            assert list(fields) == list(record)
            # No id is kept: the slot holds the file row. Nor is a key: its hash stands for it.
            assert fields.pop("id") == number
            assert fields.pop("text_key") == hash(record["text_key"])
            for name, value in fields.items():
                assert str(value) == record[name], name


_GOOD_DAYS = ["2020-01-10", "2020-02-29", "2000-01-01", "2024-12-31"]
_BAD_DAYS = [
    "2021-02-29", "2020-13-01", "20200110", "2020-W02-5", "2020-1-10",
    " 2020-01-10", "2020/01/10", "2020-01-10T00:00", "\uff12020-01-10", "",
]
_LABELS = ["Blatt 1", "Blatt 2", 'Zeitung, "Süd"', "Genre\nzwei", "", "ß"]
_BODIES = ["Erdrutsch in Brasilien", "Erdrutsch in Peru", 'Feuer, "groß"\r\nin Brasilien', "", "İ"]
_TEXT = st.one_of(
    st.sampled_from(_BODIES),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
_DEFECTS = [
    "empty_id", "dup_id", "bad_hazard", "bad_day", "short", "long", "blank", "not_string",
    "surrogate",  # JSON-lines only: a lone surrogate escape in one string field
]


@st.composite
def _document_files(draw):
    """(file bytes, format) for a random CSV or JSON-lines documents file."""
    fmt = draw(st.sampled_from(["csv", "csv+key", "jsonl"]))
    columns = ["id", "date", "outlet", "text_type", "hazard", "text"]
    if fmt != "csv":
        columns.append("text_key")
    lines = []
    ids: list[str] = []
    for n in range(draw(st.integers(0, 12))):
        # One row in eight has one or two defects, so their checks' order is exercised.
        defects = draw(st.sets(st.sampled_from(_DEFECTS), min_size=1, max_size=2))
        if draw(st.integers(0, 7)):
            defects = set()
        row = {
            "id": f"d{n}",
            "date": draw(st.sampled_from(_GOOD_DAYS)),
            "outlet": draw(st.sampled_from(_LABELS)),
            "text_type": draw(st.sampled_from(_LABELS)),
            "hazard": draw(st.sampled_from(["fire", "landslide"])),
            "text": draw(_TEXT),
            "text_key": draw(st.sampled_from(["", "", "k1", "k2"])),
        }
        if "empty_id" in defects:
            row["id"] = ""
        if "dup_id" in defects and ids:
            row["id"] = draw(st.sampled_from(ids))
        if "bad_hazard" in defects:
            row["hazard"] = draw(st.sampled_from(["flood", "", "Fire"]))
        if "bad_day" in defects:
            row["date"] = draw(st.sampled_from(_BAD_DAYS))
        ids.append(row["id"])
        if fmt == "jsonl":
            record = {k: row[k] for k in columns}
            if draw(st.booleans()):
                del record["text_key"]
            if "short" in defects:
                del record[draw(st.sampled_from(columns[:6]))]
            if "long" in defects:
                record["extra"] = "x"
            if "not_string" in defects:
                record[draw(st.sampled_from(columns))] = draw(st.sampled_from([1, None, ["x"]]))
            if "blank" in defects:
                lines.append("  ")
            if "surrogate" in defects:
                text_fields = sorted(k for k, v in record.items() if isinstance(v, str))
                key = draw(st.sampled_from(text_fields))
                record[key] += draw(st.sampled_from(["\ud800", "\udfff", "\udc80x"]))
            # A lone surrogate can only be written as an escape.
            ascii_only = "surrogate" in defects or draw(st.booleans())
            lines.append(json.dumps(record, ensure_ascii=ascii_only))
        else:
            fields = [row[k] for k in columns]
            if "short" in defects:
                fields.pop()
            elif "long" in defects:
                fields.append("x")
            if "blank" in defects:
                lines.append("")
            lines.append(fields)
    if fmt == "jsonl":
        body = "".join(line + "\n" for line in lines)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for fields in lines:
            if fields == "":
                buffer.write("\r\n")
            else:
                writer.writerow(fields)
        body = buffer.getvalue()
    encoding = "utf-8-sig" if draw(st.booleans()) else "utf-8"
    return body.encode(encoding), "jsonl" if fmt == "jsonl" else "csv"


def _outcome(load):
    try:
        return load()
    except InputError as exc:
        return f"InputError: {exc}"


def _assert_loads_as_oracle(file) -> None:
    """The loaded corpus, its stats and its measures equal the oracle's, or both give one error.

    Only equality gives a key label its meaning, so the stats and the
    measures, which count distinct keys, are compared as well as the rows.
    """
    data, fmt = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"docs.{fmt}"
        path.write_bytes(data)
        corpus = _outcome(lambda: load_documents(path, fmt))
        docs = _outcome(lambda: in_corpus_order(oracle_load_documents(path, fmt)))
    if isinstance(docs, str) or isinstance(corpus, str):
        assert corpus == docs
        return
    assert first_key_rows(corpus.rows()) == first_key_rows(docs)
    for hazard in corpus.columns:
        series = build_count_series(corpus, hazard, D(2000, 1, 1), D(2024, 12, 31))
        of_hazard = [doc for doc in docs if doc[4] == hazard]
        stats = corpus_stats(corpus, series)
        assert stats.n_text_types == len({key for *_, key in of_hazard})
        assert stats == corpus_stats(Corpus.from_rows(of_hazard), series)
        events = detect_events(series, PeakParams(min_height=1, min_distance=1))
        assert measure_events(events, corpus) == oracle_measures(events, of_hazard)


_RECORD = dict(id="a1", date="2020-01-10", outlet="o", text_type="t", hazard="fire", text="x")


def _write_records(path: Path, records: list[dict]) -> None:
    """A documents file of ``records``, in the format its suffix names."""
    if path.suffix == ".csv":
        lines = [",".join(records[0]), *(",".join(r.values()) for r in records)]
    else:
        lines = [json.dumps(r) for r in records]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_keyed(path: Path, keys: list[str]) -> None:
    """A documents file of one row per key, in the format its suffix names."""
    _write_records(
        path,
        [dict(_RECORD, id=f"a{i}", text=f"x{i}", text_key=key) for i, key in enumerate(keys)],
    )


class TestLoaderOracle:
    """The single row loop returns what the per-row loader in ``support.py`` returns."""

    @settings(max_examples=400, deadline=None)
    @given(file=_document_files())
    @example(file=(b"[" * 100_000 + b"]" * 100_000 + b"\n", "jsonl"))
    @example(file=(b'{"id": ' + b"9" * 5000 + b"}\n", "jsonl"))
    def test_documents_or_error_equal_oracle(self, file):
        _assert_loads_as_oracle(file)

    def test_repeated_texts_without_keys_get_the_oracle_digests(self, tmp_path):
        texts = ["Erdrutsch in Brasilien", "Erdrutsch in Peru"]
        rows = "".join(f"d{i},2020-01-{i % 3 + 10},o,t,fire,{texts[i % 2]}\n" for i in range(6))
        path = write_csv(tmp_path, rows)
        docs = list(load_documents(path).rows())
        assert first_key_rows(docs) == first_key_rows(oracle_load_documents(path))
        assert docs[0].text_key == docs[2].text_key == hash(text_digest(texts[0]))

    # Each row breaks several rules; the first check in the per-row order names it.
    @pytest.mark.parametrize(
        "row, message",
        [
            (",2020-13-01,o,t,flood,x", "empty field 'id'"),
            ("a1,2020-13-01,o,t,flood,x", "duplicate document id 'a1'"),
            ("a2,2020-13-01,o,t,flood,x", "unknown hazard label 'flood'"),
            ("a2,2020-13-01,o,t,fire,x", "invalid date '2020-13-01'"),
            ("a1,2020-13-01,o,t,flood", "expected 6 fields, got 5"),
        ],
    )
    def test_the_first_broken_rule_of_a_row_is_reported(self, tmp_path, row, message):
        path = write_csv(tmp_path, f"a1,2020-01-10,o,t,fire,x\n{row}\n")
        expected = f"InputError: row 2 of {str(path)!r}: {message}"
        assert _outcome(lambda: load_documents(path)) == expected
        assert _outcome(lambda: oracle_load_documents(path)) == expected

    # Across rows, the first broken row is reported, a duplicate id as any
    # other rule, whatever a later row breaks.
    @pytest.mark.parametrize(
        "second, third, fmt",
        [
            (second, third, fmt)
            for fmt in ("csv", "jsonl")
            for second, third in [
                ("duplicate", "bad_date"),
                ("duplicate", "short"),
                ("duplicate", "malformed"),
                ("bad_date", "duplicate"),
                ("short", "duplicate"),
                ("malformed", "duplicate"),
                ("bad_hazard", "duplicate"),
                ("duplicate", "empty_id"),
                ("empty_id", "duplicate"),
            ]
        ]
        + [
            (second, third, "jsonl")
            for kind in ("not_object", "unknown_field", "not_string", "surrogate")
            for second, third in [("duplicate", kind), (kind, "duplicate")]
        ],
    )
    def test_the_first_broken_row_is_reported(self, tmp_path, monkeypatch, fmt, second, third):
        # A strict reader makes a stray quote malformed CSV, for the loader and the oracle.
        for module in (attn_peaks.ingest, support):
            monkeypatch.setattr(
                module, "csv_reader", lambda handle: csv.reader(handle, strict=True)
            )
        broken = {
            "duplicate": dict(_RECORD, text="y"),
            "bad_date": dict(_RECORD, id="a9", date="2020-13-01"),
            "short": {k: v for k, v in _RECORD.items() if k != "text"},
            "malformed": dict(_RECORD, id="a9", text='"y"z'),
            "bad_hazard": dict(_RECORD, id="a9", hazard="flood"),
            "empty_id": dict(_RECORD, id=""),
            "not_object": ["a9"],
            "unknown_field": dict(_RECORD, id="a9", extra="z"),
            "not_string": dict(_RECORD, id="a9", date=20200110),
            "surrogate": dict(_RECORD, id="a9", text="\ud800"),
        }
        rows = [_RECORD, broken[second], broken[third]]
        path = tmp_path / f"docs.{fmt}"
        if fmt == "csv":
            lines = [CSV_HEADER.strip(), *(",".join(row.values()) for row in rows)]
        else:
            lines = [
                "{not json" if kind == "malformed" else json.dumps(row)
                for kind, row in zip(("good", second, third), rows)
            ]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        reason = {
            "duplicate": "duplicate document id 'a1'",
            "bad_date": "invalid date '2020-13-01'",
            "short": "expected 6 fields, got 5" if fmt == "csv" else "missing field 'text'",
            "malformed": "malformed CSV: " if fmt == "csv" else "malformed JSON: ",
            "bad_hazard": "unknown hazard label 'flood'",
            "empty_id": "empty field 'id'",
            "not_object": "expected a JSON object",
            "unknown_field": "unknown field 'extra'",
            "not_string": "field 'date' must be a string",
            "surrogate": "field 'text' holds an unpaired surrogate escape",
        }[second]
        outcome = _outcome(lambda: load_documents(path, fmt))
        assert outcome.startswith(f"InputError: row 2 of {str(path)!r}: {reason}")
        assert outcome == _outcome(lambda: oracle_load_documents(path, fmt))


class TestDuplicateIds:
    """Ids are checked by their hash; a hash seen twice sends the file to one exact load,
    which checks the ids themselves."""

    # Every text key shares the hash too, so two distinct keys load the file again.
    @settings(max_examples=200, deadline=None)
    @given(file=_document_files())
    def test_every_id_sharing_one_hash_gives_the_oracle_result(self, file):
        with pytest.MonkeyPatch.context() as patch:
            hash_alike(patch, label=-1)
            loads = count_calls(patch, attn_peaks.ingest, "_read_documents")
            _assert_loads_as_oracle(file)
        # Two ids hashed alike send the file to the exact load, whatever ended the rows.
        hashed = sum(map(len, loads[0][-1].ids))
        assert len(loads) == (2 if hashed >= 2 else 1)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_distinct_ids_sharing_a_hash_load(self, tmp_path, monkeypatch, fmt):
        hash_alike(monkeypatch)
        loads = count_calls(monkeypatch, attn_peaks.ingest, "_read_documents")
        path = tmp_path / f"docs.{fmt}"
        _write_records(path, [dict(_RECORD, id=f"a{i}") for i in range(3)])
        docs = list(load_documents(path, fmt).rows())
        assert len(loads) == 2
        assert [d.id for d in docs] == [1, 2, 3]
        assert first_key_rows(docs) == first_key_rows(oracle_load_documents(path, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_one_exact_load_whatever_made_a_hash_ambiguous(self, tmp_path, monkeypatch, fmt):
        hash_alike(monkeypatch)
        opened = count_calls(monkeypatch, attn_peaks.ingest, "open_input")
        path = tmp_path / f"docs.{fmt}"
        # Distinct ids and two distinct keys: the ids and the keys are both in doubt.
        _write_keyed(path, ["k1", "k2"])
        assert list(load_documents(path, fmt).columns["fire"].keys) == [0, 1]
        assert len(opened) == 2
        # A duplicate id at row 2, then a bad date at row 3.
        _write_records(path, [_RECORD, _RECORD, dict(_RECORD, id="a2", date="2020-13-01")])
        opened.clear()
        outcome = _outcome(lambda: load_documents(path, fmt))
        assert len(opened) == 2
        assert outcome == f"InputError: row 2 of {str(path)!r}: duplicate document id 'a1'"
        assert outcome == _outcome(lambda: oracle_load_documents(path, fmt))

    def test_a_load_holds_no_id(self, tmp_path):
        # 20,000 distinct ids: the ids and a set of them cost over 200 bytes
        # a row at the peak; the columns and the id hashes cost about 42.
        n = 20_000
        rows = "".join(
            f"doc-{i:06d},2020-01-{i % 28 + 1:02d},Blatt {i % 7},Bericht,fire,Brasilien\n"
            for i in range(n)
        )
        path = write_csv(tmp_path, rows)
        tracemalloc.start()
        try:
            corpus = load_documents(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == n
        assert peak < 64 * n, f"{peak / n:.0f} bytes per row"


class TestTextKeys:
    """A key is labelled by its hash; the keys whose hash repeats are compared in memory,
    and a hash that two distinct keys share sends the file to the exact load, which
    labels each key by its code."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_shared_keys_keep_their_hash_labels(self, tmp_path, monkeypatch, fmt):
        opened = count_calls(monkeypatch, attn_peaks.ingest, "open_input")
        keys = ["k1", "k2", "k1", "", "k1"]
        path = tmp_path / f"docs.{fmt}"
        _write_keyed(path, keys)
        corpus = load_documents(path, fmt)
        # The keys whose hashes repeat are compared without a second read.
        assert len(opened) == 1
        labels = [hash(key or text_digest("x3")) for key in keys]
        assert list(corpus.columns["fire"].keys) == labels

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_equal_keys_under_one_hash_keep_it(self, tmp_path, monkeypatch, fmt):
        key = "é" * 10
        hash_alike(monkeypatch, [key])
        loads = count_calls(monkeypatch, attn_peaks.ingest, "_read_documents")
        path = tmp_path / f"docs.{fmt}"
        # The keys' hash is in a bucket 10,000 times, but the keys are equal: no
        # reload. Packed, they fill several of the 64 KiB spans decoded at once.
        _write_keyed(path, [key] * 10_000)
        corpus = load_documents(path, fmt)
        assert len(loads) == 1
        assert list(corpus.columns["fire"].keys) == [7] * 10_000

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "keys, alike, codes",
        [
            # Every value hashes alike, ids too: the id check alone reloads the file.
            # k1, k2, k3 and the digest, which the row without a key stands for.
            (["k1", "k2", "k1", "", "k3", text_digest("x3")], None, [0, 1, 0, 2, 3, 2]),
            (["k1", "k2", "k1"], None, [0, 1, 0]),
            # The ids hash apart, so only the key check can find the shared hash:
            # of two explicit keys, and of the digests of two texts without a key.
            (["k1", "k2"], ["k1", "k2"], [0, 1]),
            (["", ""], [text_digest("x0"), text_digest("x1")], [0, 1]),
        ],
    )
    def test_distinct_keys_sharing_a_hash_are_distinct(
        self, tmp_path, monkeypatch, fmt, keys, alike, codes
    ):
        hash_alike(monkeypatch, alike)
        loads = count_calls(monkeypatch, attn_peaks.ingest, "_read_documents")
        path = tmp_path / f"docs.{fmt}"
        _write_keyed(path, keys)
        corpus = load_documents(path, fmt)
        assert len(loads) == 2
        series = build_count_series(corpus, "fire", D(2020, 1, 10), D(2020, 1, 10))
        assert corpus_stats(corpus, series).n_text_types == len(set(codes))
        assert list(corpus.columns["fire"].keys) == codes

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_the_exact_load_records_nothing(self, tmp_path, monkeypatch, south_america, fmt):
        # Two distinct keys of 4,000 characters share the patched hash, so the file is
        # loaded again with exact labellers. That load holds the ids, the short texts
        # and a code per distinct key, about 315 bytes a row; a record of its labels
        # would pack each row's key once more, over 4,000 bytes a row.
        n, size = 2_000, 4_000
        hash_alike(monkeypatch)
        real_read = attn_peaks.ingest._read_documents
        growth: list[int] = []

        def read(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            corpus = real_read(*args)
            growth.append(tracemalloc.get_traced_memory()[1] - start)
            return corpus

        monkeypatch.setattr(attn_peaks.ingest, "_read_documents", read)
        path = tmp_path / f"docs.{fmt}"
        _write_keyed(path, ["a" * size, "b" * size] * (n // 2))
        tracemalloc.start()
        try:
            corpus = load_documents(path, fmt, gazetteer=south_america)
        finally:
            tracemalloc.stop()
        assert list(corpus.columns["fire"].keys) == [0, 1] * (n // 2)
        assert len(growth) == 2
        assert growth[1] < 0.25 * n * size, f"{growth[1] / n:.0f} bytes per row"

    def test_a_load_holds_no_key(self, tmp_path):
        # 20,000 distinct keys: the key strings cost about 64 bytes a row;
        # their labels and hashes cost 16.
        n = 20_000
        rows = "".join(
            f"doc-{i:06d},2020-01-{i % 28 + 1:02d},Blatt {i % 7},Bericht,fire,Brasilien,"
            f"key-{i:06d}\n"
            for i in range(n)
        )
        path = write_csv(tmp_path, rows, header=CSV_HEADER.strip() + ",text_key\n")
        tracemalloc.start()
        try:
            corpus = load_documents(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == n
        assert peak < 72 * n, f"{peak / n:.0f} bytes per row"

    def test_bodies_without_a_key_are_held_once(self, tmp_path):
        # Shared keys make the labels be checked; the long bodies of the rows
        # without a key must not be held a second time while they are.
        n, size = 200, 20_000
        rows = "".join(
            f"doc-{i},2020-01-10,Blatt,Bericht,fire,{i:06d}{'Brasilien ' * (size // 10)},"
            f"{('k1', 'k2')[i % 2] if i % 4 < 2 else ''}\n"
            for i in range(n)
        )
        path = write_csv(tmp_path, rows, header=CSV_HEADER.strip() + ",text_key\n")
        tracemalloc.start()
        try:
            corpus = load_documents(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus.texts) == n
        assert peak < 1.25 * n * size, f"{peak / (n * size):.2f} times the bodies"


class TestCountryMentions:
    def test_empty_text_has_no_mentions(self, south_america):
        assert extract_country_mentions("", south_america) == set()

    def test_single_mention(self, south_america):
        text = "Überschwemmungen in Brasilien"
        assert extract_country_mentions(text, south_america) == {"Brasilien"}

    def test_two_mentions(self, south_america):
        text = "von Brasilien bis Peru"
        assert extract_country_mentions(text, south_america) == {"Brasilien", "Peru"}

    def test_matching_is_case_insensitive(self, south_america):
        assert extract_country_mentions("BRASILIEN!", south_america) == {"Brasilien"}
        assert extract_country_mentions("brasilien", south_america) == {"Brasilien"}

    def test_nfd_text_matches_nfc_entry(self):
        gaz = Gazetteer(entries=("Österreich", "Brasilien"), target="Brasilien")
        decomposed = unicodedata.normalize("NFD", "Österreich")
        assert extract_country_mentions(decomposed, gaz) == {"Österreich"}

    def test_token_boundaries_are_non_letters(self, south_america):
        assert extract_country_mentions("(Brasilien),", south_america) == {"Brasilien"}
        assert extract_country_mentions("Brasilien2024", south_america) == {"Brasilien"}

    def test_declined_forms_do_not_match(self, south_america):
        assert extract_country_mentions("brasilianische Wälder", south_america) == set()
        assert extract_country_mentions("Brasiliens Regierung", south_america) == set()

    def test_substring_inside_word_does_not_match(self, south_america):
        assert extract_country_mentions("Großbrasilien", south_america) == set()

    def test_multi_word_and_hyphenated_entries(self):
        gaz = Gazetteer(
            entries=("Brasilien", "Costa Rica", "Saudi-Arabien"), target="Brasilien"
        )
        text = "Besuch aus Costa Rica und Saudi-Arabien"
        assert extract_country_mentions(text, gaz) == {"Costa Rica", "Saudi-Arabien"}
        assert extract_country_mentions("nur Costa, dann Rica", gaz) == set()

    def test_duplicate_entries_collapse_after_canonicalization(self):
        gaz = Gazetteer(entries=("Peru", "PERU", "Brasilien"), target="Brasilien")
        assert gaz.entries == ("Peru", "Brasilien")

    def test_target_must_be_an_entry(self):
        with pytest.raises(InputError, match="not a gazetteer entry"):
            Gazetteer(entries=("Peru",), target="Brasilien")

    @pytest.mark.parametrize(
        "entries, message",
        [((), "gazetteer has no entries"), (("Peru", "123"), "entry '123' contains no letters")],
    )
    def test_every_entry_needs_a_letter(self, entries, message):
        with pytest.raises(InputError, match=re.escape(message)):
            Gazetteer(entries=entries, target="Peru")

    def test_default_gazetteer_loads(self):
        gaz = load_gazetteer()
        assert gaz.target_entry == "Brasilien"
        assert "Kolumbien" in gaz.entries
        assert len(gaz.entries) > 150

    def test_gazetteer_file_comments_and_blanks(self, tmp_path):
        path = tmp_path / "gaz.txt"
        path.write_text("# countries\nBrasilien\n\nPeru\n", encoding="utf-8")
        gaz = load_gazetteer(path, target="Brasilien")
        assert gaz.entries == ("Brasilien", "Peru")

    def test_gazetteer_file_must_be_utf8(self, tmp_path):
        path = tmp_path / "gaz.txt"
        path.write_bytes(b"Brasilien\nPeru\xff\n")
        with pytest.raises(InputError, match="gaz.txt' is not valid UTF-8"):
            load_gazetteer(path, target="Brasilien")

    def test_nested_name_reports_the_longest_match(self):
        gaz = load_gazetteer(target="Guinea-Bissau")
        assert extract_country_mentions("Flut in Guinea-Bissau", gaz) == {"Guinea-Bissau"}
        doc = make_doc("a", D(2011, 1, 1), text="Flut in Guinea-Bissau")
        assert kept_rows([doc], gaz) == [doc]

    def test_three_nested_names(self):
        gaz = Gazetteer(
            entries=("Kongo", "Republik Kongo", "Demokratische Republik Kongo"),
            target="Kongo",
        )
        assert extract_country_mentions("Demokratische Republik Kongo", gaz) == {
            "Demokratische Republik Kongo"
        }
        assert extract_country_mentions("die Republik Kongo", gaz) == {"Republik Kongo"}
        assert extract_country_mentions("am Kongo", gaz) == {"Kongo"}
        assert extract_country_mentions("Republik Kongo und Kongo", gaz) == {
            "Republik Kongo",
            "Kongo",
        }
        assert extract_country_mentions("Demokratische Kongo", gaz) == {"Kongo"}

    def test_nested_names_named_separately_are_both_reported(self):
        gaz = load_gazetteer(target="Guinea")
        text = "Guinea und Guinea-Bissau"
        assert extract_country_mentions(text, gaz) == {"Guinea", "Guinea-Bissau"}
        assert kept_rows([make_doc("a", D(2011, 1, 1), text=text)], gaz) == []


class TestSingleCountryFilter:
    def test_filter_keeps_target_only_docs(self, south_america):
        kept = make_doc("a", D(2011, 1, 1), text="Erdrutsch in Brasilien")
        dropped_multi = make_doc("b", D(2011, 1, 1), text="Brasilien und Peru")
        dropped_none = make_doc("c", D(2011, 1, 1), text="Starkregen im Gebirge")
        dropped_other = make_doc("d", D(2011, 1, 1), text="Unwetter in Kolumbien")
        corpus = Corpus.from_rows([kept, dropped_multi, dropped_none, dropped_other])
        result = filter_single_country(corpus, south_america)
        assert result is corpus
        # The row in the id slot, the key's code in the key slot.
        assert list(result.rows()) == [kept._replace(id=1, text_key=0)]

    def test_only_a_hazard_that_lost_a_document_is_rebuilt(self, south_america):
        texts = ["Brasilien", "Brasilien und Peru", "Peru", "in Brasilien", "Kolumbien"]
        docs = [make_doc(f"L{i}", D(2011, 1, 1), text=t) for i, t in enumerate(texts * 2)]
        docs.append(make_doc("F0", D(2011, 1, 1), hazard="fire", text="Brasilien"))
        corpus = Corpus.from_rows(docs)
        fire = corpus.columns["fire"]
        fire_columns = [getattr(fire, name) for name in _COLUMNS]
        kept = [docs[d.id - 1].id for d in filter_single_country(corpus, south_america).rows()]
        assert kept == ["L0", "L3", "L5", "L8", "F0"]
        assert all(getattr(fire, name) is column for name, column in zip(_COLUMNS, fire_columns))

    def test_a_corpus_of_bodies_has_each_distinct_text_judged_once(
        self, tmp_path, monkeypatch, south_america
    ):
        judged = count_calls(monkeypatch, attn_peaks.ingest, "extract_country_mentions")
        texts = ["Brasilien", "Brasilien und Peru", "Peru", "Kolumbien " * 10]
        docs = [
            make_doc(f"a{i}", D(2011, 1, 1), hazard=("landslide", "fire")[i % 2], text=text)
            for i, text in enumerate(texts * 3)
        ]
        filter_single_country(Corpus.from_rows(docs), south_america)
        assert sorted(args[0] for args in judged) == sorted(texts)
        # Each text is printed three times, under one hazard. A load keeps the texts
        # of the run's hazards only, so the fire texts are not judged.
        judged.clear()
        path = write_csv(
            tmp_path, "".join(f"{d.id},2011-01-01,o,t,{d.hazard},{d.text}\n" for d in docs)
        )
        filter_single_country(load_documents(path, run_hazards=("landslide",)), south_america)
        assert sorted(args[0] for args in judged) == sorted(texts[::2])

    def test_filter_preserves_order(self, south_america):
        docs = [
            make_doc(f"a{i}", D(2011, 1, 1 + i), text=f"Brasilien Tag {i}")
            for i in range(5)
        ]
        assert kept_rows(docs, south_america) == docs

    def test_filter_monotone_in_gazetteer(self):
        texts = [
            "Brasilien",
            "Brasilien und Peru",
            "Brasilien und Chile",
            "nichts",
            "Chile allein",
        ]
        docs = [make_doc(f"a{i}", D(2011, 1, 1), text=t) for i, t in enumerate(texts)]
        small = Gazetteer(entries=("Brasilien", "Peru"), target="Brasilien")
        large = Gazetteer(entries=("Brasilien", "Peru", "Chile"), target="Brasilien")
        kept_small = kept_rows(docs, small)
        kept_large = kept_rows(docs, large)
        assert set(d.id for d in kept_large) <= set(d.id for d in kept_small)
        assert all(d in docs for d in kept_small)


# Pieces that stress the tokenizer: casefolds that change length (ß, ẞ, ﬃ),
# dotted and dotless i, final sigma, combining marks, numeric characters
# that are token letters but not alphabetic (², ½), a non-ASCII digit,
# underscore, hyphen, and whitespace that str.split() splits on.
_TRICKY = [
    "ß", "ẞ", "ss", "SS", "İ", "ı", "i", "Σ", "σ", "ς", "ﬃ", "ffi", "\u0307", "\u0301",
    "²", "½", "٣", "7", "_", "-", ".", ",", " ", "\n", "\u00a0", "\u0085", "\u001c",
    "\u3000",
]
_WORDS = [
    "Guinea", "Bissau", "Kongo", "Republik", "Demokratische", "Brasilien", "Peru",
    "Straße", "STRASSE", "Σίσυφος", "İzmir", "Flut", "e",
]
_SEPARATORS = [" ", "-", "\u00a0", " \u3000"]
_ENTRIES = st.builds(
    str.join,
    st.sampled_from(_SEPARATORS),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3),
)


@st.composite
def _gazetteers(draw, extra: int = 0):
    entries = draw(st.lists(_ENTRIES, min_size=1, max_size=6))
    # Longer entries that start with a drawn one, as Guinea-Bissau starts with Guinea.
    entries += draw(
        st.lists(
            st.builds(
                str.__add__,
                st.sampled_from(entries),
                st.builds(str.__add__, st.sampled_from(_SEPARATORS), st.sampled_from(_WORDS)),
            ),
            max_size=3,
        )
    )
    target = draw(st.sampled_from(entries))
    more = draw(st.lists(_ENTRIES, min_size=extra, max_size=extra))
    return Gazetteer(entries=tuple(entries), target=target), more


@st.composite
def _texts(draw, gazetteer: Gazetteer):
    pieces = st.sampled_from(_WORDS + _TRICKY + list(gazetteer.entries))
    text = "".join(draw(st.lists(pieces, max_size=12)))
    return unicodedata.normalize("NFD", text) if draw(st.booleans()) else text


# canonical_tokens takes its Latin-1 byte-table path unless a token letter
# lies outside Latin-1. These texts are mostly Latin-1, with the letters and
# numeric characters whose table entries are easy to get wrong, punctuation
# from outside Latin-1 that the path turns into spaces, and now and then a
# token letter from outside it, which sends the text to the fallback.
_LATIN1_LETTERS = "µßªº²½"
_PUNCTUATION_OUTSIDE_LATIN1 = "„“‚’–—…€\u2028\u3000"
_LETTERS_OUTSIDE_LATIN1 = "ğłİẞΣ⅓\u0345"


@st.composite
def _mostly_latin1_texts(draw):
    chars = draw(
        st.lists(
            st.one_of(
                st.characters(max_codepoint=0xFF),
                st.sampled_from(_LATIN1_LETTERS),
                st.sampled_from(_PUNCTUATION_OUTSIDE_LATIN1),
            ),
            max_size=30,
        )
    )
    for letter in draw(st.lists(st.sampled_from(_LETTERS_OUTSIDE_LATIN1), max_size=2)):
        chars.insert(draw(st.integers(0, len(chars))), letter)
    text = "".join(chars)
    return unicodedata.normalize("NFD", text) if draw(st.booleans()) else text


class TestCountryFilterOracle:
    """The tokenizer, matcher and filter agree with the scan in ``support.py``."""

    @settings(max_examples=500, deadline=None)
    @given(text=st.text())
    @example(text="İstanbul Straße ẞ ﬃ Σίσυφος ΣΑΣ x²y ½a b٣c_d-e")
    @example(text="a\u00a0b\u0085c\u001cd\u3000e\u1680f\u2028g")
    @example(text="e\u0301 e\u0307 \u0301e i\u0307")
    def test_tokens_equal_per_token_casefold(self, text):
        assert canonical_tokens(text) == oracle_tokens(text)

    @settings(max_examples=500, deadline=None)
    @given(text=_mostly_latin1_texts())
    @example(text="Straße in São Paulo: ÄÖÜ äöü µm 1ª 3ºC x²y ½a þÿ 7_b")
    @example(text="„Brasilien“ – Erdrutsch… 5\u00a0€, ‚Hang’ — Regen")
    @example(text="„Erdoğan“ in Brasilien")
    def test_latin1_path_tokens_equal_oracle(self, text):
        assert canonical_tokens(text) == oracle_tokens(text)

    def test_tokens_equal_oracle_for_every_code_point(self):
        # Every code point sits between two ASCII letters, so one that the
        # tokenizer drops instead of blanking, or blanks instead of keeping,
        # joins or splits a token. A code point that is, or composes with
        # "a" into, a token letter outside Latin-1 sends its text to the
        # regex, so it gets a text of its own; the rest are packed 500 to a
        # text, and no text holds two such letters.
        outside_latin1 = re.compile(r"[^\W\d_\x00-\xff]")
        letters, others = [], []
        for point in range(0x110000):
            c = chr(point)
            in_context = unicodedata.normalize("NFC", f"a{c}a")
            (letters if outside_latin1.search(in_context) else others).append(c)
        texts = [f"a{c}b {c}" for c in letters]
        for i in range(0, len(others), 500):
            texts.append("".join(f"a{c}" for c in others[i : i + 500]) + "a")
        assert len(texts) > 130_000
        assert [t for t in texts if canonical_tokens(t) != oracle_tokens(t)] == []

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_mentions_equal_oracle(self, data):
        gaz, _ = data.draw(_gazetteers())
        text = data.draw(_texts(gaz))
        assert extract_country_mentions(text, gaz) == oracle_country_mentions(text, gaz)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_filter_keeps_oracle_ids_with_shuffled_reprints(self, data):
        gaz, _ = data.draw(_gazetteers())
        texts = data.draw(st.lists(_texts(gaz), min_size=1, max_size=6))
        picks = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=30))
        # Reprints are equal strings but not always the same object; one
        # text_key for all shows that the verdict depends on the text alone.
        docs = [
            make_doc(
                f"d{i}",
                D(2011, 1, 1),
                text=texts[j] if i % 2 else "".join(texts[j]),
                text_key="same",
            )
            for i, j in enumerate(picks)
        ]
        kept = filter_single_country(Corpus.from_rows(docs), gaz).rows()
        assert [d.id for d in kept] == oracle_filter_ids(docs, gaz)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_filter_monotone_in_random_gazetteers(self, data):
        small, more = data.draw(_gazetteers(extra=3))
        large = Gazetteer(entries=small.entries + tuple(more), target=small.target)
        texts = data.draw(st.lists(_texts(large), min_size=1, max_size=8))
        docs = [make_doc(f"d{i}", D(2011, 1, 1), text=t) for i, t in enumerate(texts)]
        kept_small = {d.id for d in kept_rows(docs, small)}
        kept_large = {d.id for d in kept_rows(docs, large)}
        assert kept_large <= kept_small


def _kept_columns(corpus: Corpus) -> tuple:
    """Every column a filtered corpus keeps but its texts, with the outlet and genre tables."""
    columns = {
        hazard: [list(getattr(c, name)) for name in ("rows", "days", "outlets", "genres", "keys")]
        for hazard, c in corpus.columns.items()
    }
    return columns, corpus.outlets, corpus.genres


@st.composite
def _judged_files(draw):
    """(file bytes, format, gazetteer, run hazards, forced exact load) for a judged load."""
    gaz, _ = draw(_gazetteers())
    texts = draw(st.lists(_texts(gaz), min_size=1, max_size=4)) + [f"Regen in {gaz.target}"]
    # The last text that is its own fingerprint and the first that is told apart by its
    # SHA-256, and NFC-composed and decomposed twins, which are distinct texts of one key.
    base = draw(st.sampled_from(texts))
    texts += [(base + " " * 65)[:size] for size in (64, 65)]
    texts += [unicodedata.normalize(form, text) for form in ("NFC", "NFD") for text in texts]
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    keyed = draw(st.booleans())
    records = []
    for n in range(draw(st.integers(1, 14))):
        record = dict(
            id=f"d{n}",
            # Now and then a bad date or a repeated id, which a row of any hazard must report.
            date=draw(st.sampled_from(_GOOD_DAYS * 8 + ["2021-02-29"])),
            outlet=draw(st.sampled_from(_LABELS)),
            text_type=draw(st.sampled_from(_LABELS)),
            hazard=draw(st.sampled_from(["fire", "landslide"])),
            text=draw(st.sampled_from(texts)),
        )
        if n and not draw(st.integers(0, 39)):
            record["id"] = f"d{n - 1}"
        if keyed:
            # A key may equal the digest that stands for a text without one.
            record["text_key"] = draw(st.sampled_from(["", "k1", "k2", text_digest(base)]))
        records.append(record)
    if fmt == "jsonl":
        body = "".join(json.dumps(record) + "\n" for record in records)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(records[0])
        writer.writerows(record.values() for record in records)
        body = buffer.getvalue()
    run = draw(
        st.sampled_from([("landslide",), ("fire",), ("landslide", "fire"), ("fire", "landslide")])
    )
    return body.encode("utf-8"), fmt, gaz, run, draw(st.booleans())


class TestLoadWithGazetteer:
    """A load given the gazetteer judges each text as it reads it and keeps no body."""

    @settings(max_examples=300, deadline=None)
    @given(file=_judged_files())
    def test_judged_load_filters_as_the_body_load_and_the_oracle(self, file):
        data, fmt, gaz, run, forced = file
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            path = Path(tmp) / f"docs.{fmt}"
            path.write_bytes(data)
            if forced:
                # Every id and key shares one hash: a file of two rows takes the exact load.
                hash_alike(patch)
            judged = _outcome(lambda: load_documents(path, fmt, gazetteer=gaz, run_hazards=run))
            bodies = _outcome(lambda: load_documents(path, fmt, run_hazards=run))
            docs = _outcome(lambda: oracle_load_documents(path, fmt))
        if isinstance(docs, str) or isinstance(judged, str) or isinstance(bodies, str):
            assert judged == bodies == docs
            return
        assert judged.gazetteer is gaz and bodies.gazetteer is None
        assert list(judged.columns) == list(bodies.columns) == list(run)
        filter_single_country(judged, gaz)
        filter_single_country(bodies, gaz)
        assert _kept_columns(judged) == _kept_columns(bodies)
        of_run = [Document(*doc) for doc in in_corpus_order([d for d in docs if d[4] in run], run)]
        kept = [of_run[i - 1] for i in oracle_filter_ids(of_run, gaz)]
        assert first_key_rows(bodies.rows()) == first_key_rows(kept)
        rows = list(judged.rows())
        assert all(row.text is True for row in rows)
        assert first_key_rows(r[:5] + r[6:] for r in rows) == first_key_rows(
            d[:5] + d[6:] for d in kept
        )

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "fire, reason",
        [
            (dict(_RECORD, id="a2", date="2020-13-01"), "invalid date '2020-13-01'"),
            (dict(_RECORD, text="y"), "duplicate document id 'a1'"),
            (dict(_RECORD, id="a2", hazard="flood"), "unknown hazard label 'flood'"),
        ],
    )
    def test_rows_of_the_hazards_left_out_are_checked_not_kept(
        self, tmp_path, south_america, fmt, fire, reason
    ):
        landslide = dict(_RECORD, id="a0", hazard="landslide", text="Brasilien")
        path = tmp_path / f"docs.{fmt}"
        _write_records(path, [landslide, _RECORD])
        corpus = load_documents(path, fmt, gazetteer=south_america, run_hazards=("landslide",))
        assert (list(corpus.columns), len(corpus), corpus.texts) == (["landslide"], 1, [True])
        _write_records(path, [landslide, _RECORD, fire])
        outcome = _outcome(
            lambda: load_documents(path, fmt, gazetteer=south_america, run_hazards=("landslide",))
        )
        assert outcome == f"InputError: row 3 of {str(path)!r}: {reason}"
        assert outcome == _outcome(lambda: oracle_load_documents(path, fmt))

    def test_run_hazards_are_among_the_hazards(self, tmp_path):
        path = write_csv(tmp_path, "a1,2020-01-10,o,t,fire,x\n")
        with pytest.raises(InputError, match="run hazards .'flood',. are not all among"):
            load_documents(path, run_hazards=("flood",))

    @pytest.mark.parametrize("keyed", [False, True])
    def test_a_load_with_a_gazetteer_holds_no_body(self, tmp_path, south_america, keyed):
        # 200 distinct bodies of 20 KB, then of 40 KB. Judged as each is read, no
        # body outlives its row: the peak holds the copies that reading, digesting
        # and tokenizing one row makes (about 19 bodies' worth), not one per document.
        n, peaks = 200, []
        header = CSV_HEADER.strip() + (",text_key\n" if keyed else "\n")
        for size in (20_000, 40_000):
            rows = "".join(
                f"doc-{i},2020-01-10,Blatt,Bericht,fire,{i:06d} Brasilien {'x' * size}"
                + (f",key-{i}\n" if keyed else "\n")
                for i in range(n)
            )
            path = write_csv(tmp_path, rows, name=f"docs-{size}.csv", header=header)
            tracemalloc.start()
            try:
                corpus = load_documents(path, gazetteer=south_america)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert corpus.texts == [True] * n
            peaks.append(peak)
        assert peaks[0] < 0.15 * n * 20_000, f"{peaks[0] / (n * 20_000):.3f} times the bodies"
        # Twice the body size: a held body would add 20 KB per document.
        assert peaks[1] - peaks[0] < 0.075 * n * 20_000, f"{peaks[1] - peaks[0]} more bytes"

    def test_the_filter_refuses_another_gazetteer(self, tmp_path, south_america):
        path = write_csv(
            tmp_path, "a1,2020-01-10,o,t,fire,Brasilien\na2,2020-01-10,o,t,fire,Peru\n"
        )
        corpus = load_documents(path, gazetteer=south_america)
        for other in (
            Gazetteer(entries=("Brasilien", "Peru"), target="Brasilien"),
            Gazetteer(entries=south_america.entries, target="Peru"),
        ):
            with pytest.raises(ConsistencyError, match="judged with another gazetteer"):
                filter_single_country(corpus, other)
        assert len(corpus) == 2
        # An equal gazetteer gives the same verdicts.
        equal = Gazetteer(entries=south_america.entries, target=south_america.target)
        assert [row.id for row in filter_single_country(corpus, equal).rows()] == [1]


class TestCountSeries:
    def test_empty_docs_give_zero_series(self):
        series = build_count_series(Corpus(), "landslide", D(2020, 1, 1), D(2020, 1, 10))
        assert series.n_days == 10
        assert sum(series.counts) == 0

    def test_identical_texts_from_two_outlets_count_twice(self):
        docs = [
            make_doc("a", D(2020, 1, 5), outlet="A", text="x", text_key="k"),
            make_doc("b", D(2020, 1, 5), outlet="B", text="x", text_key="k"),
        ]
        corpus = Corpus.from_rows(docs)
        series = build_count_series(corpus, "landslide", D(2020, 1, 1), D(2020, 1, 10))
        assert series.counts[4] == 2

    def test_full_range_has_9132_days(self):
        series = build_count_series(Corpus(), "fire", D(2000, 1, 1), D(2024, 12, 31))
        assert series.n_days == 9132

    def test_leap_day_is_addressable(self):
        docs = [make_doc("a", D(2000, 2, 29))]
        corpus = Corpus.from_rows(docs)
        series = build_count_series(corpus, "landslide", D(2000, 1, 1), D(2000, 12, 31))
        index = series.index_of(D(2000, 2, 29))
        assert index == 59
        assert series.counts[index] == 1
        assert series.day_at(index) == D(2000, 2, 29)

    def test_document_outside_range_names_the_row(self, tmp_path):
        docs = [make_doc("a", D(2000, 1, 1)), make_doc("stray", D(1999, 12, 31))]
        message = "row 2 of '<rows>': document dated 1999-12-31 is outside the series range"
        with pytest.raises(InputError, match=re.escape(message)):
            build_count_series(Corpus.from_rows(docs), "landslide", D(2000, 1, 1), D(2000, 12, 31))
        path = write_csv(tmp_path, "a1,2000-01-01,o,t,fire,x\na2,1999-12-31,o,t,fire,y\n")
        message = f"row 2 of {str(path)!r}: document dated 1999-12-31 is outside the series range"
        with pytest.raises(InputError, match=re.escape(message)):
            build_count_series(load_documents(path), "fire", D(2000, 1, 1), D(2000, 12, 31))

    def test_only_matching_hazard_is_counted(self):
        docs = [make_doc("a", D(2020, 1, 2), hazard="fire")]
        corpus = Corpus.from_rows(docs)
        series = build_count_series(corpus, "landslide", D(2020, 1, 1), D(2020, 1, 3))
        assert sum(series.counts) == 0

    def test_count_conservation(self):
        rng = np.random.default_rng(7)
        days = [D(2020, 1, 1) + datetime.timedelta(days=int(d)) for d in rng.integers(0, 30, 100)]
        docs = [make_doc(f"a{i}", day) for i, day in enumerate(days)]
        corpus = Corpus.from_rows(docs)
        series = build_count_series(corpus, "landslide", D(2020, 1, 1), D(2020, 1, 30))
        assert sum(series.counts) == 100

    def test_inverted_range_rejected(self):
        with pytest.raises(InputError, match="not well-ordered"):
            build_count_series(Corpus(), "fire", D(2020, 1, 2), D(2020, 1, 1))

    def test_determinism_under_row_permutation(self):
        rng = np.random.default_rng(11)
        days = [D(2020, 1, 1) + datetime.timedelta(days=int(d)) for d in rng.integers(0, 40, 60)]
        docs = [make_doc(f"a{i}", day) for i, day in enumerate(days)]
        shuffled = list(docs)
        rng.shuffle(shuffled)
        corpus, shuffled_corpus = Corpus.from_rows(docs), Corpus.from_rows(shuffled)
        a = build_count_series(corpus, "landslide", D(2020, 1, 1), D(2020, 2, 15))
        b = build_count_series(shuffled_corpus, "landslide", D(2020, 1, 1), D(2020, 2, 15))
        assert a == b
        assert corpus_stats(corpus, a) == corpus_stats(shuffled_corpus, b)


class TestCountSeriesOracle:
    def test_counts_equal_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            series = random_series(rng, max_len=150, max_value=6)
            corpus = Corpus.from_rows(random_corpus(rng, series))
            rows = list(corpus.rows())
            for hazard in ("landslide", "fire"):
                built = build_count_series(corpus, hazard, series.start, series.end)
                nonzero = {offset: count for offset, count in enumerate(built.counts) if count}
                assert nonzero == oracle_count_series(rows, hazard, series.start, series.end)

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_document_outside_the_range_raises_on_both_sides(self, side):
        rng = np.random.default_rng(20)
        for _ in range(20):
            series = random_series(rng, max_len=150, max_value=6)
            docs = random_corpus(rng, series)
            if side == "before":
                stray = series.start - datetime.timedelta(days=1)
            else:
                stray = series.end + datetime.timedelta(days=1)
            position = int(rng.integers(len(docs) + 1))
            docs.insert(position, make_doc("stray", stray, hazard="fire"))
            corpus = Corpus.from_rows(docs)
            message = f"row {position + 1} of '<rows>': document dated {stray} is outside"
            with pytest.raises(InputError, match=re.escape(message)):
                build_count_series(corpus, "landslide", series.start, series.end)
            with pytest.raises(InputError, match=re.escape(message)):
                oracle_count_series(list(corpus.rows()), "landslide", series.start, series.end)


# Labels over the whole int64 range, at its ends, near 0 and sharing one low byte.
_KEY_LABEL = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**63 - 2, 2**63 - 1]),
    st.integers(-300, 300),
    st.integers(-(2**55), 2**55 - 1).map(lambda k: k * 256 + 7),
)


@st.composite
def _key_label_lists(draw):
    """Labels drawn from a small pool, so that they repeat; one label alone, or none."""
    pool = draw(st.lists(_KEY_LABEL, min_size=1, max_size=40))
    return draw(st.lists(st.sampled_from(pool), max_size=300))


class TestCorpusStats:
    def test_small_series_by_hand(self):
        series = make_series([0, 2, 0, 4])
        docs = []
        for offset, count in enumerate(series.counts):
            day = series.start + datetime.timedelta(days=offset)
            docs.extend(make_doc(f"d{offset}-{i}", day) for i in range(int(count)))
        stats = corpus_stats(Corpus.from_rows(docs), series)
        assert stats.daily_max == 4
        assert stats.n_active_days == 2
        assert stats.active_mean == 3.0
        assert stats.active_std == 1.0  # population std of [2, 4]
        assert stats.n_articles == 6

    def test_all_zero_series_has_null_moments(self):
        series = make_series([0, 0, 0])
        stats = corpus_stats(Corpus(), series)
        assert stats.n_active_days == 0
        assert stats.active_mean is None
        assert stats.active_std is None
        assert stats.daily_max == 0

    def test_text_and_outlet_diversity(self):
        day = D(2000, 1, 1)
        docs = [
            make_doc("a", day, outlet="A", text_type="g1", text_key="k1"),
            make_doc("b", day, outlet="B", text_type="g1", text_key="k1"),
            make_doc("c", day, outlet="A", text_type="g2", text_key="k2"),
            make_doc("d", day, outlet="C", text_type="g1", text_key="k1"),
            make_doc("e", day, hazard="fire", outlet="D", text_type="g3", text_key="k3"),
        ]
        stats = corpus_stats(Corpus.from_rows(docs), make_series([4]))
        assert stats.n_text_types == 2
        assert stats.n_genres == 2
        assert stats.n_outlets == 3

    def test_mismatched_series_is_rejected(self):
        with pytest.raises(ConsistencyError, match="does not match"):
            corpus_stats(Corpus(), make_series([1]))

    @settings(max_examples=300, deadline=None)
    @given(labels=_key_label_lists())
    @example(labels=[])
    @example(labels=[-7] * 9)
    @example(labels=[2**63 - 1, -(2**63), 2**63 - 1, -1, 0, -(2**63)])
    @example(labels=[k * 256 + 3 for k in (-4, 9, 0, 9, 2**55 - 1, -(2**55))])  # one low byte
    def test_distinct_labels_are_counted_exactly(self, labels):
        assert _n_distinct(array("q", labels)) == len(set(labels))

    def test_distinct_keys_are_counted_a_class_at_a_time(self):
        # 50,000 distinct keys, labelled by their codes 0 to 49,999, whose
        # high bytes are all 0: a set of every label costs about 80 bytes a
        # document, a set per class of low bytes about 25.
        n = 50_000
        corpus = Corpus.from_rows(make_doc(f"d{i}", support.DAY0) for i in range(n))
        series = make_series([n])
        tracemalloc.start()
        try:
            stats = corpus_stats(corpus, series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.n_text_types == n
        assert peak < 40 * n, f"{peak / n:.0f} bytes per document"



# One size band per branch of the pairwise sum: one loop, eight accumulators, halves.
_PAIRWISE_SIZES = st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 4000))


@st.composite
def _float_lists(draw):
    n = draw(_PAIRWISE_SIZES)
    if n <= 128:
        finite = st.floats(allow_nan=False, allow_infinity=False)
        return draw(st.lists(finite, min_size=n, max_size=n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1.0, 1e6, 1e300]))
    return [rng.uniform(-1.0, 1.0) * scale for _ in range(n)]


@st.composite
def _daily_counts(draw):
    """A count series whose active days fall in one size band, zero days between them."""
    n_active = draw(_PAIRWISE_SIZES)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([1, 3, 40, 300]))
    counts = [rng.randint(1, top) for _ in range(n_active)]
    counts += [0] * draw(st.integers(0, n_active))
    rng.shuffle(counts)
    return counts


class TestMomentsAgainstNumpy:
    @settings(max_examples=300, deadline=None)
    @given(values=_float_lists())
    def test_pairwise_sum_equals_add_reduce_bit_for_bit(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.add.reduce(np.array(values, dtype=np.float64)))
        assert _pairwise_sum(values).hex() == expected.hex()

    @settings(max_examples=300, deadline=None)
    @given(counts=_daily_counts())
    def test_corpus_stats_equal_numpy_bit_for_bit(self, counts):
        docs = Corpus.from_rows([make_doc("d", D(2000, 1, 1))] * sum(counts))
        stats = corpus_stats(docs, make_series(counts))
        active = np.array([c for c in counts if c > 0], dtype=np.int64)
        assert stats.daily_max == int(active.max())
        assert stats.active_mean.hex() == float(active.mean()).hex()
        assert stats.active_std.hex() == float(active.std()).hex()


class TestCountSeriesType:
    def test_length_must_match_span(self):
        with pytest.raises(ConsistencyError, match="does not match day span"):
            CountSeries(D(2020, 1, 1), D(2020, 1, 3), np.array([1, 2]), "fire")

    def test_negative_counts_rejected(self):
        with pytest.raises(ConsistencyError, match="non-negative"):
            CountSeries(D(2020, 1, 1), D(2020, 1, 2), np.array([1, -1]), "fire")

    def test_day_and_index_outside_the_range_raise(self):
        series = CountSeries(D(2020, 1, 1), D(2020, 1, 3), [1, 0, 2], "fire")
        assert (series.index_of(D(2020, 1, 3)), series.day_at(0)) == (2, D(2020, 1, 1))
        for day in (D(2019, 12, 31), D(2020, 1, 4)):
            with pytest.raises(IndexError, match="outside series range 2020-01-01..2020-01-03"):
                series.index_of(day)
        for index in (-1, 3):
            with pytest.raises(IndexError, match=f"index {index} outside series of 3 days"):
                series.day_at(index)
