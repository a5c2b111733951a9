import csv
import datetime
import gc
import io
import json
import random
import re
import tempfile
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attn_peaks.ingest

from attn_peaks import (
    DOC_DATE,
    DOC_HAZARD,
    DOC_ID,
    DOC_OUTLET,
    DOC_TEXT,
    DOC_TEXT_KEY,
    DOC_TEXT_TYPE,
    ConsistencyError,
    CountSeries,
    InputError,
    build_count_series,
    load_documents,
)
from attn_peaks.ingest import (
    Gazetteer,
    _pairwise_sum,
    canonical_tokens,
    corpus_stats,
    extract_country_mentions,
    filter_single_country,
    load_gazetteer,
    text_digest,
)
from support import (
    make_doc,
    make_series,
    oracle_count_series,
    oracle_country_mentions,
    oracle_filter_ids,
    oracle_load_documents,
    oracle_tokens,
    random_corpus,
    random_series,
)

D = datetime.date

CSV_HEADER = "id,date,outlet,text_type,hazard,text\n"


def write_csv(tmp_path, body: str, name: str = "docs.csv", header: str = CSV_HEADER):
    path = tmp_path / name
    path.write_text(header + body, encoding="utf-8")
    return path


@pytest.fixture
def south_america() -> Gazetteer:
    return Gazetteer(entries=("Brasilien", "Kolumbien", "Peru"), target="Brasilien")


class TestLoadDocuments:
    def test_header_only_file_yields_empty_set(self, tmp_path):
        path = write_csv(tmp_path, "")
        assert load_documents(path) == []

    def test_three_row_fixture_parsed_field_by_field(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a1,2011-01-12,Spiegel,Bericht,landslide,Erdrutsch in Brasilien\n"
            "a2,2011-01-13,Zeit,Meldung,fire,Feuer in Brasilien\n"
            'a3,2011-01-14,Welt,Bericht,landslide,"Regen, Brasilien"\n',
        )
        docs = load_documents(path)
        assert len(docs) == 3
        first = docs[0]
        assert first[DOC_ID] == "a1"
        assert first[DOC_DATE] == D(2011, 1, 12)
        assert first[DOC_OUTLET] == "Spiegel"
        assert first[DOC_TEXT_TYPE] == "Bericht"
        assert first[DOC_HAZARD] == "landslide"
        assert first[DOC_TEXT] == "Erdrutsch in Brasilien"
        assert first[DOC_TEXT_KEY] == text_digest("Erdrutsch in Brasilien")
        assert [d[DOC_ID] for d in docs] == ["a1", "a2", "a3"]
        assert docs[2][DOC_TEXT] == "Regen, Brasilien"

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
        docs = load_documents(path)
        assert docs[0][DOC_TEXT_KEY] == "k1"
        assert docs[1][DOC_TEXT_KEY] == text_digest("bar")

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
        docs = load_documents(path, format="jsonl")
        assert len(docs) == 1
        assert docs[0][DOC_DATE] == D(2011, 1, 12)
        assert docs[0][DOC_TEXT_KEY] == text_digest("x")

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
        [doc] = load_documents(path, format="jsonl")
        assert (doc[DOC_OUTLET], doc[DOC_TEXT]) == ("\U0001f600", "Feuer \U0001f525")
        assert doc[DOC_TEXT_KEY] == text_digest("Feuer \U0001f525")

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
        docs = load_documents(path, format="jsonl")
        assert [(d[DOC_ID], d[DOC_DATE]) for d in docs] == [("a1", D(2011, 1, 12))]

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

    def test_repeated_dates_and_labels_share_one_object(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a1,2020-01-10,Spiegel,Bericht,fire,x\na2,2020-01-10,Spiegel,Bericht,fire,y\n",
        )
        first, second = load_documents(path)
        assert first[DOC_DATE] is second[DOC_DATE]
        assert first[DOC_OUTLET] is second[DOC_OUTLET]
        assert first[DOC_TEXT_TYPE] is second[DOC_TEXT_TYPE]
        assert first[DOC_HAZARD] is second[DOC_HAZARD]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_documents_are_tuples_the_gc_does_not_track(self, tmp_path, fmt):
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
        docs = load_documents(path, fmt)
        gc.collect()
        assert [type(doc) for doc in docs] == [tuple] * 6
        assert [doc for doc in docs if gc.is_tracked(doc)] == []
        # Reprints share one text object.
        assert docs[0][DOC_TEXT] is docs[2][DOC_TEXT] is docs[4][DOC_TEXT]
        assert docs[1][DOC_TEXT] is docs[3][DOC_TEXT] is docs[5][DOC_TEXT]
        assert docs == oracle_load_documents(path, fmt)


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


class TestLoaderOracle:
    """The single row loop returns what the per-row loader in ``support.py`` returns."""

    @settings(max_examples=400, deadline=None)
    @given(file=_document_files())
    def test_documents_or_error_equal_oracle(self, file):
        data, fmt = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"docs.{fmt}"
            path.write_bytes(data)
            got = _outcome(lambda: load_documents(path, fmt))
            want = _outcome(lambda: oracle_load_documents(path, fmt))
        assert got == want

    def test_repeated_texts_without_keys_get_the_oracle_digests(self, tmp_path):
        texts = ["Erdrutsch in Brasilien", "Erdrutsch in Peru"]
        rows = "".join(f"d{i},2020-01-{i % 3 + 10},o,t,fire,{texts[i % 2]}\n" for i in range(6))
        path = write_csv(tmp_path, rows)
        docs = load_documents(path)
        assert docs == oracle_load_documents(path)
        assert docs[0][DOC_TEXT_KEY] is docs[2][DOC_TEXT_KEY]

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
        assert filter_single_country([doc], gaz) == [doc]

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
        assert filter_single_country([make_doc("a", D(2011, 1, 1), text=text)], gaz) == []


class TestSingleCountryFilter:
    def test_filter_keeps_target_only_docs(self, south_america):
        kept = make_doc("a", D(2011, 1, 1), text="Erdrutsch in Brasilien")
        dropped_multi = make_doc("b", D(2011, 1, 1), text="Brasilien und Peru")
        dropped_none = make_doc("c", D(2011, 1, 1), text="Starkregen im Gebirge")
        dropped_other = make_doc("d", D(2011, 1, 1), text="Unwetter in Kolumbien")
        result = filter_single_country(
            [kept, dropped_multi, dropped_none, dropped_other], south_america
        )
        assert result == [kept]

    def test_filter_preserves_order(self, south_america):
        docs = [
            make_doc(f"a{i}", D(2011, 1, 1 + i), text=f"Brasilien Tag {i}")
            for i in range(5)
        ]
        assert filter_single_country(docs, south_america) == docs

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
        kept_small = filter_single_country(docs, small)
        kept_large = filter_single_country(docs, large)
        assert set(d[DOC_ID] for d in kept_large) <= set(d[DOC_ID] for d in kept_small)
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
        kept = filter_single_country(docs, gaz)
        assert [d[DOC_ID] for d in kept] == oracle_filter_ids(docs, gaz)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_filter_monotone_in_random_gazetteers(self, data):
        small, more = data.draw(_gazetteers(extra=3))
        large = Gazetteer(entries=small.entries + tuple(more), target=small.target)
        texts = data.draw(st.lists(_texts(large), min_size=1, max_size=8))
        docs = [make_doc(f"d{i}", D(2011, 1, 1), text=t) for i, t in enumerate(texts)]
        kept_small = {d[DOC_ID] for d in filter_single_country(docs, small)}
        kept_large = {d[DOC_ID] for d in filter_single_country(docs, large)}
        assert kept_large <= kept_small


class TestCountSeries:
    def test_empty_docs_give_zero_series(self):
        series = build_count_series([], "landslide", D(2020, 1, 1), D(2020, 1, 10))
        assert series.n_days == 10
        assert sum(series.counts) == 0

    def test_identical_texts_from_two_outlets_count_twice(self):
        docs = [
            make_doc("a", D(2020, 1, 5), outlet="A", text="x", text_key="k"),
            make_doc("b", D(2020, 1, 5), outlet="B", text="x", text_key="k"),
        ]
        series = build_count_series(docs, "landslide", D(2020, 1, 1), D(2020, 1, 10))
        assert series.counts[4] == 2

    def test_full_range_has_9132_days(self):
        series = build_count_series([], "fire", D(2000, 1, 1), D(2024, 12, 31))
        assert series.n_days == 9132

    def test_leap_day_is_addressable(self):
        docs = [make_doc("a", D(2000, 2, 29))]
        series = build_count_series(docs, "landslide", D(2000, 1, 1), D(2000, 12, 31))
        index = series.index_of(D(2000, 2, 29))
        assert index == 59
        assert series.counts[index] == 1
        assert series.day_at(index) == D(2000, 2, 29)

    def test_document_outside_range_names_the_id(self):
        docs = [make_doc("stray", D(1999, 12, 31))]
        with pytest.raises(InputError, match="'stray'"):
            build_count_series(docs, "landslide", D(2000, 1, 1), D(2000, 12, 31))

    def test_only_matching_hazard_is_counted(self):
        docs = [make_doc("a", D(2020, 1, 2), hazard="fire")]
        series = build_count_series(docs, "landslide", D(2020, 1, 1), D(2020, 1, 3))
        assert sum(series.counts) == 0

    def test_count_conservation(self):
        rng = np.random.default_rng(7)
        days = [D(2020, 1, 1) + datetime.timedelta(days=int(d)) for d in rng.integers(0, 30, 100)]
        docs = [make_doc(f"a{i}", day) for i, day in enumerate(days)]
        series = build_count_series(docs, "landslide", D(2020, 1, 1), D(2020, 1, 30))
        assert sum(series.counts) == 100

    def test_inverted_range_rejected(self):
        with pytest.raises(InputError, match="not well-ordered"):
            build_count_series([], "fire", D(2020, 1, 2), D(2020, 1, 1))

    def test_determinism_under_row_permutation(self):
        rng = np.random.default_rng(11)
        days = [D(2020, 1, 1) + datetime.timedelta(days=int(d)) for d in rng.integers(0, 40, 60)]
        docs = [make_doc(f"a{i}", day) for i, day in enumerate(days)]
        shuffled = list(docs)
        rng.shuffle(shuffled)
        a = build_count_series(docs, "landslide", D(2020, 1, 1), D(2020, 2, 15))
        b = build_count_series(shuffled, "landslide", D(2020, 1, 1), D(2020, 2, 15))
        assert a == b
        assert corpus_stats(docs, a) == corpus_stats(shuffled, b)


class TestCountSeriesOracle:
    def test_counts_equal_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            series = random_series(rng, max_len=150, max_value=6)
            docs = random_corpus(rng, series)
            for hazard in ("landslide", "fire"):
                built = build_count_series(docs, hazard, series.start, series.end)
                nonzero = {offset: count for offset, count in enumerate(built.counts) if count}
                assert nonzero == oracle_count_series(docs, hazard, series.start, series.end)

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
            docs.insert(int(rng.integers(len(docs) + 1)), make_doc("stray", stray, hazard="fire"))
            with pytest.raises(InputError, match="'stray'"):
                build_count_series(docs, "landslide", series.start, series.end)
            with pytest.raises(InputError, match="'stray'"):
                oracle_count_series(docs, "landslide", series.start, series.end)


class TestCorpusStats:
    def test_small_series_by_hand(self):
        series = make_series([0, 2, 0, 4])
        docs = []
        for offset, count in enumerate(series.counts):
            day = series.start + datetime.timedelta(days=offset)
            docs.extend(make_doc(f"d{offset}-{i}", day) for i in range(int(count)))
        stats = corpus_stats(docs, series)
        assert stats.daily_max == 4
        assert stats.n_active_days == 2
        assert stats.active_mean == 3.0
        assert stats.active_std == 1.0  # population std of [2, 4]
        assert stats.n_articles == 6

    def test_all_zero_series_has_null_moments(self):
        series = make_series([0, 0, 0])
        stats = corpus_stats([], series)
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
        ]
        stats = corpus_stats(docs, make_series([3]))
        assert stats.n_text_types == 2
        assert stats.n_genres == 2
        assert stats.n_outlets == 2

    def test_mismatched_series_is_rejected(self):
        with pytest.raises(ConsistencyError, match="does not match"):
            corpus_stats([], make_series([1]))



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
        docs = [make_doc("d", D(2000, 1, 1))] * sum(counts)
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
