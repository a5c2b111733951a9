"""Corpus ingestion: document loading, country filtering, daily count series.

A document is one news item with a calendar date, an outlet, a genre label
(``text_type``), a hazard label and the body text. A :class:`Corpus` holds
the documents as columns, one group per hazard; :meth:`Corpus.rows` gives
each as a :class:`Document`, the named tuple whose fields are the columns
of a document file. Documents are filtered with a gazetteer heuristic that
keeps only texts mentioning exactly one configured target country and no
other country name. The daily counts of the surviving documents, per
hazard, form the attention series that drives peak detection.

File formats
------------
Documents: CSV with header ``id,date,outlet,text_type,hazard,text[,text_key]``
or JSON-lines with the same keys. UTF-8, optionally starting with a BOM;
dates are exactly ``YYYY-MM-DD`` in ASCII digits, on every Python version.
``text_key`` is the identity key for deduplicated text content; when absent
or empty it defaults to a SHA-256 digest of the NFC-normalized body text.

Gazetteer: UTF-8 text, one country name per line; ``#`` starts a comment
line. Matching is case-insensitive after Unicode NFC normalization, on
whole tokens delimited by any non-letter character, so hyphenated and
multi-word names ("Saudi-Arabien", "Costa Rica") match as token sequences.
Matches are leftmost-longest and do not overlap: "Guinea-Bissau" is one
mention of Guinea-Bissau, not also one of Guinea. Declined or adjectival
forms ("brasilianisch") are not matched.

Given the gazetteer, :func:`load_documents` judges each distinct text as
it first reads it and keeps the verdict in place of the body, and
:func:`filter_single_country` drops the rows by those verdicts.

The loaders read files, :func:`csv_reader` raises the process-wide csv
field size limit, and :func:`filter_single_country` filters its corpus in
place; every other function is pure.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import itertools
import json
import math
import os
import re
import stat
import sys
import unicodedata
from array import array
from collections import Counter, deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, TextIO

from .errors import ConsistencyError, InputError

DEFAULT_HAZARDS = ("landslide", "fire")
DEFAULT_TARGET = "Brasilien"

DOC_FORMATS = ("csv", "jsonl")

# Runs of Unicode letters; digits, underscore and punctuation all delimit.
_TOKEN_RE = re.compile(r"[^\W\d_]+")

# Each Latin-1 byte that is a token letter maps to itself, every other byte
# to a space. ² ³ ¹ ¼ ½ ¾ are token letters but not alphabetic.
_LATIN1_TOKEN_BYTES = bytes(b if _TOKEN_RE.fullmatch(chr(b)) else 0x20 for b in range(256))

# A token letter that Latin-1 cannot encode.
_LETTER_OUTSIDE_LATIN1 = re.compile(r"[^\W\d_\x00-\xff]")


def canonical_tokens(text: str) -> list[str]:
    """Casefolded letter tokens of NFC-normalized ``text``.

    Equal to casefolding each match of ``_TOKEN_RE`` in turn. When every
    token letter of the text is in Latin-1, as in most German news, the
    tokens are cut in C: the text is encoded to Latin-1, each other
    character (such as „ “ – … €) replaced by "?", and one
    ``bytes.translate`` turns every byte that is not a token letter into a
    space; decoding, casefolding and ``str.split`` follow. No byte table
    can hold a letter outside Latin-1 (ğ, ł, İ, Σ, ⅓), so a text with one
    goes through the regex. Only a text that the strict encode refuses is
    searched for such a letter.

    ``str.casefold`` maps each character on its own, so the Latin-1 tokens
    are casefolded in one call. Tokens are cut before casefolding, because
    casefolding can turn a letter into a letter plus a combining mark that
    is not a token letter (U+0130 becomes "i" + U+0307). No Latin-1 letter
    casefolds to a space.
    """
    text = unicodedata.normalize("NFC", text)
    try:
        latin1 = text.encode("latin-1")
    except UnicodeEncodeError:
        if _LETTER_OUTSIDE_LATIN1.search(text):
            return [token.casefold() for token in _TOKEN_RE.findall(text)]
        latin1 = text.encode("latin-1", "replace")
    return latin1.translate(_LATIN1_TOKEN_BYTES).decode("latin-1").casefold().split()


def text_digest(text: str) -> str:
    """Default text identity key: SHA-256 hex digest of the NFC-normalized body."""
    return hashlib.sha256(unicodedata.normalize("NFC", text).encode("utf-8")).hexdigest()


class Document(NamedTuple):
    """One document as :meth:`Corpus.rows` gives it.

    The fields, in order, are the columns of a document file; ``text_key``
    is the last and the only one that a file may leave out. A corpus keeps
    no id once it is checked, so ``id`` holds the document's row in its
    file (its 1-based position in the rows given to :meth:`Corpus.from_rows`).
    Nor does it keep a key: ``text_key`` holds the key's label, an int that
    two documents of one corpus share exactly when their keys are equal.
    A corpus loaded with a gazetteer keeps no body either: ``text`` holds
    the text's verdict, True when the filter keeps it.
    """

    id: int | str
    date: datetime.date
    outlet: str
    text_type: str
    hazard: str
    text: str | bool
    text_key: int | str


_COLUMNS = ("rows", "days", "outlets", "genres", "texts", "keys")


class Columns:
    """One hazard's documents in file order, one column per field.

    ``rows`` is an ``array('I')`` of the documents' file rows, ``days`` an
    ``array('i')`` of proleptic ordinals, ``outlets``, ``genres`` and
    ``texts`` ``array('I')``\\ s of codes into the corpus's tables, and
    ``keys`` an ``array('q')`` of text key labels, equal exactly when the
    keys are.
    """

    __slots__ = _COLUMNS

    def __init__(self) -> None:
        self.rows = array("I")
        self.days = array("i")
        self.outlets = array("I")
        self.genres = array("I")
        self.texts = array("I")
        self.keys = array("q")

    def __len__(self) -> int:
        return len(self.rows)

    def appenders(self) -> tuple:
        """The ``append`` of each column, in :data:`_COLUMNS` order."""
        return tuple(getattr(self, name).append for name in _COLUMNS)

    def compress(self, keep: bytes) -> None:
        """Keep the rows whose byte in ``keep`` is 1, copied run by run of kept rows.

        Each column is replaced by its kept rows before the next is copied,
        so at most one column is held twice.
        """
        runs = list(map(len, keep.split(b"\0")))
        for name in _COLUMNS:
            column = getattr(self, name)
            kept = column[:0]
            start = 0
            for run in runs:
                kept += column[start : start + run]
                start += run + 1
            setattr(self, name, kept)


class _Codes(dict):
    """Distinct values mapped to their codes, in order of first use."""

    def __missing__(self, value: str) -> int:
        code = self[value] = len(self)
        return code


class Corpus:
    """Documents as columns, one :class:`Columns` per hazard.

    ``columns`` maps each hazard to its documents; the loader lists every
    hazard it keeps, in the order given. ``outlets``, ``genres`` and
    ``texts`` are the tables of distinct values that the code columns
    index, so a reprinted text is held once. ``gazetteer`` is None when
    ``texts`` holds the bodies; a corpus loaded with a gazetteer names it
    there, and ``texts`` holds each distinct text's verdict (a bool) in
    place of its body. ``len()`` is the number of documents. No document is
    an object of its own, so the cyclic garbage collector scans each column
    as one object. ``path`` names the file whose rows the ``rows`` columns
    number; it is ``<rows>`` for a corpus built by :meth:`from_rows`.
    """

    def __init__(
        self,
        hazards: Iterable[str] = (),
        path: Path | str = "<rows>",
        gazetteer: Gazetteer | None = None,
    ) -> None:
        self.path = path
        self.gazetteer = gazetteer
        self.columns: dict[str, Columns] = {hazard: Columns() for hazard in hazards}
        self.outlets: list[str] = []
        self.genres: list[str] = []
        self.texts: list[str] | list[bool] = []

    def __len__(self) -> int:
        return sum(map(len, self.columns.values()))

    def of(self, hazard: str | None) -> Columns:
        """The columns of ``hazard``; empty ones for a hazard without documents."""
        return self.columns.get(hazard) or Columns()

    def rows(self) -> Iterator[Document]:
        """Each document as a :class:`Document`: hazard by hazard, in file order within one."""
        for hazard, c in self.columns.items():
            yield from map(
                Document,
                c.rows,
                map(datetime.date.fromordinal, c.days),
                map(self.outlets.__getitem__, c.outlets),
                map(self.genres.__getitem__, c.genres),
                itertools.repeat(hazard),
                map(self.texts.__getitem__, c.texts),
                c.keys,
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Document]) -> Corpus:
        """A corpus of documents or plain 7-tuples, hazards in order of first appearance.

        The rows are taken as they are; unlike :func:`load_documents`, nothing is checked.
        Their ids are not kept: each document is numbered by its 1-based position.
        Each distinct ``text_key`` is labelled by its code, in order of first use.
        """
        corpus = cls()
        outlets, genres, texts, keys = _Codes(), _Codes(), _Codes(), _Codes()
        appenders: dict[str, tuple] = {}
        for row, (_, date, outlet, genre, hazard, text, key) in enumerate(rows, 1):
            add = appenders.get(hazard)
            if add is None:
                add = appenders[hazard] = corpus.columns.setdefault(hazard, Columns()).appenders()
            add_row, add_day, add_outlet, add_genre, add_text, add_key = add
            add_row(row)
            add_day(date.toordinal())
            add_outlet(outlets[outlet])
            add_genre(genres[genre])
            add_text(texts[text])
            add_key(keys[key])
        corpus.outlets, corpus.genres, corpus.texts = list(outlets), list(genres), list(texts)
        return corpus


@dataclass
class Gazetteer:
    """Country-name lexicon with one designated target country.

    Entries are deduplicated after canonicalization; the stored spelling of
    the first occurrence wins. ``target`` may be given in any spelling that
    canonicalizes to an entry.
    """

    entries: tuple[str, ...]
    target: str
    # first token -> [(tokens, entry)], longest entry first
    _index: dict = field(init=False, repr=False)
    # first tokens that start an entry of two or more tokens
    _multi_starts: frozenset = field(init=False, repr=False)
    # the stored entry spelling that the target canonicalizes to
    target_entry: str = field(init=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise InputError("gazetteer has no entries")
        index: dict[str, list[tuple[tuple[str, ...], str]]] = {}
        by_tokens: dict[tuple[str, ...], str] = {}
        kept: list[str] = []
        for entry in self.entries:
            tokens = tuple(canonical_tokens(entry))
            if not tokens:
                raise InputError(f"gazetteer entry {entry!r} contains no letters")
            if tokens in by_tokens:
                continue
            by_tokens[tokens] = entry
            kept.append(entry)
            index.setdefault(tokens[0], []).append((tokens, entry))
        for bucket in index.values():
            bucket.sort(key=lambda item: -len(item[0]))
        self.entries = tuple(kept)
        self._index = index
        self._multi_starts = frozenset(
            first for first, bucket in index.items() if len(bucket[0][0]) > 1
        )
        target_tokens = tuple(canonical_tokens(self.target))
        if target_tokens not in by_tokens:
            raise InputError(f"gazetteer target {self.target!r} is not a gazetteer entry")
        self.target_entry = by_tokens[target_tokens]


def default_gazetteer_path() -> Path:
    """Path of the German country-exonym list shipped with the package."""
    return Path(__file__).with_name("data") / "countries_de.txt"


def load_gazetteer(path: Path | str | None = None, target: str = DEFAULT_TARGET) -> Gazetteer:
    """Load a gazetteer file (default: the shipped German exonym list).

    One country name per line; blank lines and lines starting with ``#``
    are skipped.
    """
    path = Path(default_gazetteer_path() if path is None else path)
    try:
        with open_input(path, "gazetteer") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"gazetteer file {path_repr(path)} is not valid UTF-8: {exc}") from None
    entries = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entries.append(line)
    return Gazetteer(entries=tuple(entries), target=target)


def extract_country_mentions(text: str, gazetteer: Gazetteer) -> set[str]:
    """The gazetteer entries that ``text`` mentions.

    A mention is a run of whole tokens equal to an entry's tokens. Matches
    are leftmost-longest and do not overlap: scanning left to right, the
    longest entry starting at a token is taken and the scan resumes after
    it, so a name nested in a longer one ("Guinea" in "Guinea-Bissau") is
    not reported there. Cost: one tokenization of ``text``, a set
    intersection with the entries' first tokens, and a scan of the tokens
    only when one of those first tokens starts a multi-token entry.
    """
    tokens = canonical_tokens(text)
    index = gazetteer._index
    hits = index.keys() & tokens
    if hits.isdisjoint(gazetteer._multi_starts):
        # Every hit starts only its own one-token entry.
        return {index[token][0][1] for token in hits}
    found: set[str] = set()
    i = 0
    while i < len(tokens):
        step = 1
        for sequence, entry in index.get(tokens[i], ()):
            if tuple(tokens[i : i + len(sequence)]) == sequence:
                found.add(entry)
                step = len(sequence)
                break
        i += step
    return found


def _single_country(text: str, gazetteer: Gazetteer) -> bool:
    """The filter's verdict on ``text``: whether its country mentions are exactly the target."""
    return extract_country_mentions(text, gazetteer) == {gazetteer.target_entry}


def filter_single_country(corpus: Corpus, gazetteer: Gazetteer) -> Corpus:
    """Keep the documents whose country mentions are exactly ``{target}``.

    ``corpus`` is filtered in place and returned. Order is preserved. A
    document's verdict depends only on its text, so a corpus of bodies has
    each text of its table judged once (:func:`extract_country_mentions`),
    and its reprints reuse the verdict: a loaded or :meth:`Corpus.from_rows`
    table holds only the texts that its rows use. A corpus loaded with a
    gazetteer holds its verdicts already; it is filtered by them, and a
    ``gazetteer`` unequal to the one it was judged with is a
    :class:`ConsistencyError`. Only a hazard that lost a document has its
    columns rebuilt, one column at a time.
    """
    if corpus.gazetteer is None:
        verdicts = [_single_country(text, gazetteer) for text in corpus.texts]
    elif corpus.gazetteer == gazetteer:
        verdicts = corpus.texts
    else:
        raise ConsistencyError(
            f"the texts of {path_repr(corpus.path)} were judged with another gazetteer"
        )
    for columns in corpus.columns.values():
        keep = bytes(map(verdicts.__getitem__, columns.texts))
        if 0 in keep:
            columns.compress(keep)
    return corpus


# ASCII digits only: in a str pattern \d would also match other scripts' digits.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(value: str) -> datetime.date:
    """The calendar day written as ``YYYY-MM-DD``; ValueError for anything else.

    ``date.fromisoformat`` alone accepts more from Python 3.11 on
    (``20240101``, ``2024-W01-1``); checking the shape first gives every
    Python version the same rule. Every rejected value gets one message.
    """
    if _ISO_DATE.fullmatch(value):
        with suppress(ValueError):
            return datetime.date.fromisoformat(value)
    raise ValueError(f"not a YYYY-MM-DD date: {value!r}")


def parse_row_date(value: str, path: Path, row: int) -> datetime.date:
    """:func:`parse_date` for a file row; InputError naming the file and row."""
    try:
        return parse_date(value)
    except ValueError:
        raise row_error(path, row, f"invalid date {value!r}") from None


def csv_reader(handle: TextIO) -> Iterator[list[str]]:
    """A csv reader whose field limit fits long article bodies.

    The csv module's default limit is 128 KiB; 2**31 - 1 is the largest
    value that every platform accepts.
    """
    csv.field_size_limit(2**31 - 1)
    return csv.reader(handle)


def path_repr(path: Path | str) -> str:
    """``path`` as an error message shows it: quoted, with control characters escaped.

    A configured path can hold NUL, ESC or a newline; none reaches the
    terminal raw.
    """
    return repr(str(path))


def _open_regular_file(name: str, flags: int) -> int:
    # Without O_NONBLOCK, a FIFO would wait for a writer before it could be refused.
    fd = os.open(name, flags | getattr(os, "O_NONBLOCK", 0))
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError("not a regular file")
    return fd


def open_input(path: Path | str, role: str, mode: str = "r", **kwargs) -> IO:
    """``open(path, mode, **kwargs)`` for an input file; text is UTF-8, a BOM allowed.

    A path that is missing, not a regular file, unreadable, too long or
    holding NUL is an InputError that names the ``role`` file and quotes it.
    """
    encoding = None if "b" in mode else "utf-8-sig"
    try:
        return open(path, mode, encoding=encoding, opener=_open_regular_file, **kwargs)
    except FileNotFoundError:
        raise InputError(f"{role} file not found: {path_repr(path)}") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot open {role} file {path_repr(path)}: {reason}") from None


@contextmanager
def csv_rows(path: Path, role: str, kind: str, columns: tuple[str, ...], optional=()):
    """Yield the header (row 0) and the numbered rows of the CSV input file ``path``.

    The header is ``columns`` or ``columns + optional``; a decode or CSV error names its row.
    """
    numbers = itertools.count(1)  # zip draws a row's number before reading the row
    try:
        with open_input(path, role, newline="") as handle:
            reader = csv_reader(handle)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{kind} file {path_repr(path)} is empty (header expected)")
            if header not in (list(columns), list(columns + optional)):
                expected = ",".join(columns) + "".join(f"[,{column}]" for column in optional)
                found = f"unexpected {kind} header in {path_repr(path)}: {header!r}"
                raise InputError(f"{found} (expected {expected})")
            yield header, zip(numbers, reader)
    except UnicodeDecodeError:
        raise undecodable(path) from None
    except csv.Error as exc:
        raise row_error(path, next(numbers) - 1, f"malformed CSV: {exc}") from None


def row_error(path: Path, row: int, reason: object) -> InputError:
    """InputError naming ``path`` and its row ``row`` (the CSV header is row 0)."""
    where = "the header" if row == 0 else f"row {row}"
    return InputError(f"{where} of {path_repr(path)}: {reason}")


# Undecodable bytes read with errors="surrogateescape" become lone surrogates.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def undecodable(path: Path, jsonl: bool = False) -> InputError:
    """InputError naming the first row of ``path`` that is not valid UTF-8.

    Rows are numbered as the loaders number them: the CSV header is row 0,
    JSONL lines start at 1. A text-mode file decodes 8 KiB at a time, so a
    UnicodeDecodeError surfaces at whichever row reached the bad chunk; this
    reads the file again with each undecodable byte kept as a surrogate.
    """
    with open_input(path, "input", newline="", errors="surrogateescape") as handle:
        rows = enumerate(([line] for line in handle), 1) if jsonl else enumerate(csv_reader(handle))
        for row, fields in rows:
            for value in fields:
                bad = _UNDECODABLE.search(value)
                if bad:
                    byte = ord(bad.group()) - 0xDC00
                    return row_error(path, row, f"byte 0x{byte:02x} is not valid UTF-8")
    return InputError(f"{path_repr(path)} is not valid UTF-8")


def _read_documents(
    corpus: Corpus, format: str, hazards: tuple[str, ...], labels: _Labels
) -> Corpus:
    """``corpus``, empty, filled from its file, each row checked.

    Both file formats feed this loop, so every row is checked the same way.
    A row's hazard must be one of ``hazards``, and only the rows of the
    hazards that ``corpus.columns`` lists are kept. Each distinct date
    string is parsed once, each distinct text without a ``text_key`` is
    digested once, and each distinct outlet, genre and text gets one code.
    A text is told apart by itself, or, when the corpus names a gazetteer
    and the text is over 64 characters, by the SHA-256 of its UTF-8; the
    texts table gets its body, or its verdict when a gazetteer is named.
    No id or key is kept as a str: ``labels.id`` labels each row's id, and
    raises KeyError for a duplicate; the keys column holds ``labels.key``
    of each row's key. ``labels`` records what the caller needs to check
    the labels (see :class:`_Labels`).
    """
    path, gazetteer = corpus.path, corpus.gazetteer
    id_label, key_label = labels.id, labels.key
    appenders = {
        hazard: corpus.columns[hazard].appenders() if hazard in corpus.columns else None
        for hazard in hazards
    }
    add_id_label = [bucket.append for bucket in labels.ids]
    add_key_label = [bucket.append for bucket in labels.keys]
    packed, digests = labels.packed, labels.digests
    dates: dict[str, int] = {}
    outlets, genres, texts = _Codes(), _Codes(), _Codes()
    table = corpus.texts
    keyless: list[int | None] = []  # each text code's label as a text without a key
    # The longest text that is its own fingerprint; a corpus of bodies holds every text.
    longest = math.inf if gazetteer is None else 64
    n_texts = 0
    with _document_rows(path, format) as (width, rows):
        has_key = width == len(Document._fields)
        for row, fields in rows:
            if len(fields) != width:
                raise row_error(path, row, f"expected {width} fields, got {len(fields)}")
            if has_key:
                doc_id, day, outlet, genre, hazard, text, key = fields
            else:
                doc_id, day, outlet, genre, hazard, text = fields
                key = ""
            if not doc_id:
                raise row_error(path, row, "empty field 'id'")
            try:
                h = id_label(doc_id)
            except KeyError:
                raise row_error(path, row, f"duplicate document id {doc_id!r}") from None
            add_id_label[h & 255](h)
            try:
                add = appenders[hazard]
            except KeyError:
                raise row_error(path, row, f"unknown hazard label {hazard!r}") from None
            try:
                date = dates[day]
            except KeyError:
                date = dates[day] = parse_row_date(day, path, row).toordinal()
            if add is None:
                continue
            if len(text) <= longest:
                fingerprint = text
            else:
                fingerprint = hashlib.sha256(text.encode()).digest()
            code = texts[fingerprint]
            if code == n_texts:
                n_texts += 1
                table.append(text if gazetteer is None else _single_country(text, gazetteer))
                keyless.append(None)
            if key:
                label = key_label(key)
                add_key_label[label & 255](label)
                packed += key.encode()
                packed.append(0xFF)
            else:
                label = keyless[code]
                if label is None:
                    # The SHA-256 fingerprint of an NFC text is its digest already.
                    if isinstance(fingerprint, bytes) and unicodedata.is_normalized("NFC", text):
                        digest = fingerprint
                    else:
                        digest = bytes.fromhex(text_digest(text))
                    label = keyless[code] = key_label(digest.hex())
                    add_key_label[label & 255](label)
                    digests += digest
            add_row, add_day, add_outlet, add_genre, add_text, add_key = add
            add_row(row)
            add_day(date)
            add_outlet(outlets[outlet])
            add_genre(genres[genre])
            add_text(code)
            add_key(label)
    corpus.outlets, corpus.genres = list(outlets), list(genres)
    return corpus


# A JSON \uD800-\uDFFF escape that is not half of a pair decodes to a lone
# surrogate, which is not text: it cannot be encoded, digested or written.
# Only rows whose raw line holds such an escape are scanned for one. Most
# lines hold no backslash at all, and a one-character search is far cheaper
# than a search for the escape, so it comes first.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _jsonl_rows(handle: TextIO, path: Path) -> Iterator[tuple[int, list[str]]]:
    """Numbered 7-field rows of a JSON-lines file; blank lines are skipped."""
    keys = Document._fields
    required = keys[:-1]
    for row, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # too deep, or too many digits for an int
            raise row_error(path, row, f"malformed JSON: {exc}") from None
        if not isinstance(record, dict):
            raise row_error(path, row, "expected a JSON object")
        unknown = sorted(record.keys() - keys)
        if unknown:
            raise row_error(path, row, f"unknown field {unknown[0]!r}")
        missing = [k for k in required if k not in record]
        if missing:
            raise row_error(path, row, f"missing field {missing[0]!r}")
        fields = [record.get(k, "") for k in keys]
        for key, value in zip(keys, fields):
            if not isinstance(value, str):
                raise row_error(path, row, f"field {key!r} must be a string")
        if "\\" in line and ("\\ud" in line or "\\uD" in line):
            for key, value in zip(keys, fields):
                if _SURROGATE.search(value):
                    raise row_error(path, row, f"field {key!r} holds an unpaired surrogate escape")
        yield row, fields


def check_format(format: str) -> None:
    """InputError unless ``format`` is one of :data:`DOC_FORMATS`."""
    if format not in DOC_FORMATS:
        expected = " or ".join(DOC_FORMATS)
        raise InputError(f"unknown document format {format!r} (expected {expected})")


@contextmanager
def _document_rows(path: Path, format: str):
    """Yield the number of fields of each row and the numbered rows of a documents file."""
    if format == "csv":
        columns = Document._fields
        with csv_rows(path, "documents", "document", columns[:-1], columns[-1:]) as (header, rows):
            yield len(header), rows
        return
    try:
        with open_input(path, "documents") as handle:
            yield len(Document._fields), _jsonl_rows(handle, path)
    except UnicodeDecodeError:
        raise undecodable(path, jsonl=True) from None


class _Ids(set):
    """The ids of the rows so far; called with a row's id, it adds it, or raises KeyError."""

    def __call__(self, doc_id: str) -> int:
        if doc_id in self:
            raise KeyError(doc_id)
        self.add(doc_id)
        return 0


def _repeated(buckets: list[array]) -> set[int]:
    """The labels that a bucket holds twice, found by a set over one bucket at a time."""
    repeated: set[int] = set()
    for bucket in buckets:
        if len(set(bucket)) != len(bucket):
            repeated.update(label for label, n in Counter(bucket).items() if n > 1)
    return repeated


class _Labels:
    """How a load labels its ids and text keys, and what it keeps to check the labels.

    ``id`` labels a row's id and ``key`` a text key. ``_Labels()`` labels
    both by ``hash`` and records them: ``ids`` and ``keys`` each hold
    labels in 256 ``array('q')`` buckets that a label's low byte picks,
    ``ids`` one per checked row, ``keys`` one per kept row with a
    ``text_key`` and one per distinct text without one. ``packed`` holds
    each explicit key in file order as UTF-8, ended by a 0xFF byte, which
    UTF-8 never holds: one byte a key more than its length, where a str
    costs 49 more and its list slot 8. ``digests`` holds the 32 bytes of
    the digest of each distinct text without a key, its key, in place of
    the body. ``_Labels(exact=True)`` labels exactly: ids through a set of
    them (:class:`_Ids`), keys by their codes. It records nothing, as such
    labels need no check.
    """

    __slots__ = ("id", "key", "ids", "keys", "packed", "digests")

    def __init__(self, exact: bool = False) -> None:
        if exact:
            self.id, self.key = _Ids(), _Codes().__getitem__
            nothing = deque(maxlen=0)  # what is appended or added to it is dropped
            self.ids = self.keys = [nothing] * 256
            self.packed = self.digests = nothing
        else:
            self.id = self.key = hash
            self.ids = [array("q") for _ in range(256)]
            self.keys = [array("q") for _ in range(256)]
            self.packed = bytearray()
            self.digests = bytearray()

    def distinct_keys_share_a_hash(self) -> bool:
        """Whether two distinct keys have one hash, so that their labels are not exact.

        Only the keys whose hash a bucket holds twice are compared, from
        memory; a text without a key stands for its digest.
        """
        shared = _repeated(self.keys)
        if not shared:
            return False
        seen: dict[int, str] = {}
        packed, start = self.packed, 0
        while start < len(packed):
            # About 64 KiB of keys at a time, cut after a key's end; the 0xFF
            # bytes decode to lone surrogates, which no key holds.
            stop = packed.find(0xFF, start + 65536)
            if stop < 0:
                stop = len(packed) - 1
            keys = packed[start:stop].decode("utf-8", "surrogateescape").split("\udcff")
            for key in set(keys):
                label = self.key(key)
                if label in shared and seen.setdefault(label, key) != key:
                    return True
            start = stop + 1
        digests = self.digests
        for start in range(0, len(digests), 32):
            key = digests[start : start + 32].hex()
            label = self.key(key)
            if label in shared and seen.setdefault(label, key) != key:
                return True
        return False


def load_documents(
    path: Path | str,
    format: str = "csv",
    hazards: tuple[str, ...] = DEFAULT_HAZARDS,
    gazetteer: Gazetteer | None = None,
    run_hazards: tuple[str, ...] | None = None,
) -> Corpus:
    """Load document records from a file in one of :data:`DOC_FORMATS`.

    Rows are numbered from 1, excluding the CSV header. Every record is
    checked; a malformed row, a duplicate ``id`` or a hazard label not in
    ``hazards`` raises :class:`InputError`. The corpus lists each hazard
    of ``run_hazards`` (default: ``hazards``; each must be one of them),
    in that order, with its records in file order; the records of the
    other hazards are checked but not kept.

    Given a ``gazetteer``, each distinct text is judged the first time it
    is read, and the corpus keeps its verdict in place of the body (see
    :func:`filter_single_country`). A text is told apart by itself when
    it is at most 64 characters long, else by the SHA-256 of its UTF-8.

    No id or text key is held as a str: the first load labels each by its
    hash (``_Labels()``), exact unless two hashes match. Only when the rows
    end in an InputError and an id hash repeats, or end normally and an id
    hash repeats or two distinct keys share a hash (the keys of a repeated
    hash are compared in memory), is the first corpus freed and the file
    loaded again with ``_Labels(exact=True)``: a set of the ids and each
    key's code. That load is the per-row check itself, so its error is the
    first broken row's, and it records nothing for a later check.
    """
    check_format(format)
    path = Path(path)
    kept = hazards if run_hazards is None else run_hazards
    if not set(kept) <= set(hazards):
        raise InputError(f"run hazards {kept!r} are not all among the hazards {hazards!r}")
    labels = _Labels()
    try:
        corpus = _read_documents(Corpus(kept, path, gazetteer), format, hazards, labels)
    except InputError:
        if not _repeated(labels.ids):
            raise
    else:
        if not (_repeated(labels.ids) or labels.distinct_keys_share_a_hash()):
            return corpus
        del corpus
    del labels
    return _read_documents(Corpus(kept, path, gazetteer), format, hazards, _Labels(exact=True))


@dataclass(slots=True)
class CountSeries:
    """Dense daily integer counts over a fixed calendar range, for one hazard.

    ``counts[i]`` is the article count on ``start + i days``; the list spans
    ``start`` .. ``end`` inclusive, leap days included.
    """

    start: datetime.date
    end: datetime.date
    counts: list[int] = field(repr=False)
    hazard: str

    def __post_init__(self) -> None:
        self.check_range(self.start, self.end)
        expected = (self.end - self.start).days + 1
        if len(self.counts) != expected:
            raise ConsistencyError(
                f"count list length {len(self.counts)} does not match day span {expected}"
            )
        if min(self.counts) < 0:
            raise ConsistencyError("counts must be non-negative")

    @staticmethod
    def check_range(start: datetime.date, end: datetime.date) -> None:
        """InputError unless ``start`` is on or before ``end``."""
        if start > end:
            raise InputError(f"date range is not well-ordered: {start} > {end}")

    @property
    def n_days(self) -> int:
        return len(self.counts)

    def index_of(self, day: datetime.date) -> int:
        offset = (day - self.start).days
        if not 0 <= offset < self.n_days:
            raise IndexError(f"{day} outside series range {self.start}..{self.end}")
        return offset

    def day_at(self, index: int) -> datetime.date:
        if not 0 <= index < self.n_days:
            raise IndexError(f"index {index} outside series of {self.n_days} days")
        return self.start + datetime.timedelta(days=index)


def build_count_series(
    corpus: Corpus,
    hazard: str,
    start: datetime.date,
    end: datetime.date,
) -> CountSeries:
    """Daily counts of ``hazard`` documents over ``start``..``end`` inclusive.

    Identical texts from different outlets count as separate observations.
    Any document of the corpus dated outside the range is a hard error,
    the first in :meth:`Corpus.rows` order named by its row; silent
    truncation would corrupt the counts.
    """
    counts = [0] * ((end - start).days + 1)
    series = CountSeries(start=start, end=end, counts=counts, hazard=hazard)  # checks the range
    first, last = start.toordinal(), end.toordinal()
    for columns in corpus.columns.values():
        days = columns.days
        if days and (min(days) < first or max(days) > last):
            i = next(i for i, day in enumerate(days) if not first <= day <= last)
            date = datetime.date.fromordinal(days[i])
            reason = f"document dated {date} is outside the series range {start}..{end}"
            raise row_error(corpus.path, columns.rows[i], reason)
    for day, count in Counter(corpus.of(hazard).days).items():
        counts[day - first] = count
    return series


@dataclass
class CorpusStats:
    """Descriptive statistics of one hazard's document sample and count series.

    ``n_text_types`` counts deduplicated text content (distinct ``text_key``);
    ``n_genres`` counts the source's genre labels (distinct ``text_type``).
    ``active_mean``/``active_std`` are computed over active days only (count
    greater than zero) and are None when there is no active day; the std is
    the population standard deviation.
    """

    n_articles: int
    n_text_types: int
    n_genres: int
    daily_max: int
    n_active_days: int
    active_mean: float | None
    active_std: float | None
    n_outlets: int


def _pairwise_sum(values: list[float]) -> float:
    """Sum of ``values`` rounded as numpy's float64 ``add.reduce`` rounds it.

    numpy sums pairwise (Higham, SIAM J. Sci. Comput. 14(4), 1993): fewer
    than 8 values in one loop; up to 128 in eight interleaved accumulators,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail; more
    by halves split at a multiple of 8. Every sum starts from 0.0, as
    numpy's reduction does, so a sum of negative zeros is 0.0 here too.
    """
    n = len(values)
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total = 0.0
    tail = 0
    if n >= 8:
        tail = n - n % 8
        r = []
        for j in range(8):
            acc = 0.0
            for v in values[j:tail:8]:
                acc += v
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[tail:]:
        total += v
    return total


# The byte of an ``array('q')`` item that holds its low 8 bits.
_LOW_BYTE = 0 if sys.byteorder == "little" else 7

# One ``bytes.translate`` table per class of low bytes: 1 for the bytes of the class, else 0.
_LOW_BYTE_CLASSES = [bytes(int(b % 4 == c) for b in range(256)) for c in range(4)]


def _n_distinct(labels: array) -> int:
    """The number of distinct labels in an ``array('q')``, counted a class at a time.

    The labels are split into four classes by their low byte, and each
    class is counted by a set of its own. Equal labels have equal low
    bytes, so the count is exact, and the largest set is held for about a
    quarter of the labels.
    """
    low = memoryview(labels).cast("B")[_LOW_BYTE::8].tobytes()
    return sum(
        len(set(itertools.compress(labels, low.translate(table))))
        for table in _LOW_BYTE_CLASSES
    )


def corpus_stats(corpus: Corpus, series: CountSeries) -> CorpusStats:
    """Compute :class:`CorpusStats` for the series and the corpus's documents of its hazard."""
    columns = corpus.of(series.hazard)
    total = sum(series.counts)
    if total != len(columns):
        raise ConsistencyError(
            f"series total {total} does not match document count {len(columns)}"
        )
    active = [c for c in series.counts if c > 0]
    mean = std = None
    if active:
        mean = total / len(active)
        deviations = [c - mean for c in active]
        std = math.sqrt(_pairwise_sum([d * d for d in deviations]) / len(active))
    return CorpusStats(
        n_articles=len(columns),
        n_text_types=_n_distinct(columns.keys),
        n_genres=len(set(columns.genres)),
        daily_max=max(series.counts, default=0),
        n_active_days=len(active),
        active_mean=mean,
        active_std=std,
        n_outlets=len(set(columns.outlets)),
    )
