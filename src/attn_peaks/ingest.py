"""Corpus ingestion: document loading, country filtering, daily count series.

A document is one news item with a calendar date, an outlet, a genre label
(``text_type``), a hazard label and the body text. It is held as a plain
7-tuple ``(id, date, outlet, text_type, hazard, text, text_key)``, indexed
by the ``DOC_*`` constants. Documents are filtered
with a gazetteer heuristic that keeps only texts mentioning exactly one
configured target country and no other country name. The daily counts of
the surviving documents, per hazard, form the attention series that drives
peak detection.

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

The loaders read files, and :func:`csv_reader` raises the process-wide
csv field size limit; every other function is pure. Loaded corpora can
be shared across threads.
"""

from __future__ import annotations

import codecs
import csv
import datetime
import hashlib
import itertools
import json
import math
import os
import re
import stat
import unicodedata
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator, TextIO

from .errors import ConsistencyError, InputError

DEFAULT_HAZARDS = ("landslide", "fire")
DEFAULT_TARGET = "Brasilien"

DOC_FORMATS = ("csv", "jsonl")
DOCUMENT_COLUMNS = ("id", "date", "outlet", "text_type", "hazard", "text")
OPTIONAL_DOCUMENT_COLUMNS = ("text_key",)

# Runs of Unicode letters; digits, underscore and punctuation all delimit.
_TOKEN_RE = re.compile(r"[^\W\d_]+")

# Each Latin-1 byte that is a token letter maps to itself, every other byte
# to a space. ² ³ ¹ ¼ ½ ¾ are token letters but not alphabetic.
_LATIN1_TOKEN_BYTES = bytes(b if _TOKEN_RE.fullmatch(chr(b)) else 0x20 for b in range(256))


class _LetterOutsideLatin1(Exception):
    """A token letter that Latin-1 cannot encode; the text goes through the regex."""


def _blank_outside_latin1(exc: UnicodeEncodeError) -> tuple[str, int]:
    """Encode error handler: a run of characters outside Latin-1 with no token letter is a space."""
    if _TOKEN_RE.search(exc.object, exc.start, exc.end):
        raise _LetterOutsideLatin1
    return " ", exc.end


codecs.register_error("attn_peaks.blank_outside_latin1", _blank_outside_latin1)


def canonical_tokens(text: str) -> list[str]:
    """Casefolded letter tokens of NFC-normalized ``text``.

    Equal to casefolding each match of ``_TOKEN_RE`` in turn. When every
    token letter of the text is in Latin-1, as in most German news, the
    tokens are cut in C: the text is encoded to Latin-1, each run of other
    characters (such as „ “ – … €) becoming a space, and one
    ``bytes.translate`` turns every byte that is not a token letter into a
    space; decoding, casefolding and ``str.split`` follow. No byte table
    can hold a letter outside Latin-1 (ğ, ł, İ, Σ, ⅓), so such a text goes
    through the regex.

    ``str.casefold`` maps each character on its own, so the Latin-1 tokens
    are casefolded in one call. Tokens are cut before casefolding, because
    casefolding can turn a letter into a letter plus a combining mark that
    is not a token letter (U+0130 becomes "i" + U+0307). No Latin-1 letter
    casefolds to a space.
    """
    text = unicodedata.normalize("NFC", text)
    try:
        latin1 = text.encode("latin-1", "attn_peaks.blank_outside_latin1")
        return latin1.translate(_LATIN1_TOKEN_BYTES).decode("latin-1").casefold().split()
    except _LetterOutsideLatin1:
        return [token.casefold() for token in _TOKEN_RE.findall(text)]


def text_digest(text: str) -> str:
    """Default text identity key: SHA-256 hex digest of the NFC-normalized body."""
    return hashlib.sha256(unicodedata.normalize("NFC", text).encode("utf-8")).hexdigest()


# A document is the plain tuple (id, date, outlet, text_type, hazard, text,
# text_key), indexed by these constants. Its fields are strings and a date,
# none of which the cyclic GC tracks, so CPython stops tracking the tuple
# itself at the first collection that sees it, and later collections no
# longer scan the corpus. A tuple subclass, such as a namedtuple, stays tracked.
DOC_ID, DOC_DATE, DOC_OUTLET, DOC_TEXT_TYPE, DOC_HAZARD, DOC_TEXT, DOC_TEXT_KEY = range(7)
Document = tuple[str, datetime.date, str, str, str, str, str]


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
    return Path(str(resources.files("attn_peaks").joinpath("data/countries_de.txt")))


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


def filter_single_country(docs: list[Document], gazetteer: Gazetteer) -> list[Document]:
    """Keep documents whose country mentions are exactly ``{target}``.

    Order is preserved; the output is always a subset of the input. A
    document's verdict depends only on its text, so each distinct text is
    tokenized and matched once (see :func:`extract_country_mentions`) and
    its reprints reuse the verdict.
    """
    target = {gazetteer.target_entry}
    verdicts: dict[str, bool] = {}
    kept = []
    for doc in docs:
        text = doc[DOC_TEXT]
        keep = verdicts.get(text)
        if keep is None:
            keep = verdicts[text] = extract_country_mentions(text, gazetteer) == target
        if keep:
            kept.append(doc)
    return kept


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
    path: Path, rows: Iterable[tuple[int, list[str]]], width: int, hazards: tuple[str, ...]
) -> list[Document]:
    """The documents of the numbered rows of ``width`` fields, each row checked.

    Both file formats feed this loop, so every row is checked the same way.
    Rows are unpacked into locals; each distinct date string is parsed
    once, each distinct text without a ``text_key`` is digested once, and
    equal outlet, genre, hazard and text strings share one object.
    """
    docs: list[Document] = []
    seen_ids: set[str] = set()
    known_hazards = {hazard: hazard for hazard in hazards}
    shared: dict[str, str] = {}
    dates: dict[str, datetime.date] = {}
    digests: dict[str, str] = {}
    append = docs.append
    has_key = width > len(DOCUMENT_COLUMNS)
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
        if doc_id in seen_ids:
            raise row_error(path, row, f"duplicate document id {doc_id!r}")
        seen_ids.add(doc_id)
        if hazard not in known_hazards:
            raise row_error(path, row, f"unknown hazard label {hazard!r}")
        if not key:
            key = digests.get(text)
            if key is None:
                key = digests[text] = text_digest(text)
        date = dates.get(day)
        if date is None:
            date = dates[day] = parse_row_date(day, path, row)
        append(
            (
                doc_id,
                date,
                shared.setdefault(outlet, outlet),
                shared.setdefault(genre, genre),
                known_hazards[hazard],
                shared.setdefault(text, text),
                key,
            )
        )
    return docs


_JSONL_FIELDS = DOCUMENT_COLUMNS + OPTIONAL_DOCUMENT_COLUMNS
# A JSON \uD800-\uDFFF escape that is not half of a pair decodes to a lone
# surrogate, which is not text: it cannot be encoded, digested or written.
# Only rows whose raw line holds such an escape are scanned for one. Most
# lines hold no backslash at all, and a one-character search is far cheaper
# than a search for the escape, so it comes first.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _jsonl_rows(handle: TextIO, path: Path) -> Iterator[tuple[int, list[str]]]:
    """Numbered 7-field rows of a JSON-lines file; blank lines are skipped."""
    allowed = set(_JSONL_FIELDS)
    for row, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise row_error(path, row, f"malformed JSON: {exc}") from None
        if not isinstance(record, dict):
            raise row_error(path, row, "expected a JSON object")
        unknown = sorted(set(record) - allowed)
        if unknown:
            raise row_error(path, row, f"unknown field {unknown[0]!r}")
        missing = [k for k in DOCUMENT_COLUMNS if k not in record]
        if missing:
            raise row_error(path, row, f"missing field {missing[0]!r}")
        fields = [record.get(k, "") for k in _JSONL_FIELDS]
        for key, value in zip(_JSONL_FIELDS, fields):
            if not isinstance(value, str):
                raise row_error(path, row, f"field {key!r} must be a string")
        if "\\" in line and ("\\ud" in line or "\\uD" in line):
            for key, value in zip(_JSONL_FIELDS, fields):
                if _SURROGATE.search(value):
                    raise row_error(path, row, f"field {key!r} holds an unpaired surrogate escape")
        yield row, fields


def load_documents(
    path: Path | str,
    format: str = "csv",
    hazards: tuple[str, ...] = DEFAULT_HAZARDS,
) -> list[Document]:
    """Load document records from a file in one of :data:`DOC_FORMATS`.

    Rows are numbered from 1, excluding the CSV header. Every well-formed
    record is returned in file order; a malformed row, a duplicate ``id``
    or an unknown hazard label raises :class:`InputError`.
    """
    if format not in DOC_FORMATS:
        expected = " or ".join(DOC_FORMATS)
        raise InputError(f"unknown document format {format!r} (expected {expected})")
    path = Path(path)
    if format == "csv":
        optional = OPTIONAL_DOCUMENT_COLUMNS
        with csv_rows(path, "documents", "document", DOCUMENT_COLUMNS, optional) as (header, rows):
            return _read_documents(path, rows, len(header), hazards)
    try:
        with open_input(path, "documents") as handle:
            return _read_documents(path, _jsonl_rows(handle, path), len(_JSONL_FIELDS), hazards)
    except UnicodeDecodeError:
        raise undecodable(path, jsonl=True) from None


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
    docs: list[Document],
    hazard: str,
    start: datetime.date,
    end: datetime.date,
) -> CountSeries:
    """Daily counts of ``hazard`` documents over ``start``..``end`` inclusive.

    Identical texts from different outlets count as separate observations.
    Any document dated outside the range is a hard error; silent truncation
    would corrupt the counts.
    """
    counts = [0] * ((end - start).days + 1)
    series = CountSeries(start=start, end=end, counts=counts, hazard=hazard)  # checks the range
    for doc in docs:
        date = doc[DOC_DATE]
        if date < start or date > end:
            raise InputError(
                f"document {doc[DOC_ID]!r} dated {date} is outside the series range "
                f"{start}..{end}"
            )
        if doc[DOC_HAZARD] == hazard:
            counts[(date - start).days] += 1
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


def corpus_stats(docs: list[Document], series: CountSeries) -> CorpusStats:
    """Compute :class:`CorpusStats` for documents and the series built from them."""
    total = sum(series.counts)
    if total != len(docs):
        raise ConsistencyError(
            f"series total {total} does not match document count {len(docs)}"
        )
    active = [c for c in series.counts if c > 0]
    mean = std = None
    if active:
        mean = total / len(active)
        deviations = [c - mean for c in active]
        std = math.sqrt(_pairwise_sum([d * d for d in deviations]) / len(active))
    return CorpusStats(
        n_articles=len(docs),
        n_text_types=len({d[DOC_TEXT_KEY] for d in docs}),
        n_genres=len({d[DOC_TEXT_TYPE] for d in docs}),
        daily_max=max(series.counts, default=0),
        n_active_days=len(active),
        active_mean=mean,
        active_std=std,
        n_outlets=len({d[DOC_OUTLET] for d in docs}),
    )
