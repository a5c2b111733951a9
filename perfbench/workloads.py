"""Seeded benchmark corpora and the ground truth they were built from.

Each generator writes the input files of one workload (documents, config and,
for ``registry-align``, two registry CSVs) into a directory and returns a
:class:`Workload` that remembers, per document, whether it must survive the
single-country filter and where it falls. The generators construct every text
themselves, so the ground truth never comes from ``attn_peaks``.

Why these three workloads:

* ``syndicated`` -- the acceptance scale corpus at reduced size (150k rows):
  2 distinct short texts, so loading dominates and a per-text filter cache
  would make the filter nearly free.
* ``distinct-bodies`` -- 15k long, mostly distinct bodies in JSON lines without
  a ``text_key``: the country filter dominates and the digest path runs.
  Filter changes are judged here.
* ``registry-align`` -- 100k bursty single-country documents (about 1.8k
  events) plus 26k registry rows (the size of a global EM-DAT export):
  ``align_events`` dominates, and ``load_registry`` runs.

Sizes are chosen so that one CLI run takes a few seconds on a 2-core machine
and a 30 s measurement holds several runs.
"""

from __future__ import annotations

import datetime
import json
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

START = datetime.date(2000, 1, 1)
END = datetime.date(2024, 12, 31)
N_DAYS = (END - START).days + 1
HAZARDS = ("landslide", "fire")
TARGET = "Brasilien"
MIN_HEIGHT = 2
MIN_DISTANCE = 7
WINDOW_DAYS = 5
S2ID_ACCEPT = "recognised"
N_OUTLETS = 200
N_GENRES = 5

DAY_NAMES = [(START + datetime.timedelta(days=i)).isoformat() for i in range(N_DAYS)]
OUTLETS = [f"Blatt {i}" for i in range(N_OUTLETS)]
GENRES = [f"Genre {i}" for i in range(N_GENRES)]

# Same token rule as the documented gazetteer matching: runs of letters,
# compared casefolded after NFC normalization.
_TOKEN_RE = re.compile(r"[^\W\d_]+")


def tokens(text: str) -> list[str]:
    return [t.casefold() for t in _TOKEN_RE.findall(unicodedata.normalize("NFC", text))]


def read_gazetteer(path: Path) -> list[str]:
    """Entries of a gazetteer file: one per line, ``#`` comments skipped."""
    entries = []
    for line in path.read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


@dataclass
class RegistryTruth:
    """What ``load_registry`` must make of one generated registry file."""

    source: str
    n_ignored_by_type: int
    n_dropped_by_status: int
    record_ids: list[str]
    hazards: np.ndarray  # hazard code per kept record
    onsets: np.ndarray  # onset day offset per kept record


@dataclass
class Workload:
    """Generated input files plus the facts a correct run must reproduce.

    The ``kept_*`` arrays describe the documents that survive the filter:
    day offset from :data:`START`, hazard code (index into :data:`HAZARDS`),
    outlet, genre and text identity (equal codes mean equal ``text_key``).
    """

    name: str
    seed: int
    directory: Path
    config: Path
    n_docs: int
    kept_day: np.ndarray
    kept_hazard: np.ndarray
    kept_outlet: np.ndarray
    kept_genre: np.ndarray
    kept_text: np.ndarray
    inputs: dict[str, Path]  # input files by manifest role, gazetteer included
    registries: list[RegistryTruth] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)

    def daily_counts(self, hazard: int) -> np.ndarray:
        days = self.kept_day[self.kept_hazard == hazard]
        return np.bincount(days, minlength=N_DAYS).astype(np.int64)


def _write_config(directory: Path, documents: str, doc_format: str, registries: bool) -> Path:
    lines = [
        "[corpus]",
        f"documents = {documents}",
        f"format = {doc_format}",
        f"hazards = {', '.join(HAZARDS)}",
        "",
        "[range]",
        f"start = {START.isoformat()}",
        f"end = {END.isoformat()}",
        "",
        "[gazetteer]",
        f"target = {TARGET}",
        "",
        "[peaks]",
        f"min_height = {MIN_HEIGHT}",
        f"min_distance = {MIN_DISTANCE}",
        "",
        "[align]",
        f"window_days = {WINDOW_DAYS}",
        f"s2id_accept = {S2ID_ACCEPT}",
    ]
    if registries:
        lines += ["emdat = emdat.csv", "s2id = s2id.csv"]
    # Every key the run manifest records is set here, so the checker knows each value.
    lines += ["", "[type_map]"]
    lines += [f"{raw} = {hazard}" for raw, hazard in CONFIG_TYPE_MAP.items()]
    lines += ["", "[output]", "dir = out", ""]
    path = directory / "config.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _csv_documents(path: Path, text: list[str], day, hazard, outlet, genre, with_key: bool) -> None:
    header = "id,date,outlet,text_type,hazard,text" + (",text_key" if with_key else "")
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        chunk = []
        for i in range(len(text)):
            line = (
                f"d{i},{DAY_NAMES[day[i]]},{OUTLETS[outlet[i]]},{GENRES[genre[i]]},"
                f"{HAZARDS[hazard[i]]},{text[i]}"
            )
            chunk.append(line + (f",k{i}\n" if with_key else "\n"))
            if len(chunk) == 50_000:
                handle.writelines(chunk)
                chunk = []
        handle.writelines(chunk)


def syndicated(directory: Path, seed: int, n_docs: int) -> Workload:
    """Uniform days over 2000-2024, 2 distinct texts, 5% dropped by the filter."""
    rng = np.random.default_rng([seed, 1])
    day = rng.integers(0, N_DAYS, size=n_docs)
    hazard = rng.integers(0, len(HAZARDS), size=n_docs)
    outlet = rng.integers(0, N_OUTLETS, size=n_docs)
    genre = rng.integers(0, N_GENRES, size=n_docs)
    dropped = rng.random(n_docs) < 0.05
    texts = ("Erdrutsch in Brasilien nach Starkregen", "Unwetter in Brasilien und Peru")
    text = [texts[1] if d else texts[0] for d in dropped]
    _csv_documents(directory / "documents.csv", text, day, hazard, outlet, genre, True)
    kept = ~dropped
    return Workload(
        name="syndicated",
        seed=seed,
        directory=directory,
        config=_write_config(directory, "documents.csv", "csv", registries=False),
        inputs={"documents": directory / "documents.csv"},
        n_docs=n_docs,
        kept_day=day[kept],
        kept_hazard=hazard[kept],
        kept_outlet=outlet[kept],
        kept_genre=genre[kept],
        kept_text=np.flatnonzero(kept),  # text_key is unique per row
        sizes={"documents": n_docs, "distinct_texts": 2, "registry_rows": 0},
    )


def filler_vocabulary(rng: np.random.Generator, gazetteer: list[str], size: int) -> list[str]:
    """Pseudo-words that contain no gazetteer token, so no filler word can match."""
    banned = {t for entry in gazetteer for t in tokens(entry)}
    consonants = list("bdfgklmnprstvwz")
    vowels = list("aeiou")
    words: set[str] = set()
    while len(words) < size:
        n_syllables = int(rng.integers(2, 5))
        word = "".join(
            consonants[rng.integers(len(consonants))] + vowels[rng.integers(len(vowels))]
            for _ in range(n_syllables)
        )
        if word not in banned:
            words.add(word)
    return sorted(words)


def _bursty_days(rng: np.random.Generator, n: int, n_bursts: int) -> tuple[np.ndarray, np.ndarray]:
    """Days and hazards: 80% of documents fall in short bursts, the rest anywhere."""
    centers = rng.integers(0, N_DAYS, size=n_bursts)
    burst_hazard = rng.integers(0, len(HAZARDS), size=n_bursts)
    weights = rng.lognormal(0.0, 1.0, size=n_bursts)
    burst = rng.choice(n_bursts, size=n, p=weights / weights.sum())
    in_burst = rng.random(n) < 0.8
    day = np.where(
        in_burst,
        centers[burst] + rng.exponential(1.5, size=n).astype(np.int64),
        rng.integers(0, N_DAYS, size=n),
    )
    hazard = np.where(in_burst, burst_hazard[burst], rng.integers(0, len(HAZARDS), size=n))
    return np.clip(day, 0, N_DAYS - 1), hazard


def distinct_bodies(
    directory: Path, seed: int, gazetteer: list[str], n_docs: int
) -> Workload:
    """Bodies of 50-300 tokens, 30% verbatim reprints, 5% naming a second country."""
    rng = np.random.default_rng([seed, 2])
    vocab = np.array(filler_vocabulary(rng, gazetteer, 4000), dtype=object)
    others = [e for e in gazetteer if tokens(e) != tokens(TARGET)]
    n_original = n_docs - int(round(0.3 * n_docs))
    orig_day, orig_hazard = _bursty_days(rng, n_original, n_bursts=300)
    bodies: list[str] = []
    orig_kept = np.ones(n_original, dtype=bool)
    for i in range(n_original):
        words = list(vocab[rng.integers(0, len(vocab), size=int(rng.integers(50, 301)))])
        words[0] = words[0].capitalize()
        words.insert(int(rng.integers(0, len(words) + 1)), TARGET)
        if rng.random() < 0.05:
            words.insert(int(rng.integers(0, len(words) + 1)), others[rng.integers(len(others))])
            orig_kept[i] = False
        bodies.append(" ".join(words) + ".")
    # Reprints copy an original body verbatim, a few days later, same hazard.
    source = np.concatenate(
        [np.arange(n_original), rng.integers(0, n_original, size=n_docs - n_original)]
    )
    day = np.minimum(
        orig_day[source] + np.where(source == np.arange(n_docs), 0, rng.integers(0, 3, size=n_docs)),
        N_DAYS - 1,
    )
    hazard = orig_hazard[source]
    outlet = rng.integers(0, N_OUTLETS, size=n_docs)
    genre = rng.integers(0, N_GENRES, size=n_docs)
    text_id: dict[str, int] = {}
    body_code = np.array([text_id.setdefault(b, len(text_id)) for b in bodies])
    with (directory / "documents.jsonl").open("w", encoding="utf-8") as handle:
        for i in range(n_docs):
            record = {
                "id": f"d{i}",
                "date": DAY_NAMES[day[i]],
                "outlet": OUTLETS[outlet[i]],
                "text_type": GENRES[genre[i]],
                "hazard": HAZARDS[hazard[i]],
                "text": bodies[source[i]],
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    kept = orig_kept[source]
    return Workload(
        name="distinct-bodies",
        seed=seed,
        directory=directory,
        config=_write_config(directory, "documents.jsonl", "jsonl", registries=False),
        inputs={"documents": directory / "documents.jsonl"},
        n_docs=n_docs,
        kept_day=day[kept],
        kept_hazard=hazard[kept],
        kept_outlet=outlet[kept],
        kept_genre=genre[kept],
        kept_text=body_code[source][kept],
        sizes={"documents": n_docs, "distinct_texts": len(text_id), "registry_rows": 0},
    )


# Registry type labels: (raw_type, hazard code or None for "ignore", share of rows).
_EMDAT_TYPES = [
    ("Mass movement (wet)", 0, 0.2),
    ("Landslide", 0, 0.15),
    ("Mudslide", 0, 0.05),
    ("Rockfall", 0, 0.05),
    ("Wildfire", 1, 0.25),
    ("Forest fire", 1, 0.2),
    ("Flood", None, 0.05),
    ("Storm", None, 0.03),
    ("Drought", None, 0.02),
]
_S2ID_TYPES = [
    ("Deslizamentos", 0, 0.45),
    ("Incêndio florestal", 1, 0.3),
    ("Incêndio urbano", 1, 0.15),
    ("Inundações", None, 0.05),
    ("Estiagem", None, 0.05),
]
# S2iD status spellings: (status, accepted after strip + casefold, share of rows).
_S2ID_STATUSES = [
    ("recognised", True, 0.7),
    ("Recognised", True, 0.08),
    (" recognised ", True, 0.02),
    ("registered", False, 0.1),
    ("pending", False, 0.06),
    ("rejected", False, 0.04),
]
CONFIG_TYPE_MAP = {
    "Flood": "ignore",
    "Storm": "ignore",
    "Drought": "ignore",
    "Deslizamentos": "landslide",
    "Incêndio florestal": "fire",
    "Incêndio urbano": "fire",
    "Inundações": "ignore",
    "Estiagem": "ignore",
}


def _registry(
    path: Path,
    rng: np.random.Generator,
    source: str,
    prefix: str,
    n_rows: int,
    types: list,
    burst_starts: list[np.ndarray],
) -> RegistryTruth:
    type_index = rng.choice(len(types), size=n_rows, p=[t[2] for t in types])
    near = rng.random(n_rows) < 0.4
    onset = rng.integers(0, N_DAYS, size=n_rows)
    status_index = rng.choice(len(_S2ID_STATUSES), size=n_rows, p=[s[2] for s in _S2ID_STATUSES])
    truth = RegistryTruth(source, 0, 0, [], np.zeros(0, np.int64), np.zeros(0, np.int64))
    kept_hazard, kept_onset = [], []
    lines = ["record_id,source,raw_type,onset_date,location,status"]
    for i in range(n_rows):
        raw_type, hazard, _ = types[type_index[i]]
        if near[i] and hazard is not None:
            # Onset shortly before a burst of the same hazard, some outside the window.
            starts = burst_starts[hazard]
            onset[i] = max(0, starts[rng.integers(len(starts))] - int(rng.integers(0, 9)))
        status, accepted, _ = _S2ID_STATUSES[status_index[i]] if source == "S2ID" else ("", True, 1.0)
        record_id = f"{prefix}-{i:06d}"
        declared = source if i % 3 else ""  # an empty source column is allowed
        lines.append(
            f"{record_id},{declared},{raw_type},{DAY_NAMES[onset[i]]},Ort {i % 97},{status}"
        )
        if hazard is None:
            truth.n_ignored_by_type += 1
        elif not accepted:
            truth.n_dropped_by_status += 1
        else:
            truth.record_ids.append(record_id)
            kept_hazard.append(hazard)
            kept_onset.append(onset[i])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    truth.hazards = np.array(kept_hazard, dtype=np.int64)
    truth.onsets = np.array(kept_onset, dtype=np.int64)
    return truth


def registry_align(directory: Path, seed: int, n_docs: int, n_registry: int) -> Workload:
    """Bursts of short single-country documents plus EM-DAT and S2iD registries."""
    rng = np.random.default_rng([seed, 3])
    burst_starts: list[np.ndarray] = []
    burst_lengths: list[np.ndarray] = []
    burst_hazards: list[np.ndarray] = []
    for h in range(len(HAZARDS)):
        # Bursts of 2-6 days separated by 2-8 quiet days.
        lengths = rng.integers(2, 7, size=N_DAYS)
        gaps = rng.integers(2, 9, size=N_DAYS)
        starts = np.cumsum(np.concatenate([[int(rng.integers(0, 10))], (lengths + gaps)[:-1]]))
        fits = starts + lengths <= N_DAYS
        burst_starts.append(starts[fits])
        burst_lengths.append(lengths[fits])
        burst_hazards.append(np.full(int(fits.sum()), h))
    all_starts = np.concatenate(burst_starts)
    all_lengths = np.concatenate(burst_lengths)
    burst = rng.integers(0, len(all_starts), size=n_docs)
    length = all_lengths[burst]
    offset = np.minimum(rng.triangular(0.0, length / 2.0, length).astype(np.int64), length - 1)
    day = all_starts[burst] + offset
    hazard = np.concatenate(burst_hazards)[burst]
    outlet = rng.integers(0, N_OUTLETS, size=n_docs)
    genre = rng.integers(0, N_GENRES, size=n_docs)
    texts = ("Erdrutsch in Brasilien nach Starkregen", "Waldbrand in Brasilien breitet sich aus")
    text = [texts[h] for h in hazard]
    _csv_documents(directory / "documents.csv", text, day, hazard, outlet, genre, True)
    n_emdat = n_registry // 2
    registries = [
        _registry(directory / "emdat.csv", rng, "EMDAT", "EM", n_emdat, _EMDAT_TYPES, burst_starts),
        _registry(
            directory / "s2id.csv", rng, "S2ID", "S2", n_registry - n_emdat, _S2ID_TYPES, burst_starts
        ),
    ]
    return Workload(
        name="registry-align",
        seed=seed,
        directory=directory,
        config=_write_config(directory, "documents.csv", "csv", registries=True),
        inputs={
            "documents": directory / "documents.csv",
            "registry_EMDAT": directory / "emdat.csv",
            "registry_S2ID": directory / "s2id.csv",
        },
        n_docs=n_docs,
        kept_day=day,
        kept_hazard=hazard,
        kept_outlet=outlet,
        kept_genre=genre,
        kept_text=np.arange(n_docs),
        registries=registries,
        sizes={"documents": n_docs, "distinct_texts": 2, "registry_rows": n_registry},
    )


WORKLOADS = ("syndicated", "distinct-bodies", "registry-align")


def generate(
    name: str, directory: Path, seed: int, gazetteer: Path, scale: float = 1.0
) -> Workload:
    """Write workload ``name`` for ``seed`` into ``directory``; ``scale`` shrinks it for tests.

    ``gazetteer`` is the program's shipped country list, which the runs use.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if name == "syndicated":
        workload = syndicated(directory, seed, n_docs=int(150_000 * scale))
    elif name == "distinct-bodies":
        workload = distinct_bodies(
            directory, seed, read_gazetteer(gazetteer), n_docs=int(15_000 * scale)
        )
    elif name == "registry-align":
        workload = registry_align(
            directory, seed, n_docs=int(100_000 * scale), n_registry=int(26_000 * scale)
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    workload.inputs["gazetteer"] = gazetteer
    return workload
