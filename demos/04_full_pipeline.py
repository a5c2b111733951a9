"""
The full pipeline, end to end
=============================

Builds a small corpus on disk, writes a config file, and runs every stage
through the command line interface. The output directory then holds one
artifact per stage: count series, events, measures, summaries, alignment,
corpus statistics, the aggregated report and the run manifest.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory(prefix="attn-peaks-demo-") as tmp:
    workdir = Path(tmp)

    # A corpus of eleven documents: a three-day landslide burst (one article is
    # about Brazil AND Peru and is filtered out), a one-day fire burst, and a
    # lone article that stays below the peak height threshold.
    (workdir / "documents.csv").write_text(
        "id,date,outlet,text_type,hazard,text\n"
        "a1,2022-02-15,Blatt 1,Bericht,landslide,Erdrutsch in Brasilien nach Regen\n"
        "a2,2022-02-15,Blatt 2,Meldung,landslide,Schlammlawine in Brasilien\n"
        "a3,2022-02-15,Blatt 3,Bericht,landslide,Brasilien ruft den Notstand aus\n"
        "a4,2022-02-16,Blatt 1,Bericht,landslide,Suche nach Vermissten in Brasilien\n"
        "a5,2022-02-16,Blatt 4,Kommentar,landslide,Brasilien und Peru vergleichen Regenzeiten\n"
        "a6,2022-02-17,Blatt 2,Bericht,landslide,Aufräumarbeiten in Brasilien\n"
        "a7,2022-08-23,Blatt 1,Bericht,fire,Waldbrände in Brasilien\n"
        "a8,2022-08-23,Blatt 5,Meldung,fire,Feuer in Brasilien breitet sich aus\n"
        "a9,2022-08-23,Blatt 2,Bericht,fire,Rauch über Brasilien\n"
        "b1,2022-05-01,Blatt 1,Meldung,landslide,Kleiner Hangrutsch in Brasilien\n"
        "b2,2022-11-11,Blatt 1,Meldung,fire,Brasilien meldet Buschfeuer\n",
        encoding="utf-8",
    )

    # One registry entry per event, plus one that is too far from any coverage.
    (workdir / "emdat.csv").write_text(
        "record_id,source,raw_type,onset_date,location,status\n"
        'EM-1,EMDAT,"Mass movement (wet)",2022-02-14,Petrópolis,\n'
        "EM-2,EMDAT,Wildfire,2022-08-20,Amazonas,\n"
        "EM-3,EMDAT,Wildfire,2022-03-01,Cerrado,\n",
        encoding="utf-8",
    )

    (workdir / "config.ini").write_text(
        "[corpus]\n"
        "documents = documents.csv\n"
        "hazards = landslide, fire\n"
        "\n"
        "[range]\n"
        "start = 2022-01-01\n"
        "end = 2022-12-31\n"
        "\n"
        "[align]\n"
        "emdat = emdat.csv\n",
        encoding="utf-8",
    )

    out_dir = workdir / "out"
    command = [
        sys.executable, "-m", "attn_peaks", "run",
        "--config", str(workdir / "config.ini"),
        "--out-dir", str(out_dir),
    ]
    print("$", " ".join(command[2:]))
    subprocess.run(command, check=True)

    print(f"\nartifacts in {out_dir}:")
    for path in sorted(out_dir.iterdir()):
        print(f"  {path.name:28} {path.stat().st_size:6d} bytes")

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    print("\nevents per hazard:", report["n_events"])
    print("aligned fraction: ", report["alignment"]["aligned_fraction"])

    events_text = (out_dir / "events.jsonl").read_text(encoding="utf-8")
    events = [json.loads(line) for line in events_text.splitlines()]
    for event in events:
        print(f"  {event['hazard']:10} {event['start_date']} .. {event['end_date']}")
