"""
Measuring news events
=====================

Each detected event is characterized by nine measures: the per-hazard
event count, the count at the peak, the total volume, the duration, the
gap since the previous event, rise and fade times, and the diversity of
unique texts and outlets. Distributions are summarized as box-plot
statistics with Tukey fences.
"""

import datetime

from attn_peaks import (
    Corpus, CountSeries, Document, PeakParams, detect_events, measure_events, summarize,
)

start = datetime.date(2021, 1, 1)
counts = [0] * 120
counts[10:13] = [1, 3, 1]   # a slow three-day burst
counts[50] = 4              # a one-day spike
counts[90:92] = [6, 2]      # a sharp two-day burst

series = CountSeries(start=start, end=start + datetime.timedelta(days=119), counts=counts, hazard="fire")

# One document per counted article, as a Document: a named tuple with the
# fields id, date, outlet, text_type, hazard, text and text_key. The corpus
# keeps no id and no key; in the rows Corpus.rows() gives, the id slot holds
# each document's 1-based position in the list given to Corpus.from_rows,
# and the text_key slot an int label that equal keys share. Two
# documents on the spike day carry the same text (an agency wire reprinted
# by a second outlet), so the spike has 4 articles but only 3 unique texts.
docs = []
n = 0
for offset, count in enumerate(counts):
    day = start + datetime.timedelta(days=offset)
    for k in range(count):
        text = "Agenturmeldung: Feuer in Brasilien" if offset == 50 and k < 2 else f"Feuer in Brasilien, Artikel {n}"
        outlet = f"Blatt {n % 4 + 1}"
        genre = f"Genre {n % 2 + 1}"
        # The text doubles as its identity key; normally that is a content digest.
        docs.append(Document(f"a{n}", day, outlet, genre, "fire", text, text_key=text))
        n += 1

corpus = Corpus.from_rows(docs)  # the columns that load_documents builds from a file
events = detect_events(series, PeakParams(min_height=2, min_distance=7))
measures = measure_events(events, corpus)

header = ("event", "peak", "volume", "days", "gap", "rise", "fade", "texts", "outlets")
print(("{:>22}" + "{:>8}" * 8).format(*header))
for m in measures:
    print(
        ("{:>22}" + "{:>8}" * 8).format(
            m.event_id,
            m.n_at_peak,
            m.total_volume,
            m.duration_days,
            "-" if m.days_since_last is None else m.days_since_last,
            m.days_to_peak,
            m.days_to_fade,
            m.n_text_types,
            m.n_outlets,
        )
    )

# Box-plot statistics for one measure across events. With many events the
# outliers list picks up the rare long-lived bursts.
box = summarize([m.total_volume for m in measures])
print(
    f"\ntotal volume: median {box.median}, quartiles [{box.q1}, {box.q3}], "
    f"whiskers [{box.whisker_low}, {box.whisker_high}], outliers {box.outliers}"
)
