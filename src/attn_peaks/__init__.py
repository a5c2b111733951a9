"""attn-peaks: daily news-attention series, news-event segmentation, measures,
and temporal alignment against disaster registries.

The root exports the library contract that README's "Library use" lists;
every other name lives in its module.
"""

from .align import DisasterRecord, align_events, alignment_summary
from .errors import AttnPeaksError, ConsistencyError, InputError
from .ingest import (
    DOC_DATE,
    DOC_HAZARD,
    DOC_ID,
    DOC_OUTLET,
    DOC_TEXT,
    DOC_TEXT_KEY,
    DOC_TEXT_TYPE,
    CountSeries,
    Document,
    build_count_series,
    filter_single_country,
    load_documents,
    load_gazetteer,
)
from .measures import measure_events, summarize
from .peaks import (
    NewsEvent,
    PeakParams,
    detect_events,
    enforce_constraints,
    local_maxima,
    segment_events,
)
from .pipeline import PipelineConfig, load_config, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "AttnPeaksError",
    "ConsistencyError",
    "CountSeries",
    "DOC_DATE",
    "DOC_HAZARD",
    "DOC_ID",
    "DOC_OUTLET",
    "DOC_TEXT",
    "DOC_TEXT_KEY",
    "DOC_TEXT_TYPE",
    "DisasterRecord",
    "Document",
    "InputError",
    "NewsEvent",
    "PeakParams",
    "PipelineConfig",
    "align_events",
    "alignment_summary",
    "build_count_series",
    "detect_events",
    "enforce_constraints",
    "filter_single_country",
    "load_config",
    "load_documents",
    "load_gazetteer",
    "local_maxima",
    "measure_events",
    "run_pipeline",
    "segment_events",
    "summarize",
]
