"""Set-up time of one fresh interpreter: import, config load and validation, gazetteer.

Run with the program's sources on ``PYTHONPATH``::

    python3 perfbench/setup_probe.py CONFIG

Prints the elapsed seconds. Interpreter start-up itself is not included.
"""

import sys
import time

started = time.perf_counter()

import attn_peaks  # noqa: E402
from attn_peaks.ingest import load_gazetteer  # noqa: E402
from attn_peaks.pipeline import load_config, validate_config  # noqa: E402

config = load_config(sys.argv[1])
validate_config(config)
load_gazetteer(config.gazetteer, target=config.target)
print(repr(time.perf_counter() - started))
