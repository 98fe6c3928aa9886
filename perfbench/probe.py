"""Set-up probe, run in a fresh interpreter by run.py.

Imports ``qslab.cli``, loads the given medium config (and pulse file), then
prints the monotonic clock so the parent can time start-up to the first job.

    python3 perfbench/probe.py CONFIG [PULSE]
"""

import sys
import time

import qslab.cli  # noqa: F401  (the import is what is being timed)
from qslab.config import load_medium_config, load_pulse_file

load_medium_config(sys.argv[1])
if len(sys.argv) > 2:
    load_pulse_file(sys.argv[2])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
