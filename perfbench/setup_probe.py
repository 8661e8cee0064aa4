"""One set-up of an in-process workload, timed from outside by
``run.py``: interpreter start, imports and system construction.

    python3 perfbench/setup_probe.py WORKLOAD

Prints the machine's relative speed during the imports and construction
and the seconds its probes took, as JSON, for ``run.py`` to normalise the
set-up time with (see ``calibrate.py``).
"""

import json
import sys

import common
from calibrate import Speedometer

if __name__ == "__main__":
    common.require_checkout()
    import corpus

    with Speedometer() as clock:
        corpus.build(sys.argv[1])
    print(json.dumps({"speed": clock.speed, "probe_s": clock.probe_s}))
