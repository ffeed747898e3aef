"""A fixed reference workload that measures the machine's current speed.

The machine this benchmark was tuned on is shared with other tenants, and
its speed drifts by a quarter or more over a minute: the median seconds of
one workload differed by 15% to 40% (interquartile range over median)
between runs a few minutes apart.  The end-to-end timings are therefore
calibrated: measured seconds times ``REF_NOMINAL_S / ref_s``, where
``ref_s`` is the median time of this workload measured in the same process
between repetitions.  The workload is pure Python of the kind burstmine runs
(small dicts and tuples, JSON text, sorting) and touches no burstmine code,
so a change to burstmine cannot move it.
"""

from __future__ import annotations

import json
import random
import time

REF_ROWS = 25_000
# Median of reference_seconds() on the machine the bounds were tuned on
# (see README.md); it only scales calibrated figures back to seconds.
REF_NOMINAL_S = 0.17


def reference_seconds() -> float:
    rng = random.Random(7)
    start = time.perf_counter()
    rows = [{"id": i, "name": f"row{i}", "pair": (i, i + 1), "v": rng.random()}
            for i in range(REF_ROWS)]
    back = json.loads(json.dumps(rows))
    back.sort(key=lambda r: r["v"])
    return time.perf_counter() - start


def calibrated(seconds: float, ref_s: float) -> float:
    """``seconds`` rescaled to the speed at which the reference takes
    ``REF_NOMINAL_S``."""
    return seconds * REF_NOMINAL_S / ref_s
