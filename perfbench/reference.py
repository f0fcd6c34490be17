"""Fixed reference work that tracks the speed of a shared machine.

On a shared sandbox the speed available to one process drifts by up to
2x within a couple of minutes (other tenants' load), far more than any
bound a regression check could use.  The worker therefore runs this
kernel before and after every timed invocation, and throughput is also
reported per reference-second: operations completed in the time this
kernel takes.  The kernel does the same kind of work molrest does per
frame and per report (Python-level loops over small numpy calls,
building, rendering and parsing nested JSON, float formatting and
parsing) and uses none of molrest, so a change to molrest moves the
normalised figure exactly as it moves wall time.
"""

import json
import time

import numpy as np

ITEMS = 2000


def reference_work():
    rng = np.random.default_rng(12345)
    rows = []
    for x in rng.normal(size=(ITEMS, 8, 3)):
        c = np.einsum("mi,mj->ij", x, x)
        w, v = np.linalg.eigh(c + c.T)
        rows.append({"w": w, "r": np.cross(x, x[::-1]).sum(axis=0), "v": v[:, -1], "x": x})
    text = json.dumps([{k: a.tolist() for k, a in r.items()} for r in rows], indent=1)
    parsed = json.loads(text)
    line = " ".join(repr(float(t)) for r in parsed for t in r["x"][0])
    return len(parsed) + sum(float(t) for t in line.split())


def reference_seconds():
    """Wall seconds of one run of the reference work."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
