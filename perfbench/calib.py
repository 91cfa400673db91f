"""Reference kernel that measures how fast the machine is right now.

On a shared host the same operation takes up to 1.5x longer in one minute
than in the next, because other tenants contend for the core and its
caches.  The benchmark therefore times this fixed kernel next to every
timed operation and reports each operation time scaled to a machine on
which the kernel takes REF_S seconds:

    normalised seconds = wall seconds * REF_S / kernel seconds

The kernel mixes the kinds of work dpsched does, so contention slows it
about as much as it slows the workloads: a Python loop with bisection over
a list of 10^5 floats (the simulator's per-slot loop), dict and tuple
bookkeeping (the walk's candidate sets), small numpy mask operations
(`feasibility_mask`) and a 200 x 200 dense solve (`mrp`).  It does not
touch dpsched, so a change to the program moves the normalised time by
exactly as much as it moves the wall time.
"""
from bisect import bisect_right
from time import perf_counter

import numpy as np

REF_S = 0.015  # a round figure in the kernel's 11-25 ms range on a 2-vCPU Xeon VM
LIST_LEN = 100_000
DICT_OPS = 5000
SOLVES = 5
MASKS = 200


class Kernel:
    """The reference kernel; its inputs are built once, outside any timing."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.floats = rng.random(LIST_LEN).tolist()
        self.cums = [0.2, 0.5, 1.0]
        self.a = rng.random((200, 200)) + 200.0 * np.eye(200)
        self.b = rng.random(200)

    def run(self) -> float:
        cums = self.cums
        s, j = 0.0, 0
        for x in self.floats:
            j += bisect_right(cums, x)
            s += x
        counts: dict = {}
        for i in range(DICT_OPS):
            t = (i & 255, i >> 8)
            counts[t] = counts.get(t, 0) + 1
        for _ in range(SOLVES):
            s += float(np.linalg.solve(self.a, self.b)[0])
        for _ in range(MASKS):
            m = np.zeros(6, dtype=bool)
            m[2:4] = True
            j += int(m.any())
        return s + j + len(counts)

    def seconds(self) -> float:
        t0 = perf_counter()
        self.run()
        return perf_counter() - t0
