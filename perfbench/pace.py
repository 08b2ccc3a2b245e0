"""Operation costs in reference loops, which the host's speed cancels out of.

The benchmark shares a host whose speed drifts by a fifth or more over
seconds to minutes, with the load of the host's other tenants, so the
same work takes a different time from one run to the next.  After every
``PERIOD_S`` seconds of measured work the benchmark times one fixed loop
of interpreter work, the reference, which does not touch the package, and
divides the operations timed since the last reference by its time.  An
operation's cost is then in references (unit ``ref``), from which most
of the host's drift cancels: over ten runs of a workload on a 2-vCPU
shared host, raw times spread by 0.1 to 0.2 of their median and costs by
0.02 to 0.05.  The phases keep the raw times as well.
"""
from __future__ import annotations

import time
from array import array

PERIOD_S = 0.01
REFERENCE_LOOPS = 3000
_TABLE = dict.fromkeys(range(256), 0)


def reference_loop() -> int:
    """Integer arithmetic and dict stores: the interpreter work the package
    is made of, on data of its own.  It makes no container, so no garbage
    collection starts inside it."""
    total = 0
    table = _TABLE
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
        table[i & 255] = total
    return total


class Pace:
    """The reference costs of a phase's operations, in the order recorded."""

    def __init__(self):
        self.references = array("d")  # seconds of every reference loop
        self.costs = array("d")  # every operation's seconds over its reference
        self._pending: list[float] = []
        self._pending_s = 0.0

    def record(self, seconds: float) -> None:
        """Add one operation's time; time a reference when due."""
        self._pending.append(seconds)
        self._pending_s += seconds
        if self._pending_s >= PERIOD_S:
            self.flush()

    def flush(self) -> None:
        """Time the reference and turn the pending times into costs."""
        if not self._pending:
            return
        t0 = time.perf_counter()
        reference_loop()
        ref = time.perf_counter() - t0
        self.references.append(ref)
        self.costs.extend(s / ref for s in self._pending)
        self._pending.clear()
        self._pending_s = 0.0
