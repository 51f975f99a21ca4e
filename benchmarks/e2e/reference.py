"""The reference kernel: the yardstick every end-to-end timing is scaled by.

The sandbox this benchmark runs on shares its cores with neighbours that
slow it by 10-80 % in bursts of one to ten milliseconds, whose density drifts
from second to second and from hour to hour.  Timings of identical code taken
minutes apart differ by 20-35 %; no statistic over trials removes that, because
whole runs are slow.  But the slow-down is multiplicative and hits all code on
the core alike, so the benchmark carries its own clock: a fixed piece of
standard-library work (a *unit*: build, serialise and re-parse a small XML
tree, then dict and sort work — the kind of work a request does) is run in
bursts of :data:`BURST_UNITS` between every :data:`BATCH_REQUESTS` requests,
and each request's latency is divided by how slow the bursts on either side
of it ran, relative to :data:`NOMINAL_UNIT_S`.  A scaled timing reads "what
this took on a box where one unit takes 80 µs" — the calm seed box.  On
identical code, 14 s windows whose raw p50 spread by 20-31 % (IQR ÷ median)
spread by 1-3 % once scaled.

The kernel imports nothing from the program under test, so no change to the
program can move it; a change that makes the program faster moves only the
numerator.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from time import perf_counter

#: seconds one unit takes on the calm seed box (commit ce9d678); scaled
#: timings are reported at this speed
NOMINAL_UNIT_S = 80e-6
BURST_UNITS = 2
#: requests between two bursts of a closed loop
BATCH_REQUESTS = 4


def unit() -> None:
    """One unit of reference work (~80 µs); allocates, parses, hashes, sorts."""
    root = ET.Element("a")
    for i in range(20):
        child = ET.SubElement(root, "b", {"k": str(i)})
        child.text = "x%d" % i
    parsed = ET.fromstring(ET.tostring(root, encoding="unicode"))
    sorted({child.get("k"): child.text for child in parsed}.items())


class Reference:
    """The bursts one thread ran: seconds per unit of each, in order."""

    def __init__(self) -> None:
        self.bursts: list[float] = []

    def burst(self) -> None:
        started = perf_counter()
        for _ in range(BURST_UNITS):
            unit()
        self.bursts.append((perf_counter() - started) / BURST_UNITS)

    @property
    def seconds(self) -> float:
        """Wall time spent in bursts (to be taken out of what they paced)."""
        return sum(self.bursts) * BURST_UNITS

    def slowness(self) -> float:
        """How slow the box ran over all bursts, 1.0 = the nominal speed."""
        return slowness(*self.bursts)

    def between(self, index: int) -> float:
        """How slow the box ran between burst *index* and the next one."""
        return slowness(self.bursts[index], self.bursts[index + 1])


def slowness(*unit_seconds: float) -> float:
    return sum(unit_seconds) / len(unit_seconds) / NOMINAL_UNIT_S
