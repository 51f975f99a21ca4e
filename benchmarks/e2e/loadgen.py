"""Load generation: closed-loop trials, the open-loop phase, and their statistics.

Closed loop: a client sends its next request only when the previous reply
is decoded, so a slower system receives less load; it measures throughput
and service latency.  Open loop: requests are *due* on a schedule that no
reply can move and each is timed from its due instant, so a stall shows up
in the latency of every request it delayed (no coordinated omission); it
measures latency at a fixed arrival rate and reports how late the generator
itself ran.

Both loops carry the reference kernel (:mod:`reference`): a closed loop runs
a burst of it between every few requests, the open loop fills the wait for
the next due instant with it and stretches its schedule by how slow it runs,
and every latency is kept twice — raw, and *scaled* by how slow the bursts
on either side of the request ran.  So the
core never idles (an idle virtual CPU is woken late by a busy host), and a
neighbour's slow-down divides out of the scaled numbers.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

from reference import BATCH_REQUESTS, NOMINAL_UNIT_S, Reference, slowness, unit
from rig import Rig, Wire
from workloads import SWEEP_EVERY, Request, Sequence

#: a percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10
#: reference bursts run before an open phase's first request is due
OPEN_CALIBRATION_BURSTS = 5
#: weight of the newest wait's unit time in the open schedule's running mean
PACE_WEIGHT = 0.125


def percentile(sorted_values: list, q: float) -> float | None:
    """Nearest-rank percentile of pre-sorted values.

    ``None`` when fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond the
    reported rank — a tail read off a handful of samples is noise.
    """
    n = len(sorted_values)
    index = int(n * q)
    if n - index - 1 < MIN_TAIL_SAMPLES:
        return None
    return sorted_values[index]


def median_iqr(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return (values[0] if values else 0.0), 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def median_of(values: list) -> float | None:
    """Median of per-trial *values*; ``None`` if any trial could not give its value."""
    if any(value is None for value in values):
        return None
    return statistics.median(values)


class Client:
    """One load-generating thread's state: its stream, wire, and findings."""

    def __init__(self, rig: Rig, sequence: Sequence, verify_first: int) -> None:
        self.rig = rig
        self.sequence = sequence
        self.wire: Wire = rig.wire()
        self.verify_first = verify_first
        self.attempted = 0
        #: faults, refusals, and diverged idempotent replays seen in the loop
        self.failed = 0
        self.failures: list[str] = []
        #: (request, answer, sweep index, registry clock minute) for the oracle
        self.records: list[tuple] = []
        #: exact answers are only recorded while no other request is in flight
        #: on the state they depend on (closed phase)
        self.recording = False

    def issue(self, request: Request):
        """Send one request (and its idempotent re-send); returns the answer."""
        rig = self.rig
        if request.sweep:
            rig.sweep(self.sequence.position // SWEEP_EVERY)
        answer = self.wire.request(request.body, request.auth)
        self.attempted += 1
        if not answer.ok:
            self._fail(f"{request.kind} faulted: {answer.body}")
        elif self.recording and (
            len(self.records) < self.verify_first or request.sweep or request.verify
        ):
            self.records.append(
                (request, answer, rig.sweep_index, rig.clock.minutes_of_day())
            )
        return answer

    def resend(self, request: Request, first) -> None:
        """Replay a write under its idempotency key; the reply must not differ."""
        again = self.wire.request(request.body, request.auth)
        self.attempted += 1
        if not again.ok or again.body.ids != first.body.ids:
            self._fail(f"idempotent replay diverged: {again.body}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


@dataclass
class Trial:
    """One closed-loop trial's measurements, raw and scaled to the reference speed.

    Time spent in reference bursts is taken out of every figure.
    """

    completed: int
    rps: float
    cpu_us_per_req: float
    #: per-request latency in ns, sorted
    reads: list[float]
    writes: list[float]
    scaled_rps: float
    scaled_cpu_us_per_req: float
    scaled_reads: list[float]
    scaled_writes: list[float]
    #: mean reference-unit time over the trial's bursts, in µs
    unit_us: float


def _closed_loop(client: Client, deadline: float, out: dict) -> None:
    """Batches of requests with a reference burst before and after each."""
    reference = Reference()
    #: per batch: (seconds, completed, read latencies ns, write latencies ns)
    batches: list[tuple] = []
    perf = time.perf_counter
    now_ns = time.perf_counter_ns
    next_request = client.sequence.next
    issue = client.issue
    reference.burst()
    while perf() < deadline:
        reads: list[int] = []
        writes: list[int] = []
        completed = 0
        batch_started = perf()
        for _ in range(BATCH_REQUESTS):
            request = next_request()
            started = now_ns()
            answer = issue(request)
            elapsed = now_ns() - started
            completed += 1
            if request.kind == "write":
                writes.append(elapsed)
                if request.resend:
                    client.resend(request, answer)
                    completed += 1
            else:
                reads.append(elapsed)
        batches.append((perf() - batch_started, completed, reads, writes))
        reference.burst()
    out["reference"], out["batches"] = reference, batches
    out["completed"] = sum(batch[1] for batch in batches)


def replay(client: Client, requests) -> list[tuple[Request, int]]:
    """Issue *requests* closed-loop on the calling thread; (request, ns) pairs."""
    now_ns = time.perf_counter_ns
    timed = []
    for request in requests:
        started = now_ns()
        answer = client.issue(request)
        timed.append((request, now_ns() - started))
        if request.resend:
            client.resend(request, answer)
    return timed


def _run_threads(target, per_thread_args: list[tuple]) -> list[dict]:
    """Run *target* once per argument tuple, each with its own result dict."""
    outs: list[dict] = [{} for _ in per_thread_args]
    threads = [
        threading.Thread(target=target, args=(*args, out), name=f"loadgen-{i}")
        for i, (args, out) in enumerate(zip(per_thread_args, outs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for out in outs:
        if "completed" not in out:
            raise RuntimeError("a load-generator thread died; see its traceback")
    return outs


def closed_trial(clients: list[Client], seconds: float, *, record: bool = True) -> Trial:
    """Run every client closed-loop for *seconds*; one :class:`Trial`."""
    for client in clients:
        client.recording = record
    cpu_started = time.process_time()
    started = time.perf_counter()
    outs = _run_threads(
        _closed_loop, [(client, started + seconds) for client in clients]
    )
    cpu = time.process_time() - cpu_started
    for client in clients:
        client.recording = False
    reads: list[float] = []
    writes: list[float] = []
    scaled_reads: list[float] = []
    scaled_writes: list[float] = []
    rps = scaled_rps = 0.0
    for out in outs:
        reference = out["reference"]
        busy = scaled_busy = 0.0
        for index, (batch_seconds, _n, batch_reads, batch_writes) in enumerate(out["batches"]):
            slow = reference.between(index)
            busy += batch_seconds
            scaled_busy += batch_seconds / slow
            reads += batch_reads
            writes += batch_writes
            scaled_reads += [ns / slow for ns in batch_reads]
            scaled_writes += [ns / slow for ns in batch_writes]
        # each client is its own closed loop; their throughputs add up
        rps += out["completed"] / busy
        scaled_rps += out["completed"] / scaled_busy
    completed = sum(out["completed"] for out in outs)
    bursts = [seconds for out in outs for seconds in out["reference"].bursts]
    # bursts run uninterrupted (far shorter than the GIL's switch interval),
    # so their wall time is their CPU time
    cpu_us = (cpu - sum(out["reference"].seconds for out in outs)) * 1e6 / completed
    return Trial(
        completed=completed,
        rps=rps,
        cpu_us_per_req=cpu_us,
        reads=sorted(reads),
        writes=sorted(writes),
        scaled_rps=scaled_rps,
        scaled_cpu_us_per_req=cpu_us / slowness(*bursts),
        scaled_reads=sorted(scaled_reads),
        scaled_writes=sorted(scaled_writes),
        unit_us=statistics.fmean(bursts) * 1e6,
    )


@dataclass
class OpenResult:
    """The open-loop phase's raw measurements."""

    rate: float
    scheduled: int
    sent: int
    #: latency from the due instant in ns, sorted
    latencies: list[float]
    #: the same, scaled to the reference speed
    scaled_latencies: list[float]
    #: send instant minus due instant in ns, sorted
    lateness: list[float]
    #: most requests that were due but not yet sent
    backlog_max: int
    #: whether lateness was still rising in the last quarter of the phase
    backlog_growing: bool

    @property
    def achieved_rate_ratio(self) -> float:
        return self.sent / self.scheduled if self.scheduled else 0.0


def open_phase(client: Client, rate: float, seconds: float) -> OpenResult:
    """Offer *rate* requests per second of reference time for *seconds*.

    A request is due one period after the one before it, and the period is
    ``1 / rate`` stretched by how slow the box is running just then (a
    running mean of the reference unit's time over its nominal time).  At a
    fixed wall-clock rate, a box that slows to half its speed would be
    offered twice the load — and time in a queue does not scale with the
    box's speed the way time in service does.  The schedule depends on the
    reference kernel only, never on a reply.

    The generator fills the wait for the next due instant with reference
    units (never sleeping), so a request behind a slow reply is sent late;
    its latency still counts from when it was due.
    """
    period = 1.0 / rate
    latencies: list[float] = []
    lateness: list[float] = []
    #: seconds per reference unit in the wait before each request
    waits: list[float] = []
    backlog_max = 0
    perf = time.perf_counter
    next_request = client.sequence.next
    issue = client.issue
    # what a unit costs is first read off a few bursts: one slow reading
    # would make every later wait look too short to begin a unit in, and the
    # whole phase would then be scaled by that reading
    reference = Reference()
    for _ in range(OPEN_CALIBRATION_BURSTS):
        reference.burst()
    quickest = min(reference.bursts)
    unit_seconds = pace = statistics.median(reference.bursts)
    due = started = perf()
    end = started + seconds
    scheduled = 0
    while due < end:
        scheduled += 1
        spent, units = 0.0, 0
        # a unit is only begun when it should end before the due instant
        while due - (unit_started := perf()) > 3.0 * quickest:
            unit()
            took = perf() - unit_started
            quickest = min(quickest, took)
            spent += took
            units += 1
        if units:
            unit_seconds = spent / units
            pace += (unit_seconds - pace) * PACE_WEIGHT
        while (sent := perf()) < due:
            pass
        stretched = period * pace / NOMINAL_UNIT_S
        if sent >= end + 1.0:
            # hopelessly behind: what was still due is scheduled but not sent
            scheduled += int((end - due) / stretched)
            break
        late = sent - due
        backlog_max = max(backlog_max, int(late / stretched))
        issue(next_request())
        latencies.append((perf() - due) * 1e9)
        lateness.append(late * 1e9)
        # no wait before a request sent late: the last measured speed stands
        waits.append(unit_seconds)
        due += stretched
    reference.burst()
    waits.append(reference.bursts[-1])
    scaled = [
        ns / slowness(waits[index], waits[index + 1])
        for index, ns in enumerate(latencies)
    ]
    # lateness in arrival order, to see whether the backlog was still growing
    growing = False
    if len(lateness) >= 40:
        quarter = len(lateness) // 4
        before = statistics.median(lateness[-2 * quarter : -quarter])
        after = statistics.median(lateness[-quarter:])
        growing = after > 2 * before and after > 2 * stretched * 1e9
    return OpenResult(
        rate=rate,
        scheduled=scheduled,
        sent=len(latencies),
        latencies=sorted(latencies),
        scaled_latencies=sorted(scaled),
        lateness=sorted(lateness),
        backlog_max=backlog_max,
        backlog_growing=growing,
    )
