"""ServingSupervisor — one admission gate in front of N worker threads.

The supervisor owns one :class:`DispatchQueue` — the gate every request is
counted in and out of — and ``config.workers``
:class:`~repro.serving.worker.RegistryWorker` threads against the shared
kernel, and exposes three admission surfaces:

* :meth:`submit` — enqueue and return a :class:`concurrent.futures.Future`
  (blocks while the queue is full, i.e. applies backpressure);
* :meth:`try_submit` — non-blocking admission; a full queue rejects the
  request (counted in ``rejected``) and returns ``None``, which is the
  load-shedding behaviour a saturated registry node exhibits to the
  paper's balancer;
* :meth:`call` — run one request and return its response.  Pure-Python
  handlers serialize on the interpreter lock, so a worker thread adds two
  thread switches and no throughput: the request runs **inline**, on the
  caller's thread, whenever the gate has a permit for it, and is queued
  for a worker only otherwise.

What the gate guarantees.  A request runs inline only while nothing is
queued — it overtakes no queued request — and fewer than ``workers``
admitted requests are unfinished, so at most ``workers`` run inline at once
(and at most ``workers`` on workers).  An inline run raises what
``future.result()`` would have raised and frees its permit either way;
:meth:`drain` and :meth:`stop` return only when none is in flight, and
after :meth:`stop` every admission surface raises ``RuntimeError``.  ``timeout``
bounds the wait for a worker — a wait that times out cancels its request,
and a future cancelled before pick-up is dropped at dequeue, never executed
(``cancelled``) — while an inline run, like a request a worker has started,
runs to completion.

Requests execute through the ``serving`` protocol edge, which keeps no
sessions: the kernel's ``authenticate`` step resolves a request's token
against the registry's authenticator, exactly as for the SOAP edge.
Faults map through :class:`~repro.soap.envelope.SoapFault` so a serving
response is shaped exactly like its single-threaded SOAP twin
(``test_inline_queued_and_soap_answers_are_equal`` compares them).

The supervisor registers a ``serving`` telemetry source so ``repro stats``
and ``/metrics``-adjacent snapshots see queue depth, admission counters,
and served counts per worker (inline runs under the one label ``caller``)
alongside the per-worker pipeline shards the kernel already maintains.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from queue import SimpleQueue
from typing import TYPE_CHECKING, Any

from repro.obs.telemetry import Export
from repro.registry.kernel import EdgeProfile
from repro.serving.worker import SHUTDOWN, RegistryWorker, WorkItem
from repro.soap.envelope import SoapFault
from repro.util.workers import CALLER_WORKER_LABEL

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.server import RegistryServer
    from repro.security.authn import Session

#: the keys of ``serving_stats()`` a scrape carries
_SERVING_EXPORTS = (
    Export(
        "queue_depth_high_water",
        "repro_serving_queue_depth_high_water",
        "Deepest dispatch queue observed at admission (saturation "
        "early-warning; the queue-wait histogram is pushed separately).",
    ),
    Export("accepted", "repro_serving_accepted_total", "Requests admitted to the queue."),
    Export("rejected", "repro_serving_rejected_total", "Requests shed at a full queue."),
)


@dataclass(frozen=True)
class ServingConfig:
    """Sizing knobs for the serving core."""

    #: worker threads sharing the kernel, and inline runs allowed at once
    workers: int = 4
    #: dispatch queue bound; submissions beyond it block (submit) or shed
    #: (try_submit); zero or less means unbounded, as for ``queue.Queue``
    queue_capacity: int = 1024


class DispatchQueue:
    """The admission gate, and the hand-off to the workers behind it.

    Queued items travel through a C-level :class:`queue.SimpleQueue`, which
    has no bound and no notion of completion; this class adds the
    ``capacity`` bound on items waiting for pick-up, the count of admitted
    requests not yet finished (queued, on a worker or inline) that
    ``permits`` bounds for an inline run, and the admission counters — under
    one plain lock that is only ever held for a few integer updates.  Its
    condition is waited on only by a :meth:`put` blocked on a full queue
    and by :meth:`join`.
    """

    def __init__(self, capacity: int, permits: int) -> None:
        self.capacity = capacity
        self.permits = permits
        self._items: "SimpleQueue[WorkItem | None]" = SimpleQueue()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        #: admitting — between the supervisor's start() and stop()
        self.open = False
        #: put, not yet picked up — what ``capacity`` bounds
        self.depth = self.depth_high_water = 0
        #: admitted, not yet reported :meth:`done`
        self._unfinished = 0
        self.accepted = self.rejected = self.served_inline = 0

    def _count_in(self) -> None:
        if not self.open:
            raise RuntimeError("ServingSupervisor is not started")
        self.accepted += 1
        self._unfinished += 1

    def admit_inline(self) -> bool:
        """Count one request in to run on its caller's thread, which then
        reports ``done(inline=True)`` — unless anything is queued or
        ``permits`` admitted requests are unfinished."""
        with self._lock:
            if self.depth or self._unfinished >= self.permits:
                return False
            self._count_in()
        return True

    def put(self, item: WorkItem, *, block: bool) -> bool:
        """Enqueue *item*.

        A full queue makes a blocking put wait for a slot and a
        non-blocking one return false without enqueuing (``rejected``).
        """
        with self._lock:
            while 0 < self.capacity <= self.depth:
                if not block:
                    self.rejected += 1
                    return False
                self._changed.wait()
            self._count_in()
            self.depth += 1
            if self.depth > self.depth_high_water:
                self.depth_high_water = self.depth
        self._items.put(item)
        return True

    def get(self) -> "WorkItem | None":
        """Next item (worker side); a picked-up item frees its slot."""
        item = self._items.get()
        if item is not SHUTDOWN:
            with self._lock:
                if self.depth == self.capacity:
                    # every blocked put rechecks; at most capacity proceed
                    self._changed.notify_all()
                self.depth -= 1
        return item

    def done(self, *, inline: bool = False) -> None:
        """One admitted request finished (executed, failed or skipped)."""
        with self._lock:
            self.served_inline += inline
            self._unfinished -= 1
            if not self._unfinished:
                self._changed.notify_all()

    def join(self, timeout: float | None = None) -> None:
        """Block until every request admitted so far has been reported done."""
        with self._lock:
            self._changed.wait_for(lambda: not self._unfinished, timeout)

    def shut_down(self, workers: int) -> None:
        """Stop admitting; one exit sentinel per worker, behind every item."""
        with self._lock:
            self.open = False
        for _ in range(workers):
            self._items.put(SHUTDOWN)


class ServingSupervisor:
    """Owns the dispatch queue and worker fleet for one registry."""

    def __init__(
        self, registry: "RegistryServer", config: ServingConfig | None = None
    ) -> None:
        self.registry = registry
        self.config = config or ServingConfig()
        if self.config.workers < 1:
            raise ValueError("ServingConfig.workers must be >= 1")
        self.kernel = registry.kernel
        self._queue = DispatchQueue(self.config.queue_capacity, permits=self.config.workers)
        self._workers: list[RegistryWorker] = []
        self.edge = EdgeProfile(name="serving", fault_mapper=SoapFault.from_error)
        registry.telemetry.register_source("serving", self.serving_stats, exports=_SERVING_EXPORTS)

    def register_session(self, session: "Session") -> None:
        """Kept for callers that still register: the registry's own adopt."""
        self.registry.authenticator.adopt(session)

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._queue.open

    def start(self) -> "ServingSupervisor":
        if self.started:
            return self
        self._workers = [
            RegistryWorker(f"worker-{index}", self.kernel, self._queue)
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()
        self._queue.open = True
        return self

    def stop(self, *, timeout: float | None = 10.0) -> None:
        """Stop admitting, finish what was admitted, retire every worker."""
        if not self.started:
            return
        self._queue.shut_down(len(self._workers))
        for worker in self._workers:
            worker.join(timeout)
        self._queue.join(timeout)

    def __enter__(self) -> "ServingSupervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def close(self) -> None:
        """Stop the fleet and unmount the telemetry source."""
        self.stop()
        self.registry.telemetry.unregister_source("serving")

    # -- admission -------------------------------------------------------------

    def _admit(self, kwargs: dict[str, Any], *, block: bool) -> Future | None:
        """Queue one request; ``None`` when *block* is false and the queue full."""
        # stamped first, so queue_wait covers everything between admission
        # and the worker's pick-up
        enqueued_at = self.kernel.clock.now()
        item = WorkItem(self.edge, kwargs, Future(), enqueued_at)
        return item.future if self._queue.put(item, block=block) else None

    def submit(self, **kwargs: Any) -> Future:
        """Enqueue one request (kernel.execute kwargs); blocks when full."""
        return self._admit(kwargs, block=True)

    def try_submit(self, **kwargs: Any) -> Future | None:
        """Non-blocking admission: ``None`` (and a shed count) when full."""
        return self._admit(kwargs, block=False)

    def call(self, *, timeout: float | None = None, **kwargs: Any) -> Any:
        """Run one request: inline when the gate admits it, else queued with
        *timeout* bounding the wait for a worker's answer."""
        queue = self._queue
        if queue.admit_inline():
            # one worker label for every inline run, whichever thread called
            kwargs["tags"] = {**(kwargs.get("tags") or {}), "worker": CALLER_WORKER_LABEL}
            try:
                return self.kernel.execute(self.edge, **kwargs)
            finally:
                queue.done(inline=True)
        future = self._admit(kwargs, block=True)
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            # nobody is waiting any more: if no worker has started on it,
            # the request is dropped at dequeue instead of executed
            future.cancel()
            raise

    def drain(self) -> None:
        """Block until every accepted request has been executed or dropped."""
        self._queue.join()

    # -- surfaces --------------------------------------------------------------

    def serving_stats(self) -> dict[str, Any]:
        """The ``serving`` telemetry source: fleet + admission counters."""
        waits = [
            (worker.queue_wait_count, worker.queue_wait_total_s, worker.queue_wait_max_s)
            for worker in self._workers
        ]
        wait_count = sum(count for count, _, _ in waits)
        return {
            "workers": len(self._workers),
            "started": self.started,
            "queue_depth": self._queue.depth,
            "queue_depth_high_water": self._queue.depth_high_water,
            "queue_capacity": self.config.queue_capacity,
            "accepted": self._queue.accepted,
            "rejected": self._queue.rejected,
            "cancelled": sum(worker.cancelled for worker in self._workers),
            "served_per_worker": {
                worker.label: worker.requests_served for worker in self._workers
            },
            "served_inline": self._queue.served_inline,
            "queue_wait": {
                "count": wait_count,
                "total_s": sum(total for _, total, _ in waits),
                "max_s": max((peak for _, _, peak in waits), default=0.0),
                "mean_s": (
                    sum(total for _, total, _ in waits) / wait_count
                    if wait_count
                    else 0.0
                ),
            },
        }
