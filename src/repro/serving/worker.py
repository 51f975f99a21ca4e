"""RegistryWorker — one serving thread executing the shared kernel pipeline.

A worker is deliberately thin: it declares its worker label (which threads
histogram labels, per-worker pipeline stats, and structured-log fields
through the whole observability stack), then loops taking
:class:`WorkItem` entries off the supervisor's queue and running them
through ``kernel.execute``.  The kernel pipeline is re-entrant — request
ids and span stacks are per-thread, request series per worker label — so N
workers share one kernel and one registry without coordination beyond the
queue itself.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.util.workers import set_worker_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.kernel import EdgeProfile, RegistryKernel
    from repro.serving.supervisor import DispatchQueue


@dataclass(slots=True)
class WorkItem:
    """One queued request: the kernel-execute arguments plus its Future.

    ``enqueued_at`` is stamped from the kernel clock at admission; the
    worker that picks the item up turns it into the request's queue-wait
    cost component.
    """

    edge: "EdgeProfile"
    kwargs: dict[str, Any]
    future: Future = field(default_factory=Future)
    enqueued_at: float | None = None


#: queue sentinel telling a worker to exit its loop
SHUTDOWN = None


class RegistryWorker:
    """One serving thread: label, queue loop, kernel execution."""

    def __init__(
        self, label: str, kernel: "RegistryKernel", work_queue: "DispatchQueue"
    ) -> None:
        self.label = label
        self.kernel = kernel
        self.queue = work_queue
        # these counters and the queue-wait aggregates are only ever written
        # by this worker's own thread, so they need no lock; the supervisor
        # snapshots them
        self.requests_served = 0
        #: items whose future was cancelled before pick-up (never executed)
        self.cancelled = 0
        self.queue_wait_count = 0
        self.queue_wait_total_s = 0.0
        self.queue_wait_max_s = 0.0
        self.thread = threading.Thread(target=self._run, name=label, daemon=True)

    def start(self) -> None:
        self.thread.start()

    def join(self, timeout: float | None = None) -> None:
        self.thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self.thread.is_alive()

    def _measure_queue_wait(self, item: WorkItem) -> None:
        """Turn the enqueue stamp into queue-wait accounting + request tags."""
        wait = self.kernel.clock.now() - item.enqueued_at
        if wait < 0.0:
            wait = 0.0
        self.queue_wait_count += 1
        self.queue_wait_total_s += wait
        if wait > self.queue_wait_max_s:
            self.queue_wait_max_s = wait
        self.kernel.telemetry.record_queue_wait(self.label, wait)
        # ride the wait into the kernel's per-request tag bag: a traced
        # request carries it on its root span
        tags = {"queue_wait_s": wait}
        seeded = item.kwargs.get("tags")
        item.kwargs["tags"] = {**seeded, **tags} if seeded else tags

    def _run(self) -> None:
        set_worker_label(self.label)
        while True:
            item = self.queue.get()
            if item is SHUTDOWN:
                return
            future = item.future
            if not future.set_running_or_notify_cancel():
                # abandoned before pick-up: dropped at dequeue, never executed
                self.cancelled += 1
                self.queue.done()
                continue
            try:
                if item.enqueued_at is not None:
                    self._measure_queue_wait(item)
                result = self.kernel.execute(item.edge, **item.kwargs)
            except BaseException as error:  # noqa: BLE001 - delivered via Future
                # counted before it is published: whoever the future wakes
                # may read the counters at once
                self.requests_served += 1
                future.set_exception(error)
            else:
                self.requests_served += 1
                future.set_result(result)
            self.queue.done()
