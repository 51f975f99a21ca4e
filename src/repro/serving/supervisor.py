"""ServingSupervisor — bounded dispatch queue in front of N worker threads.

The supervisor plays the acceptor role of a threaded registry server: it
owns one bounded :class:`DispatchQueue`, spawns ``config.workers``
:class:`~repro.serving.worker.RegistryWorker` threads against the shared
kernel, and exposes three admission surfaces:

* :meth:`submit` — enqueue and return a :class:`concurrent.futures.Future`
  (blocks while the queue is full, i.e. applies backpressure);
* :meth:`try_submit` — non-blocking admission; a full queue rejects the
  request (counted in ``rejected``) and returns ``None``, which is the
  load-shedding behaviour a saturated registry node exhibits to the
  paper's balancer;
* :meth:`call` — submit and wait, for callers that want synchronous
  semantics over the concurrent core; a wait that times out cancels its
  request, so work nobody is waiting for is dropped at dequeue.

The returned future is the only handle on a request.  Cancelling it before
a worker picks the request up means it is never executed (counted as
``cancelled``); once running it completes normally.

Requests execute through the ``serving`` protocol edge, which follows the
SOAP edge's session discipline: an explicit token resolves against
sessions registered via :meth:`register_session`, everything else falls
back to the guest session unless the operation requires authentication.
Faults map through :class:`~repro.soap.envelope.SoapFault` so a serving
response is shaped exactly like its single-threaded SOAP twin — that is
what the benchmark's parity assertion compares.

The supervisor registers a ``serving`` telemetry source so ``repro stats``
and ``/metrics``-adjacent snapshots see queue depth, admission counters,
and per-worker served counts alongside the per-worker pipeline shards the
kernel already maintains.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from queue import SimpleQueue
from typing import TYPE_CHECKING, Any

from repro.registry.kernel import EdgeProfile, OperationSpec, RequestContext
from repro.serving.worker import SHUTDOWN, RegistryWorker, WorkItem
from repro.soap.envelope import SoapFault
from repro.util.errors import AuthenticationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.server import RegistryServer
    from repro.security.authn import Session


@dataclass(frozen=True)
class ServingConfig:
    """Sizing knobs for the serving core."""

    #: worker threads sharing the kernel
    workers: int = 4
    #: dispatch queue bound; submissions beyond it block (submit) or shed
    #: (try_submit); zero or less means unbounded, as for ``queue.Queue``
    queue_capacity: int = 1024
    #: simulated per-request wire/IO seconds spent off-CPU in the worker
    wire_delay_s: float = 0.0


class DispatchQueue:
    """The hand-off between admission and the workers.

    Items travel through a C-level :class:`queue.SimpleQueue`, which has no
    bound and no notion of completion; this class adds exactly those two —
    the ``capacity`` bound on items waiting for pick-up and the count of
    accepted items not yet finished — under one plain lock that is only
    ever held for a few integer updates.  Its condition is waited on only
    by a :meth:`put` blocked on a full queue and by :meth:`join`.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: "SimpleQueue[WorkItem | None]" = SimpleQueue()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        #: put, not yet picked up — what ``capacity`` bounds
        self.depth = 0
        #: put, not yet reported :meth:`done`
        self._unfinished = 0

    def put(self, item: WorkItem, *, block: bool) -> int:
        """Enqueue *item* and return the depth that includes it.

        A full queue makes a blocking put wait for a slot and a
        non-blocking one return 0 without enqueuing.
        """
        with self._lock:
            while 0 < self.capacity <= self.depth:
                if not block:
                    return 0
                self._changed.wait()
            self.depth = depth = self.depth + 1
            self._unfinished += 1
        self._items.put(item)
        return depth

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

    def done(self) -> None:
        """One picked-up item finished (executed, failed or skipped)."""
        with self._lock:
            self._unfinished -= 1
            if not self._unfinished:
                self._changed.notify_all()

    def join(self) -> None:
        """Block until every item put so far has been reported done."""
        with self._lock:
            while self._unfinished:
                self._changed.wait()

    def shut_down(self, workers: int) -> None:
        """Queue one exit sentinel per worker, behind every accepted item."""
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
        self._queue = DispatchQueue(self.config.queue_capacity)
        self._workers: list[RegistryWorker] = []
        #: token → session, maintained via register_session (SOAP discipline)
        self._sessions: dict[str, "Session"] = {}
        self.edge = EdgeProfile(
            name="serving",
            authenticate=self._authenticate,
            fault_mapper=SoapFault.from_error,
        )
        self.accepted = 0
        self.rejected = 0
        #: deepest queue observed at admission (benign races may undercount
        #: by a submission or two; the saturation signal survives)
        self.queue_depth_high_water = 0
        self.started = False
        from repro.obs.adapters import serving_collector

        registry.telemetry.register_source(
            "serving", self.serving_stats, collector=serving_collector(self)
        )

    # -- session plumbing ------------------------------------------------------

    def register_session(self, session: "Session") -> None:
        self._sessions[session.token] = session

    def _authenticate(self, ctx: RequestContext, spec: OperationSpec) -> "Session":
        token = ctx.token
        if token and token in self._sessions:
            return self._sessions[token]
        if spec.requires_session:
            raise AuthenticationError(
                "serving edge write access requires a registered session"
            )
        return self.registry.guest()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ServingSupervisor":
        if self.started:
            return self
        self._workers = [
            RegistryWorker(
                f"worker-{index}",
                self.kernel,
                self._queue,
                wire_delay_s=self.config.wire_delay_s,
            )
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()
        self.started = True
        return self

    def stop(self, *, timeout: float | None = 10.0) -> None:
        """Drain the queue, retire every worker, and unblock pending futures."""
        if not self.started:
            return
        self._queue.shut_down(len(self._workers))
        for worker in self._workers:
            worker.join(timeout)
        self.started = False

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
        if not self.started:
            raise RuntimeError("ServingSupervisor is not started")
        # stamped first, so queue_wait covers everything between admission
        # and the worker's pick-up
        enqueued_at = self.kernel.clock.now()
        item = WorkItem(self.edge, kwargs, Future(), enqueued_at)
        depth = self._queue.put(item, block=block)
        if not depth:
            self.rejected += 1
            return None
        self.accepted += 1
        if depth > self.queue_depth_high_water:
            self.queue_depth_high_water = depth
        return item.future

    def submit(self, **kwargs: Any) -> Future:
        """Enqueue one request (kernel.execute kwargs); blocks when full."""
        return self._admit(kwargs, block=True)

    def try_submit(self, **kwargs: Any) -> Future | None:
        """Non-blocking admission: ``None`` (and a shed count) when full."""
        return self._admit(kwargs, block=False)

    def call(self, *, timeout: float | None = None, **kwargs: Any) -> Any:
        """Submit and wait: synchronous semantics over the concurrent core."""
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
            "queue_depth_high_water": self.queue_depth_high_water,
            "queue_capacity": self.config.queue_capacity,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "cancelled": sum(worker.cancelled for worker in self._workers),
            "wire_delay_s": self.config.wire_delay_s,
            "served_per_worker": {
                worker.label: worker.requests_served for worker in self._workers
            },
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
