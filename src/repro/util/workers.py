"""Worker identity for the concurrent serving core.

The supervisor (:mod:`repro.serving`) runs N registry worker threads against
one shared :class:`~repro.registry.kernel.RegistryKernel`.  Observability
surfaces — pipeline stats shards, the request-latency histogram, structured
request logs — label samples by *worker*, and this module is where that
label lives: a ``threading.local`` the worker thread sets once at startup.

Anything that runs outside a declared worker (the single-threaded CLI, unit
tests, the benchmark main thread) reports as ``"main"`` when it *is* the
main thread, or the thread's name otherwise, so undeclared threads are still
attributable in merged views.
"""

from __future__ import annotations

import threading

#: label reported by the process main thread when no worker label is set
MAIN_WORKER_LABEL = "main"

#: the one label of requests the serving gate runs on their callers' own
#: threads: bounded however many threads call
CALLER_WORKER_LABEL = "caller"

_local = threading.local()

#: thread ident → declared worker label; lets *other* threads (the sampling
#: profiler) attribute a thread's stack to its worker.  Idents of exited
#: threads linger until reused — acceptable for an observability surface.
_labels_by_ident: dict[int, str] = {}


def set_worker_label(label: str | None) -> None:
    """Declare the current thread's worker label (``None`` clears it)."""
    _local.label = label
    ident = threading.get_ident()
    if label is None:
        _labels_by_ident.pop(ident, None)
    else:
        _labels_by_ident[ident] = label


def worker_labels_by_ident() -> dict[int, str]:
    """Snapshot of declared worker labels keyed by thread ident.

    The cross-thread view :func:`current_worker_label` cannot provide (it
    reads a ``threading.local``); the sampling profiler uses this to label
    stacks it collects via ``sys._current_frames``.
    """
    return dict(_labels_by_ident)


def current_worker_label() -> str:
    """The current thread's worker label.

    Declared workers return their supervisor-assigned name; the main thread
    returns ``"main"``; any other undeclared thread returns its thread name.
    """
    label = getattr(_local, "label", None)
    if label is not None:
        return label
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return MAIN_WORKER_LABEL
    return thread.name
