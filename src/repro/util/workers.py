"""Worker identity for the concurrent serving core.

The supervisor (:mod:`repro.serving`) runs N registry worker threads against
one shared :class:`~repro.registry.kernel.RegistryKernel`.  Observability
surfaces — the request-latency histogram, pipeline stats, structured request
logs — label samples by *worker*, and this module is where that
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


def set_worker_label(label: str | None) -> None:
    """Declare the current thread's worker label (``None`` clears it)."""
    _local.label = label


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
