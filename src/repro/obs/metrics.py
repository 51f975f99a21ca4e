"""MetricsRegistry — labeled Counters/Gauges/Histograms with Prometheus text exposition.

The registry's runtime signals — request accounting, ``TransportStats``,
``query_plan_stats``, the constraint-cache counters, ``TimeHits`` tallies —
share one vocabulary:

* :class:`Counter` — monotonically increasing totals (requests, faults);
* :class:`Gauge` — point-in-time values (cache entries, monitor targets);
* :class:`Histogram` — distributions over fixed **log-scale buckets**
  (request latency), cumulative in exposition as Prometheus expects.

Metrics are *families*: a family owns its label names, and
:meth:`Metric.labels` returns the child series for one label-value
combination.  :meth:`MetricsRegistry.snapshot` and
:meth:`MetricsRegistry.render` are deterministic — families sorted by name,
series sorted by label values — so telemetry output is stable under a fixed
workload and directly assertable in tests.

Two kinds of family meet here.  A request is recorded once, into a *pushed*
family (:meth:`Histogram.observe`, :meth:`Counter.inc`), and
``pipeline_stats()`` is a view of those.  The cold
counters stay plain ints on their components; each scrape syncs the keys of
the ``*_stats()`` snapshots its mounted sources export
(:meth:`repro.obs.telemetry.Telemetry.collect`) into the registry it builds,
which is why :meth:`Counter.sync` exists alongside :meth:`Counter.inc`.

:func:`parse_exposition` is the strict inverse of :meth:`render` — the
telemetry smoke tests use it to prove ``/metrics`` output is valid
Prometheus text format, not just non-empty.

Histograms additionally carry OpenMetrics-style **exemplars**: an
observation made with ``observe(value, exemplar={"trace_id": ...})`` pins
its label set (and the observed value) to the bucket the observation landed
in, rendered as a ``# {trace_id="..."} <value>`` suffix on that
``_bucket`` line.  The strict parser round-trips them (``parse_exposition
(text, return_exemplars=True)``), which is how a p99 bucket links back to
the recorded trace of the request that filled it.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterator

#: fixed log-scale latency buckets, 1 µs → 10 s (1/2.5/5 per decade)
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    round(10.0**exponent * mantissa, 12)
    for exponent in range(-6, 1)
    for mantissa in (1.0, 2.5, 5.0)
) + (10.0,)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: label values as stored on a child series: a tuple aligned with labelnames
LabelValues = tuple[str, ...]


def format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr, inf as +Inf."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labelnames: tuple[str, ...], values: LabelValues) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{escape_label_value(value)}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + pairs + "}"


@dataclass(frozen=True)
class Exemplar:
    """One exemplar: the label set and observed value pinned to a bucket.

    ``labels`` correlates the sample with an external identity — in this
    repo always ``{"trace_id": ...}``, linking a latency bucket to the span
    tree of the request that landed there.
    """

    labels: tuple[tuple[str, str], ...]
    value: float

    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def render(self) -> str:
        pairs = ",".join(
            f'{name}="{escape_label_value(value)}"' for name, value in self.labels
        )
        return f"# {{{pairs}}} {format_value(self.value)}"


class Metric:
    """One metric family: a name, a help string, and labeled child series."""

    type_name = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[LabelValues, Any] = {}
        self._children_lock = threading.Lock()

    def labels(self, **labelvalues: Any):
        """The child series for one label-value combination (created lazily).

        Creation is locked so two threads racing on a new series always get
        the *same* child — a lost duplicate would silently drop every sample
        recorded into it.  The hit path stays a lock-free dict get.
        """
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} requires labels {self.labelnames}, got "
                f"{tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._children_lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._new_child()
        return child

    def _default_child(self):
        """The single unlabeled series (for zero-label families)."""
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled; use .labels(...)")
        return self.labels()

    def _new_child(self):  # pragma: no cover - subclasses override
        raise NotImplementedError

    def series(self) -> list[tuple[LabelValues, Any]]:
        """Children sorted by label values (the deterministic iteration order)."""
        return sorted(self._children.items())

    def samples(
        self,
    ) -> Iterator[tuple[str, tuple[str, ...], LabelValues, float, "Exemplar | None"]]:
        """(sample name, labelnames, labelvalues, value, exemplar) per line.

        The exemplar slot is None everywhere except histogram ``_bucket``
        samples whose bucket holds one.
        """
        raise NotImplementedError  # pragma: no cover - subclasses override


class _CounterChild:
    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        # inc is a read-modify-write; threads sharing a series must not lose one
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount

    def sync(self, total: float) -> None:
        """Set the total a source's snapshot holds (a scrape's exports only)."""
        self.value = float(total)


class Counter(Metric):
    type_name = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def samples(self):
        for values, child in self.series():
            yield self.name, self.labelnames, values, child.value, None


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(Metric):
    type_name = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def samples(self):
        for values, child in self.series():
            yield self.name, self.labelnames, values, child.value, None


class _HistogramChild:
    __slots__ = (
        "buckets", "counts", "sum", "count", "min", "max", "exemplars", "_lock"
    )

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last slot: > max bucket (+Inf)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        #: bucket index → latest Exemplar observed into that bucket
        self.exemplars: dict[int, Exemplar] = {}
        # observe mutates several fields; concurrent workers push the
        # request-latency histogram, and sum/count must never tear apart
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: dict[str, Any] | None = None) -> None:
        with self._lock:
            index = bisect_left(self.buckets, value)
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if exemplar:
                # latest-wins per bucket: the freshest trace that landed here
                self.exemplars[index] = Exemplar(
                    labels=tuple(
                        (str(k), str(v)) for k, v in sorted(exemplar.items())
                    ),
                    value=float(value),
                )

    def cumulative(self) -> list[int]:
        """Cumulative counts per upper bound, +Inf last (exposition shape)."""
        out, running = [], 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def aggregates(self) -> tuple[int, float, float, float]:
        """``(count, sum, min, max)`` of one moment, read under the lock."""
        with self._lock:
            return self.count, self.sum, self.min, self.max

    def exemplars_snapshot(self) -> dict[int, Exemplar]:
        """Bucket index → exemplar, copied under the lock."""
        with self._lock:
            return dict(self.exemplars)


class Histogram(Metric):
    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        *,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly increasing")
        if "le" in labelnames:
            raise ValueError("'le' is reserved for histogram buckets")
        self.buckets = tuple(float(b) for b in buckets)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, exemplar: dict[str, Any] | None = None) -> None:
        self._default_child().observe(value, exemplar)

    def samples(self):
        bucket_labels = self.labelnames + ("le",)
        bounds = [format_value(b) for b in self.buckets] + ["+Inf"]
        for values, child in self.series():
            exemplars = child.exemplars_snapshot()
            for index, (bound, cumulative) in enumerate(zip(bounds, child.cumulative())):
                yield (
                    f"{self.name}_bucket",
                    bucket_labels,
                    values + (bound,),
                    cumulative,
                    exemplars.get(index),
                )
            yield f"{self.name}_sum", self.labelnames, values, child.sum, None
            yield f"{self.name}_count", self.labelnames, values, child.count, None


class MetricsRegistry:
    """All metric families of one process, by name; get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.type_name}{existing.labelnames}"
                )
            return existing
        metric = cls(name, help, tuple(labelnames), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str, labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str, labelnames=(), *, buckets=DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def overlay(self) -> "MetricsRegistry":
        """A new registry starting from this one's families (shared, not
        copied): what is added to it never shows here."""
        over = MetricsRegistry()
        over._metrics.update(self._metrics)
        return over

    def metrics(self) -> list[Metric]:
        """Families sorted by name (the deterministic family order)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Deterministic plain-dict view of every family and series."""
        out: dict[str, dict[str, Any]] = {}
        for metric in self.metrics():
            out[metric.name] = {
                "type": metric.type_name,
                "help": metric.help,
                "samples": [
                    {
                        "name": sample_name,
                        "labels": dict(zip(labelnames, values)),
                        "value": value,
                        # exemplar key present only when the bucket holds one,
                        # so exemplar-free snapshots keep their legacy shape
                        **(
                            {
                                "exemplar": {
                                    "labels": exemplar.labels_dict(),
                                    "value": exemplar.value,
                                }
                            }
                            if exemplar is not None
                            else {}
                        ),
                    }
                    for sample_name, labelnames, values, value, exemplar
                    in metric.samples()
                ],
            }
        return out

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4 for every family.

        Histogram buckets holding an exemplar render the OpenMetrics-style
        ``# {labels} value`` suffix after the sample value.
        """
        lines: list[str] = []
        for metric in self.metrics():
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            for sample_name, labelnames, values, value, exemplar in metric.samples():
                line = (
                    f"{sample_name}{_render_labels(labelnames, values)} "
                    f"{format_value(value)}"
                )
                if exemplar is not None:
                    line += f" {exemplar.render()}"
                lines.append(line)
        return "\n".join(lines) + "\n"


# -- exposition parsing (test/smoke support) -----------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: # \{(?P<exemplar_labels>[^}]*)\} (?P<exemplar_value>[^ ]+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def _parse_labels(labels_text: str, lineno: int) -> dict[str, str]:
    """Strict label-pair parse shared by sample labels and exemplar labels."""
    labels: dict[str, str] = {}
    consumed = 0
    for pair in _LABEL_PAIR_RE.finditer(labels_text):
        labels[pair.group("name")] = (
            pair.group("value")
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
        consumed += 1
    if consumed != labels_text.count("=") or consumed == 0:
        raise ValueError(f"line {lineno}: malformed labels: {labels_text!r}")
    return labels


def parse_exposition(
    text: str, *, return_exemplars: bool = False
) -> dict[str, dict[frozenset, float]] | tuple[
    dict[str, dict[frozenset, float]], dict[str, dict[frozenset, dict[str, Any]]]
]:
    """Parse Prometheus text format into ``{sample name: {labels: value}}``.

    Strict by design: every non-comment line must match the exposition
    grammar, every sample must belong to a family announced by a preceding
    ``# TYPE`` line, and duplicate series are rejected.  Raises
    :class:`ValueError` on any violation — the telemetry smoke test uses
    this as the "/metrics parses" gate.

    An OpenMetrics-style ``# {labels} value`` exemplar suffix is accepted on
    histogram ``_bucket`` samples only (rejected anywhere else).  With
    ``return_exemplars=True`` the result is ``(samples, exemplars)`` where
    the second dict maps ``{sample name: {labels: {"labels", "value"}}}`` —
    the round-trip surface the exemplar tests assert against.
    """
    families: dict[str, str] = {}
    out: dict[str, dict[frozenset, float]] = {}
    exemplars: dict[str, dict[frozenset, dict[str, Any]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line: {line!r}")
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE line")
        labels_text = match.group("labels") or ""
        labels: dict[str, str] = {}
        if labels_text:
            labels = _parse_labels(labels_text, lineno)
        key = frozenset(labels.items())
        series = out.setdefault(name, {})
        if key in series:
            raise ValueError(f"line {lineno}: duplicate series: {line!r}")
        series[key] = _parse_value(match.group("value"))
        exemplar_labels = match.group("exemplar_labels")
        if exemplar_labels is not None:
            if families[family] != "histogram" or not name.endswith("_bucket"):
                raise ValueError(
                    f"line {lineno}: exemplar on a non-bucket sample: {line!r}"
                )
            exemplars.setdefault(name, {})[key] = {
                "labels": _parse_labels(exemplar_labels, lineno),
                "value": _parse_value(match.group("exemplar_value")),
            }
    if return_exemplars:
        return out, exemplars
    return out
