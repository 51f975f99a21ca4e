"""The correctness oracle: a trivially-correct model of what the registry answers.

Discovery answers are recomputed by brute force from the benchmark's own
inputs — each bound host's current sample is tested against the service's
constraint in structured form (:class:`workloads.Limits`), the survivors are
sorted by ``(load, publisher position)``, and FILTER/PREFER semantics are
applied.  Ad-hoc answers are compared with the program's planner-off scan
engine, which the planner, plan cache and result view must never disagree
with.  After a run with writes, replaying the changelog into an empty store
must reproduce the heap exactly.

Verification runs on recorded answers, after the timed phases.
"""

from __future__ import annotations

from repro.core import BalanceMode
from repro.persistence import DataStore
from repro.query import QueryEngine
from repro.soap import serialize

from workloads import Inputs, Limits, Samples

#: columns of an ad-hoc row that no benchmark write ever changes
STABLE_COLUMNS = ("id", "name", "count")


def satisfied(limits: Limits, sample: tuple[float, int, int]) -> bool:
    load, memory, swap = sample
    if not load < limits.load_below:
        return False
    if limits.memory_above is not None and not memory > limits.memory_above:
        return False
    if limits.swap_above is not None and not swap > limits.swap_above:
        return False
    return True


def expected_uris(
    bindings: tuple[tuple[str, str, str], ...],
    limits: Limits,
    samples: Samples,
    mode: BalanceMode,
    minute_of_day: int,
) -> list[str]:
    """The access URIs a correct registry returns, in order."""
    publisher = [uri for _id, _host, uri in bindings]
    if limits.window is not None:
        start, end = limits.window
        if not start <= minute_of_day <= end:
            return publisher
    ranked = sorted(
        (
            (samples[host][0], position, uri)
            for position, (_id, host, uri) in enumerate(bindings)
            if host in samples and satisfied(limits, samples[host])
        )
    )
    first = [uri for _load, _position, uri in ranked]
    if mode is BalanceMode.FILTER:
        return first or publisher
    chosen = set(first)
    return first + [uri for uri in publisher if uri not in chosen]


class Oracle:
    """Judges recorded answers against the model; counts every mismatch."""

    def __init__(self, inputs: Inputs, store: DataStore) -> None:
        self.inputs = inputs
        self.scan = QueryEngine(store, planner=False)
        self.checked = 0
        self.mismatches: list[str] = []
        self._samples: dict[int, Samples] = {-1: inputs.static_samples}
        self._adhoc: dict[str, list] = {}

    def samples_of(self, sweep_index: int) -> Samples:
        samples = self._samples.get(sweep_index)
        if samples is None:
            samples = self._samples[sweep_index] = self.inputs.sweep_samples(
                sweep_index
            )
        return samples

    def check_discovery(
        self, request, answer, sweep_index: int, minute_of_day: int
    ) -> None:
        self.checked += 1
        item = self.inputs.services[request.service]
        got = [binding.access_uri for binding in answer.objects]
        if request.limits is None:
            # another client may be rewriting this constraint: PREFER still
            # returns every binding, in some order
            if sorted(got) != sorted(uri for _i, _h, uri in item.bindings):
                self.mismatches.append(f"{item.name}: not a permutation of its bindings")
            return
        want = expected_uris(
            item.bindings,
            request.limits,
            self.samples_of(sweep_index),
            self.inputs.spec.mode,
            minute_of_day,
        )
        if got != want:
            self.mismatches.append(
                f"{item.name} sweep {sweep_index}: got {got[:3]}… want {want[:3]}…"
            )

    def check_adhoc(self, request, answer) -> None:
        self.checked += 1
        text = request.body.query
        want = self._adhoc.get(text)
        if want is None:
            want = self._adhoc[text] = self.scan.execute(text)
        got = answer.body.rows
        if self.inputs.spec.writes:
            # rows are judged on the columns writes leave alone; the rest
            # (description, version) legitimately move under the reader
            got, want = _stable(got), _stable(want)
        if got != want or answer.body.total_result_count != len(want):
            self.mismatches.append(f"ad-hoc answer differs from scan: {text}")

    def check(self, records: list[tuple]) -> None:
        for request, answer, sweep_index, minute_of_day in records:
            if request.kind == "discovery":
                self.check_discovery(request, answer, sweep_index, minute_of_day)
            elif request.kind == "adhoc":
                self.check_adhoc(request, answer)

    def check_replay(self, store: DataStore) -> None:
        """The changelog, replayed into an empty store, rebuilds the heap."""
        self.checked += 1
        rebuilt = DataStore()
        store.changelog.replay_into(rebuilt)
        live = sorted(store.all_ids())
        if live != sorted(rebuilt.all_ids()):
            self.mismatches.append("changelog replay: object ids differ from the heap")
            return
        for object_id in live:
            if serialize(rebuilt.get_object(object_id)) != serialize(
                store.get_object(object_id)
            ):
                self.mismatches.append(f"changelog replay: {object_id} differs")
                return


def _stable(rows: list[dict]) -> list[dict]:
    return [
        {key: row[key] for key in STABLE_COLUMNS if key in row} for row in rows
    ]
