"""Property-based tests for the simulation substrate invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Host, SimEngine, Task


# -- engine ordering ----------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=40))
def test_engine_fires_in_nondecreasing_time_order(delays):
    engine = SimEngine()
    fired: list[float] = []
    for delay in delays:
        engine.schedule(delay, lambda: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# -- host conservation laws -------------------------------------------------------

task_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=50.0, allow_nan=False),  # cpu
        st.integers(min_value=0, max_value=1 << 30),  # memory
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),  # arrival
    ),
    min_size=1,
    max_size=25,
)


@given(specs=task_specs, cores=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_host_work_conservation_and_memory_restoration(specs, cores):
    engine = SimEngine()
    host = Host("h", engine, cores=cores, memory_total=4 << 30, swap_total=4 << 30)
    accepted = []

    def submit(cpu, memory):
        task = Task(cpu_seconds=cpu, memory=memory)
        if host.submit(task):
            accepted.append(task)

    for cpu, memory, arrival in specs:
        engine.schedule_at(arrival, lambda c=cpu, m=memory: submit(c, m))
    engine.run(max_events=100_000)
    # every accepted task completed with response >= ideal service time
    assert host.tasks_completed == len(accepted)
    for task in accepted:
        assert task.response_time is not None
        assert task.response_time >= task.cpu_seconds - 1e-6
    # work done equals total demand
    total = sum(t.cpu_seconds for t in accepted)
    assert abs(host.work_done - total) < 1e-6 * max(1.0, total) + 1e-6
    # all memory returned
    assert host.memory_available() == 4 << 30
    assert host.swap_available() == 4 << 30
    assert host.run_queue_length == 0


@given(specs=task_specs)
@settings(max_examples=40, deadline=None)
def test_load_average_is_nonnegative_and_bounded(specs):
    engine = SimEngine()
    host = Host("h", engine, cores=1, memory_total=1 << 40, swap_total=1 << 40)
    peak_queue = 0
    for cpu, memory, arrival in specs:
        def submit(c=cpu, m=memory):
            nonlocal peak_queue
            host.submit(Task(cpu_seconds=c, memory=m))
            peak_queue = max(peak_queue, host.run_queue_length)

        engine.schedule_at(arrival, submit)
    engine.run(max_events=100_000)
    load = host.load_average()
    assert 0.0 <= load <= peak_queue + 1e-9

