"""Property-based tests of pipeline invariants under random timings."""

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import Pipeline, pull_each
from repro.simt import Simulator, Timeline


def run_random_pipeline(durations, buffering):
    """Pipeline whose per-item stage durations are given; returns facts."""
    sim = Simulator()
    tl = Timeline()

    def stage(kind):
        def fn(payload):
            idx = payload if isinstance(payload, int) else payload
            yield sim.timeout(durations[idx][kind])
            return idx
        return fn

    pipe = Pipeline(sim, tl, name="p", instance="n", buffering=buffering,
                    pull_fn=pull_each(range(len(durations))),
                    read_fn=stage(0), kernel_fn=stage(1),
                    output_fn=stage(2))
    pipe.run()
    sim.run()
    return sim, tl, pipe


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0),
                          st.floats(0.01, 2.0)),
                min_size=1, max_size=10),
       st.integers(min_value=1, max_value=3))
def test_pipeline_invariants(durations, buffering):
    sim, tl, pipe = run_random_pipeline(durations, buffering)

    # 1. All items delivered, in order.
    assert pipe.outputs == list(range(len(durations)))

    # 2. Elapsed is bounded below by every single stage's total and by
    #    the per-item critical path, and above by full serialisation.
    reads = sum(d[0] for d in durations)
    kernels = sum(d[1] for d in durations)
    outputs = sum(d[2] for d in durations)
    total = reads + kernels + outputs
    longest_item = max(sum(d) for d in durations)
    assert pipe.elapsed >= max(kernels, longest_item) - 1e-9
    assert pipe.elapsed <= total + 1e-9

    # 3. Higher buffering can only help (monotone non-increasing).
    if buffering < 3:
        _, _, wider = run_random_pipeline(durations, buffering + 1)
        assert wider.elapsed <= pipe.elapsed + 1e-9

    # 4. Kernel spans never overlap each other (one kernel stage).
    spans = sorted(tl.by_category("p.kernel"), key=lambda s: s.start)
    for a, b in zip(spans, spans[1:]):
        assert a.end <= b.start + 1e-9

    # 5. With single buffering, reads serialise against kernels.
    if buffering == 1:
        rspans = sorted(tl.by_category("p.input"), key=lambda s: s.start)
        kspans = sorted(tl.by_category("p.kernel"), key=lambda s: s.start)
        for r, k in zip(rspans[1:], kspans):
            assert r.start >= k.end - 1e-9
