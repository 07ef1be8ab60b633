"""Tests for the generic 5-stage pipeline: ordering, overlap, buffering."""

import pytest

from repro.core.pipeline import Pipeline, pull_each
from repro.simt import Simulator, Timeline


def build_pipeline(buffering, n_items, t_read, t_kernel, t_output,
                   t_stage=None, t_retrieve=None):
    """Pipeline whose stages are fixed-duration timeouts; returns metrics."""
    sim = Simulator()
    tl = Timeline()
    log = []

    def mk(stage, dur):
        def fn(payload):
            log.append((stage, "start", sim.now, payload))
            if dur:
                yield sim.timeout(dur)
            log.append((stage, "end", sim.now, payload))
            return payload
        return fn

    pipe = Pipeline(
        sim, tl, name="test", instance="n0", buffering=buffering,
        pull_fn=pull_each(range(n_items)),
        read_fn=mk("read", t_read),
        kernel_fn=mk("kernel", t_kernel),
        output_fn=mk("output", t_output),
        stage_fn=mk("stage", t_stage) if t_stage is not None else None,
        retrieve_fn=mk("retrieve", t_retrieve) if t_retrieve is not None else None,
    )
    pipe.run()
    sim.run()
    return sim, tl, pipe, log


def test_all_items_flow_through():
    sim, tl, pipe, log = build_pipeline(2, 5, 1.0, 1.0, 1.0)
    assert pipe.outputs == [0, 1, 2, 3, 4]
    assert len(tl.by_category("test.input")) == 5
    assert len(tl.by_category("test.output")) == 5


def test_empty_pipeline_completes_instantly():
    sim, tl, pipe, log = build_pipeline(2, 0, 1.0, 1.0, 1.0)
    assert sim.now == 0.0
    assert pipe.outputs == []
    assert pipe.elapsed == 0.0


def test_double_buffering_overlaps_stages():
    """With B=2 the elapsed time approaches max-stage x items, not the sum."""
    sim, tl, pipe, _ = build_pipeline(2, 6, 1.0, 1.0, 1.0)
    # Perfect pipelining: fill (2) + 6 kernel slots -> ~8, far below 18.
    assert pipe.elapsed <= 9.0
    assert pipe.elapsed >= 6.0  # bounded below by the dominant stage


def test_single_buffering_serializes_input_group():
    """B=1: read(i+1) cannot start until kernel(i) released the buffer."""
    sim, tl, pipe, log = build_pipeline(1, 4, 1.0, 1.0, 0.1)
    reads = [e for e in log if e[0] == "read"]
    kernels = {e[3]: e[2] for e in log if e[0] == "kernel" and e[1] == "end"}
    for stage, kind, t, item in reads:
        if kind == "start" and item > 0:
            # read of item i starts only after kernel of item i-1 ended
            assert t >= kernels[item - 1] - 1e-9
    # Elapsed ~= sum(read) + sum(kernel) (the paper's single-buffer column).
    assert pipe.elapsed == pytest.approx(8.0, abs=0.5)


def test_single_buffer_output_still_overlaps_input_group():
    """Input group and output group share no buffers: with B=1 the output
    stage (partitioning) still overlaps reads of the next chunk."""
    sim, tl, pipe, _ = build_pipeline(1, 4, 1.0, 1.0, 0.9)
    # If output were serialized with input+kernel, elapsed would be ~11.6.
    assert pipe.elapsed < 9.6


def test_dominant_stage_governs_elapsed():
    """Elapsed ≈ dominant stage when pipelined (the paper's key claim)."""
    sim, tl, pipe, _ = build_pipeline(3, 10, 0.2, 2.0, 0.2)
    kernel_total = 10 * 2.0
    assert pipe.elapsed == pytest.approx(kernel_total, rel=0.15)


def test_stage_and_retrieve_disabled_pass_through():
    sim, tl, pipe, _ = build_pipeline(2, 3, 0.5, 0.5, 0.5)
    # Pass-throughs cost no time but still leave zero-length marker spans
    # so traces/reports always see the full five-stage shape.
    for cat in ("test.stage", "test.retrieve"):
        spans = tl.by_category(cat)
        assert len(spans) == 3
        assert all(s.duration == 0.0 for s in spans)
        assert all(s.meta.get("passthrough") for s in spans)
        assert tl.occupied_time(cat) == 0.0
    assert pipe.outputs == [0, 1, 2]


def test_five_stage_pipeline_with_transfers():
    sim, tl, pipe, _ = build_pipeline(2, 4, 0.5, 0.5, 0.5,
                                      t_stage=0.2, t_retrieve=0.2)
    assert len(tl.by_category("test.stage")) == 4
    assert len(tl.by_category("test.retrieve")) == 4


def test_items_processed_in_order():
    sim, tl, pipe, log = build_pipeline(3, 6, 0.3, 0.7, 0.2)
    kernel_starts = [e[3] for e in log if e[0] == "kernel" and e[1] == "start"]
    assert kernel_starts == sorted(kernel_starts)
    assert pipe.outputs == list(range(6))


def test_invalid_buffering_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Pipeline(sim, Timeline(), "x", "n0", 0, pull_each([]), None, None,
                 None)


def test_elapsed_recorded_in_timeline():
    sim, tl, pipe, _ = build_pipeline(2, 3, 1.0, 1.0, 1.0)
    spans = tl.by_category("test.elapsed")
    assert len(spans) == 1
    assert spans[0].duration == pipe.elapsed


def test_overlap_invariant_sum_exceeds_elapsed():
    """Pipelining means the sum of stage busy times exceeds elapsed."""
    sim, tl, pipe, _ = build_pipeline(2, 8, 1.0, 1.0, 1.0)
    total = sum(tl.occupied_time(f"test.{s}")
                for s in ("input", "kernel", "output"))
    assert total > pipe.elapsed * 1.5


def test_pull_happens_before_the_input_slot():
    """The input stage pulls item k+1 while item k still holds the only
    input slot (B=1), so a pull that waits never sits on a buffer."""
    sim = Simulator()
    log = []
    items = iter(range(4))

    def pull():
        yield from ()
        item = next(items, Pipeline.END)
        log.append(("pull", item, pipe.in_pool.outstanding))
        return item

    def stage(name, dur):
        def fn(payload):
            yield sim.timeout(dur)
            log.append((name, payload))
            return payload
        return fn

    pipe = Pipeline(sim, Timeline(), "test", "n0", 1, pull,
                    read_fn=stage("read", 1.0),
                    kernel_fn=stage("kernel", 1.0),
                    output_fn=stage("output", 0.1))
    pipe.run()
    sim.run()
    assert pipe.outputs == [0, 1, 2, 3]
    for k in range(3):
        pulled = log.index(("pull", k + 1, 1))    # slot held by item k
        assert pulled < log.index(("kernel", k))  # kernel k frees it
    assert [e for e in log if e[0] == "pull"][-1][1] is Pipeline.END


def test_pull_end_stops_the_stream_without_taking_a_slot():
    sim = Simulator()

    def pull():
        yield sim.timeout(0.5)      # a pull may wait, e.g. at a pool gate
        return Pipeline.END

    pipe = Pipeline(sim, Timeline(), "test", "n0", 2, pull,
                    read_fn=None, kernel_fn=None, output_fn=None)
    pipe.run()
    sim.run()
    assert pipe.outputs == []
    assert pipe.elapsed == 0.5
    assert pipe.in_pool.acquired == 0
