"""Unit tests for trace spans on the simulated clock."""

import io
import json

import pytest

from repro.nvbm.clock import SimClock
from repro.obs.trace import Tracer


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


def test_span_times_simulated_clock(clock, tracer):
    with tracer.span("work") as sp:
        clock.advance(1234.0)
    assert not sp.open
    assert sp.duration_ns == 1234.0


def test_nested_spans_record_parent(clock, tracer):
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            clock.advance(10.0)
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert tracer.children_of(outer) == [inner]


def test_open_span_duration_raises(tracer):
    with tracer.span("w") as sp:
        with pytest.raises(ValueError):
            _ = sp.duration_ns
    assert sp.duration_ns == 0.0


def test_span_closes_on_exception(clock, tracer):
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            clock.advance(5.0)
            raise RuntimeError("x")
    (sp,) = [s for s in tracer.spans if s.name == "boom"]
    assert not sp.open
    assert sp.duration_ns == 5.0
    assert tracer._stack == []  # stack unwound


def test_unbound_clock_raises():
    t = Tracer()
    with pytest.raises(ValueError, match="no SimClock bound"):
        with t.span("w"):
            pass


def test_late_binding(clock):
    t = Tracer()
    t.bind_clock(clock)
    with t.span("w"):
        clock.advance(1.0)
    (sp,) = [s for s in t.spans if s.name == "w"]
    assert sp.duration_ns == 1.0


def test_keep_cap_drops_excess(clock):
    t = Tracer(clock=clock, keep=2)
    for i in range(5):
        with t.span(f"s{i}"):
            pass
    assert len(t.spans) == 2
    assert t.dropped == 3


def test_jsonl_export(clock, tracer):
    with tracer.span("a", step=1):
        clock.advance(7.0)
    fh = io.StringIO()
    assert tracer.export_jsonl(fh) == 1
    row = json.loads(fh.getvalue())
    assert row["name"] == "a"
    assert row["labels"] == {"step": 1}
    assert row["duration_ns"] == 7.0


def test_observability_bundle_binds_both():
    from repro.obs import Observability

    obs = Observability()
    clk = SimClock()
    obs.bind_clock(clk)
    assert obs.metrics.clock is clk
    assert obs.tracer.clock is clk
    with obs.tracer.span("w"):
        clk.advance(3.0)
    obs.metrics.counter("c").inc()
    m_out, t_out = io.StringIO(), io.StringIO()
    obs.export_jsonl(metrics_fh=m_out, trace_fh=t_out)
    assert json.loads(m_out.getvalue())["name"] == "c"
    assert json.loads(t_out.getvalue())["name"] == "w"
