"""Network cost model tests."""


import pytest

from repro.config import GEMINI_SPEC, INFINIBAND_SPEC, NetworkSpec
from repro.parallel.network import Network


def test_p2p_latency_plus_bandwidth():
    net = Network(GEMINI_SPEC)
    t0 = net.p2p_ns(0)
    assert t0 == 0.0  # empty messages are free in the model
    t1 = net.p2p_ns(1)
    assert t1 >= GEMINI_SPEC.latency_us * 1e3
    big = net.p2p_ns(6_000_000_000)  # one second of bandwidth
    assert big == pytest.approx(1e9 + GEMINI_SPEC.latency_us * 1e3, rel=1e-6)


def test_p2p_monotone_in_size():
    net = Network(GEMINI_SPEC)
    sizes = [1, 100, 10_000, 1_000_000]
    times = [net.p2p_ns(s) for s in sizes]
    assert times == sorted(times)


def test_collective_log_depth():
    net = Network(GEMINI_SPEC)
    assert net.collective_ns(8, 1) == 0.0
    t2 = net.collective_ns(8, 2)
    t1024 = net.collective_ns(8, 1024)
    assert t1024 == pytest.approx(10 * t2)  # log2(1024) = 10 stages


def test_collective_rounds_up_ranks():
    net = Network(GEMINI_SPEC)
    # 5 ranks need ceil(log2 5) = 3 stages
    t5 = net.collective_ns(8, 5)
    t8 = net.collective_ns(8, 8)
    assert t5 == t8


def test_counters():
    net = Network(GEMINI_SPEC)
    net.p2p_ns(100)
    net.p2p_ns(200)
    net.collective_ns(8, 4)
    assert net.messages == 2 + 2  # two p2p + log2(4) stages
    assert net.bytes_moved == 100 + 200 + 2 * 8


def test_barrier_is_one_small_collective():
    net = Network(GEMINI_SPEC)
    assert net.barrier_ns(16) == pytest.approx(
        Network(GEMINI_SPEC).collective_ns(8, 16)
    )


def test_infiniband_faster_latency():
    assert INFINIBAND_SPEC.transfer_ns(0) == 0.0
    assert INFINIBAND_SPEC.transfer_ns(8) < GEMINI_SPEC.transfer_ns(8)


def test_custom_spec():
    spec = NetworkSpec(name="toy", latency_us=10.0, bandwidth_gbps=1.0)
    assert spec.transfer_ns(1_000_000_000) == pytest.approx(1e9 + 1e4)
