"""Simulated communicator semantics."""

import pytest

from repro.config import GEMINI_SPEC
from repro.errors import AllRanksDeadError, NetworkPartitionError
from repro.nvbm.clock import Category
from repro.parallel.faults import FaultyNetwork, NetworkFaultPlan
from repro.parallel.network import Network
from repro.parallel.simmpi import RankContext, SimCommunicator


def _comm(n):
    ranks = [RankContext(rank=i) for i in range(n)]
    return SimCommunicator(ranks, Network(GEMINI_SPEC)), ranks


def test_requires_ranks():
    with pytest.raises(ValueError):
        SimCommunicator([], Network(GEMINI_SPEC))


def test_barrier_synchronises_clocks():
    comm, ranks = _comm(4)
    ranks[2].clock.advance(1000.0)
    comm.barrier()
    times = {r.clock.now_ns for r in ranks}
    assert len(times) == 1
    assert times.pop() > 1000.0  # barrier itself costs something


def test_barrier_charges_wait_as_comm():
    comm, ranks = _comm(2)
    ranks[0].clock.advance(500.0, Category.COMPUTE)
    comm.barrier()
    assert ranks[1].clock.category_ns(Category.COMM) >= 500.0


def test_allgather():
    comm, _ = _comm(3)
    assert comm.allgather(["a", "b", "c"]) == ["a", "b", "c"]


def test_single_rank_collectives_are_cheap():
    comm, ranks = _comm(1)
    comm.barrier()
    assert comm.allgather([7]) == [7]
    assert ranks[0].clock.now_ns == 0.0  # log2(1) == 0 stages


def test_makespan():
    comm, ranks = _comm(3)
    ranks[1].clock.advance(999.0)
    assert comm.makespan_ns() == 999.0


def test_phase_breakdown_is_max_over_ranks():
    comm, ranks = _comm(2)
    with ranks[0].clock.phase("refine"):
        ranks[0].clock.advance(100.0)
    with ranks[1].clock.phase("refine"):
        ranks[1].clock.advance(250.0)
    assert comm.phase_breakdown()["refine"] == 250.0


def test_dead_ranks_excluded():
    comm, ranks = _comm(3)
    ranks[1].alive = False
    assert comm.allgather([1, 1]) == [1, 1]  # only two live ranks contribute


def test_all_ranks_dead_is_typed():
    comm, ranks = _comm(3)
    for r in ranks:
        r.alive = False
    with pytest.raises(AllRanksDeadError) as exc:
        comm.barrier()
    assert exc.value.dead_ranks == [0, 1, 2]
    with pytest.raises(AllRanksDeadError):
        comm.makespan_ns()
    with pytest.raises(AllRanksDeadError):
        comm.allgather([])


def _faulty_comm(n, plan):
    ranks = [RankContext(rank=i) for i in range(n)]
    net = FaultyNetwork(Network(GEMINI_SPEC), plan)
    return SimCommunicator(ranks, net), ranks


def test_barrier_across_partition_raises():
    plan = NetworkFaultPlan(seed=0)
    comm, ranks = _faulty_comm(4, plan)
    w = plan.start_partition([[0, 1], [2, 3]], now_ns=0.0)
    with pytest.raises(NetworkPartitionError) as exc:
        comm.barrier()
    assert exc.value.groups == ((0, 1), (2, 3))
    # collectives funnel through the barrier, so they refuse too
    with pytest.raises(NetworkPartitionError):
        comm.allgather([1, 1, 1, 1])
    w.heal(max(r.clock.now_ns for r in ranks))
    comm.barrier()  # healed: business as usual


def test_partition_of_dead_ranks_does_not_block():
    plan = NetworkFaultPlan(seed=0)
    comm, ranks = _faulty_comm(4, plan)
    plan.start_partition([[0, 1], [2, 3]], now_ns=0.0)
    ranks[2].alive = False
    ranks[3].alive = False
    # the unreachable side is dead, not partitioned-away: the survivors
    # form one component and the collective proceeds
    comm.barrier()
    assert comm.allgather([1, 1]) == [1, 1]
