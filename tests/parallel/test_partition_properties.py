"""Property tests for weighted SFC partitioning (seeded stdlib random).

Random complete forests, random skewed ownership, random integer weights —
every trial must uphold the partition invariants:

* **conservation** — no octant is lost or duplicated by migration, and no
  payload is altered, even over a lossy interconnect that drops and
  duplicates the migration batches;
* **contiguity** — each rank's piece stays a contiguous range of the
  Z-order curve, in rank order;
* **balance bound** — the weighted load of every rank after a cut is at
  most ``mean_load + max_weight`` (Salmon's bound for unsplittable
  octants), i.e. imbalance is bounded by ``1 + max_weight / mean_load``.

Everything derives from one pinned seed; failures replay exactly.
"""

import random

import numpy as np

from repro.config import TITAN
from repro.errors import ConsistencyError
from repro.octree import morton
from repro.parallel.faults import FaultyNetwork, LinkFaults, NetworkFaultPlan
from repro.parallel.network import Network
from repro.parallel.partition import repartition
from repro.parallel.sfc import weighted_cut_indices
from repro.parallel.simmpi import RankContext, SimCommunicator
from tests.octree.bottom_up import complete

SEED = 20170806
TRIALS = 20


def _comm(nranks, fault_plan=None):
    net = Network(TITAN.network)
    if fault_plan is not None:
        net = FaultyNetwork(net, fault_plan)
    return SimCommunicator(
        [RankContext(rank=r, node=r) for r in range(nranks)], net)


def _random_forest(rng, dim=2, max_level=4):
    """A random complete linear octree (retrying overlapping seed draws)."""
    while True:
        nseeds = rng.randint(2, 6)
        seeds = set()
        for _ in range(nseeds):
            level = rng.randint(1, max_level)
            coords = tuple(rng.randrange(1 << level) for _ in range(dim))
            seeds.add(morton.loc_from_coords(level, coords, dim))
        try:
            lin = complete(dim, seeds, max_level=max_level)
        except ConsistencyError:
            continue
        # give every leaf a distinct payload so tearing is detectable
        lin.payloads = np.arange(4 * len(lin), dtype=np.float64)\
            .reshape(len(lin), 4)
        return lin


def _random_case(rng, nranks):
    """(lin, skewed contiguous pieces, random integer weights)."""
    lin = _random_forest(rng)
    n = len(lin)
    bounds = [0] + sorted(rng.randrange(n + 1)
                          for _ in range(nranks - 1)) + [n]
    pieces = [lin.slice(bounds[r], bounds[r + 1]) for r in range(nranks)]
    weights = [
        np.array([1.0 + rng.randrange(8) for _ in range(len(p))])
        for p in pieces
    ]
    return lin, pieces, weights


def _signature(pieces):
    """{loc: payload tuple} over all pieces; asserts no duplicates."""
    sig = {}
    for piece in pieces:
        for i, loc in enumerate(piece.locs):
            loc = int(loc)
            assert loc not in sig, f"octant {loc:#x} duplicated"
            sig[loc] = tuple(piece.payloads[i])
    return sig


def test_octant_conservation():
    rng = random.Random(SEED)
    for trial in range(TRIALS):
        nranks = rng.randint(2, 6)
        lin, pieces, weights = _random_case(rng, nranks)
        before = _signature(pieces)
        res = repartition(_comm(nranks), pieces, weights=weights)
        after = _signature(res.pieces)
        assert after == before, f"trial {trial}: migration altered the forest"


def test_octant_conservation_under_faulty_network():
    """Dropped and duplicated migration batches must not lose, duplicate,
    or tear octants — retransmits and journal-keyed publishes absorb them."""
    rng = random.Random(SEED + 1)
    for trial in range(TRIALS):
        nranks = rng.randint(2, 6)
        lin, pieces, weights = _random_case(rng, nranks)
        before = _signature(pieces)
        plan = NetworkFaultPlan(
            seed=SEED + trial,
            default=LinkFaults(drop=0.3, duplicate=0.25, delay=0.2,
                               delay_ns=10_000.0),
        )
        res = repartition(_comm(nranks, plan), pieces, weights=weights)
        after = _signature(res.pieces)
        assert after == before, f"trial {trial}: lossy migration diverged"
        if res.octants_moved:
            assert res.send_retries >= 0


def test_pieces_stay_sfc_contiguous():
    rng = random.Random(SEED + 2)
    for trial in range(TRIALS):
        nranks = rng.randint(2, 6)
        lin, pieces, weights = _random_case(rng, nranks)
        res = repartition(_comm(nranks), pieces, weights=weights)
        prev_max = -1
        for piece in res.pieces:
            if not len(piece):
                continue
            keys = [int(k) for k in piece.keys]
            assert keys == sorted(keys)
            assert keys[0] > prev_max, \
                f"trial {trial}: rank ranges interleave on the curve"
            prev_max = keys[-1]


def test_weighted_imbalance_bound():
    """After a cut: max rank load <= mean load + max single-octant weight."""
    rng = random.Random(SEED + 3)
    for trial in range(TRIALS):
        nranks = rng.randint(2, 6)
        lin, pieces, weights = _random_case(rng, nranks)
        res = repartition(_comm(nranks), pieces, weights=weights)
        loads = res.weighted_loads
        mean = sum(loads) / len(loads)
        assert max(loads) <= mean + res.max_weight + 1e-9, \
            f"trial {trial}: {max(loads)} > {mean} + {res.max_weight}"
        assert res.imbalance_after <= 1.0 + res.max_weight / mean + 1e-9
        assert res.balanced


def test_cut_indices_bound_directly():
    """The same bound holds for raw weighted_cut_indices on random arrays."""
    rng = random.Random(SEED + 4)
    for _ in range(200):
        n = rng.randint(1, 60)
        parts = rng.randint(1, 8)
        w = [float(1 + rng.randrange(16)) for _ in range(n)]
        bounds = weighted_cut_indices(w, parts)
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        target = sum(w) / parts
        for r in range(parts):
            load = sum(w[bounds[r]:bounds[r + 1]])
            assert load <= target + max(w) + 1e-9


def test_threshold_skips_balanced_forest():
    """A near-balanced forest under the threshold moves nothing at all."""
    rng = random.Random(SEED + 5)
    lin = _random_forest(rng)
    n = len(lin)
    nranks = 4
    bounds = [round(r * n / nranks) for r in range(nranks + 1)]
    pieces = [lin.slice(bounds[r], bounds[r + 1]) for r in range(nranks)]
    before = _signature(pieces)
    res = repartition(_comm(nranks), pieces, threshold=1.5)
    assert res.skipped
    assert res.octants_moved == 0 and res.bytes_moved == 0
    assert _signature(res.pieces) == before
