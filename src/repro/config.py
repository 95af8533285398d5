"""Configuration objects: device characteristics, cluster and network specs.

The numeric defaults come straight from the paper:

* Table 2 — DRAM 60 ns read / 60 ns write, endurance > 1e16 writes/bit;
  NVBM 100 ns read / 150 ns write, endurance 1e6–1e8 writes/bit.
* §5.1 — Titan: 16-core AMD Opteron 6274 per node, 32 GB DRAM per node,
  Gemini interconnect.

Network numbers for Gemini are public approximations (the paper does not
give them): ~1.5 µs MPI latency, ~6 GB/s injection bandwidth per node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Size in bytes of one packed octant record in an arena (see
#: :mod:`repro.nvbm.records`).
OCTANT_RECORD_SIZE = 128

#: CPU cache-line size used by the latency model: each touched line of a
#: record costs one device access.
CACHE_LINE_SIZE = 64

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class DeviceSpec:
    """Latency/endurance characteristics of one memory technology."""

    name: str
    read_latency_ns: float
    write_latency_ns: float
    endurance_writes: float  #: per-cell write budget before wear-out
    volatile: bool

    def scaled(self, factor: float) -> "DeviceSpec":
        """Return a spec with both latencies multiplied by ``factor``.

        Used by sensitivity/ablation benches that explore slower or faster
        NVBM parts than Table 2's defaults.
        """
        return replace(
            self,
            read_latency_ns=self.read_latency_ns * factor,
            write_latency_ns=self.write_latency_ns * factor,
        )


#: Table 2, DRAM column.
DRAM_SPEC = DeviceSpec(
    name="DRAM",
    read_latency_ns=60.0,
    write_latency_ns=60.0,
    endurance_writes=1e16,
    volatile=True,
)

#: Table 2, NVBM column (write latency 2.5x DRAM as §1 states).
NVBM_SPEC = DeviceSpec(
    name="NVBM",
    read_latency_ns=100.0,
    write_latency_ns=150.0,
    endurance_writes=1e7,  # midpoint of 1e6 - 1e8
    volatile=False,
)


@dataclass(frozen=True)
class BlockDeviceSpec:
    """A page-granular storage device behind an I/O bus (for the baselines)."""

    name: str
    page_size: int
    read_latency_us: float  #: fixed per-page access latency
    write_latency_us: float
    bandwidth_gbps: float  #: sustained streaming bandwidth, GB/s


#: Spinning disk (what Etree was designed for).
DISK_SPEC = BlockDeviceSpec(
    name="HDD", page_size=4 * KB, read_latency_us=5000.0,
    write_latency_us=5000.0, bandwidth_gbps=0.15,
)

#: NVBM exposed behind a filesystem interface (§5.1: Etree octants are
#: "stored in NVBM and accessed via file-system interface").  Per-page
#: latency is the software-stack overhead of the filesystem path (a DAX-
#: style pmem filesystem, ~1 us per page op); the medium itself is fast.
NVBM_FS_SPEC = BlockDeviceSpec(
    name="NVBM-fs", page_size=4 * KB, read_latency_us=0.8,
    write_latency_us=1.0, bandwidth_gbps=8.0,
)

#: Shared parallel filesystem for in-core snapshots in the recovery study.
PFS_SPEC = BlockDeviceSpec(
    name="PFS", page_size=1 * MB, read_latency_us=500.0,
    write_latency_us=800.0, bandwidth_gbps=2.0,
)


@dataclass(frozen=True)
class NetworkSpec:
    """Point-to-point cost model for the interconnect: ``t = latency + bytes/bw``."""

    name: str
    latency_us: float
    bandwidth_gbps: float

    def transfer_ns(self, nbytes: int) -> float:
        """Time in ns to move ``nbytes`` point-to-point."""
        if nbytes <= 0:
            return 0.0
        return self.latency_us * 1e3 + nbytes / (self.bandwidth_gbps * 1e9) * 1e9


#: Titan's Gemini 3-D torus (approximate public numbers).
GEMINI_SPEC = NetworkSpec(name="Gemini", latency_us=1.5, bandwidth_gbps=6.0)

#: Kamiak's 56 Gb/s InfiniBand (§5.6).
INFINIBAND_SPEC = NetworkSpec(name="InfiniBand-FDR", latency_us=1.0, bandwidth_gbps=7.0)


@dataclass(frozen=True)
class ClusterSpec:
    """Node-level description of the machine the simulator models."""

    name: str
    cores_per_node: int
    dram_per_node: int  #: bytes
    nvbm_per_node: int  #: bytes
    network: NetworkSpec
    dram: DeviceSpec = DRAM_SPEC
    nvbm: DeviceSpec = NVBM_SPEC


TITAN = ClusterSpec(
    name="Titan",
    cores_per_node=16,
    dram_per_node=32 * GB,
    nvbm_per_node=128 * GB,
    network=GEMINI_SPEC,
)

KAMIAK = ClusterSpec(
    name="Kamiak",
    cores_per_node=20,
    dram_per_node=64 * GB,
    nvbm_per_node=128 * GB,
    network=INFINIBAND_SPEC,
)


@dataclass(frozen=True)
class PMOctreeConfig:
    """Tunables of the PM-octree algorithms (§3).

    ``dram_capacity_octants`` bounds the C0 tree; ``threshold_dram`` /
    ``threshold_nvbm`` are the free-space fractions below which eviction
    merging / on-demand GC trigger; ``t_transform`` is the Ratio_access
    threshold for a layout transformation; ``n_sample_max`` caps the
    feature-directed sample size (``N_sample = min(100, size)`` in §3.3);
    ``max_inflight_epochs`` is the persist pipeline's window: how many
    epochs may still be draining when ``persist()`` returns (0 publishes
    before it returns; >= 1 drains in the background with backpressure,
    see :mod:`repro.core.pipeline`).
    """

    dram_capacity_octants: int = 4096
    threshold_dram: float = 0.10
    threshold_nvbm: float = 0.10
    t_transform: float = 1.5
    n_sample_max: int = 100
    max_inflight_epochs: int = 0
    seed: int = 2017


@dataclass
class SolverConfig:
    """Parameters of the droplet-ejection workload (§5.1).

    The domain is a unit box containing a liquid jet emerging from a nozzle;
    a Rayleigh-Plateau perturbation grows until the jet pinches off into
    droplets.  ``min_level``/``max_level`` bound the adaptive resolution,
    mirroring the paper's four-orders-of-magnitude scale separation in a
    form a simulator can afford.
    """

    dim: int = 2
    min_level: int = 2
    max_level: int = 7
    nozzle_radius: float = 0.06
    #: Protrusion of the jet at t=0 — tall enough that the coarse-level
    #: interface sampling sees it from the very first adaptation pass.
    initial_tip: float = 0.15
    jet_speed: float = 1.0
    perturbation_amplitude: float = 0.25
    perturbation_wavelength: float = 0.22
    breakup_time: float = 0.55
    #: When the nozzle stops feeding; droplets emitted before it continue to
    #: rise and leave the domain, after which the mesh goes quiescent (the
    #: high-overlap regime of Fig 3).  inf = eject forever.
    shutoff_time: float = float("inf")
    dt: float = 0.01
    interface_band: float = 0.5  #: refine within this many cell-widths of the interface
    seed: int = 2017
