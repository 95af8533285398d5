"""Exception hierarchy for the PM-octree reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can
distinguish simulation-infrastructure failures (e.g. an injected crash) from
genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class OutOfMemoryError(ReproError):
    """A memory arena (DRAM or NVBM) has no free record slots left."""

    def __init__(self, device: str, capacity: int):
        super().__init__(f"device {device!r} is full (capacity={capacity} records)")
        self.device = device
        self.capacity = capacity


class InvalidHandleError(ReproError):
    """A handle does not refer to an allocated record in its arena."""


class SimulatedCrash(ReproError):
    """Raised by the failure injector at a registered crash point.

    This models a node losing power / a process being killed: all volatile
    state (DRAM arenas, un-flushed NVBM cache lines) is discarded by the
    machinery that raises this, and the caller is expected to go through
    recovery (``pm_restore``) rather than resume.
    """

    def __init__(self, point: str):
        super().__init__(f"simulated crash at point {point!r}")
        self.point = point


class UnknownCrashSiteError(ReproError):
    """An armed crash-site name is not in :mod:`repro.nvbm.sites`.

    Raised by :meth:`repro.nvbm.failure.FailureInjector.arm` in strict
    mode (under pytest / ``repro analyze``, or when ``REPRO_STRICT_SITES``
    is set): a typo'd site name is otherwise a silent no-op — the plan
    never fires and the arming test passes without testing anything.
    """


class MediaError(ReproError):
    """An integrity check failed while reading a non-volatile record.

    The base class covers *detected* corruption: a record whose sealed CRC
    no longer matches its bytes.  ``kind`` distinguishes the failure mode
    (``"crc"`` here; the device-level subclass adds ``"rot"`` and
    ``"stuck"``).  ``slot`` is the record index inside the arena and
    ``lines`` the global cache-line ids implicated, so the repair ladder
    knows exactly what to retire.
    """

    def __init__(self, arena: str, slot: int, kind: str,
                 lines=(), detail: str = ""):
        self.arena = arena
        self.slot = slot
        self.kind = kind
        self.lines = tuple(lines)
        msg = f"{arena}: media error ({kind}) on record slot {slot}"
        if self.lines:
            msg += f", line(s) {list(self.lines)}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class UncorrectableError(MediaError):
    """The medium returned an uncorrectable error on read.

    Raised by :meth:`repro.nvbm.device.MemoryDevice.check_media` when a
    read touches a line planted in its
    :class:`~repro.nvbm.device.MediaFaultModel`: rotted (``"rot"``,
    cleared by a rewrite) or stuck (``"stuck"``, until the slot is
    retired).
    """


class MediaUnrepairableError(MediaError):
    """The repair ladder ran out of redundancy.

    Carries the locational codes of the subtree roots that could not be
    rebuilt; :func:`repro.core.recovery.recover_host` converts this into a
    typed :class:`~repro.core.recovery.Degraded` outcome rather than
    letting it escape as a stack trace.
    """

    def __init__(self, arena: str, lost_locs):
        self.lost_locs = tuple(sorted(lost_locs))
        ReproError.__init__(
            self,
            f"{arena}: {len(self.lost_locs)} octant subtree(s) unrepairable "
            f"(no replica/redundancy left): "
            f"{[hex(loc) for loc in self.lost_locs]}"
        )
        self.arena = arena
        self.kind = "unrepairable"
        self.slot = -1
        self.lines = ()


class RecoveryError(ReproError):
    """Recovery could not produce a consistent octree (e.g. lost replica)."""


class ConsistencyError(ReproError):
    """An invariant check on a persistent structure failed."""


class OrderingViolationError(ConsistencyError):
    """The runtime ordering tracker observed an illegal persistence order.

    Raised (in strict mode) by :class:`repro.analysis.tracker.OrderingTracker`
    when a root slot publishes a handle whose record lines are still in the
    volatile cache, a published handle is freed or overwritten in place, or a
    needed re-flush was elided.
    """


class StorageError(ReproError):
    """Block-device or filesystem level failure."""


class PartitionError(ReproError):
    """Parallel partitioning produced an invalid distribution."""


class GCDisabledError(ReproError):
    """Garbage collection was requested while a merge is in flight (§3.2)."""


class AllRanksDeadError(ReproError):
    """A collective was attempted on a communicator with no live rank.

    Carries the dead-rank list so recovery drivers can report *who* was
    lost rather than dying on a bare ``max() arg is an empty sequence``.
    """

    def __init__(self, dead_ranks):
        self.dead_ranks = sorted(dead_ranks)
        super().__init__(
            f"all {len(self.dead_ranks)} ranks are dead: {self.dead_ranks}"
        )


class NetworkPartitionError(ReproError):
    """A collective spanned ranks severed by an active network partition.

    Distinct from :class:`PartitionError` (mesh-distribution validity): this
    one is about the *interconnect* — a collective over a partitioned
    communicator must fail loudly rather than silently compute a result the
    unreachable side never saw.
    """

    def __init__(self, groups, now_ns: float):
        self.groups = tuple(tuple(sorted(g)) for g in groups)
        self.now_ns = now_ns
        super().__init__(
            f"network partition at t={now_ns:.0f}ns splits live ranks "
            f"into {self.groups}"
        )


class ReplicationTimeoutError(ReproError):
    """Delta shipping exhausted its retry budget without an acknowledged apply.

    The host's persistent version is safe (persist completed before the
    ship); only the *remote protection* failed to advance.  Callers decide
    whether to continue unprotected, re-pick a peer, or degrade.
    """

    def __init__(self, seq: int, attempts: int, detail: str = ""):
        self.seq = seq
        self.attempts = attempts
        msg = f"delta seq={seq} unacknowledged after {attempts} attempt(s)"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
