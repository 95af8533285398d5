"""Central registry of crash-site names.

Every ``injector.site("...")`` call in the library must use a name declared
here.  Before this registry existed, sites were bare string literals
scattered through :mod:`repro.core`; a typo in either the declaring code or
the arming test failed *silently* — the crash plan simply never fired and
the test passed without testing anything.  Now:

* code references the constants below (so a typo is an ``AttributeError``),
* :meth:`repro.nvbm.failure.FailureInjector.arm` warns when handed a name
  that is not registered, and
* the static pass (:mod:`repro.analysis.dataflow`) flags any site literal,
  ``sites.X`` attribute or imported name in ``src/repro`` that the
  registry does not know.

Tests that need ad-hoc sites can :func:`register` them first.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

# -- copy-on-write ----------------------------------------------------------
COW_AFTER_COPY = "cow.after_copy"

# -- C0 merging / eviction / loading ---------------------------------------
MERGE_OCTANT = "merge.octant"
MERGE_SUBTREE_DONE = "merge.subtree_done"
EVICT_BEGIN = "evict.begin"
LOAD_OCTANT = "load.octant"

# -- field-granular (partial) stores -----------------------------------------
COARSEN_MID = "coarsen.mid"
PAYLOAD_PARTIAL = "payload.partial_store"

# -- dynamic layout transformation ------------------------------------------
TRANSFORM_MID = "transform.mid"

# -- the persist point -------------------------------------------------------
PERSIST_BEGIN = "persist.begin"
PERSIST_BEFORE_FLUSH = "persist.before_flush"
PERSIST_BEFORE_ROOT_SWAP = "persist.before_root_swap"
PERSIST_AFTER_ROOT_SWAP = "persist.after_root_swap"

# -- root-slot machinery -----------------------------------------------------
ROOTS_SWAP_MID = "roots.swap.mid"

# -- the epoch pipeline's overlap (a window of 1 or more) ---------------------
EPOCH_DRAIN_MID = "epoch.drain.mid"
EPOCH_OVERLAP_NEXT_STEP = "epoch.overlap.next_step"

#: The sites a pipelined persist crosses while the epoch before it is still
#: unpublished, in protocol order (chaos draws from these; recovery must
#: land on exactly epoch i or i-1 at each — never a blend).
#: ``persist.before_flush`` is not one: it fires after the settle that
#: publishes the earlier epoch.
EPOCH_SITES = (EPOCH_OVERLAP_NEXT_STEP, EPOCH_DRAIN_MID,
               PERSIST_BEFORE_ROOT_SWAP)

# -- octant migration (repartitioning) ---------------------------------------
MIGRATE_PRE_PUBLISH = "migrate.pre_publish"
MIGRATE_MID_BATCH = "migrate.mid_batch"
MIGRATE_PRE_RETIRE = "migrate.pre_retire"
MIGRATE_RECOVER_MID = "migrate.recover.mid"

#: The migration protocol's sites in protocol order (sweep/chaos iterate
#: these; recovery must re-drive or roll back cleanly at each).
MIGRATE_SITES = (MIGRATE_PRE_PUBLISH, MIGRATE_MID_BATCH, MIGRATE_PRE_RETIRE)

# -- media repair (scrub / relocate / retire) ---------------------------------
MEDIA_REPAIR_PRE_PUBLISH = "media.repair.pre_publish"
MEDIA_REPAIR_PRE_RETIRE = "media.repair.pre_retire"
MEDIA_SCRUB_MID = "media.scrub.mid"

#: The repair ladder's sites in protocol order (sweep/chaos iterate these;
#: a crash at any of them must leave a consistent, recoverable tree).
MEDIA_SITES = (MEDIA_REPAIR_PRE_PUBLISH, MEDIA_REPAIR_PRE_RETIRE,
               MEDIA_SCRUB_MID)

# -- replication --------------------------------------------------------------
REPLICA_BEFORE_PUBLISH = "replica.before_publish"
REPLICA_SHIP_BEFORE_SEND = "replica.ship.before_send"
REPLICA_SHIP_AFTER_APPLY = "replica.ship.after_apply"
REPLICA_SHIP_BEFORE_ACK = "replica.ship.before_ack"
REPLICA_RESYNC_BEGIN = "replica.resync.begin"

#: name -> what crashing there exercises (the sweep harness reports these).
DESCRIPTIONS: Dict[str, str] = {
    COW_AFTER_COPY: "right after one COW copy, before its parent is re-linked",
    MERGE_OCTANT: "after each octant written during a C0 merge",
    MERGE_SUBTREE_DONE: "after one C0 subtree finished merging and splicing",
    EVICT_BEGIN: "start of a DRAM-pressure eviction",
    LOAD_OCTANT: "after each octant copied into DRAM by a C0 load",
    COARSEN_MID: "mid NVBM coarsen: children unlinked and marked, parent "
                 "slots/flags not yet stored",
    PAYLOAD_PARTIAL: "right after an in-place partial payload store, its "
                     "dirty line still unflushed",
    TRANSFORM_MID: "mid layout transformation, between evictions and loads",
    PERSIST_BEGIN: "entry of the persist point, before the C0 merge",
    PERSIST_BEFORE_FLUSH: "working version merged, nothing flushed yet",
    PERSIST_BEFORE_ROOT_SWAP: "flushed, an instant before the atomic publish",
    PERSIST_AFTER_ROOT_SWAP: "an instant after the atomic publish",
    ROOTS_SWAP_MID: "between the two device stores of a root-slot swap",
    EPOCH_DRAIN_MID: "mid epoch drain: part of the epoch's records flushed "
                     "to the medium, the rest still cached",
    EPOCH_OVERLAP_NEXT_STEP: "next step's enqueue reached while the previous "
                             "epoch is still in flight",
    MIGRATE_PRE_PUBLISH: "migration batch journalled at the sender, nothing "
                         "published at the receiver yet",
    MIGRATE_MID_BATCH: "mid migration batch: some octants published at the "
                       "receiver, none retired at the sender",
    MIGRATE_PRE_RETIRE: "migration batch fully published at the receiver, "
                        "sender octants not yet retired",
    MIGRATE_RECOVER_MID: "mid migration recovery: some journal batches "
                         "re-driven or rolled back, the rest untouched",
    MEDIA_REPAIR_PRE_PUBLISH: "repair chain relocated and flushed, root "
                              "republish not yet stored",
    MEDIA_REPAIR_PRE_RETIRE: "repaired root republished, bad record not yet "
                             "retired/freed",
    MEDIA_SCRUB_MID: "mid scrub pass: some bad records repaired and "
                     "republished, the rest still faulty",
    REPLICA_BEFORE_PUBLISH: "replica materialised and flushed, root not set",
    REPLICA_SHIP_BEFORE_SEND: "delta computed and sequenced, nothing sent",
    REPLICA_SHIP_AFTER_APPLY: "peer applied the delta, ack not yet delivered",
    REPLICA_SHIP_BEFORE_ACK: "ack delivered, host success not yet recorded",
    REPLICA_RESYNC_BEGIN: "peer state diverged, full resync about to start",
}


def all_sites() -> FrozenSet[str]:
    """The current registry contents (including test-registered names)."""
    return frozenset(DESCRIPTIONS)


def is_known(name: str) -> bool:
    return name in DESCRIPTIONS


def register(name: str, description: str = "ad-hoc site") -> str:
    """Add a site at runtime (for tests and downstream extensions)."""
    if not name or not isinstance(name, str):
        raise ValueError(f"crash-site name must be a non-empty string: {name!r}")
    DESCRIPTIONS.setdefault(name, description)
    return name


def unregister(name: str) -> None:
    """Remove a runtime-registered site (tests cleaning up after themselves)."""
    DESCRIPTIONS.pop(name, None)


def describe(name: str) -> str:
    return DESCRIPTIONS.get(name, "<unregistered>")
