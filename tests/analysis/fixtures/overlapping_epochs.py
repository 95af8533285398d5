"""Planted bug: two persist epochs overlap and the newer one stores into a
record the still-draining older epoch snapshotted as pending-flush.

This is the exact race an overlapped epoch pipeline makes possible: an
enqueued epoch's dirty snapshot is final the moment it is queued, and any
later store landing inside that snapshot would be flushed with the *new*
epoch's bytes — torn durability the root-slot publish cannot express.  The
vector-clock checker (``OrderingTracker``) must flag it as
``cross-epoch-waf`` at position ``(epoch, rank, record)``; under
``--strict-epochs`` it must raise at the offending store.

The bug here is dynamic, not syntactic, so the driver takes the tracker
directly — the static analyzers have nothing to say about this file.
"""


def oe_race(tracker, handle):
    """Drive the overlap race; returns the older epoch's window id."""
    tracker.on_store(handle)  # the record epoch i will be responsible for
    # epoch i: a pipelined enqueue — its snapshot is final immediately
    window = tracker.on_epoch_open({handle}, rank=0)
    # epoch i+1 starts computing while epoch i's flush train is in the air
    tracker.on_epoch_open(set(), rank=1)
    tracker.on_store(handle)  # BUG: rewrites a record epoch i must flush
    return window


def oe_clean(tracker, handle):
    """The correct shape: COW gives epoch i+1 its own record."""
    tracker.on_store(handle)
    window = tracker.on_epoch_open({handle}, rank=0)
    tracker.on_epoch_open(set(), rank=1)
    tracker.on_store(handle + 1)  # the copy, not the snapshotted original
    return window
