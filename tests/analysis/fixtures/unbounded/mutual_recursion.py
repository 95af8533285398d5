"""Planted bug: a store in ``mr_ping`` reaches the publish in ``mr_pong``
only through the recursion.  ``mr_ping(n)`` calls ``mr_pong`` twice; the
first call's nested ``mr_ping(n - 1)`` stores, and the second call
publishes that store unflushed."""

SLOT_PREV = 0


def mr_ping(tree, rec, h, n):
    if n:
        mr_pong(tree, rec, h, n - 1)
        mr_pong(tree, rec, h, n - 1)
    else:
        tree.nvbm.write_payload(h, rec)


def mr_pong(tree, rec, h, n):
    tree.nvbm.roots.set(SLOT_PREV, h)  # BUG: publishes the earlier store
    mr_ping(tree, rec, h, n)
