"""Planted bug: the missing-flush of ``missing_flush.py``, but the store is
reached only after a 5-way call tree four levels deep (781 frames when
every call is walked separately)."""

SLOT_PREV = 0


def wf_leaf(h):
    return h


def wf_fan_4(h):
    wf_leaf(h)
    wf_leaf(h)
    wf_leaf(h)
    wf_leaf(h)
    wf_leaf(h)


def wf_fan_3(h):
    wf_fan_4(h)
    wf_fan_4(h)
    wf_fan_4(h)
    wf_fan_4(h)
    wf_fan_4(h)


def wf_fan_2(h):
    wf_fan_3(h)
    wf_fan_3(h)
    wf_fan_3(h)
    wf_fan_3(h)
    wf_fan_3(h)


def wf_fan_1(h):
    wf_fan_2(h)
    wf_fan_2(h)
    wf_fan_2(h)
    wf_fan_2(h)
    wf_fan_2(h)


def wf_store(tree, rec, h):
    tree.nvbm.write_payload(h, rec)


def wf_persist(tree, rec, h):
    wf_fan_1(h)
    wf_store(tree, rec, h)
    tree.nvbm.roots.set(SLOT_PREV, h)  # BUG: no flush before the commit
