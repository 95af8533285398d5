"""Planted bug: a publish with no flush after a store thirteen frames
below the publishing function."""

SLOT_PREV = 0


def dc_store(tree, rec, h):
    tree.nvbm.write_payload(h, rec)


def dc_level_1(tree, rec, h):
    dc_store(tree, rec, h)


def dc_level_2(tree, rec, h):
    dc_level_1(tree, rec, h)


def dc_level_3(tree, rec, h):
    dc_level_2(tree, rec, h)


def dc_level_4(tree, rec, h):
    dc_level_3(tree, rec, h)


def dc_level_5(tree, rec, h):
    dc_level_4(tree, rec, h)


def dc_level_6(tree, rec, h):
    dc_level_5(tree, rec, h)


def dc_level_7(tree, rec, h):
    dc_level_6(tree, rec, h)


def dc_level_8(tree, rec, h):
    dc_level_7(tree, rec, h)


def dc_level_9(tree, rec, h):
    dc_level_8(tree, rec, h)


def dc_level_10(tree, rec, h):
    dc_level_9(tree, rec, h)


def dc_level_11(tree, rec, h):
    dc_level_10(tree, rec, h)


def dc_level_12(tree, rec, h):
    dc_level_11(tree, rec, h)


def dc_persist(tree, rec, h):
    dc_level_12(tree, rec, h)
    tree.nvbm.roots.set(SLOT_PREV, h)  # BUG: no flush before the commit
