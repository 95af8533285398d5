"""Failure injector tests."""

import warnings

import pytest

from repro.errors import SimulatedCrash, UnknownCrashSiteError
from repro.nvbm import sites
from repro.nvbm.failure import (
    CrashPlan,
    FailureInjector,
    UnknownCrashSiteWarning,
)


def test_disarmed_sites_are_free():
    inj = FailureInjector()
    for _ in range(10):
        inj.site("merge.mid")
    assert inj.hits["merge.mid"] == 10
    assert inj.fired == []


def test_fires_at_nth_hit():
    inj = FailureInjector()
    inj.arm("persist.before_root_swap", at_hit=3)
    inj.site("persist.before_root_swap")
    inj.site("persist.before_root_swap")
    with pytest.raises(SimulatedCrash) as exc:
        inj.site("persist.before_root_swap")
    assert exc.value.point == "persist.before_root_swap"
    # plan is consumed: further hits are safe
    inj.site("persist.before_root_swap")
    assert inj.fired == ["persist.before_root_swap"]


def test_disarm():
    inj = FailureInjector()
    a, b = sites.PERSIST_BEGIN, sites.EVICT_BEGIN
    inj.arm(a)
    inj.arm(b)
    inj.disarm(a)
    inj.site(a)
    assert inj.armed_sites == [b]
    inj.disarm()
    inj.site(b)
    assert inj.fired == []


def test_arm_unknown_site_raises_under_pytest():
    # pytest sets PYTEST_CURRENT_TEST, so strict mode is the default here:
    # a typo'd site name fails loudly instead of silently never firing
    inj = FailureInjector()
    with pytest.raises(UnknownCrashSiteError, match="presist.begin"):
        inj.arm("presist.begin")
    assert inj.armed_sites == []  # nothing was armed
    # registered names arm silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inj.arm(sites.PERSIST_BEGIN)


def test_arm_unknown_site_warns_when_not_strict(monkeypatch):
    # library consumers outside pytest/analyze keep warn-only behaviour
    monkeypatch.setenv("REPRO_STRICT_SITES", "0")
    inj = FailureInjector()
    with pytest.warns(UnknownCrashSiteWarning, match="presist.begin"):
        inj.arm("presist.begin")  # typo'd name: armed but can never fire
    assert inj.armed_sites == ["presist.begin"]


def test_strict_sites_env_overrides(monkeypatch):
    monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
    monkeypatch.setenv("REPRO_STRICT_SITES", "1")
    inj = FailureInjector()
    with pytest.raises(UnknownCrashSiteError):
        inj.arm("no.such.site")


def test_registered_site_after_register_does_not_warn():
    name = "test.custom_site"
    assert not sites.is_known(name)
    sites.register(name, "ad-hoc site for this test")
    try:
        inj = FailureInjector()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inj.arm(name)
    finally:
        sites.unregister(name)
    assert not sites.is_known(name)


def test_plan_validates_hit_count():
    with pytest.raises(ValueError):
        CrashPlan("x", at_hit=0)
    with pytest.raises(ValueError):
        CrashPlan("x", hits=())
    with pytest.raises(ValueError):
        CrashPlan("x", hits=(0, 2))


def test_hits_list_fires_at_each_listed_visit():
    inj = FailureInjector()
    inj.arm(sites.PERSIST_BEGIN, hits=[2, 4])
    inj.site(sites.PERSIST_BEGIN)                 # hit 1: quiet
    with pytest.raises(SimulatedCrash):
        inj.site(sites.PERSIST_BEGIN)             # hit 2: fires
    inj.site(sites.PERSIST_BEGIN)                 # hit 3: quiet
    with pytest.raises(SimulatedCrash):
        inj.site(sites.PERSIST_BEGIN)             # hit 4: fires, exhausts
    inj.site(sites.PERSIST_BEGIN)                 # hit 5: plan consumed
    assert inj.fired == [sites.PERSIST_BEGIN, sites.PERSIST_BEGIN]
    assert inj.armed_sites == []


def test_hits_list_deduplicated_and_sorted():
    plan = CrashPlan("x", hits=(5, 2, 5))
    assert plan.hits == (2, 5)
    assert plan.next_fire(0) == 2 and plan.next_fire(2) == 5
    assert plan.next_fire(5) is None


@pytest.mark.parametrize("plan,hits,limit,want", [
    (dict(), 0, 5, 5),                          # nothing armed
    (dict(at_hit=4), 0, 5, 3),                  # visit 4 fires: 3 pass
    (dict(at_hit=4), 1, 5, 2),
    (dict(at_hit=4), 0, 2, 2),                  # beyond the limit
    (dict(at_hit=4), 4, 5, 5),                  # already passed
    (dict(hits=[2, 6]), 0, 9, 1),
    (dict(hits=[2, 6]), 2, 9, 3),
    (dict(hits=[2, 6]), 6, 9, 9),
    (dict(every_hit=True), 7, 9, 0),            # the next visit fires
])
def test_visits_before_fire_asks_without_visiting(plan, hits, limit, want):
    inj = FailureInjector()
    if plan:
        inj.arm(sites.PERSIST_BEGIN, **plan)
    if hits:
        inj.hits[sites.PERSIST_BEGIN] = hits
    before = (dict(inj.hits), list(inj.armed_sites))
    assert inj.visits_before_fire(sites.PERSIST_BEGIN, limit) == want
    assert (dict(inj.hits), list(inj.armed_sites)) == before
    if want < limit:  # the answer is the visits, one at a time
        inj.site(sites.PERSIST_BEGIN, count=want)
        with pytest.raises(SimulatedCrash):
            inj.site(sites.PERSIST_BEGIN)


def test_every_hit_fires_until_disarmed():
    inj = FailureInjector()
    inj.arm(sites.PERSIST_BEGIN, every_hit=True)
    for _ in range(3):
        with pytest.raises(SimulatedCrash):
            inj.site(sites.PERSIST_BEGIN)
    assert inj.armed_sites == [sites.PERSIST_BEGIN]  # never exhausted
    inj.disarm(sites.PERSIST_BEGIN)
    inj.site(sites.PERSIST_BEGIN)
    assert len(inj.fired) == 3


def test_rearming_replaces_the_old_plan():
    """Documented overwrite semantics: one plan per site, last arm wins."""
    inj = FailureInjector()
    inj.arm(sites.PERSIST_BEGIN, at_hit=1)
    inj.arm(sites.PERSIST_BEGIN, at_hit=3)  # replaces, never merges
    inj.site(sites.PERSIST_BEGIN)           # old at_hit=1 is forgotten
    inj.site(sites.PERSIST_BEGIN)
    with pytest.raises(SimulatedCrash):
        inj.site(sites.PERSIST_BEGIN)


def test_reset_hits():
    inj = FailureInjector()
    inj.site("s")
    inj.reset_hits()
    assert inj.hits == {}


def test_reset_clears_plans_hits_and_fired():
    inj = FailureInjector()
    inj.arm(sites.PERSIST_BEGIN, at_hit=1)
    with pytest.raises(SimulatedCrash):
        inj.site(sites.PERSIST_BEGIN)
    inj.arm(sites.EVICT_BEGIN)
    inj.reset()
    assert inj.armed_sites == []
    assert inj.hits == {}
    assert inj.fired == []
    # a reset injector behaves like a fresh one
    inj.site(sites.PERSIST_BEGIN)
    assert inj.fired == []
