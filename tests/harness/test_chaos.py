"""Chaos harness: seeded schedules, invariant checking, shrinking."""

import pytest

from repro.harness.chaos import (
    ChaosEvent,
    ChaosSchedule,
    derive_schedule,
    run_chaos,
    run_trial,
    shrink_schedule,
)
from repro.parallel.faults import LinkFaults


# ----------------------------------------------------------- determinism


def test_derive_schedule_is_deterministic():
    a = derive_schedule(seed=0, trial=3)
    b = derive_schedule(seed=0, trial=3)
    assert a == b
    assert a.events == b.events and a.faults == b.faults


def test_derive_schedule_varies_with_seed_and_trial():
    base = derive_schedule(seed=0, trial=0)
    assert derive_schedule(seed=1, trial=0) != base
    assert derive_schedule(seed=0, trial=1) != base


def test_schedule_shape():
    for trial in range(6):
        sched = derive_schedule(seed=7, trial=trial, steps=10)
        assert sched.steps == 10
        assert 1 <= len(sched.events) <= 3
        for ev in sched.events:
            assert 2 <= ev.step <= 7
            assert ev.kind in ("kill_host", "kill_peer", "kill_both",
                               "partition", "loss_burst", "kill_migration",
                               "media_rot", "media_stuck",
                               "kill_peer_then_rot", "kill_mid_drain")
            if ev.kind == "kill_migration":
                assert ev.site.startswith("migrate.")
            if ev.kind == "kill_mid_drain":
                assert ev.site.startswith("epoch.")
        assert 0.0 <= sched.faults.drop <= 0.25
        assert 0.0 <= sched.faults.duplicate <= 0.15
        assert sched.describe()   # human-readable, never raises


# ------------------------------------------------------------ single trial


def test_quiet_trial_stays_protected():
    sched = ChaosSchedule(seed=0, trial=0, steps=6,
                          faults=LinkFaults(),
                          events=())
    res = run_trial(sched)
    assert res.ok and res.outcome == "protected"
    assert res.violations == []
    assert res.steps_run == 6
    assert res.ships >= 1


def test_kill_host_trial_recovers():
    sched = ChaosSchedule(
        seed=0, trial=0, steps=8,
        faults=LinkFaults(),
        events=(ChaosEvent(kind="kill_host", step=3, returns=True),),
    )
    res = run_trial(sched)
    assert res.ok, res.violations
    assert res.recoveries >= 1
    assert res.events_applied == ["kill_host+reboot@3"]


def test_kill_migration_trial_recovers_each_site():
    from repro.nvbm import sites

    for site in sites.MIGRATE_SITES:
        sched = ChaosSchedule(
            seed=0, trial=0, steps=6,
            faults=LinkFaults(),
            events=(ChaosEvent(kind="kill_migration", step=3, site=site),),
        )
        res = run_trial(sched)
        assert res.ok, (site, res.violations)
        assert res.events_applied == [f"kill_migration[{site}]@3"]


def test_kill_both_trial_reports_degraded_not_crash():
    sched = ChaosSchedule(
        seed=0, trial=0, steps=8,
        faults=LinkFaults(),
        events=(ChaosEvent(kind="kill_both", step=3, returns=False),),
    )
    res = run_trial(sched)
    assert res.ok                       # a typed Degraded is NOT a violation
    assert res.outcome == "degraded"
    assert res.degraded_reason


def test_trial_row_is_json_friendly():
    res = run_trial(derive_schedule(seed=0, trial=0, steps=5))
    row = res.to_row()
    assert row["trial"] == 0 and row["outcome"] in (
        "protected", "degraded", "failed")
    import json

    json.dumps(row)                     # must be serialisable as-is


# ----------------------------------------------------------- full harness


def test_run_chaos_small_pass():
    report = run_chaos(trials=3, seed=0, steps=6)
    assert report.ok
    assert report.passed == 3 and report.failed == 0
    assert report.reproducer is None


def test_run_chaos_only_trial_replays_one():
    report = run_chaos(trials=25, seed=0, steps=6, only_trial=2)
    assert len(report.trials) == 1
    assert report.trials[0].trial == 2


def test_broken_acks_fail_with_minimal_reproducer():
    report = run_chaos(trials=3, seed=0, steps=6, break_acks=True)
    assert not report.ok and report.failed >= 1
    repro = report.reproducer
    assert repro is not None
    assert repro["violations"]
    assert "python -m repro chaos" in repro["command"]
    assert "--break-acks" in repro["command"]
    # protocol breakage needs no injected faults: shrinking strips them all
    assert repro["minimal_events"] == []


def test_shrink_removes_irrelevant_events():
    # under break_acks even the empty schedule fails, so every event and
    # fault of a failing schedule must be shrunk away
    sched = None
    for trial in range(5):
        cand = derive_schedule(seed=0, trial=trial, steps=6)
        if run_trial(cand, break_acks=True).violations:
            sched = cand
            break
    if sched is None:                   # pragma: no cover - seed-dependent
        pytest.skip("no failing trial among the first five")
    minimal = shrink_schedule(sched, break_acks=True)
    assert minimal.events == ()
    assert minimal.faults.drop == 0.0
    assert run_trial(minimal, break_acks=True).violations
