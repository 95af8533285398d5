"""Media-fault chaos: schedule determinism, repair under load, degradation.

The verdict tests run on *explicit* schedules (events copied from seeded
trials that once exposed a finding), never on ``(seed, trial)`` indices —
the derivation is free to change, the schedules are the regression."""

import json

import pytest

from repro.harness.chaos import (
    _EVENT_KINDS,
    _MEDIA_KINDS,
    ChaosEvent,
    ChaosSchedule,
    derive_schedule,
    run_chaos,
    run_trial,
)
from repro.parallel.faults import LinkFaults

_ALL_KINDS = {kind for kind, _ in _EVENT_KINDS}


def _schedule(seed, trial, events, faults=None):
    return ChaosSchedule(seed=seed, trial=trial, steps=10,
                         faults=faults or LinkFaults(),
                         events=tuple(ChaosEvent(**ev) for ev in events))


def _first_trial_with(kinds, seed=0):
    for trial in range(60):
        sched = derive_schedule(seed, trial, steps=10)
        if {e.kind for e in sched.events} & set(kinds):
            return sched
    raise AssertionError(f"no trial of seed {seed} draws any of {kinds}")


def test_media_schedules_are_deterministic_and_mixed():
    seen = set()
    for trial in range(12):
        a = derive_schedule(0, trial, steps=10)
        b = derive_schedule(0, trial, steps=10)
        assert a == b
        seen |= {e.kind for e in a.events}
    assert seen & set(_MEDIA_KINDS)        # the one pool draws media faults
    assert seen - set(_MEDIA_KINDS)        # without displacing the others
    assert seen <= _ALL_KINDS


def test_media_trial_is_deterministic():
    sched = _first_trial_with(_MEDIA_KINDS)
    rows = [json.dumps(run_trial(sched).to_row(), sort_keys=True)
            for _ in range(2)]
    assert rows[0] == rows[1]


#: media_rot / media_stuck mixed with kills, partitions and lossy links
_REPAIRED_UNDER_LOAD = [
    (0, 2, LinkFaults(drop=0.063, duplicate=0.021, delay=0.184,
                      delay_ns=20_000.0),
     [dict(kind="kill_host", step=2),
      dict(kind="kill_migration", step=6, site="migrate.mid_batch"),
      dict(kind="media_rot", step=7, drop=0.181)]),
    (0, 6, LinkFaults(drop=0.037, duplicate=0.006, delay=0.041,
                      delay_ns=20_000.0),
     [dict(kind="media_rot", step=2, drop=0.228),
      dict(kind="partition", step=5),
      dict(kind="media_rot", step=6, drop=0.089)]),
    (0, 7, LinkFaults(drop=0.152, duplicate=0.051, delay=0.099,
                      delay_ns=20_000.0),
     [dict(kind="media_stuck", step=5, drop=0.043)]),
]


def test_rot_and_stuck_under_replication_stay_protected():
    for seed, trial, faults, events in _REPAIRED_UNDER_LOAD:
        result = run_trial(_schedule(seed, trial, events, faults))
        assert result.ok, (trial, result.violations)
        assert result.outcome == "protected"


def test_peer_loss_then_rot_degrades_explicitly():
    """Losing the replica and then the primary's medium is unsurvivable —
    the verdict must be a declared Degraded, never silent corruption."""
    result = run_trial(_schedule(
        0, 8, [dict(kind="kill_peer_then_rot", step=3, drop=0.305)],
        LinkFaults(drop=0.04, duplicate=0.057, delay=0.108,
                   delay_ns=20_000.0)))
    assert result.ok, result.violations
    assert result.outcome == "degraded"
    assert "no replica left" in result.degraded_reason


def test_back_to_back_faults_are_repaired_after_the_reship():
    """A repair republishes the root->bad chain under fresh handles; the
    harness re-ships right after it, so a second fault in the same step —
    here on a relocated ancestor — still finds its record in the replica
    (seed 0 trial 57 of the old media pool failed with loc 0x5 unrepaired)."""
    result = run_trial(_schedule(0, 57, [
        dict(kind="media_rot", step=4, drop=0.808),
        dict(kind="media_stuck", step=4, drop=0.955)]))
    assert result.ok, result.violations
    assert result.outcome == "protected"
    assert result.events_applied == ["media_rot@4", "media_stuck@4"]


#: a partition makes the ships time out, then a fault hits a record newer
#: than the last acknowledged ship: (seed, trial, events, lost loc)
_LAGGING_REPLICA = [
    (2, 9, [dict(kind="partition", step=5, duration=2),
            dict(kind="media_stuck", step=7, drop=0.742)], "0x59"),
    (3, 18, [dict(kind="media_stuck", step=2, drop=0.288),
             dict(kind="partition", step=3, duration=2),
             dict(kind="media_stuck", step=4, drop=0.642)], "0x13"),
    (6, 54, [dict(kind="partition", step=2, duration=2),
             dict(kind="media_rot", step=4, drop=0.967),
             dict(kind="media_stuck", step=5, drop=0.251)], "0x148"),
    (8, 30, [dict(kind="partition", step=2, duration=2),
             dict(kind="media_rot", step=4, drop=0.614),
             dict(kind="media_rot", step=6, drop=0.813)], "0x1"),
    (9, 41, [dict(kind="partition", step=4, duration=1),
             dict(kind="media_stuck", step=5, drop=0.736)], "0x4e"),
]


@pytest.mark.parametrize("seed,trial,events,loc", _LAGGING_REPLICA)
def test_loss_with_a_lagging_replica_is_degraded_not_failed(seed, trial,
                                                            events, loc):
    """The repair ladder finds records by handle in what the last *acked*
    ship carried.  With the session unprotected at fault time the loss is
    real — and must end the trial loudly ``degraded``, naming the lagging
    replica and the lost locs (these five schedules ended ``failed`` with
    "unrepaired despite a live replica" before the verdict keyed on the
    session being protected)."""
    result = run_trial(_schedule(seed, trial, events))
    assert result.ok, result.violations
    assert result.outcome == "degraded"
    assert "replica lags the published version" in result.degraded_reason
    assert loc in result.degraded_reason


def test_media_campaign_small_pass():
    report = run_chaos(trials=6, seed=3, steps=8)
    assert report.ok
    assert report.reproducer is None
    assert any(kind in event for t in report.trials
               for event in t.events_applied for kind in _MEDIA_KINDS)


def test_media_reproducer_serializes_identically():
    runs = []
    for _ in range(2):
        report = run_chaos(trials=3, seed=0, steps=6, break_acks=True)
        assert report.failed  # broken acks are a genuine protocol bug
        assert report.reproducer is not None
        runs.append(json.dumps(report.reproducer, sort_keys=True))
    assert runs[0] == runs[1]
