"""Mid-drain kills of the asynchronous epoch pipeline are part of the one
chaos pool: recovery must land on a whole epoch, and everything the
determinism contract promises still holds for trials that draw them."""

import json

from repro.harness.chaos import derive_schedule, run_chaos
from repro.harness.report import render_json


def _serialize(report):
    sections = {"trials": [t.to_row() for t in report.trials]}
    if report.reproducer is not None:
        sections["reproducer"] = [{
            k: json.dumps(v, sort_keys=True)
            for k, v in report.reproducer.items()
        }]
    return render_json(sections, report.ok)


def _mid_drain_trials(limit=60):
    return [t for t in range(limit)
            if any(e.kind == "kill_mid_drain"
                   for e in derive_schedule(0, t, steps=10).events)]


def test_pipeline_schedules_contain_mid_drain_kills():
    hits = _mid_drain_trials()
    assert hits, "the pool never drew kill_mid_drain in 60 trials"
    sch = derive_schedule(0, hits[0], steps=10)
    ev = next(e for e in sch.events if e.kind == "kill_mid_drain")
    assert ev.site.startswith("epoch.")
    assert f"kill_mid_drain[{ev.site}]" in sch.describe()


def test_mid_drain_kill_trials_pass_and_are_deterministic():
    """Trials drawing the event must hold the recovery-landing invariant
    (no violations), and two runs serialize identically."""
    hit = _mid_drain_trials()[0]
    a = run_chaos(trials=1, seed=0, steps=10, only_trial=hit)
    b = run_chaos(trials=1, seed=0, steps=10, only_trial=hit)
    assert a.ok, a.trials[0].violations
    assert any("kill_mid_drain" in e for e in a.trials[0].events_applied)
    assert _serialize(a) == _serialize(b)
