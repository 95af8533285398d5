"""Mid-drain kills of the asynchronous epoch pipeline are part of the one
chaos pool: recovery must land on a whole epoch, and everything the
determinism contract promises still holds for trials that draw them."""

import json

from repro.analysis import sweep
from repro.core.pmoctree import SLOT_PREV
from repro.errors import SimulatedCrash
from repro.harness.chaos import derive_schedule, run_chaos
from repro.harness.report import render_json
from repro.nvbm import sites as site_registry


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
    assert ev.site in site_registry.EPOCH_SITES
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


def test_every_kill_mid_drain_draw_tears_an_unpublished_epoch(monkeypatch):
    """Every site a ``kill_mid_drain`` event can draw runs, through
    ``sweep_site``, a pipelined scenario, and the epoch enqueued before the
    armed persist is still unpublished when the site fires.  A site that
    fires on a window of 0, or only after the earlier epoch's publish,
    tears no in-flight epoch."""
    fired = {}
    real_init = sweep._Rig.__init__

    def spied_init(rig, *args, **kwargs):
        real_init(rig, *args, **kwargs)
        pipeline, injector = rig.tree._pipeline, rig.injector
        enqueue, site = pipeline.enqueue, injector.site
        in_flight = []  # the roots still queued when the latest persist began

        def spied_enqueue(*a, **kw):
            in_flight[:] = pipeline.live_roots()
            return enqueue(*a, **kw)

        def spied_site(name, *a, **kw):
            try:
                return site(name, *a, **kw)
            except SimulatedCrash:
                fired[name] = (pipeline.max_inflight, list(in_flight),
                               rig.nvbm.roots.get(SLOT_PREV))
                raise

        monkeypatch.setattr(pipeline, "enqueue", spied_enqueue)
        monkeypatch.setattr(injector, "site", spied_site)

    monkeypatch.setattr(sweep._Rig, "__init__", spied_init)
    for site in site_registry.EPOCH_SITES:
        out = sweep.sweep_site(site)
        assert out.fired and out.recovered, (site, out.detail)
        window, in_flight, published = fired[site]
        assert window >= 1, f"{site} swept at a window of {window}"
        assert in_flight, f"{site}: no epoch in flight when its persist began"
        assert published != in_flight[-1], \
            f"{site} fired after the earlier epoch was published"
