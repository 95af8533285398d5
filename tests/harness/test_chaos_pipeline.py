"""Mid-drain kills of the asynchronous epoch pipeline are part of the one
chaos pool: they tear the trial host's own pipeline, recovery must land on
a whole epoch, and everything the determinism contract promises still
holds for trials that draw them."""

import json
from dataclasses import replace

from repro.analysis import sweep
from repro.core.pipeline import EpochPipeline
from repro.core.pmoctree import SLOT_PREV
from repro.errors import SimulatedCrash
from repro.harness import chaos
from repro.harness.chaos import derive_schedule, run_chaos, run_trial
from repro.harness.report import render_json
from repro.nvbm.failure import FailureInjector


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
    assert ev.site in chaos._MID_DRAIN_SITES
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


def _version(tree, root):
    """Leaf payloads of the NVBM version at ``root``, read unmetered."""
    with tree.unmetered_inspection():
        records = [tree.nvbm.read_octant(h)
                   for h in tree.reachable_from(root)]
    return {rec.loc: rec.payload for rec in records if rec.is_leaf}


def test_every_kill_mid_drain_draw_tears_an_unpublished_epoch(monkeypatch):
    """Every ``kill_mid_drain`` seed 0 draws in 60 trials fires on the
    trial host's own pipeline and injector: the host persists at a window
    of at least 1, epoch B is in flight when epoch C's persist begins, and
    the site fires before B's root is published.  B must differ from the
    published A, or ``Scenario.landed_on`` could not tell epoch i from
    i-1."""
    enqueues = []  # (pipeline, roots in flight) as each persist begins
    fired = []
    real_enqueue, real_site = EpochPipeline.enqueue, FailureInjector.site

    def spied_enqueue(pipeline, *a, **kw):
        enqueues.append((pipeline, pipeline.live_roots()))
        return real_enqueue(pipeline, *a, **kw)

    def spied_site(injector, name, *a, **kw):
        try:
            return real_site(injector, name, *a, **kw)
        except SimulatedCrash:
            if name in chaos._MID_DRAIN_SITES:
                pipeline, in_flight = enqueues[-1]
                tree = pipeline.pmo
                with tree.nvbm.device.unmetered():
                    published = tree.nvbm.roots.get(SLOT_PREV)
                fired.append((name, injector is tree.injector,
                              pipeline.max_inflight, in_flight, published,
                              _version(tree, published),
                              in_flight and _version(tree, in_flight[-1])))
            raise

    monkeypatch.setattr(EpochPipeline, "enqueue", spied_enqueue)
    monkeypatch.setattr(FailureInjector, "site", spied_site)
    drawn = []
    for t in _mid_drain_trials():
        result = run_trial(derive_schedule(0, t, steps=10))
        assert result.ok, (t, result.violations)
        drawn += [e for e in result.events_applied if "kill_mid_drain" in e]
    assert [f"kill_mid_drain[{name}]" for name, *_ in fired] \
        == [e.rpartition("@")[0] for e in drawn]
    assert {name for name, *_ in fired} == set(chaos._MID_DRAIN_SITES)
    for site, own, window, in_flight, published, sig_a, sig_b in fired:
        assert own, f"{site} fired on another injector than the host's"
        assert window >= 1, f"{site} torn at a window of {window}"
        assert in_flight, f"{site}: no epoch in flight when its persist began"
        assert published != in_flight[-1], \
            f"{site} fired after the earlier epoch was published"
        assert sig_a != sig_b, f"{site}: epoch B equals the published A"


def test_state_probe_charges_nothing():
    """The harness reads a tree's state unmetered: a charged probe would
    burn down the drain window of the epoch in flight."""
    rig = sweep._Rig(max_inflight=1).grow(2)
    rig.tree.persist(transform=False)
    assert rig.tree._pipeline.inflight == 1
    arenas = (rig.dram, rig.nvbm)
    now, stats = rig.clock.now_ns, [replace(a.device.stats) for a in arenas]
    state = chaos._state(rig.tree)
    assert rig.clock.now_ns == now
    assert [a.device.stats for a in arenas] == stats
    assert state == sweep.Scenario.signature(rig.tree)
