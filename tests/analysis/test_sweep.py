"""Crash-site sweep tests: every registered site must be reachable by its
driver, fire, and recover onto a persisted state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sweep, sweep_all, sweep_site, trace_run
from repro.analysis.sweep import SweepOutcome
from repro.nvbm import sites


def test_sweep_covers_the_whole_registry():
    outcomes = sweep_all(max_steps=8)
    assert sorted(o.site for o in outcomes) == sorted(sites.all_sites())


# one slow full pass is enough; per-site asserts give a readable failure
@pytest.fixture(scope="module")
def outcomes():
    return {o.site: o for o in sweep_all(max_steps=8)}


@pytest.mark.parametrize("site", sorted(sites.all_sites()))
def test_site_fires_and_recovers(outcomes, site):
    out = outcomes[site]
    assert out.fired, f"{site}: workload never reached the site"
    assert out.recovered, f"{site}: {out.detail}"
    assert out.violations == 0
    assert out.matched in ("last-persist", "committed-at-crash",
                           "re-driven", "rolled-back",
                           "re-driven+rolled-back", "recovery-re-driven",
                           "epoch-i", "epoch-i-1")
    assert out.ok


def test_post_commit_sites_land_on_the_committed_version(outcomes):
    # a crash after the atomic publish keeps the freshly committed state
    assert outcomes[sites.PERSIST_AFTER_ROOT_SWAP].matched == \
        "committed-at-crash"
    # a crash before the flush must fall back to the previous persist
    assert outcomes[sites.PERSIST_BEFORE_FLUSH].matched == "last-persist"


@settings(max_examples=100, deadline=None)
@given(site=st.sampled_from(sorted(sites.all_sites())),
       seed=st.integers(0, 2 ** 16 - 1))
def test_generated_seeds_go_through_the_one_runner(site, seed):
    """Any (site, seed) — not only each site's default seed — holds the
    one rule: recovery lands on a state its scenario accepts, and the run
    is a pure function of the pair."""
    out = sweep_site(site, seed=seed)
    assert out.ok, out.detail
    assert sweep_site(site, seed=seed) == out
    if out.fired:
        scenario = sweep._DRIVERS.get(site, sweep._workload)(site, 8, seed)
        assert out.matched in scenario.accepted


def test_unreached_site_reports_not_fired():
    name = "test.never_visited"
    sites.register(name, "registered but never declared in code")
    try:
        out = sweep_site(name, max_steps=2)
    finally:
        sites.unregister(name)
    assert out.fired is False
    assert out.recovered is None
    assert out.ok  # not-reached is a coverage note, not a recovery failure


def test_outcome_row_shape():
    row = SweepOutcome(site="x", fired=True, recovered=True,
                       matched="last-persist").to_row()
    assert set(row) == {"site", "fired", "recovered", "matched",
                       "violations", "detail"}


def test_trace_run_is_clean():
    tracker = trace_run(steps=4)
    assert tracker.violations == []
    # the workload must actually exercise the persistence surface
    assert tracker.counts["publishes"] > 0
    assert tracker.counts["flushes"] > 0
    assert tracker.counts["stores"] > 0
