"""Interprocedural dataflow + coverage-prover tests.

The fixtures package (``tests/analysis/fixtures``) plants one bug per file;
each detector must fire there — with the call-chain witness naming the
frames the bug actually flows through — and stay silent on the clean
variants.  ``fixtures/unbounded`` plants the same missing flush past any
inlining bound — 13 frames deep, behind a 781-frame fan-out, and through
a mutual recursion — for the summary pass to find.  The real tree is then
held to the golden standard: zero findings and zero uncovered paths at
HEAD.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import analyze_paths, prove_coverage
from repro.analysis.callgraph import strongly_connected
from repro.analysis.dataflow import DataflowFinding

from tests.analysis.fixtures import FIXTURES_DIR
from tests.analysis.fixtures.unbounded import UNBOUNDED_DIR


@pytest.fixture(scope="module")
def result():
    # the top-level fixtures only: ``fixtures/unbounded`` has its own tests
    return analyze_paths(sorted(FIXTURES_DIR.glob("*.py")))


def _by_rule(result, rule):
    return [f for f in result.findings if f.rule == rule]


def _only(result, rule):
    found = _by_rule(result, rule)
    assert len(found) == 1, (rule, [f.describe() for f in found])
    return found[0]


# ------------------------------------------------------------- detectors

def test_missing_flush_interprocedural_witness(result):
    f = _only(result, "missing-flush")
    assert Path(f.path).name == "missing_flush.py"
    # the finding anchors at the publish inside the callee, and the chain
    # names the entry point that reached it
    assert "mf_persist" in f.chain[0]
    assert "mf_commit" in f.chain[-1]
    # the message carries the store's own witness chain (store is in a
    # *different* callee — only the interprocedural pass can pair them)
    assert "missing_flush.py:9" in f.message
    assert "mf_store" in f.message


def test_double_flush_elision_detected(result):
    f = _only(result, "double-flush-elision")
    assert Path(f.path).name == "stale_flush.py"
    assert "sf_persist" in f.chain[0]
    # the culprit is the post-flush store issued via the callee
    assert "sf_touch_up" in f.message
    assert "flushed once" in f.message


def test_publish_before_retire_detected(result):
    f = _only(result, "publish-before-retire")
    assert Path(f.path).name == "unpublished_retire.py"
    # dedup keeps the longest chain: the drain loop -> the blind retire
    assert "ur_drain" in f.chain[0]
    assert "ur_retire_blind" in f.chain[-1]
    # the properly-bracketed variant produced no finding
    assert all("ur_retire_published" not in fr
               for f2 in result.findings for fr in f2.chain)


def test_raw_write_and_bare_pragma_detected(result):
    raw = _only(result, "raw-write")
    assert Path(raw.path).name == "raw_write.py"
    assert "rw_unannotated" in raw.chain[0]
    assert "allow[raw-write]" in raw.message  # tells the fix

    bare = _only(result, "raw-write-no-reason")
    assert "rw_bare_pragma" in bare.chain[0]
    assert "reason is mandatory" in bare.message

    # the reasoned pragma is the sanctioned form
    assert all("rw_reasoned" not in fr
               for f in result.findings for fr in f.chain)


def test_clean_fixture_has_no_findings(result):
    assert not any("clean.py" in f.path for f in result.findings)


def test_fingerprint_is_line_stable(result):
    f = _only(result, "missing-flush")
    fp = f.fingerprint()
    assert fp.startswith("missing-flush//missing_flush.py//")
    # line numbers are stripped so insertions above do not churn baselines
    assert not any(ch.isdigit() for ch in fp.split("//")[-1])
    shifted = DataflowFinding(rule=f.rule, path=f.path, line=f.line + 40,
                              message=f.message,
                              chain=tuple(c.replace(":18", ":58")
                                          for c in f.chain))
    assert shifted.fingerprint() == fp


# ------------------------------------------ no bound on depth or fan-out

@pytest.fixture(scope="module")
def unbounded():
    return analyze_paths([UNBOUNDED_DIR])


def _missing_flush_in(result, name):
    found = [f for f in _by_rule(result, "missing-flush")
             if Path(f.path).name == name]
    assert len(found) == 1, [f.describe() for f in result.findings]
    return found[0]


def test_store_thirteen_frames_down_reaches_its_publish(unbounded):
    f = _missing_flush_in(unbounded, "deep_chain.py")
    assert f.line == 61
    assert f.chain == ("deep_chain.dc_persist (deep_chain.py:59)",)
    # the store's witness runs the whole chain, 14 frames
    store_chain = f.message.split("(store via ")[1][:-1].split(" -> ")
    assert len(store_chain) == 14
    assert "dc_persist" in store_chain[0]
    assert store_chain[-1] == "deep_chain.dc_store (at deep_chain.py:12)"


def test_store_behind_wide_fanout_reaches_its_publish(unbounded):
    f = _missing_flush_in(unbounded, "wide_fanout.py")
    assert f.chain == ("wide_fanout.wf_persist (wide_fanout.py:48)",)
    assert "wide_fanout.py:45" in f.message
    assert "wf_store (at wide_fanout.py:50)" in f.message


def test_mutual_recursion_reaches_its_fixpoint(unbounded):
    # the pair is one component, summarised to a fixpoint (the pass
    # returned, so the iteration terminated)
    graph = unbounded.graph
    edges = {qual: [callee.qualname
                    for call in ast.walk(info.node)
                    if isinstance(call, ast.Call)
                    for callee in graph.resolve_call(info, call)]
             for qual, info in graph.functions.items()}
    assert ["mutual_recursion.mr_ping", "mutual_recursion.mr_pong"] in [
        sorted(c) for c in strongly_connected(edges)]
    f = _missing_flush_in(unbounded, "mutual_recursion.py")
    assert f.line == 18
    # ping's second call to pong publishes the store its first call made
    assert "mr_ping" in f.chain[0]
    assert f.chain[-1] == \
        "mutual_recursion.mr_pong (at mutual_recursion.py:12)"
    assert "mutual_recursion.py:14" in f.message
    assert [g.rule for g in unbounded.findings] == ["missing-flush"] * 3


# ------------------------------------------------------- coverage prover

@pytest.fixture(scope="module")
def coverage(result):
    # a stub registry containing exactly the sites the fixtures declare:
    # unanchored-site then checks registry ⊆ declarations
    stub = SimpleNamespace(all_sites=lambda: frozenset({
        "persist.before_flush", "persist.before_root_swap",
        "migrate.pre_retire",
    }))
    return prove_coverage(result, sites_module=stub)


def test_uncovered_window_is_proven_uncovered(coverage):
    hits = [f for f in coverage.findings if f.rule == "uncovered-path"
            and Path(f.path).name == "uncovered.py"]
    assert len(hits) == 1
    assert "uc_uncovered" in hits[0].message
    assert "injector.site" in hits[0].message  # tells the fix


def test_covered_window_is_proven_covered(coverage):
    covered = [w for w in coverage.windows if w.covered]
    assert any("persist.before_root_swap" in w.sites for w in covered)
    # the clean fixture's window is covered by both of its sites
    clean = [w for w in covered if "clean.ok_persist" in w.roots]
    assert clean and set(clean[0].sites) == {
        "persist.before_flush", "persist.before_root_swap"}


def test_uncovered_retire_detected(coverage):
    hits = [f for f in coverage.findings if f.rule == "uncovered-retire"
            and Path(f.path).name == "uncovered.py"]
    assert len(hits) == 1
    assert "uc_retire_uncovered" in hits[0].message
    # the site-bracketed retire is not flagged
    assert all("uc_retire_covered" not in f.message
               for f in coverage.findings)


def test_unanchored_site_detected(result):
    stub = SimpleNamespace(all_sites=lambda: frozenset({
        "persist.before_flush", "persist.before_root_swap",
        "migrate.pre_retire", "ghost.site.nobody.declares",
    }))
    rep = prove_coverage(result, sites_module=stub)
    ghosts = [f for f in rep.findings if f.rule == "unanchored-site"]
    assert [f.message.split("'")[1] for f in ghosts] \
        == ["ghost.site.nobody.declares"]
    assert rep.unanchored_sites == ["ghost.site.nobody.declares"]


def test_unregistered_site_does_not_cover(result):
    # a declared site the registry does not know cannot satisfy coverage
    stub = SimpleNamespace(all_sites=lambda: frozenset())
    rep = prove_coverage(result, sites_module=stub)
    assert all(not w.covered for w in rep.windows)


# ------------------------------------------------- the tree's own verdict

@pytest.fixture(scope="module")
def repo_result(repo_analysis):
    return repo_analysis


def test_real_tree_is_clean(repo_result):
    assert repo_result.findings == [], \
        "\n".join(f.describe() for f in repo_result.findings)


def test_real_tree_coverage_proven(repo_result):
    rep = prove_coverage(repo_result)
    assert rep.findings == [], \
        "\n".join(f.describe() for f in rep.findings)
    assert rep.uncovered == 0
    assert len(rep.windows) >= 3       # persist, migration, replication
    assert len(rep.retires) >= 2       # repartition apply + recovery
    assert rep.unanchored_sites == []


def test_real_tree_windows_name_their_sites(repo_result):
    rep = prove_coverage(repo_result)
    all_sites = set()
    for w in rep.windows:
        all_sites.update(w.sites)
    # the commit-point bracket sites must anchor the persist window
    assert "persist.before_root_swap" in all_sites
