"""The pmlint rules of the static pass (``missing-flush`` in its exit
form, ``bypass-cow``, ``unknown-site``, the pragmas): each case is a small
source file run through :func:`repro.analysis.analyze_paths`, which must
catch the planted bugs humans actually write and stay silent on the clean
variants."""

import textwrap

import pytest

from repro.analysis import analyze_paths


@pytest.fixture
def lint(tmp_path):
    """Analyze ``body`` as the file ``tmp_path / path``; a path under a
    ``core`` directory puts the file in the COW discipline's scope.

    The cases store through ``write_octant``, the raw record accessor, so
    each also draws ``raw-write``; that rule has its own fixture
    (test_dataflow.py) and is left out here."""
    def run(body, path="case.py"):
        file = tmp_path / path
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(body))
        return [f for f in analyze_paths([file]).findings
                if f.rule != "raw-write"]
    return run


def _rules(findings):
    return [f.rule for f in findings]


# ------------------------------------------------------------- missing-flush

def test_catches_publish_without_flush(lint):
    findings = lint(
        """
        def persist(self):
            h = self.nvbm.new_octant(rec)
            self.nvbm.roots.set(SLOT_PREV, h)
        """
    )
    assert _rules(findings) == ["missing-flush"]
    assert "no intervening" in findings[0].message


def test_catches_store_after_last_flush_in_publishing_function(lint):
    findings = lint(
        """
        def persist(self):
            self.nvbm.write_octant(h, rec)
            self.nvbm.flush()
            self.nvbm.roots.set(SLOT_PREV, h)
            self.nvbm.write_octant(h2, rec2)
        """
    )
    assert _rules(findings) == ["missing-flush"]
    assert "exits" in findings[0].message


def test_flush_between_store_and_publish_is_clean(lint):
    findings = lint(
        """
        def persist(self):
            self.nvbm.write_octant(h, rec)
            self.nvbm.flush()
            self.nvbm.roots.set(SLOT_PREV, h)
        """
    )
    assert findings == []


def test_swap_counts_as_publish(lint):
    findings = lint(
        """
        def persist(self):
            self.nvbm.new_octant(rec)
            self.nvbm.roots.swap(SLOT_PREV, SLOT_CURR)
        """
    )
    assert _rules(findings) == ["missing-flush"]


def test_non_publish_slot_store_is_not_a_commit_point(lint):
    # V_curr is volatile bookkeeping; storing it unflushed is fine.
    findings = lint(
        """
        def step(self):
            self.nvbm.write_octant(h, rec)
            self.nvbm.roots.set(SLOT_CURR, h)
        """
    )
    assert findings == []


def test_null_publish_is_not_a_commit_point(lint):
    findings = lint(
        """
        def reset(self):
            self.nvbm.write_octant(h, rec)
            self.nvbm.roots.set(SLOT_PREV, NULL_HANDLE)
        """
    )
    assert findings == []


def test_dram_writes_do_not_arm_the_rule(lint):
    findings = lint(
        """
        def step(self):
            self.dram.write_octant(h, rec)
            self.nvbm.roots.set(SLOT_PREV, h)
        """
    )
    assert findings == []


# --------------------------------------------------------------- bypass-cow

CORE_PATH = "core/fake.py"


def test_catches_direct_write_in_core(lint):
    findings = lint(
        """
        def mutate(self, h, rec):
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert _rules(findings) == ["bypass-cow"]


def test_writable_exempts_the_scope(lint):
    findings = lint(
        """
        def mutate(self, loc):
            h = self._landing.writable(loc)
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert findings == []
    # the retired entry point guards nothing: the planted bypass is found
    findings = lint(
        """
        def mutate(self, loc):
            h = self._ensure_writable(loc)
            self.nvbm.write_octant(h, rec)
        """,
        path="core/other.py",
    )
    assert _rules(findings) == ["bypass-cow"]


def test_allow_bypass_cow_pragma_single_line(lint):
    findings = lint(
        """
        def mutate(self, h, rec):
            # pmlint: allow[bypass-cow]: record is fresh
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert findings == []


def test_allow_bypass_cow_pragma_multi_line_comment_block(lint):
    findings = lint(
        """
        def mutate(self, h, rec):
            # pmlint: allow[bypass-cow]: the record was allocated two
            # lines up, nothing persistent can reach it yet.
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert findings == []


def test_bare_allow_bypass_cow_pragma_is_reported(lint):
    findings = lint(
        """
        def mutate(self, h, rec):
            # pmlint: allow[bypass-cow]
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert _rules(findings) == ["bypass-cow-no-reason"]
    assert "reason is mandatory" in findings[0].message
    # the retired pragma grammar no longer suppresses anything
    findings = lint(
        """
        def mutate(self, h, rec):
            # pmlint: allow-direct-write — record is fresh
            self.nvbm.write_octant(h, rec)
        """,
        path="core/old.py",
    )
    assert _rules(findings) == ["bypass-cow"]


def test_new_octant_is_not_a_cow_bypass(lint):
    findings = lint(
        """
        def grow(self, rec):
            return self.nvbm.new_octant(rec)
        """,
        path=CORE_PATH,
    )
    assert findings == []


def test_direct_write_outside_core_is_not_flagged(lint):
    findings = lint(
        """
        def mutate(self, h, rec):
            self.nvbm.write_octant(h, rec)
        """,
        path="harness/fake.py",
    )
    assert findings == []


# -------------------------------------------------------------- unknown-site

def test_catches_typoed_site_literal(lint):
    findings = lint(
        """
        def step(self):
            self.injector.site("presist.before_root_swap")
        """
    )
    assert _rules(findings) == ["unknown-site"]
    assert "presist.before_root_swap" in findings[0].message


def test_registered_site_literal_is_clean(lint):
    findings = lint(
        """
        def step(self):
            self.injector.site("persist.before_root_swap")
        """
    )
    assert findings == []


def test_catches_typoed_sites_constant(lint):
    findings = lint(
        """
        from repro.nvbm import sites

        def step(self):
            self.injector.site(sites.PERSIST_BEFOR_FLUSH)
        """
    )
    assert _rules(findings) == ["unknown-site"]


def test_real_sites_constant_is_clean(lint):
    findings = lint(
        """
        from repro.nvbm import sites

        def step(self):
            self.injector.site(sites.PERSIST_BEFORE_FLUSH)
        """
    )
    assert findings == []


def test_imported_name_checked(lint):
    findings = lint(
        """
        from repro.nvbm.sites import PERSIST_BEGIN

        def step(self):
            self.injector.site(PERSIST_BEGIN)
        """
    )
    assert findings == []


# ------------------------------------------------------------- misc plumbing

def test_ignore_pragma_suppresses_any_finding(lint):
    findings = lint(
        """
        def step(self):
            self.injector.site("not.a.site")  # pmlint: ignore — exercised typo
        """
    )
    assert findings == []


def test_syntax_error_becomes_a_finding(lint):
    findings = lint("def broken(:\n    pass\n")
    assert _rules(findings) == ["syntax-error"]


def test_module_level_statements_are_a_scope(lint):
    findings = lint(
        """
        injector.site("presist.before_root_swap")
        """
    )
    assert _rules(findings) == ["unknown-site"]


def test_same_named_nested_functions_are_each_a_scope(lint):
    findings = lint(
        """
        def first(self):
            def act():
                self.injector.site("presist.before_root_swap")
            return act

        def second(self):
            def act():
                self.injector.site("persist.before_root_swap")
            return act
        """
    )
    assert _rules(findings) == ["unknown-site"]
    assert findings[0].line == 4


def test_nested_function_is_a_separate_scope(lint):
    # the closure publishes flushed state; the outer scope's unflushed write
    # never reaches the closure's publish in any execution
    findings = lint(
        """
        def outer(self):
            self.nvbm.write_octant(h, rec)

            def publish():
                self.nvbm.flush()
                self.nvbm.roots.set(SLOT_PREV, h)

            return publish
        """
    )
    assert findings == []


def test_library_is_clean(repo_analysis):
    """The library carries none of these rules' findings (the session's
    one pass over ``src/repro``)."""
    rules = {"missing-flush", "bypass-cow", "unknown-site", "syntax-error"}
    assert [f.describe() for f in repo_analysis.findings
            if f.rule.removesuffix("-no-reason") in rules] == []
