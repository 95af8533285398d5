"""pmlint regression tests: the checker must catch the planted bugs
ISSUE-class history says humans actually write, and stay silent on the
library itself."""

import textwrap

from repro.analysis import lint_repo, lint_source


def _lint(body, path="<memory>"):
    return lint_source(textwrap.dedent(body), path=path)


def _rules(findings):
    return [f.rule for f in findings]


# ------------------------------------------------------------- missing-flush

def test_catches_publish_without_flush():
    findings = _lint(
        """
        def persist(self):
            h = self.nvbm.new_octant(rec)
            self.nvbm.roots.set(SLOT_PREV, h)
        """
    )
    assert _rules(findings) == ["missing-flush"]
    assert "no intervening" in findings[0].message


def test_catches_store_after_last_flush_in_publishing_function():
    findings = _lint(
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


def test_flush_between_store_and_publish_is_clean():
    findings = _lint(
        """
        def persist(self):
            self.nvbm.write_octant(h, rec)
            self.nvbm.flush()
            self.nvbm.roots.set(SLOT_PREV, h)
        """
    )
    assert findings == []


def test_swap_counts_as_publish():
    findings = _lint(
        """
        def persist(self):
            self.nvbm.new_octant(rec)
            self.nvbm.roots.swap(SLOT_PREV, SLOT_CURR)
        """
    )
    assert _rules(findings) == ["missing-flush"]


def test_non_publish_slot_store_is_not_a_commit_point():
    # V_curr is volatile bookkeeping; storing it unflushed is fine.
    findings = _lint(
        """
        def step(self):
            self.nvbm.write_octant(h, rec)
            self.nvbm.roots.set(SLOT_CURR, h)
        """
    )
    assert findings == []


def test_null_publish_is_not_a_commit_point():
    findings = _lint(
        """
        def reset(self):
            self.nvbm.write_octant(h, rec)
            self.nvbm.roots.set(SLOT_PREV, NULL_HANDLE)
        """
    )
    assert findings == []


def test_dram_writes_do_not_arm_the_rule():
    findings = _lint(
        """
        def step(self):
            self.dram.write_octant(h, rec)
            self.nvbm.roots.set(SLOT_PREV, h)
        """
    )
    assert findings == []


# --------------------------------------------------------------- bypass-cow

CORE_PATH = "src/repro/core/fake.py"


def test_catches_direct_write_in_core():
    findings = _lint(
        """
        def mutate(self, h, rec):
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert _rules(findings) == ["bypass-cow"]


def test_writable_exempts_the_scope():
    findings = _lint(
        """
        def mutate(self, loc):
            h = self._landing.writable(loc)
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert findings == []
    # the retired entry point guards nothing: the planted bypass is found
    findings = _lint(
        """
        def mutate(self, loc):
            h = self._ensure_writable(loc)
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert _rules(findings) == ["bypass-cow"]


def test_allow_direct_write_pragma_single_line():
    findings = _lint(
        """
        def mutate(self, h, rec):
            # pmlint: allow-direct-write — record is fresh
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert findings == []


def test_allow_direct_write_pragma_multi_line_comment_block():
    findings = _lint(
        """
        def mutate(self, h, rec):
            # pmlint: allow-direct-write — the record was allocated two
            # lines up, nothing persistent can reach it yet.
            self.nvbm.write_octant(h, rec)
        """,
        path=CORE_PATH,
    )
    assert findings == []


def test_new_octant_is_not_a_cow_bypass():
    findings = _lint(
        """
        def grow(self, rec):
            return self.nvbm.new_octant(rec)
        """,
        path=CORE_PATH,
    )
    assert findings == []


def test_direct_write_outside_core_is_not_flagged():
    findings = _lint(
        """
        def mutate(self, h, rec):
            self.nvbm.write_octant(h, rec)
        """,
        path="src/repro/harness/fake.py",
    )
    assert findings == []


# -------------------------------------------------------------- unknown-site

def test_catches_typoed_site_literal():
    findings = _lint(
        """
        def step(self):
            self.injector.site("presist.before_root_swap")
        """
    )
    assert _rules(findings) == ["unknown-site"]
    assert "presist.before_root_swap" in findings[0].message


def test_registered_site_literal_is_clean():
    findings = _lint(
        """
        def step(self):
            self.injector.site("persist.before_root_swap")
        """
    )
    assert findings == []


def test_catches_typoed_sites_constant():
    findings = _lint(
        """
        from repro.nvbm import sites

        def step(self):
            self.injector.site(sites.PERSIST_BEFOR_FLUSH)
        """
    )
    assert _rules(findings) == ["unknown-site"]


def test_real_sites_constant_is_clean():
    findings = _lint(
        """
        from repro.nvbm import sites

        def step(self):
            self.injector.site(sites.PERSIST_BEFORE_FLUSH)
        """
    )
    assert findings == []


def test_imported_name_checked():
    findings = _lint(
        """
        from repro.nvbm.sites import PERSIST_BEGIN

        def step(self):
            self.injector.site(PERSIST_BEGIN)
        """
    )
    assert findings == []


# ------------------------------------------------------------- misc plumbing

def test_ignore_pragma_suppresses_any_finding():
    findings = _lint(
        """
        def step(self):
            self.injector.site("not.a.site")  # pmlint: ignore — exercised typo
        """
    )
    assert findings == []


def test_syntax_error_becomes_a_finding():
    findings = _lint("def broken(:\n    pass\n")
    assert _rules(findings) == ["syntax-error"]


def test_nested_function_is_a_separate_scope():
    # the closure publishes flushed state; the outer scope's unflushed write
    # never reaches the closure's publish in any execution
    findings = _lint(
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


def test_library_is_clean():
    """Acceptance gate: `python -m repro analyze --static` has no findings."""
    assert lint_repo() == []
