"""The regression-gated bench pipeline and its committed baseline.

Covers the acceptance criteria directly: the *newest* committed
``BENCH_pr<N>.json`` (the one CI's ``bench-smoke`` gates against) validates
against the schema and equals a fresh run, which self-compares clean; the
pr4 baseline's gates all pass against it, the threshold-gated incremental
repartition moves >= 25 % fewer bytes per step than the eager run, and a
synthetically injected 2x NVBM-write regression fails the gate with a
typed report — through both the library API and the CLI.
"""

import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.harness.bench import GATES, compare_envelopes, run_bench
from repro.harness.report import BENCH_SCHEMA, bench_envelope, validate_envelope

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _pr_of(path: pathlib.Path) -> int:
    return int(re.fullmatch(r"BENCH_pr(\d+)\.json", path.name).group(1))


#: what ``ls BENCH_pr*.json | sort -V | tail -1`` picks in CI
BASELINE_PATH = max(REPO_ROOT.glob("BENCH_pr*.json"), key=_pr_of)
BASELINE_PR = _pr_of(BASELINE_PATH)
PREVIOUS_PATH = REPO_ROOT / "BENCH_pr4.json"


@pytest.fixture(scope="module")
def envelope():
    return run_bench(pr=BASELINE_PR)


def test_committed_baseline_is_valid(envelope):
    baseline = json.loads(BASELINE_PATH.read_text())
    assert validate_envelope(baseline) == []
    assert baseline["schema"] == BENCH_SCHEMA
    assert baseline["pr"] == BASELINE_PR
    # the committed file matches what the current code produces
    assert baseline["metrics"] == envelope["metrics"]
    assert baseline["gates"] == envelope["gates"]


def test_pr4_gates_still_pass_against_pr5():
    """...and against every baseline since: the name is pr5's, the check
    runs against the newest."""
    pr4 = json.loads(PREVIOUS_PATH.read_text())
    newest = json.loads(BASELINE_PATH.read_text())
    report = compare_envelopes(pr4, newest)
    assert report.ok, [r.describe() for r in report.regressions]
    # droplet makespan no worse than the pr4 baseline (outside tolerance)
    assert newest["metrics"]["droplet.makespan_ns"] \
        <= pr4["metrics"]["droplet.makespan_ns"] * 1.10


def test_incremental_partition_saves_bytes():
    m = json.loads(BASELINE_PATH.read_text())["metrics"]
    assert m["partition.skipped_rounds"] >= 1
    assert m["partition.bytes_moved_per_step"] \
        <= 0.75 * m["partition.eager_bytes_per_step"]


def test_run_bench_envelope_is_valid_and_gated(envelope):
    assert validate_envelope(envelope) == []
    gates = {g["metric"]: g for g in envelope["gates"]}
    assert set(gates) == {g["metric"] for g in GATES}
    # a "higher is better" gate over a zero baseline is meaningless (any
    # value passes); a zero baseline under a "lower" gate is the strictest
    # gate there is — the metric must *stay* zero — so it is allowed.
    # droplet.stall_ns is exactly that: a fully hidden flush train.
    for name, gate in gates.items():
        if gate["direction"] == "higher":
            assert envelope["metrics"][name] != 0, f"{name} gated at zero"


def test_self_compare_is_clean(envelope):
    report = compare_envelopes(envelope, envelope)
    assert report.ok
    assert report.checked == len(envelope["gates"])
    assert report.regressions == []


def test_injected_write_regression_fails_the_gate(envelope):
    current = json.loads(json.dumps(envelope))
    current["metrics"]["droplet.nvbm_writes"] *= 2  # the acceptance probe
    report = compare_envelopes(envelope, current)
    assert not report.ok
    kinds = {(r.metric, r.kind) for r in report.regressions}
    assert ("droplet.nvbm_writes", "regression") in kinds
    reg = next(r for r in report.regressions
               if r.metric == "droplet.nvbm_writes")
    assert reg.ratio == pytest.approx(2.0)
    assert "tolerance" in reg.describe()


def test_higher_is_better_gate_direction(envelope):
    """overlap_ratio_min gates in the 'higher' direction: a drop fails,
    a rise passes."""
    worse = json.loads(json.dumps(envelope))
    worse["metrics"]["droplet.overlap_ratio_min"] *= 0.5
    assert not compare_envelopes(envelope, worse).ok
    better = json.loads(json.dumps(envelope))
    better["metrics"]["droplet.overlap_ratio_min"] *= 1.01
    assert compare_envelopes(envelope, better).ok


def test_small_drift_within_tolerance_passes(envelope):
    current = json.loads(json.dumps(envelope))
    current["metrics"]["droplet.makespan_ns"] *= 1.05  # gate allows 10%
    assert compare_envelopes(envelope, current).ok


def test_missing_metric_is_reported(envelope):
    current = json.loads(json.dumps(envelope))
    del current["metrics"]["replication.retries"]
    report = compare_envelopes(envelope, current)
    assert not report.ok
    assert any(r.kind == "missing" and r.metric == "replication.retries"
               for r in report.regressions)


def test_schema_mismatch_is_reported(envelope):
    current = json.loads(json.dumps(envelope))
    current["schema"] = "repro-bench/v999"
    report = compare_envelopes(envelope, current)
    assert not report.ok
    assert any(r.kind == "schema" for r in report.regressions)


def test_validate_envelope_rejects_malformed():
    assert validate_envelope({}) != []
    bad_gate = bench_envelope(1, "s", {"m": 1.0},
                              [{"metric": "m", "tolerance": 0.1,
                                "direction": "sideways"}])
    assert any("direction" in e for e in validate_envelope(bad_gate))
    ghost_gate = bench_envelope(1, "s", {"m": 1.0},
                                [{"metric": "ghost", "tolerance": 0.1,
                                  "direction": "lower"}])
    assert any("ghost" in e for e in validate_envelope(ghost_gate))


def test_cli_compare_exit_codes(envelope, tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(envelope))
    same = tmp_path / "same.json"
    same.write_text(json.dumps(envelope))
    assert main(["bench", "--compare", str(base),
                 "--current", str(same)]) == 0
    assert "OK" in capsys.readouterr().out

    bad = json.loads(json.dumps(envelope))
    bad["metrics"]["droplet.nvbm_writes"] *= 2
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(bad))
    assert main(["bench", "--compare", str(base),
                 "--current", str(worse)]) == 1
    out = capsys.readouterr().out
    assert "droplet.nvbm_writes" in out


def test_cli_rejects_invalid_envelope(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({"schema": "nope"}))
    assert main(["bench", "--compare", str(junk),
                 "--current", str(junk)]) == 2
    assert "invalid" in capsys.readouterr().err.lower()


def test_bench_is_deterministic(envelope):
    again = run_bench(pr=BASELINE_PR)
    assert json.dumps(envelope, sort_keys=True) \
        == json.dumps(again, sort_keys=True)
