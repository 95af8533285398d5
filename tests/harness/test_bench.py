"""The one sim regression gate: ``python -m repro bench`` pinned exactly.

Two committed inputs:

* **the pin** — the newest ``BENCH_pr<N>.json`` is the command's output,
  and a fresh run must print exactly it (every simulated metric and every
  gate);
* **the ratchet** — ``BENCH_pr4.json``'s gates must still hold on the pin,
  within their tolerances, checked by :func:`_failed_gates`.

Planted cases show the ratchet catches a 2x NVBM-write regression, a drop
in a "higher is better" metric and a gated metric that went missing, and
lets a drift inside tolerance through.
"""

import contextlib
import io
import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.harness.bench import GATES, run_bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
RATCHET_PATH = REPO_ROOT / "BENCH_pr4.json"
PIN_PATH = max((p for p in REPO_ROOT.glob("BENCH_pr*.json")
                if p != RATCHET_PATH),
               key=lambda p: int(re.fullmatch(r"BENCH_pr(\d+)\.json",
                                              p.name).group(1)))


def _failed_gates(baseline, current):
    """Names of ``baseline``'s gates that ``current`` fails: ``lower`` fails
    above ``baseline * (1 + tolerance)``, ``higher`` below
    ``baseline * (1 - tolerance)``, and a gated metric ``current`` lacks
    fails too."""
    base, cur = baseline["metrics"], current["metrics"]
    failed = []
    for gate in baseline["gates"]:
        name, tol = gate["metric"], gate["tolerance"]
        if name not in cur:
            failed.append(name)
        elif gate["direction"] == "lower":
            if cur[name] > base[name] * (1.0 + tol) + 1e-12:
                failed.append(name)
        elif cur[name] < base[name] * (1.0 - tol) - 1e-12:
            failed.append(name)
    return failed


@pytest.fixture(scope="module")
def pin():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bench"]) == 0
    return json.loads(out.getvalue())


def _planted(pin, metric, factor=None):
    """A copy of ``pin`` with ``metric`` scaled by ``factor`` (or dropped)."""
    current = json.loads(json.dumps(pin))
    if factor is None:
        del current["metrics"][metric]
    else:
        current["metrics"][metric] *= factor
    return current


def test_committed_baseline_is_valid(pin):
    """The committed pin is exactly what ``repro bench`` prints now."""
    assert pin == json.loads(PIN_PATH.read_text())


def test_repo_holds_the_ratchet_and_one_pin():
    """A re-pin renames the pin (``git mv``); the pile does not grow."""
    names = sorted(p.name for p in REPO_ROOT.glob("BENCH_pr*.json"))
    assert names == sorted([RATCHET_PATH.name, PIN_PATH.name])


def test_pr4_gates_still_pass_against_pr5():
    """...and against every pin since: the name is pr5's, the check runs
    against the pin."""
    pr4 = json.loads(RATCHET_PATH.read_text())
    pinned = json.loads(PIN_PATH.read_text())
    assert len(pr4["gates"]) == 14
    assert _failed_gates(pr4, pinned) == []
    # droplet makespan no worse than the pr4 baseline (outside tolerance)
    assert pinned["metrics"]["droplet.makespan_ns"] \
        <= pr4["metrics"]["droplet.makespan_ns"] * 1.10


def test_incremental_partition_saves_bytes():
    m = json.loads(PIN_PATH.read_text())["metrics"]
    assert m["partition.skipped_rounds"] >= 1
    assert m["partition.bytes_moved_per_step"] \
        <= 0.75 * m["partition.eager_bytes_per_step"]


def test_run_bench_envelope_is_valid_and_gated(pin):
    gates = {g["metric"]: g for g in pin["gates"]}
    assert len(gates) == len(GATES) == 22
    assert set(gates) <= set(pin["metrics"])
    # a "higher is better" gate over a zero baseline is meaningless (any
    # value passes); a zero baseline under a "lower" gate is the strictest
    # gate there is — the metric must *stay* zero — so it is allowed.
    # droplet.stall_ns is exactly that: a fully hidden flush train.
    for name, gate in gates.items():
        assert gate["direction"] in ("lower", "higher")
        if gate["direction"] == "higher":
            assert pin["metrics"][name] != 0, f"{name} gated at zero"


def test_injected_write_regression_fails_the_gate(pin):
    current = _planted(pin, "droplet.nvbm_writes", 2.0)  # the acceptance probe
    assert _failed_gates(pin, current) == ["droplet.nvbm_writes"]


def test_higher_is_better_gate_direction(pin):
    """overlap_ratio_min gates in the 'higher' direction: a drop fails,
    a rise passes."""
    worse = _planted(pin, "droplet.overlap_ratio_min", 0.5)
    assert _failed_gates(pin, worse) == ["droplet.overlap_ratio_min"]
    better = _planted(pin, "droplet.overlap_ratio_min", 1.01)
    assert _failed_gates(pin, better) == []


def test_small_drift_within_tolerance_passes(pin):
    current = _planted(pin, "droplet.makespan_ns", 1.05)  # gate allows 10%
    assert _failed_gates(pin, current) == []


def test_missing_metric_is_reported(pin):
    current = _planted(pin, "replication.retries")
    assert _failed_gates(pin, current) == ["replication.retries"]


def test_bench_is_deterministic(pin):
    assert json.dumps(run_bench(), sort_keys=True) \
        == json.dumps(pin["metrics"], sort_keys=True)
