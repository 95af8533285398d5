"""The benchmark's own tests: ``python -m pytest bench -q`` (quick sizes).

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).  Every
workload runs once at levels 2-6 through the real launcher, plain and traced,
so what is checked here is what the driver will execute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py"), "--quick"]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL = [w["name"] for w in DECLARED["workloads"]]


def launch(*args, check=True):
    proc = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    out = tmp_path_factory.mktemp("plain") / "plain.json"
    proc = launch("--repeats", "1", "--json", str(out))
    return json.loads(out.read_text())["results"], proc.stdout


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    launch("--trace", "--json", str(out / "traced.json"), "--out", str(out))
    return json.loads((out / "traced.json").read_text())["results"], out


def test_declaration_is_within_the_contract():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert len(DECLARED["end_to_end"]) <= 16
    assert len(DECLARED["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() \
        <= DECLARED["end_to_end"][0].items()
    assert DECLARED["paths"] == ["bench"]


def test_every_workload_reports_exactly_the_declared_end_to_end(plain):
    results, stdout = plain
    assert list(results) == ALL
    declared = {m["name"] for m in DECLARED["end_to_end"]}
    for name, result in results.items():
        assert set(result["metrics"]) == declared, name
        assert all(v != 0 for v in result["metrics"].values()), name
        assert result["failed"] == 0 and result["attempted"] >= 1, \
            result["failures"]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_one_workload_prints_the_contract_line():
    proc = launch("--workload", "wave_adapt", "--seed", "5", "--seconds", "1",
                  "--trace", "0")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {m["name"]
                                    for m in DECLARED["end_to_end"]}
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(v["unit"] == units[k] and isinstance(v["value"], float)
               for k, v in last["metrics"].items())


def test_traced_pass_reports_exactly_the_declared_per_layer(traced):
    results, _ = traced
    declared = [m["name"] for m in DECLARED["per_layer"]]
    for name, result in results.items():
        assert list(result["metrics"]) == declared, name
        assert result["metrics"]["failed_ops_share"] == 0, result["failures"]
    incore = results["droplet_incore"]["metrics"]
    assert all(v == 0 for k, v in incore.items() if k.startswith("core."))


def test_layer_self_times_sum_to_the_root(traced):
    results, out = traced
    for name, result in results.items():
        rows = [json.loads(line) for line in
                (out / f"{name}.trace.jsonl").read_text().splitlines()]
        spans = {r["id"]: r for r in rows if r["kind"] == "span"}
        own = {sid: s["end_ns"] - s["start_ns"] for sid, s in spans.items()}
        by_layer = {}
        for r in rows:
            if r["kind"] == "span":
                if r["parent"] >= 0:
                    own[r["parent"]] -= r["end_ns"] - r["start_ns"]
            else:
                own[r["parent"]] -= r["self_ns"]
                by_layer[r["layer"]] = by_layer.get(r["layer"], 0) \
                    + r["self_ns"]
        assert all(ns >= 0 for ns in own.values()), name
        for sid, ns in own.items():
            if sid:  # the root's own time is the unattributed remainder
                layer = spans[sid]["layer"]
                by_layer[layer] = by_layer.get(layer, 0) + ns
        root = spans[0]["end_ns"] - spans[0]["start_ns"]
        assert sum(by_layer.values()) + own[0] == pytest.approx(root,
                                                                rel=0.01)
        info = result["info"]
        assert root * 1e-9 == pytest.approx(info["root_s"], rel=0.01)
        for layer, seconds in info["layer_self_s"].items():
            assert by_layer.get(layer, 0) * 1e-9 == pytest.approx(
                seconds, rel=0.01, abs=1e-6), (name, layer)
        assert result["metrics"]["trace.unattributed_fraction"] == \
            pytest.approx(own[0] / root, rel=0.01, abs=1e-6)


def test_the_comparator_is_checked_against_droplet_tight_when_run_alone(
        tmp_path):
    out = tmp_path / "incore.json"
    launch("--repeats", "1", "--workload", "droplet_incore",
           "--json", str(out))
    result = json.loads(out.read_text())["results"]["droplet_incore"]
    assert "final leaf state equals droplet_tight's" in result["checks"]
    assert result["failed"] == 0, result["failures"]


@pytest.mark.parametrize("workload", ["droplet_tight", "droplet_incore"])
def test_a_corrupted_restore_is_a_failed_op(workload):
    proc = launch("--repeats", "1", "--workload", workload,
                  "--corrupt-restore")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    assert "FAILED:" in proc.stdout


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "droplet_tight",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
