"""Command-line interface tests."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment(capsys):
    assert main(["experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_table2(capsys):
    assert main(["experiment", "table2"]) == 0
    out = capsys.readouterr().out
    assert "DRAM" in out and "NVBM" in out
    assert "150" in out


def test_experiment_fig5(capsys):
    assert main(["experiment", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "oblivious" in out and "aware" in out


def test_simulate_pm(capsys):
    assert main(["simulate", "--steps", "6", "--max-level", "4"]) == 0
    out = capsys.readouterr().out
    assert "droplet ejection on pm-octree" in out
    assert "simulated execution time" in out


def test_simulate_other_backends(capsys):
    for backend in ("in-core", "out-of-core"):
        assert main(["simulate", "--backend", backend, "--steps", "3",
                     "--max-level", "3"]) == 0
        assert backend in capsys.readouterr().out


def test_export_vtk(tmp_path, capsys):
    out_file = tmp_path / "mesh.vtk"
    assert main(["export-vtk", "--out", str(out_file), "--steps", "4",
                 "--max-level", "4"]) == 0
    content = out_file.read_text()
    assert content.startswith("# vtk DataFile Version 3.0")
    assert "SCALARS vof double 1" in content


def test_analyze_static(capsys, monkeypatch, repo_analysis):
    monkeypatch.setattr("repro.analysis.analyze_repo", lambda: repo_analysis)
    assert main(["analyze", "--static"]) == 0
    out = capsys.readouterr().out
    assert "static: clean (0 findings)" in out
    assert "coverage: proven" in out


def test_analyze_static_json(capsys, monkeypatch, repo_analysis):
    import json

    monkeypatch.setattr("repro.analysis.analyze_repo", lambda: repo_analysis)
    assert main(["analyze", "--static", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["sections"] == {"static": [], "coverage": []}
    assert payload["counts"] == {"static": 0, "coverage": 0}


def test_analyze_static_flags_planted_bug(tmp_path, capsys):
    bad = tmp_path / "planted.py"
    bad.write_text(
        "def persist(self):\n"
        "    self.nvbm.new_octant(rec)\n"
        "    self.nvbm.roots.set(SLOT_PREV, h)\n"
    )
    assert main(["analyze", "--static", "--path", str(bad)]) == 1
    assert "missing-flush" in capsys.readouterr().out


def test_analyze_trace(capsys):
    assert main(["analyze", "--trace", "--steps", "3"]) == 0
    assert "ordering trace: clean" in capsys.readouterr().out


def test_chaos_smoke(capsys):
    assert main(["chaos", "--trials", "2", "--seed", "0",
                 "--steps", "5"]) == 0
    out = capsys.readouterr().out
    assert "chaos:" in out and "2 passed" in out


def test_chaos_json(capsys):
    import json

    assert main(["chaos", "--trials", "2", "--seed", "0", "--steps", "5",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert len(payload["sections"]["trials"]) == 2
    assert payload["sections"]["reproducer"] == []


def test_chaos_break_acks_fails_with_reproducer(capsys):
    assert main(["chaos", "--trials", "2", "--seed", "0", "--steps", "5",
                 "--break-acks"]) == 1
    out = capsys.readouterr().out
    assert "FAILURE" in out and "minimal seeded reproducer" in out
    assert "--break-acks" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_bad_backend_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--backend", "magnetic-tape"])


PLANTED_INTERPROCEDURAL = (
    "SLOT_PREV = 0\n"
    "\n"
    "def plant_store(tree, rec, h):\n"
    "    tree.nvbm.write_payload(h, rec)\n"
    "\n"
    "def plant_persist(tree, rec, h):\n"
    "    plant_store(tree, rec, h)\n"
    "    tree.nvbm.roots.set(SLOT_PREV, h)\n"
)


def test_analyze_interprocedural_flags_planted_bug(tmp_path, capsys):
    bad = tmp_path / "planted.py"
    bad.write_text(PLANTED_INTERPROCEDURAL)
    assert main(["analyze", "--static", "--path", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "missing-flush" in out
    # the witness chain names the frames the store flowed through
    assert "plant_persist" in out and "plant_store" in out


def test_analyze_deep_json_golden_snapshot(capsys, monkeypatch,
                                           repo_analysis):
    """Clean-tree golden envelope: the static pass over the real source
    must report exactly nothing, in the schema-versioned shape CI diffs.
    The pass itself is the session's shared result."""
    import json
    import pathlib

    monkeypatch.setattr("repro.analysis.analyze_repo", lambda: repo_analysis)
    baseline = pathlib.Path(__file__).parents[1] / "ANALYZE_BASELINE.json"
    assert main(["analyze", "--static",
                 "--baseline", str(baseline), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "schema": "repro-analyze/v1",
        "ok": True,
        "sections": {"static": [], "coverage": [], "baseline": []},
        "counts": {"static": 0, "coverage": 0, "baseline": 0},
    }


def test_analyze_baseline_accepts_known_and_flags_drift(tmp_path, capsys):
    import json

    from repro.analysis import analyze_paths, prove_coverage

    bad = tmp_path / "planted.py"
    bad.write_text(PLANTED_INTERPROCEDURAL)
    result = analyze_paths([bad])
    gated = result.findings \
        + prove_coverage(result, check_anchors=False).findings
    fps = sorted({f.fingerprint() for f in gated})
    # the plant fired in both sections: the missing flush, and the
    # store->publish window with no crash site in it
    assert {fp.split("//")[0] for fp in fps} == {"missing-flush",
                                                 "uncovered-path"}

    # new finding vs an empty baseline: fail
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"fingerprints": []}))
    assert main(["analyze", "--static", "--path", str(bad),
                 "--baseline", str(empty)]) == 1
    assert "new" in capsys.readouterr().out

    # the same finding accepted in the baseline: pass
    known = tmp_path / "known.json"
    known.write_text(json.dumps({"fingerprints": fps}))
    assert main(["analyze", "--static", "--path", str(bad),
                 "--baseline", str(known)]) == 0
    assert "baseline: matches" in capsys.readouterr().out

    # a stale entry (finding since fixed): fail until it is deleted
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"fingerprints": fps + ["gone//x.py//f"]}))
    assert main(["analyze", "--static", "--path", str(bad),
                 "--baseline", str(stale)]) == 1
    assert "stale" in capsys.readouterr().out


def test_analyze_metrics_export(tmp_path, capsys):
    import json

    bad = tmp_path / "planted.py"
    bad.write_text(PLANTED_INTERPROCEDURAL)
    out_file = tmp_path / "metrics.jsonl"
    assert main(["analyze", "--static", "--path", str(bad),
                 "--metrics-out", str(out_file)]) == 1
    capsys.readouterr()
    samples = [json.loads(line)
               for line in out_file.read_text().splitlines()]
    by_key = {(s["name"], tuple(sorted(s["labels"].items()))): s["value"]
              for s in samples}
    assert by_key[("analysis.findings.total",
                   (("section", "static"),))] == 1
    assert by_key[("analysis.findings",
                   (("rule", "missing-flush"),
                    ("section", "static")))] == 1
    assert by_key[("analysis.findings",
                   (("rule", "uncovered-path"),
                    ("section", "coverage")))] == 1


def test_analyze_trace_strict_epochs(capsys):
    assert main(["analyze", "--trace", "--strict-epochs",
                 "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "ordering trace: clean" in out
    assert "[strict-epochs]" in out
    assert "epoch(s) opened+closed" in out
