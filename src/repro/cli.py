"""Command-line interface: run the workloads and experiments from a shell.

    python -m repro simulate --backend pm-octree --steps 50
    python -m repro experiment fig10
    python -m repro recover
    python -m repro analyze --static --trace --sweep
    python -m repro chaos --trials 25 --seed 0
    python -m repro export-vtk --out mesh.vtk --steps 40
    python -m repro list

Every command prints the same tables the benchmark suite asserts on.
``analyze`` and ``chaos`` exit non-zero on any finding, so CI can gate
on them.  ``chaos`` has one mode: every seeded schedule draws from one
event pool (kills, partitions, loss bursts, torn migrations, NVBM media
faults, mid-drain pipeline kills); ``--break-acks`` is its self-test.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.harness import experiments as E
from repro.harness.report import print_table
from repro.parallel.runtime import Backend

#: experiment name -> (runner, short description)
EXPERIMENTS = {
    "table2": (E.exp_table2, "Table 2: device characteristics"),
    "fig3": (E.exp_fig3, "Fig 3: overlap ratio & memory per 1000 octants"),
    "fig5": (E.exp_fig5, "Fig 5: locality-oblivious vs aware layout"),
    "fig6": (E.exp_weak_scaling, "Fig 6/7: weak scaling + breakdown"),
    "fig8": (E.exp_strong_scaling, "Fig 8/9: strong scaling"),
    "fig10": (E.exp_fig10, "Fig 10: DRAM size for the C0 tree"),
    "fig11": (E.exp_fig11, "Fig 11: dynamic transformation"),
    "recovery": (E.exp_recovery, "§5.6: failure recovery"),
    "write-intensity": (E.exp_write_intensity, "§1: write intensity"),
    "ablation": (E.exp_ablation_sampling, "sampling-policy ablation"),
}


def _cmd_list(_args) -> int:
    print_table(
        "available experiments",
        ["name", "description"],
        [(name, desc) for name, (_fn, desc) in sorted(EXPERIMENTS.items())],
    )
    return 0


def _cmd_experiment(args) -> int:
    try:
        fn, desc = EXPERIMENTS[args.name]
    except KeyError:
        print(f"unknown experiment {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    print(f"running {desc} ...")
    result = fn()
    _render_result(args.name, result)
    return 0


def _render_result(name: str, result) -> None:
    if name == "table2":
        print_table("Table 2", ["device", "read ns", "write ns", "endurance"],
                    result)
    elif name == "fig3":
        rows = result[:: max(1, len(result) // 15)]
        print_table(
            "Fig 3", ["step", "overlap", "octants", "KB/1000"],
            [(r.step, r.overlap_ratio, r.octants, r.kb_per_1000_octants)
             for r in rows],
        )
    elif name == "fig5":
        print_table("Fig 5", ["layout", "NVBM writes"], [
            ("oblivious", result.writes_oblivious),
            ("aware", result.writes_aware),
            ("% more", f"{result.pct_more_writes:.0f}%"),
        ])
    elif name in ("fig6", "fig8"):
        points = E.WEAK_POINTS if name == "fig6" else E.STRONG_POINTS
        rows = []
        for i, p in enumerate(points):
            rows.append([p] + [
                result[b][i].makespan_s for b in result
            ])
        print_table(
            "execution time (simulated s)",
            ["P"] + [b.value for b in result],
            rows,
        )
    elif name == "fig10":
        print_table("Fig 10", ["configuration", "budget", "time (s)", "merges"],
                    [(r.label, r.dram_budget_octants, r.makespan_s, r.merges)
                     for r in result])
    elif name == "fig11":
        print_table(
            "Fig 11",
            ["elements", "w/o (s)", "w/ (s)", "time cut", "write cut"],
            [(f"{r.target_elements:.3g}", r.time_without_s, r.time_with_s,
              f"{r.time_reduction_pct:.1f}%", f"{r.write_reduction_pct:.1f}%")
             for r in result],
        )
    elif name == "recovery":
        print_table("§5.6", ["implementation", "same node (s)", "new node (s)"], [
            ("in-core", result.incore_same_node_s, result.incore_new_node_s),
            ("PM-octree", result.pm_same_node_s, result.pm_new_node_s),
            ("out-of-core", result.ooc_same_node_s, "unrecoverable"),
        ])
    elif name == "write-intensity":
        print_table("§1", ["metric", "value"], [
            ("avg write %", f"{result.avg_pct:.1f}"),
            ("max write %", f"{result.max_pct:.1f}"),
        ])
    elif name == "ablation":
        print_table("ablation", ["policy", "NVBM writes", "time (s)"],
                    [(r.policy, r.nvbm_writes, r.makespan_s) for r in result])


def _make_tree(backend: Backend, max_level: int):
    from repro.config import (
        DRAM_SPEC, NVBM_FS_SPEC, NVBM_SPEC, PMOctreeConfig,
    )
    from repro.nvbm.arena import MemoryArena
    from repro.nvbm.clock import SimClock
    from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
    from repro.storage.block import BlockDevice
    from repro.storage.filesystem import SimFileSystem

    clock = SimClock()
    if backend is Backend.PM_OCTREE:
        from repro.core import pm_create

        dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
        nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
        tree = pm_create(dram, nvbm, dim=2,
                         config=PMOctreeConfig(dram_capacity_octants=1 << 16))
        persistence = lambda sim: tree.persist()
    elif backend is Backend.IN_CORE:
        from repro.baselines.incore import CheckpointPolicy, InCoreOctree

        dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 18)
        fs = SimFileSystem(BlockDevice(NVBM_FS_SPEC, clock))
        tree = InCoreOctree(dram, dim=2)
        policy = CheckpointPolicy(fs)
        persistence = lambda sim: policy.maybe_checkpoint(tree, sim.step_count)
    else:
        from repro.baselines.etree import EtreeOctree

        tree = EtreeOctree(BlockDevice(NVBM_FS_SPEC, clock), dim=2)
        persistence = None
    return clock, tree, persistence


def _cmd_simulate(args) -> int:
    from repro.config import SolverConfig
    from repro.solver.simulation import DropletSimulation

    backend = Backend(args.backend)
    clock, tree, persistence = _make_tree(backend, args.max_level)
    solver = SolverConfig(dim=2, min_level=2, max_level=args.max_level,
                          dt=0.01)
    sim = DropletSimulation(tree, solver, clock=clock,
                            persistence=persistence)
    reports = sim.run(args.steps)
    rows = [
        (r.step, f"{r.t:.2f}", r.leaves, r.droplets)
        for r in reports[:: max(1, len(reports) // 12)]
    ]
    print_table(f"droplet ejection on {backend.value}",
                ["step", "t", "leaves", "droplets"], rows)
    print(f"\nsimulated execution time: {clock.now_s:.4f} s")
    return 0


def _cmd_recover(_args) -> int:
    res = E.exp_recovery()
    _render_result("recovery", res)
    return 0


def _baseline_diff(baseline_path: str, fingerprints: List[str]) -> List[dict]:
    """Diff current finding fingerprints against a committed baseline.

    Returns one row per difference: ``new`` findings (not in the baseline —
    a regression) and ``stale`` baseline entries (fixed findings whose
    baseline line must be deleted so the debt cannot silently come back).
    An empty list means the tree matches the baseline exactly.
    """
    import json

    with open(baseline_path) as fh:
        base = json.load(fh)
    known = list(base.get("fingerprints", []))
    current = list(fingerprints)
    rows = []
    for fp in sorted(set(current) - set(known)):
        rows.append({"status": "new", "fingerprint": fp,
                     "detail": "finding not in baseline — fix it or add it "
                               "to the baseline with a review"})
    for fp in sorted(set(known) - set(current)):
        rows.append({"status": "stale", "fingerprint": fp,
                     "detail": "baseline entry no longer observed — delete "
                               "it from the baseline"})
    return rows


def _export_metrics(sections: dict, out_path: str) -> None:
    """Export finding counts as obs metrics (one counter per section/rule).

    The analyzer is offline — there is no simulated clock — so samples carry
    ``updated_ns == 0``; CI dashboards key on the label set, not the stamp.
    """
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    for name, rows in sections.items():
        if name == "sweep":
            reg.counter("analysis.sweep.sites").inc(len(rows))
            failures = sum(1 for r in rows if r.get("recovered") is False)
            reg.counter("analysis.sweep.failures").inc(failures)
            continue
        # a zero-valued total per section distinguishes "ran clean"
        # from "section never ran" in the exported stream
        reg.counter("analysis.findings.total", section=name).inc(len(rows))
        for r in rows:
            rule = str(r.get("rule") or r.get("kind") or r.get("status")
                       or name)
            reg.counter("analysis.findings", section=name, rule=rule).inc()
    with open(out_path, "w") as fh:
        reg.export_jsonl(fh)


def _cmd_analyze(args) -> int:
    """Crash-consistency analysis: pmlint / dataflow / coverage / trace /
    site sweep, plus optional baseline gating and metrics export."""
    import os

    # A typo'd crash-site name armed during analysis must fail the run,
    # not silently never fire (FailureInjector strict mode).
    os.environ.setdefault("REPRO_STRICT_SITES", "1")

    from repro.analysis import (
        analyze_paths, analyze_repo, lint_paths, lint_repo, prove_coverage,
        sweep_all, trace_run,
    )
    from repro.harness.report import render_json

    run_all = not (args.static or args.trace or args.sweep
                   or args.interprocedural or args.coverage)
    sections = {}
    ok = True
    #: interprocedural + coverage findings are the baseline-gated set;
    #: when --baseline is given the diff decides pass/fail for them.
    gated = []
    coverage_summary = None
    epoch_count = None

    if args.static or run_all:
        if args.path:
            findings = lint_paths(args.path)
        else:
            findings = lint_repo()
        sections["static"] = [f.to_row() for f in findings]
        ok = ok and not findings

    result = None
    if args.interprocedural or args.coverage or run_all:
        if args.path:
            result = analyze_paths(args.path)
        else:
            result = analyze_repo()

    if args.interprocedural or run_all:
        sections["interprocedural"] = [f.to_row() for f in result.findings]
        gated.extend(result.findings)

    if args.coverage or run_all:
        report = prove_coverage(result)
        sections["coverage"] = report.finding_rows()
        coverage_summary = report.summary()
        gated.extend(report.findings)

    if args.baseline:
        diff = _baseline_diff(args.baseline,
                              [f.fingerprint() for f in gated])
        sections["baseline"] = diff
        ok = ok and not diff
    else:
        ok = ok and not gated

    if args.trace or run_all:
        tracker = trace_run(steps=args.steps,
                            strict_epochs=args.strict_epochs)
        rows = tracker.report_rows()
        sections["trace"] = [r for r in rows
                             if r["kind"] != "cross-epoch-waf"]
        sections["epochs"] = [r for r in rows
                              if r["kind"] == "cross-epoch-waf"]
        epoch_count = tracker.counts["epochs"]
        ok = ok and not tracker.violations

    if args.sweep or run_all:
        outcomes = sweep_all(max_steps=args.steps)
        sections["sweep"] = [o.to_row() for o in outcomes]
        ok = ok and all(o.ok for o in outcomes)

    if args.metrics_out:
        _export_metrics(sections, args.metrics_out)

    if args.json:
        print(render_json(sections, ok))
        return 0 if ok else 1

    if "static" in sections:
        rows = sections["static"]
        if rows:
            print_table("pmlint findings", ["rule", "where", "message"],
                        [(r["rule"], f"{r['path']}:{r['line']}", r["message"])
                         for r in rows])
        else:
            print("pmlint: clean (0 findings)")
    if "interprocedural" in sections:
        rows = sections["interprocedural"]
        if rows:
            print_table(
                "dataflow findings", ["rule", "where", "witness chain"],
                [(r["rule"], f"{r['path']}:{r['line']}",
                  " -> ".join(r["chain"]) or "-") for r in rows],
            )
            for r in rows:
                print(f"  {r['path']}:{r['line']}: {r['message']}")
        else:
            print("dataflow: clean (0 findings)")
    if "coverage" in sections:
        rows = sections["coverage"]
        if rows:
            print_table(
                "coverage findings", ["rule", "where", "message"],
                [(r["rule"], f"{r['path']}:{r['line']}", r["message"])
                 for r in rows],
            )
        else:
            s = coverage_summary or {}
            print(f"coverage: proven — {s.get('windows', 0)} "
                  f"mutate->publish window(s) and {s.get('retires', 0)} "
                  "retire(s) all contain a registered crash site "
                  f"({s.get('declared_sites', 0)} sites anchored)")
    if "baseline" in sections:
        rows = sections["baseline"]
        if rows:
            print_table("baseline drift", ["status", "fingerprint", "detail"],
                        [(r["status"], r["fingerprint"], r["detail"])
                         for r in rows])
        else:
            print("baseline: matches (no new or stale findings)")
    if "trace" in sections:
        rows = sections["trace"] + sections["epochs"]
        if rows:
            print_table("ordering violations",
                        ["kind", "handle", "slot", "detail"],
                        [(r["kind"], r["handle"], r["slot"], r["detail"])
                         for r in rows])
        else:
            epochs = (f", {epoch_count} persist epoch(s) opened+closed"
                      if epoch_count is not None else "")
            strict = " [strict-epochs]" if args.strict_epochs else ""
            print(f"ordering trace: clean (0 violations{epochs}){strict}")
    if "sweep" in sections:
        print_table(
            "crash-site sweep",
            ["site", "fired", "recovered", "matched", "detail"],
            [(r["site"], r["fired"], r["recovered"], r["matched"],
              r["detail"]) for r in sections["sweep"]],
        )
        bad = [r for r in sections["sweep"] if r["recovered"] is False]
        print(f"\nsweep: {len(sections['sweep'])} sites, "
              f"{len(bad)} recovery failure(s)")
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    """Seeded chaos run: random fault schedules, recovery invariants."""
    from repro.harness.chaos import run_chaos
    from repro.harness.report import render_json

    report = run_chaos(trials=args.trials, seed=args.seed, steps=args.steps,
                       break_acks=args.break_acks, only_trial=args.trial)

    if args.json:
        sections = {
            "trials": [t.to_row() for t in report.trials],
            "reproducer": ([report.reproducer]
                           if report.reproducer is not None else []),
        }
        print(render_json(sections, report.ok))
        return 0 if report.ok else 1

    print_table(
        f"chaos (seed={report.seed}, {len(report.trials)} trials)",
        ["trial", "outcome", "steps", "recoveries", "retries", "resyncs",
         "wait (ms)", "events"],
        [(r["trial"], r["outcome"], r["steps"], r["recoveries"],
          r["retries"], r["resyncs"], r["wait_ms"], r["events"])
         for r in (t.to_row() for t in report.trials)],
    )
    print(f"\nchaos: {report.passed} passed, {report.failed} failed")
    for t in report.trials:
        if t.outcome == "degraded":
            print(f"  trial {t.trial}: Degraded — {t.degraded_reason}")
    if report.reproducer is not None:
        rep = report.reproducer
        print("\nFAILURE — minimal seeded reproducer:")
        for v in rep["violations"]:
            print(f"  violation: {v}")
        print(f"  minimal schedule: {rep['minimal_schedule']}")
        print(f"  replay with: {rep['command']}")
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    """Run the pinned benchmark suite; optionally gate against a baseline."""
    import json

    from repro.harness.bench import compare_envelopes, run_bench
    from repro.harness.report import render_json, validate_envelope

    if args.current:
        with open(args.current) as fh:
            env = json.load(fh)
    else:
        env = run_bench(pr=args.pr)
    problems = validate_envelope(env)
    if problems:
        for p in problems:
            print(f"bench: invalid envelope: {p}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(env, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)

    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        base_problems = validate_envelope(baseline)
        if base_problems:
            for p in base_problems:
                print(f"bench: invalid baseline: {p}", file=sys.stderr)
            return 2
        rep = compare_envelopes(baseline, env)
        if args.json:
            print(render_json({"regressions": rep.rows()}, rep.ok))
        elif rep.ok:
            print(f"bench: OK — {rep.checked} gates within tolerance")
        else:
            print_table(
                "bench regressions",
                ["metric", "kind", "baseline", "current", "tolerance"],
                [(r.metric, r.kind, r.baseline, r.current,
                  f"{r.tolerance:.0%}") for r in rep.regressions],
            )
            for r in rep.regressions:
                print(f"  {r.describe()}")
        return 0 if rep.ok else 1

    if args.json:
        print(json.dumps(env, indent=2, sort_keys=True))
    else:
        print_table("bench metrics", ["metric", "value"],
                    sorted(env["metrics"].items()))
    return 0


def _cmd_export_vtk(args) -> int:
    from repro.config import SolverConfig
    from repro.octree.vtkout import tree_to_vtk
    from repro.solver.simulation import DropletSimulation

    clock, tree, persistence = _make_tree(Backend.PM_OCTREE, args.max_level)
    solver = SolverConfig(dim=2, min_level=2, max_level=args.max_level,
                          dt=0.01)
    sim = DropletSimulation(tree, solver, clock=clock,
                            persistence=persistence)
    sim.run(args.steps)
    vtk = tree_to_vtk(tree, payload_slot=0, field_name="vof",
                      title=f"droplet ejection t={sim.t:.2f}")
    with open(args.out, "w") as fh:
        fh.write(vtk)
    print(f"wrote {args.out}: {tree.num_leaves()} cells at t={sim.t:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PM-octree (SC'17) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments") \
        .set_defaults(func=_cmd_list)

    p = sub.add_parser("experiment", help="run one experiment by name")
    p.add_argument("name", help="e.g. fig10 (see `list`)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("simulate", help="run the droplet workload")
    p.add_argument("--backend", default="pm-octree",
                   choices=[b.value for b in Backend])
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--max-level", type=int, default=6)
    p.set_defaults(func=_cmd_simulate)

    sub.add_parser("recover", help="run the §5.6 recovery comparison") \
        .set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "analyze",
        help="crash-consistency checks: static lint, interprocedural "
             "dataflow, crash-site coverage proof, ordering trace, "
             "exhaustive crash-site sweep (default: all five)",
    )
    p.add_argument("--static", action="store_true",
                   help="run pmlint over the library source")
    p.add_argument("--interprocedural", action="store_true",
                   help="run the interprocedural flush/publish dataflow "
                        "pass (call-chain witnesses)")
    p.add_argument("--coverage", action="store_true",
                   help="prove every mutate->publish window and journal "
                        "retire contains a registered crash site")
    p.add_argument("--trace", action="store_true",
                   help="run the workload with the runtime ordering tracker")
    p.add_argument("--strict-epochs", action="store_true",
                   help="raise on cross-epoch write-after-flush races in "
                        "--trace (a no-op on the synchronous pipeline; "
                        "gates the future pipelined persist)")
    p.add_argument("--sweep", action="store_true",
                   help="arm every registered crash site and verify recovery")
    p.add_argument("--baseline", metavar="BASELINE.json",
                   help="gate --interprocedural/--coverage findings against "
                        "a committed fingerprint baseline: new findings and "
                        "stale baseline entries both fail")
    p.add_argument("--metrics-out", metavar="METRICS.jsonl",
                   help="export finding counts as obs metrics JSONL")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON report")
    p.add_argument("--steps", type=int, default=8,
                   help="workload steps for --trace/--sweep")
    p.add_argument("--path", nargs="*",
                   help="files/directories for --static/--interprocedural "
                        "(default: repro)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "chaos",
        help="run seeded randomized fault schedules (host/peer kills, "
             "partitions, loss bursts, torn migrations, NVBM media faults, "
             "mid-drain pipeline kills — one pool) against the recovery "
             "stack and assert the fault-tolerance invariants",
    )
    p.add_argument("--trials", type=int, default=25,
                   help="number of seeded trials to run")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; (seed, trial) determines everything")
    p.add_argument("--steps", type=int, default=10,
                   help="workload steps per trial")
    p.add_argument("--trial", type=int, default=None,
                   help="replay exactly one trial index (reproducer mode)")
    p.add_argument("--break-acks", action="store_true",
                   help="deliberately ignore protocol acks (harness "
                        "self-test: the run must fail)")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON report")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "bench",
        help="run the pinned benchmark suite; with --compare, exit non-zero "
             "on any regression beyond the baseline's gate tolerances",
    )
    p.add_argument("--pr", type=int, default=0,
                   help="PR number stamped into the envelope")
    p.add_argument("--out", help="write the envelope JSON to this path")
    p.add_argument("--compare", metavar="BASELINE.json",
                   help="gate the run against a committed baseline envelope")
    p.add_argument("--current", metavar="CURRENT.json",
                   help="use this pre-computed envelope instead of running "
                        "the suite (file-to-file comparison)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("export-vtk", help="simulate and write a VTK mesh")
    p.add_argument("--out", default="mesh.vtk")
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--max-level", type=int, default=6)
    p.set_defaults(func=_cmd_export_vtk)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
