#!/usr/bin/env python3
"""Two-clock end-to-end benchmark: ``python bench/run.py``.

Runs each workload in its own subprocess (so ``peak_rss_mb`` and every cache
are per workload, and the thread caps are in the environment before numpy
loads), prints every metric by name with unit, direction and regression
bound, and ends with one JSON line.  ``BENCHMARK.json`` at the repository
root declares the workloads and metrics; this launcher refuses a result whose
names differ from the declaration.

    python bench/run.py                          # end-to-end, all workloads
    python bench/run.py --trace                  # per-layer ledger instead
    python bench/run.py --workload wave_adapt --seed 7 --seconds 10 --trace 0
    python bench/run.py --selfcheck              # two sets must agree
    python -m pytest bench -q                    # quick sizes, < 1 min

See bench/README.md for the two clocks, the metric tables and how to read a
trace file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 2017

#: End-to-end metrics read off the simulated clock and counters: seeded, so
#: two runs of one seed must agree exactly.  Everything else is host time.
SIM_METRICS = ("sim_makespan_ms", "sim_ns_per_leaf_step",
               "nvbm_bytes_written", "nvbm_wear_max", "recover_sim_us")


def load_declaration() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    # single thread, set before numpy loads in the worker
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_worker(name: str, args: argparse.Namespace, trace: int
               ) -> Dict[str, Any]:
    """One workload in one subprocess; returns the worker's JSON result."""
    cmd = [sys.executable, "-m", "bench.workloads", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--repeats", str(args.repeats), "--trace", str(trace)]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt_restore:
        cmd.append("--corrupt-restore")
    if trace and args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        cmd += ["--out", str(Path(args.out) / f"{name}.trace.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                          stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"workload {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def conform(result: Dict[str, Any], declared: List[Dict[str, Any]],
            per_layer: bool) -> None:
    """Make the reported metric names equal the declared ones.

    A per-layer metric a workload has no use for reads 0 (``core.*`` on
    ``droplet_incore``); an end-to-end metric must be reported by every
    workload; an undeclared name is always an error.
    """
    names = [m["name"] for m in declared]
    got = result["metrics"]
    extra = sorted(set(got) - set(names))
    if extra:
        raise SystemExit(f"{result['workload']}: undeclared metrics {extra}")
    missing = [n for n in names if n not in got]
    if missing and not per_layer:
        raise SystemExit(f"{result['workload']}: missing metrics {missing}")
    result["metrics"] = {n: float(got.get(n, 0.0)) for n in names}


def print_header(results: Dict[str, Dict[str, Any]], args) -> None:
    info = next(iter(results.values()))["info"]
    print(f"# nproc={os.cpu_count()} python={info['python']} "
          f"numpy={info['numpy']} scipy={info['scipy']} seed={args.seed}"
          f"{' quick' if args.quick else ''}")


def print_result(result: Dict[str, Any], declared: List[Dict[str, Any]]
                 ) -> None:
    info = result["info"]
    print(f"\n== {result['workload']}: leaves {info['leaves_min']}-"
          f"{info['leaves_max']}, {info['octants_final']} octants, "
          f"{info['repeats']} plain repeats, ops {result['attempted']} "
          f"attempted / {result['failed']} failed")
    if "layer_self_s" in info:
        shares = ", ".join(
            f"{layer} {100 * s / info['root_s']:.1f}%"
            for layer, s in sorted(info["layer_self_s"].items(),
                                   key=lambda kv: -kv[1]))
        print(f"   host self time by layer (traced, root "
              f"{info['root_s']:.2f} s): {shares}")
    elif "wall_spread" in info:
        print(f"   timed {info['steps_timed']} steps, "
              f"{info['restores_timed']} restores; wall_spread "
              f"{info['wall_spread']:.3f} ((max-min)/median over repeats); "
              f"host times are the fastest of the repeats per segment "
              f"(wall_s by medians: {info['wall_s_median']:.4f} s)")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    for m in declared:
        shown = f"{result['metrics'][m['name']]:.6g}"
        clock = "sim " if m["name"] in SIM_METRICS else "host"
        bound = f"  bound {m['bound']:.2f}" if "bound" in m else ""
        tag = f"[{clock}]  " if "bound" in m else ""
        print(f"   {tag}{m['name']:<34} {shown:>14} {m['unit']:<7} "
              f"{m['better']} is better{bound}")


def run_pass(names: List[str], args, trace: int, declared
             ) -> Dict[str, Dict[str, Any]]:
    results = {}
    for name in names:
        results[name] = run_worker(name, args, trace)
        conform(results[name], declared, per_layer=bool(trace))
    return results


def selfcheck(names: List[str], args, declared) -> bool:
    """Two sets of runs of the same code must agree within the bounds."""
    first = run_pass(names, args, 0, declared)
    second = run_pass(names, args, 0, declared)
    ok = True
    print(f"{'workload':<18} {'metric':<28} {'first':>13} {'second':>13} "
          f"{'ratio':>8}  verdict")
    for name in names:
        # repeats of one run further apart than a bound: that bound cannot
        # tell a change from noise on this machine right now
        spread = max(r[name]["info"]["wall_spread"] for r in (first, second))
        for m in declared:
            a = first[name]["metrics"][m["name"]]
            b = second[name]["metrics"][m["name"]]
            change = b / a - 1.0 if a else (0.0 if b == a else float("inf"))
            if m["name"] in SIM_METRICS:
                good, rule = a == b, "identical"
            else:
                good, rule = abs(change) <= m["bound"], \
                    f"within {m['bound']:.2f}"
                if m["name"] != "peak_rss_mb" and spread > m["bound"]:
                    rule += f", unresolved: wall_spread {spread:.2f}"
            ok &= good
            print(f"{name:<18} {m['name']:<28} {a:>13.6g} {b:>13.6g} "
                  f"{1.0 + change:>8.4f}  {'ok' if good else 'FAIL'} ({rule})")
        for result in (first[name], second[name]):
            ok &= result["failed"] == 0
    print("selfcheck", "passed" if ok else "FAILED")
    return ok


def final_line(results: Dict[str, Dict[str, Any]], declared) -> str:
    """The last line of stdout: one JSON object.  With one workload the
    metric names are the declared ones; with several they are prefixed."""
    units = {m["name"]: m["unit"] for m in declared}
    prefix = len(results) > 1
    metrics = {
        (f"{name}.{k}" if prefix else k): {"value": v, "unit": units[k]}
        for name, result in results.items()
        for k, v in result["metrics"].items()
    }
    failed = sum(r["failed"] for r in results.values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    decl = load_declaration()
    declared_names = [w["name"] for w in decl["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append",
                    choices=declared_names,
                    help="run only this workload (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=decl["run_seconds"],
                    help="timed seconds to collect per workload: fresh-rig "
                         "repeats run until their timed regions add up to "
                         "this (at least four repeats, fewer if the run "
                         "would pass 24 s)")
    ap.add_argument("--repeats", type=int, default=0,
                    help="exactly this many plain repeats, ignoring --seconds")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: the traced pass, prints the per-layer metrics; "
                         "0 (default): the plain pass, prints end-to-end")
    ap.add_argument("--quick", action="store_true",
                    help="test size: levels 2-6, 2 steps")
    ap.add_argument("--json", metavar="OUT",
                    help="also write the full results to this file")
    ap.add_argument("--out", metavar="DIR",
                    help="with --trace: write <workload>.trace.jsonl here")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the plain pass twice and compare the two")
    ap.add_argument("--corrupt-restore", action="store_true",
                    help=argparse.SUPPRESS)  # bench/test_bench.py only
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}: nothing to measure",
              file=sys.stderr)
        return 2
    names = args.workload or declared_names
    declared = decl["per_layer"] if args.trace else decl["end_to_end"]

    if args.selfcheck:
        return 0 if selfcheck(names, args, decl["end_to_end"]) else 1

    results = run_pass(names, args, args.trace, declared)
    print_header(results, args)
    for result in results.values():
        print_result(result, declared)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "trace": args.trace,
                       "results": results}, fh, indent=1)
    print(final_line(results, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
