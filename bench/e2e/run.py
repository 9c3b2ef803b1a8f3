#!/usr/bin/env python3
"""End-to-end benchmark of the CloudFog simulator.

Builds bench/e2e (a CMake project of its own) into .bench_build/e2e, runs
every workload in its own process and prints every metric with its unit.
The metric names, units and bounds come from BENCHMARK.json at the repo root;
README.md beside this file explains the workloads and the layer map.

  python3 bench/e2e/run.py                 # every workload, 5 measured repeats
  python3 bench/e2e/run.py --traced        # per-layer table + Perfetto traces
  python3 bench/e2e/run.py --smoke         # ~8x smaller, checks included
  python3 bench/e2e/run.py --compare A.json B.json
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The last form runs one workload for S seconds and ends its output with one
JSON line: {"correct", "attempted", "failed", "metrics"}, where metrics are
the end-to-end ones (--trace 0) or the per-layer ones (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
OUT_DIR = BUILD_DIR / "out"
BINARY = BUILD_DIR / "cloudfog_e2e"
REFERENCE = HERE / "reference.json"

# Per-layer metrics derived from wall time; every other per-layer metric is
# a deterministic count or ratio and must repeat exactly.
TIMED_LAYERS = {
    "systems.build_ms",
    "systems.event_loop_ms",
    "systems.run_setup_frac",
    "systems.assemble_frac",
    "core.sender.submit_frac",
    "core.sender.run_self_frac",
    "obs.trace_overhead_frac",
}


class BenchError(Exception):
    """A build or workload process failed; no result is printed."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_reference(smoke: bool) -> dict:
    with open(REFERENCE) as f:
        return json.load(f)["smoke" if smoke else "full"]


# --- build and run ------------------------------------------------------------


def build() -> None:
    """Configures once, then builds incrementally. Compiler temporaries stay
    inside the build tree."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--parallel", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_workload(name: str, seed: int, *, repeats: int = 0,
                 seconds: float = 0.0, traced: bool = False,
                 smoke: bool = False) -> dict:
    """Runs one workload process and returns its raw report."""
    cmd = [str(BINARY), f"--workload={name}", f"--seed={seed}"]
    cmd.append(f"--repeats={repeats}" if repeats else f"--seconds={seconds}")
    if smoke:
        cmd.append("--smoke")
    trace = OUT_DIR / f"e2e_trace_{name}.json"
    if traced:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", f"--trace-out={trace}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise BenchError(f"{name}: exit code {proc.returncode}")
    report = json.loads(proc.stdout)
    if traced:
        tag_trace(trace, f"{name}/seed{seed}/traced")
    return report


def tag_trace(path: Path, repeat_id: str) -> None:
    """Marks every span of the traced repeat with the repeat's identifier."""
    with open(path) as f:
        trace = json.load(f)
    for event in trace["traceEvents"]:
        if event.get("ph") == "X":
            event.setdefault("args", {})["repeat"] = repeat_id
    with open(path, "w") as f:
        json.dump(trace, f)


# --- statistics -----------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def distribution(values: Sequence[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": list(values)}


def spread(d: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    return (d["q3"] - d["q1"]) / d["median"] if d["median"] else 0.0


# --- correctness ------------------------------------------------------------------


def check_report(report: dict, reference: dict) -> List[Tuple[int, str]]:
    """Every failed check as (repeat index, message).

    Exact: the segment count is players x window / period; on packet-train
    every submitted packet is sent or dropped and every sent one delivered;
    every repeat has the first repeat's digest. Tolerance: QoE and cache
    figures sit within reference.json's tolerance of its reference value.
    """
    failures = []
    repeats = report["repeats"]
    for i, rep in enumerate(repeats):
        f = rep["facts"]
        if rep["digest"] != repeats[0]["digest"]:
            failures.append((i, f"digest {rep['digest']} != repeat 0's "
                                f"{repeats[0]['digest']}"))
        if "players" in f:
            expected = round(f["players"] * f["window_ms"] / f["period_ms"])
            if f["segments"] != expected:
                failures.append((i, f"{f['segments']:.0f} segments generated, "
                                    f"expected {expected}"))
        else:
            if f["submitted"] != f["sent"] + f["dropped"]:
                failures.append((i, f"submitted {f['submitted']:.0f} != "
                                    f"sent + dropped"))
            if f["deliveries"] != f["sent"]:
                failures.append((i, f"{f['deliveries']:.0f} deliveries != "
                                    f"{f['sent']:.0f} sent"))
        for key, (value, tolerance) in reference[report["workload"]].items():
            if key not in f or abs(f[key] - value) > tolerance:
                failures.append((i, f"{key} = {f.get(key)} outside "
                                    f"{value} +- {tolerance}"))
    return failures


# --- metrics -----------------------------------------------------------------------


def segment_ns(rep: dict) -> float:
    """Speed-normalised run time per segment of one repeat."""
    return rep["wall_s"] * 1e9 / rep["segments"] / rep["slowdown"]


def summarize(report: dict, spec: dict, reference: dict) -> dict:
    """One workload's verdicts, end-to-end distributions and per-layer values.

    Times are divided by the host slowdown the speed probes measured around
    them; the raw wall time per segment is kept beside them.
    """
    repeats = report["repeats"]
    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    failures = check_report(report, reference)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary = {
        "attempted": len(repeats),
        "failed": len({i for i, _ in failures}),
        "failures": [f"repeat {i}: {message}" for i, message in failures],
        "end_to_end": {
            "segment_ns": distribution([segment_ns(r) for r in untraced],
                                       units["segment_ns"]),
            "setup_s": distribution(
                [s / report["setup_slowdown"] for s in report["setup_s"]],
                units["setup_s"]),
            "peak_rss_mb": distribution([report["peak_rss_mb"]],
                                        units["peak_rss_mb"]),
        },
        "raw": {
            "segment_wall_ns": distribution(
                [r["wall_s"] * 1e9 / r["segments"] for r in untraced], "ns"),
            "slowdown": distribution([r["slowdown"] for r in untraced], "x"),
        },
        "report": report,
    }
    if traced:
        t = traced[0]
        layers = {name: value / t["slowdown"] if name.endswith("_ms") else value
                  for name, value in t["layers"].items()}
        layers["obs.trace_overhead_frac"] = (
            segment_ns(t) / statistics.median(segment_ns(r) for r in untraced)
            - 1.0)
        unknown = set(layers) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise BenchError(f"per-layer metrics missing from BENCHMARK.json: "
                             f"{sorted(unknown)}")
        # A layer the workload does not exercise reports 0.
        summary["per_layer"] = {
            m["name"]: {"unit": m["unit"], "value": layers.get(m["name"], 0.0)}
            for m in spec["per_layer"]}
    return summary


def packet_ns(summary: dict) -> Optional[float]:
    """Speed-normalised ns per sent packet on packet-train."""
    untraced = [r for r in summary["report"]["repeats"] if not r["traced"]]
    if not untraced or not untraced[0]["packets"]:
        return None
    return statistics.median(segment_ns(r) * r["segments"] / r["packets"]
                             for r in untraced)


def print_summary(name: str, summary: dict, out=sys.stdout) -> None:
    print(f"\n== {name}", file=out)
    print(f"  {'metric':<34}{'unit':>16}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'n':>4}", file=out)
    for metric, d in list(summary["end_to_end"].items()) + list(
            summary["raw"].items()):
        print(f"  {metric:<34}{d['unit']:>16}{d['median']:>14.6g}"
              f"{d['q1']:>14.6g}{d['q3']:>14.6g}{d['n']:>4}", file=out)
    pns = packet_ns(summary)
    if pns is not None:
        print(f"  {'packet_ns':<34}{'ns':>16}{pns:>14.6g}", file=out)
    print(f"  {'failed_frac':<34}{'ratio':>16}"
          f"{summary['failed'] / summary['attempted']:>14.6g}"
          f"   ({summary['failed']}/{summary['attempted']} repeats)", file=out)
    for line in summary["failures"]:
        print(f"  FAILED {line}", file=out)
    for metric, d in summary.get("per_layer", {}).items():
        print(f"  {metric:<34}{d['unit']:>16}{d['value']:>14.6g}", file=out)


# --- comparison ----------------------------------------------------------------------


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """'worse' when b's median is worse than a's by more than the bound;
    'unresolved' when either side's spread exceeds the bound, unless every
    run of b beats every run of a; 'ok' otherwise."""
    if better == "lower":
        worse_by = b["median"] / a["median"] - 1.0
        b_wins = max(b["values"]) < min(a["values"])
    else:
        worse_by = 1.0 - b["median"] / a["median"]
        b_wins = min(b["values"]) > max(a["values"])
    if max(spread(a), spread(b)) > bound:
        return "ok" if b_wins else "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(a: dict, b: dict, spec: dict, out=sys.stdout) -> bool:
    """Prints A vs B per workload x metric; True when nothing is worse,
    unresolved or different."""
    clean = True
    for name in spec_workloads(spec):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"\n== {name}", file=out)
        for m in spec["end_to_end"]:
            da, db = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            v = verdict(da, db, m["better"], m["bound"])
            clean &= v == "ok"
            print(f"  {m['name']:<34} A {da['median']:.6g} [{da['q1']:.6g}, "
                  f"{da['q3']:.6g}]  B {db['median']:.6g} [{db['q1']:.6g}, "
                  f"{db['q3']:.6g}]  B/A {db['median'] / da['median']:.4f}  {v}",
                  file=out)
        for label, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                clean = False
                print(f"  {label}: {w['failed']}/{w['attempted']} repeats "
                      f"failed a correctness check", file=out)
        if "per_layer" in wa and "per_layer" in wb:
            for metric, da in wa["per_layer"].items():
                va, vb = da["value"], wb["per_layer"][metric]["value"]
                if metric in TIMED_LAYERS:
                    v = "timed"
                else:
                    v = "same" if va == vb else "differs"
                    clean &= v == "same"
                print(f"  {metric:<34} A {va:.6g}  B {vb:.6g}  {v}", file=out)
    return clean


# --- entry points ----------------------------------------------------------------------


def spec_workloads(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_one(args, spec: dict) -> int:
    """The single-workload form: ends stdout with the result JSON line."""
    traced = args.trace == 1
    report = run_workload(args.workload, args.seed, seconds=args.seconds,
                          traced=traced, smoke=args.smoke)
    summary = summarize(report, spec, load_reference(args.smoke))
    print_summary(args.workload, summary)
    if traced:
        metrics = {m: {"value": d["value"], "unit": d["unit"]}
                   for m, d in summary["per_layer"].items()}
    else:
        metrics = {m: {"value": d["median"], "unit": d["unit"]}
                   for m, d in summary["end_to_end"].items()}
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, one process each; writes a results file for --compare."""
    repeats = args.repeats or (1 if args.traced or args.smoke else 5)
    traced = args.traced or args.smoke
    reference = load_reference(args.smoke)
    results = {"commit": git_commit(), "nproc": os.cpu_count(),
               "seed": args.seed, "smoke": args.smoke, "workloads": {}}
    for name in spec_workloads(spec):
        report = run_workload(name, args.seed, repeats=repeats, traced=traced,
                              smoke=args.smoke)
        summary = summarize(report, spec, reference)
        results["workloads"][name] = summary
        print_summary(name, summary)
        if traced:
            print(f"  trace: {OUT_DIR / f'e2e_trace_{name}.json'}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nresults: {out}")
    failed = sum(s["failed"] for s in results["workloads"].values())
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run only this workload (result line)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measured time per workload with --workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 reports the per-layer metrics")
    p.add_argument("--repeats", type=int, default=0,
                   help="measured repeats per workload (default 5; 1 with "
                        "--traced or --smoke)")
    p.add_argument("--traced", action="store_true",
                   help="add a traced repeat: per-layer table and traces")
    p.add_argument("--smoke", action="store_true",
                   help="every workload ~8x smaller, traced, checks included")
    p.add_argument("--out", default=str(OUT_DIR / "e2e_results.json"),
                   help="results file for --compare")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two results files and exit")
    args = p.parse_args(argv)
    spec = load_spec()
    try:
        if args.compare:
            loaded = []
            for path in args.compare:
                with open(path) as f:
                    loaded.append(json.load(f))
            return 0 if compare(loaded[0], loaded[1], spec) else 1
        if args.workload is not None and args.workload not in spec_workloads(spec):
            p.error(f"unknown workload {args.workload!r}")
        build()
        return run_one(args, spec) if args.workload else run_all(args, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
