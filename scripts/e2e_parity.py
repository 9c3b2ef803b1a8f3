#!/usr/bin/env python3
"""Cross-commit output parity of two bench/e2e/run.py results files.

  python3 scripts/e2e_parity.py A.json B.json

Fails (exit 1) when any workload's repeat digest or any `facts` value
differs between A and B, or when a workload or repeat is missing from one
side. Every non-timed per-layer count that differs is listed as well, but
does not fail the check: a change may legitimately move a count (an event
that is no longer scheduled) while every output stays the same. Timed
per-layer metrics (run.py's TIMED_LAYERS) are ignored. Exit 2 on a usage
or read error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench" / "e2e"))
from run import TIMED_LAYERS  # noqa: E402


def output_diffs(a: dict, b: dict) -> List[str]:
    """Every digest or facts difference between two results, one line each."""
    diffs = []
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        if name not in a["workloads"] or name not in b["workloads"]:
            diffs.append(f"{name}: present in only one results file")
            continue
        ra = a["workloads"][name]["report"]["repeats"]
        rb = b["workloads"][name]["report"]["repeats"]
        if len(ra) != len(rb):
            diffs.append(f"{name}: {len(ra)} repeats vs {len(rb)}")
        for i, (x, y) in enumerate(zip(ra, rb)):
            if x["digest"] != y["digest"]:
                diffs.append(f"{name} repeat {i}: digest {x['digest']} != "
                             f"{y['digest']}")
            for key in sorted(set(x["facts"]) | set(y["facts"])):
                va, vb = x["facts"].get(key), y["facts"].get(key)
                if va != vb:
                    diffs.append(f"{name} repeat {i}: facts.{key} {va} != {vb}")
    return diffs


def count_diffs(a: dict, b: dict) -> List[str]:
    """Every non-timed per-layer count that differs, one line each."""
    diffs = []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        la = a["workloads"][name].get("per_layer", {})
        lb = b["workloads"][name].get("per_layer", {})
        for metric in sorted(set(la) | set(lb)):
            if metric in TIMED_LAYERS:
                continue
            va = la.get(metric, {}).get("value")
            vb = lb.get(metric, {}).get("value")
            if va != vb:
                diffs.append(f"{name}: {metric} {va} != {vb}")
    return diffs


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        loaded = []
        for path in args:
            with open(path) as f:
                loaded.append(json.load(f))
    except (OSError, ValueError) as e:
        print(f"e2e_parity.py: {e}", file=sys.stderr)
        return 2
    a, b = loaded
    counts = count_diffs(a, b)
    for line in counts:
        print(f"count differs (not a failure): {line}")
    outputs = output_diffs(a, b)
    for line in outputs:
        print(f"OUTPUT DIFFERS: {line}")
    workloads = len(set(a["workloads"]) | set(b["workloads"]))
    if outputs:
        print(f"e2e parity: FAILED, {len(outputs)} output difference(s)")
        return 1
    print(f"e2e parity: ok, {workloads} workload(s) with identical digests "
          f"and facts; {len(counts)} per-layer count(s) differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
