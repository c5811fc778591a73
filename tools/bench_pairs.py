"""Compare the benchmark of this checkout with a parent revision in pairs.

    python3 tools/bench_pairs.py <parent-rev> [workload ...]

The parent's ``src``, ``perfbench`` and ``BENCHMARK.json`` are exported
with ``git archive`` into a temporary directory (no worktree, nothing in
``.git`` changes).  For each named workload, or every workload
BENCHMARK.json lists when none is named, it runs PAIRS
pairs of the unmodified ``perfbench/run.py --trace 0`` through
``bench_capture.invoke``, one in each checkout, at seeds 1..PAIRS,
alternating which side runs first.  For each end-to-end metric it prints
both medians with their quartiles, the pairs the change won, lost and tied
(a tie, an equal value on both sides, counts for neither) and a verdict
from ``verdict``.  It exits 1, naming each workload and metric that reads
*worse*, once every workload has run, and 0 otherwise.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

from bench_capture import ROOT, invoke, summary

PAIRS = 10


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Summary of one metric over paired runs (``parent[i]`` beside
    ``change[i]``); ``better`` is "higher" or "lower", ``bound`` the largest
    worsening BENCHMARK.json allows, as a fraction of the parent's median.

    The verdict is the first that holds of:
      gain        the change won at least 9/10 of the pairs and its median
                  is better by more than the parent's interquartile range;
      worse       the change's median is worse by more than the bound;
      unresolved  the parent's interquartile range is wider than the bound
                  and not every change run beats every parent run;
      no change   otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = summary(parent), summary(change)
    gains = [sign * (b - a) for a, b in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    spread = p["q3"] - p["q1"]
    margin = bound * abs(p["median"])
    separated = min(sign * b for b in change) > max(sign * a for a in parent)
    if wins >= 0.9 * len(parent) and sign * (c["median"] - p["median"]) > spread:
        name = "gain"
    elif sign * (p["median"] - c["median"]) > margin:
        name = "worse"
    elif spread > margin and not separated:
        name = "unresolved"
    else:
        name = "no change"
    return {"parent": p, "change": c, "wins": wins, "losses": losses,
            "ties": len(parent) - wins - losses, "verdict": name}


def _export(rev: str, into: str) -> None:
    archive = subprocess.run(["git", "archive", rev, "src", "perfbench", "BENCHMARK.json"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def main(parent_rev: str, workloads: list) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    known = [entry["name"] for entry in benchmark["workloads"]]
    unknown = [name for name in workloads if name not in known]
    if unknown:
        sys.exit(f"unknown workload {', '.join(unknown)}; BENCHMARK.json lists "
                 f"{', '.join(known)}")
    worse = []
    with tempfile.TemporaryDirectory() as parent_root:
        _export(parent_rev, parent_root)
        for workload in workloads or known:
            runs = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = [("parent", parent_root), ("change", ROOT)]
                for side, checkout in order if seed % 2 else order[::-1]:
                    runs[side].append(invoke(workload, seed, 0, checkout)["result"]["metrics"])
            print(f"{workload} ({PAIRS} pairs, seeds 1..{PAIRS})")
            for entry in benchmark["end_to_end"]:
                name = entry["name"]
                parent, change = ([run[name]["value"] for run in runs[side]]
                                  for side in ("parent", "change"))
                v = verdict(parent, change, entry["better"], entry["bound"])
                print("  {:<17} parent {:.6g} [{:.6g}, {:.6g}]  change {:.6g} "
                      "[{:.6g}, {:.6g}]  won {}, lost {}, tied {} of {}  {}".format(
                          name, v["parent"]["median"], v["parent"]["q1"], v["parent"]["q3"],
                          v["change"]["median"], v["change"]["q1"], v["change"]["q3"],
                          v["wins"], v["losses"], v["ties"], PAIRS, v["verdict"]),
                      flush=True)
                if v["verdict"] == "worse":
                    worse.append(f"{workload} {name}")
    if worse:
        sys.exit(f"worse: {', '.join(worse)}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python3 tools/bench_pairs.py <parent-rev> [workload ...]")
    main(sys.argv[1], sys.argv[2:])
