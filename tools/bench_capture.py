"""Record the benchmark's end-to-end trajectory as BENCH_<tag>.json.

    python3 tools/bench_capture.py <tag>

For each workload in BENCHMARK.json of the checkout that holds this
script, it runs that checkout's ``perfbench/run.py`` five times untraced
(``--trace 0 --seconds 30``, seeds 1-5) and once traced (``--trace 1``,
seed 1), keeps each invocation's ``environment:`` line and result JSON,
and summarizes every end-to-end metric over the untraced invocations by
its median and quartiles.  BENCH_<tag>.json goes to the checkout's root;
the schema is in README.md.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 30


def invoke(workload: str, seed: int, trace: int, root: str = ROOT) -> dict:
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    lines = subprocess.run(command, cwd=root, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    environment = next(line for line in lines if line.startswith("environment: "))
    return {"seed": seed, "trace": trace,
            "environment": json.loads(environment[len("environment: "):]),
            "result": json.loads(lines[-1])}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(tag: str) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = {}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        runs = [invoke(workload, seed, 0) for seed in SEEDS]
        metrics = {entry["name"]: dict(summary([run["result"]["metrics"][entry["name"]]["value"]
                                                for run in runs]), unit=entry["unit"])
                   for entry in benchmark["end_to_end"]}
        workloads[workload] = {"invocations": runs + [invoke(workload, SEEDS[0], 1)],
                               "end_to_end": metrics}
        print(f"{workload}: " + ", ".join(f"{name} {m['median']:.6g}"
                                          for name, m in metrics.items()), flush=True)
    with open(os.path.join(ROOT, f"BENCH_{tag}.json"), "w") as fh:
        json.dump({"tag": tag, "seconds": SECONDS, "workloads": workloads}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/bench_capture.py <tag>")
    main(sys.argv[1])
