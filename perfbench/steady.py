#!/usr/bin/env python3
"""Steadiness check: repeat benchmark runs and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py                       # seeds 1-5, twice each
    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --repeats 1
    python3 perfbench/steady.py --workloads wfs-arenas --trace

Each repeat runs every workload once per seed; the workload order
alternates between repeats.  For each metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the quartile spread as a
share of the median, next to the bound in ``BENCHMARK.json``.

It exits 1 when a check fails:

* on ``wfs-arenas``, ``protocol-mix`` and ``service-sessions``, runs of
  the same seed must report identical counts (transitions, message
  facts, output fingerprints, and in traced runs ``Instance`` builds and
  engine calls), and every round of a run must repeat the first; a
  difference means some seed leaked into the program;
* every run of a workload must fail the same share of its operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("wfs-arenas", "protocol-mix", "service-sessions")


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    result = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    detail = next(
        json.loads(line[len("detail: "):])
        for line in lines
        if line.startswith("detail: ")
    )
    return {"seed": seed, "result": json.loads(lines[-1]), "detail": detail}


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for repeat in range(args.repeats):
        order = args.workloads if repeat % 2 == 0 else args.workloads[::-1]
        for workload in order:
            for seed in args.seeds:
                run = run_once(workload, seed, args.seconds, args.trace)
                runs[workload].append(run)
                print(
                    f"# {workload} seed={seed} attempted="
                    f"{run['result']['attempted']} failed="
                    f"{run['result']['failed']} steal="
                    f"{run['detail']['environment']['steal_share']}",
                    flush=True,
                )

    problems = []
    for workload, results in runs.items():
        print(f"\n{workload}  ({len(results)} runs)")
        print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        metrics = results[0]["result"]["metrics"]
        for name, entry in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            print(
                f"  {name:38s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                f"{spread:8.2%} {'' if bound is None else f'{bound:.0%}':>6s}"
                f"  {entry['unit']}"
            )
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in results}
        if len(shares) > 1:
            problems.append(f"{workload}: failed share differs: {sorted(shares)}")
        if workload not in EXACT:
            continue
        by_seed: dict[int, set] = {}
        for run in results:
            detail = run["detail"]
            if not detail["counts"]["rounds_repeat"]:
                problems.append(f"{workload} seed {run['seed']}: rounds differ")
            if not detail.get("engine_calls_repeat", True):
                problems.append(
                    f"{workload} seed {run['seed']}: engine calls differ by round"
                )
            key = json.dumps(
                [detail["counts"], detail.get("engine_calls_per_round")],
                sort_keys=True,
            )
            by_seed.setdefault(run["seed"], set()).add(key)
        for seed, keys in sorted(by_seed.items()):
            if len(keys) > 1:
                problems.append(f"{workload} seed {seed}: counts differ between runs")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("steadiness: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
