"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py                      # 10 seeds x every workload
    python3 bench/spread.py --workload reduce-n1000 --runs 5 --first-seed 20
    python3 bench/spread.py --workload reduce-n1000 --repeat-seed 3
    python3 bench/spread.py --compare bench/out/spread-a.json --label b

Each run uses the next seed from ``--first-seed`` on, so the spread holds
both host noise and the differences between the seeds' inputs; with
``--repeat-seed`` every run uses the same seed and the spread is noise
alone.  For every workload and end-to-end metric it prints the median of
the runs and the spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(n=4)``, next to the metric's bound from
BENCHMARK.json.  A spread over the bound is marked ``WIDE``.  With ``--compare`` it also marks
``WORSE`` every median that is worse than the earlier file's by more than the
bound.  It also prints the share of failed operations per workload.  Raw
results go to ``bench/out/spread-<label>.json``.
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


def _run(workload, seed, seconds):
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"spread.py: {workload} seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--repeat-seed", type=int, help="use this seed for every run")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--label", default="latest")
    parser.add_argument("--compare", type=Path, help="an earlier spread-*.json to compare with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    if args.repeat_seed is None:
        seeds = range(args.first_seed, args.first_seed + args.runs)
    else:
        seeds = [args.repeat_seed] * args.runs
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    results = {}
    for workload in args.workload or names:
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, args.seconds))
            print(f"  {workload} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
        results[workload] = runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: failed {failed}/{attempted} operations, correct={correct}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            median, spread = _spread([r["metrics"][name]["value"] for r in runs])
            line = f"  {name:12} median {median:<14.6g} spread {spread:7.2%}"
            line += f" bound {metric['bound']:.0%}"
            marks = ["WIDE"] if spread > metric["bound"] else []
            if workload in earlier:
                before, _ = _spread([r["metrics"][name]["value"] for r in earlier[workload]])
                change = (median - before) / before
                line += f" vs earlier {change:+.2%}"
                worse = change if metric["better"] == "lower" else -change
                if worse > metric["bound"]:
                    marks.append("WORSE")
            print(line + (" " + " ".join(marks) if marks else ""))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.label}.json").write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
