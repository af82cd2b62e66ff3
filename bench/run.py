"""Benchmark for treepairs: one workload, one seed, one run.

    python3 bench/run.py --workload sample-n100 --seed 0 --trace 0

Run it from anywhere; it imports ``treepairs`` from ``src/`` next to this
directory and exits non-zero if that source is missing.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md for what each one means.

Every workload runs in fresh interpreters started by this script, one at a
time, each driving the library from a single thread in a closed loop:

* ``setup`` children only import treepairs and build the inputs; their wall
  times give ``setup_s``, four timed before the loop and five after it;
* the ``loop`` child builds the inputs, runs whole passes over them back to
  back for about ``--seconds``, then checks every output against
  ``reference``;
* with ``--trace 1`` the loop records a span per operation, and a ``probe``
  child measures every layer (see probes.py).

Metric names and units come from BENCHMARK.json at the repository root.
Raw results and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 9  # fresh interpreters timed per run; setup_s is their median
CHILD_TIMEOUT_S = 150


def _use_source_tree():
    """Put ``src/`` first on the path and import treepairs from it, or exit."""
    package = SRC / "treepairs"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no treepairs source at {package}")
    sys.path.insert(0, str(SRC))
    import treepairs

    if Path(treepairs.__file__).resolve().parent != package:
        sys.exit(f"run.py: imported treepairs from {treepairs.__file__}, not {package}")


def _loop(workload, seed, seconds, trace):
    """Run whole passes over the inputs for ``seconds``; check outputs afterwards.

    A new pass starts only if one as long as the last would end within
    ``seconds``, so every input is timed equally often; the first pass
    always runs.
    """
    from spans import Tracer

    items = workload.inputs(seed)
    tracer = Tracer() if trace else None
    run = tracer.wrap(workload.call, workload.run) if trace else workload.run
    done = []  # (operation index, input, output)
    times = []
    errors = []
    op = passes = 0
    elapsed = last_pass = 0.0
    start = time.perf_counter()
    while passes == 0 or elapsed + last_pass <= seconds:
        began_pass = time.perf_counter()
        for item in items:
            if trace:
                tracer.op = op
            began = time.perf_counter()
            try:
                output = run(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                errors.append(f"op {op}: {exc!r}")
            else:
                times.append(time.perf_counter() - began)
                done.append((op, item, output))
            op += 1
        end = time.perf_counter()
        last_pass, elapsed = end - began_pass, end - start
        passes += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = [index for index, item, output in done if not workload.check(index, item, output)]
    return {
        "attempted": op,
        "failed": len(errors) + len(wrong),
        "correct": not wrong,
        "errors": errors[:10],
        "wrong_ops": wrong[:10],
        "loop_s": elapsed,
        "passes": passes,
        "times": times,
        "rss_mb": rss_mb,
        "spans": tracer.spans if trace else None,
    }


def _child(role, args, trace=0):
    """Run this script in a fresh interpreter; return (wall seconds, its JSON)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"run.py: {role} child exited with {done.returncode}")
    lines = done.stdout.splitlines()
    return wall, json.loads(lines[-1]) if lines else None


def _end_to_end(args):
    # Half the set-ups run after the loop, so their median spans the run
    # rather than one moment of a host whose speed drifts.
    setups = [_child("setup", args)[0] for _ in range(SETUPS // 2)]
    _, loop = _child("loop", args)
    setups += [_child("setup", args)[0] for _ in range(SETUPS - SETUPS // 2)]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(loop["times"]) / loop["loop_s"],
        "op_p50_s": statistics.median(loop["times"]),
        "peak_rss_mb": loop["rss_mb"],
    }
    return loop, loop["correct"], values, {"setups_s": setups, "loop": loop}


def _per_layer(args):
    _, loop = _child("loop", args, trace=1)
    _, probe = _child("probe", args)
    values = dict(probe["metrics"])
    values["trace.loop_ops_per_s"] = len(loop["times"]) / loop["loop_s"]
    correct = loop["correct"] and not probe["failed"]
    spans = {"loop": loop.pop("spans"), "probe": probe.pop("spans")}
    return loop, correct, values, {"loop": loop, "probe": probe, "spans": spans}


def main(argv=None):
    _use_source_tree()
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "loop", "probe"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()

    if args.role == "setup":
        workload.inputs(args.seed)
        return 0
    if args.role == "loop":
        print(json.dumps(_loop(workload, args.seed, args.seconds, args.trace)))
        return 0
    if args.role == "probe":
        from probes import run_probes

        metrics, failed, spans = run_probes(args.seed, ROOT)
        print(json.dumps({"metrics": metrics, "failed": failed, "spans": spans}))
        return 0

    loop, correct, values, record = (_per_layer if args.trace else _end_to_end)(args)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    record["args"] = vars(args)
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop["attempted"],
                "failed": loop["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
