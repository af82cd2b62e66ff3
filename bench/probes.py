"""Per-layer measurements for the traced run.

Each probe calls public treepairs functions through a ``Tracer`` on inputs
taken from the workloads' own input lists, so a layer number can be set
beside the end-to-end number it should move.  The sampler and reduction are
replayed step by step through public functions, and each replay must equal
the library's own output.  Run the probes in a fresh interpreter: the first
distance search must find the neighbor cache empty.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import deque

import reference
import treepairs
from spans import Tracer
from workloads import CoverageN8, DistanceN11, ReduceN1000, SampleN100

REPEATS = 5  # calls per micro-probe; the median is reported


def _median_call(tracer, name, fn, *args):
    for _ in range(REPEATS):
        tracer.call(name, fn, *args)
    return tracer.median(name, tracer.op)


def replay_sample(n, op_seed, tracer):
    """``sample_difficult_pair(n, Random(op_seed))`` rebuilt from
    ``primitive_pairs`` and ``pair_choices`` with the same generator calls.

    Returns the pair and the per-step (candidates, accepted) counts.
    """
    rng = random.Random(op_seed)
    primitives = treepairs.primitive_pairs()
    starts = sorted([(p.s, p.t) for p in primitives] + [(p.t, p.s) for p in primitives])
    s, t = starts[rng.randrange(len(starts))]
    steps = []
    for _ in range(n - treepairs.MIN_SIZE):
        candidates = len(treepairs.growth_neighbors(s)) * len(treepairs.growth_neighbors(t))
        choices = tracer.call("sampling.pair_choices", treepairs.pair_choices, (s, t))
        steps.append((candidates, len(choices)))
        s, t = choices[rng.randrange(len(choices))]
    return (s, t), steps


def replay_reduce(pair, tracer):
    """``reduce_pair(pair)`` rebuilt from ``common_intervals``,
    ``split_at_common``, ``one_off_moves`` and ``rotate``.

    Returns (forced moves, splits, sorted components).
    """
    queue = deque([(str(pair[0]), str(pair[1]))])
    components = []
    counts = {"forced": 0, "splits": 0}

    def step():
        s, t = queue.popleft()
        if s == t:
            return
        commons = tracer.call("rotations.common_intervals", treepairs.common_intervals, (s, t))
        if commons:
            inner, outer = tracer.call(
                "rotations.split_at_common", treepairs.split_at_common, (s, t), min(commons)
            )
            queue.extend((inner, outer))
            counts["splits"] += 1
            return
        moves = tracer.call("rotations.one_off_moves", treepairs.one_off_moves, (s, t))
        if moves:
            side, node, _ = moves[0]
            if side == "S":
                s = tracer.call("rotations.rotate", treepairs.rotate, s, node)
            else:
                t = tracer.call("rotations.rotate", treepairs.rotate, t, node)
            counts["forced"] += 1
            queue.append((s, t))
            return
        components.append((s, t))

    while queue:
        tracer.call("rotations.reduce_step", step)
    return counts["forced"], counts["splits"], sorted(components)


def _distance(seed, tracer, metrics):
    pair = DistanceN11().inputs(seed)[0]
    tracer.op = "distance-cold"
    first = tracer.call("rotations.exact_distance", treepairs.exact_distance, pair)
    tracer.op = "distance-warm"
    for _ in range(REPEATS):
        tracer.call("rotations.exact_distance", treepairs.exact_distance, pair)
    expected, states = reference.rotation_distance(*pair)
    metrics["rotations.distance_first_s"] = tracer.total("rotations.exact_distance", "distance-cold")
    metrics["rotations.distance_warm_s"] = tracer.median("rotations.exact_distance", "distance-warm")
    metrics["rotations.bfs_states"] = states
    metrics["rotations.bfs_states_per_s"] = states / metrics["rotations.distance_first_s"]
    return first == expected


def _sampler(seed, tracer, metrics):
    sampler = SampleN100()
    op_seed = sampler.inputs(seed)[0]
    tracer.op = "sample"
    library = tracer.call("sampling.sample_difficult_pair", sampler.run, op_seed)
    tracer.op = "sample-replay"
    replayed, steps = replay_sample(sampler.size, op_seed, tracer)
    candidates = sum(c for c, _ in steps)
    accepted = sum(a for _, a in steps)
    metrics["sampling.pair_choices_s"] = tracer.median("sampling.pair_choices", "sample-replay")
    metrics["sampling.candidates"] = candidates
    metrics["sampling.accepted"] = accepted
    metrics["sampling.accept_ratio"] = accepted / candidates
    metrics["sampling.candidates_per_s"] = candidates / tracer.total(
        "sampling.sample_difficult_pair", "sample"
    )
    tracer.op = "growth"
    metrics["growth.growth_neighbors_s"] = _median_call(
        tracer, "growth.growth_neighbors", treepairs.growth_neighbors, library.s
    )
    return tuple(library) == replayed


def _coverage(seed, tracer, metrics):
    """One coverage operation with the sampler and census calls made from
    ``treepairs.stats`` recorded as child spans."""
    coverage = CoverageN8()
    op_seed = coverage.inputs(seed)[0]
    stats = treepairs.stats
    originals = stats.sample_difficult_pair, stats.enumerate_difficult_pairs
    stats.sample_difficult_pair = tracer.wrap("sampling.sample_difficult_pair", originals[0])
    stats.enumerate_difficult_pairs = tracer.wrap("census.enumerate_difficult_pairs", originals[1])
    tracer.op = "coverage"
    try:
        report = tracer.call("stats.coverage_report", coverage.run, op_seed)
    finally:
        stats.sample_difficult_pair, stats.enumerate_difficult_pairs = originals
    census_s = tracer.total("census.enumerate_difficult_pairs", "coverage")
    sampling_s = tracer.total("sampling.sample_difficult_pair", "coverage")
    metrics["sampling.sample_n8_s"] = tracer.median("sampling.sample_difficult_pair", "coverage")
    metrics["census.enumerate_difficult_pairs_s"] = census_s
    metrics["census.pair_checks_per_s"] = reference.catalan(coverage.size) ** 2 / census_s
    metrics["stats.coverage_self_s"] = (
        tracer.total("stats.coverage_report", "coverage") - sampling_s - census_s
    )
    tracer.op = "census"
    metrics["census.enumerate_trees_s"] = _median_call(
        tracer, "census.enumerate_trees", treepairs.enumerate_trees, coverage.size
    )
    return coverage.check(0, op_seed, report)


def _reduction(seed, tracer, metrics):
    reducer = ReduceN1000()
    pair = reducer.inputs(seed)[0]
    tracer.op = "reduce"
    library = tracer.call("rotations.reduce_pair", reducer.run, pair)
    tracer.op = "reduce-replay"
    forced, splits, components = replay_reduce(pair, tracer)
    for name in ("reduce_step", "common_intervals", "one_off_moves", "split_at_common", "rotate"):
        metrics[f"rotations.{name}_s"] = tracer.median(f"rotations.{name}", "reduce-replay")
    metrics["rotations.forced_moves"] = forced
    metrics["rotations.splits"] = splits
    metrics["rotations.components"] = len(components)
    tracer.op = "words"
    word = str(pair[0])
    metrics["words.word_scan_s"] = _median_call(tracer, "words.word_scan", treepairs.word_scan, word)
    metrics["words.parse_word_s"] = _median_call(
        tracer, "words.parse_word", treepairs.parse_word, word
    )
    tracer.op = "growth"
    rng = random.Random(seed)
    metrics["growth.remy_sample_s"] = _median_call(
        tracer, "growth.remy_sample", treepairs.remy_sample, reducer.size, rng
    )
    replay_matches = library.forced_moves == forced and [
        tuple(c) for c in library.components
    ] == components
    return replay_matches and reducer.check(0, pair, library)


def _cli(root, tracer, metrics):
    """Start-up of ``python -m treepairs sample --size 4`` in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "treepairs", "sample", "--size", "4"]
    tracer.op = "cli"
    outputs = []
    for _ in range(REPEATS):
        done = tracer.call(
            "cli.startup",
            subprocess.run,
            command,
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        outputs.append(done.stdout.split() if done.returncode == 0 else None)
    metrics["cli.startup_s"] = tracer.median("cli.startup")
    return all(o is not None and len(o) == 2 and reference.is_difficult(*o) for o in outputs)


def run_probes(seed, root):
    """Every per-layer metric; returns (metrics, every check passed, spans)."""
    tracer = Tracer()
    metrics = {}
    checks = {
        "distance": _distance(seed, tracer, metrics),  # first: the cache is still cold
        "sampler": _sampler(seed, tracer, metrics),
        "coverage": _coverage(seed, tracer, metrics),
        "reduction": _reduction(seed, tracer, metrics),
        "cli": _cli(root, tracer, metrics),
    }
    failed = sorted(name for name, ok in checks.items() if not ok)
    return metrics, failed, tracer.spans
