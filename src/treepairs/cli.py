"""Batch command-line front end.

Data goes to stdout, diagnostics to stderr.  Exit status: 0 on success, 1 on
a domain error (malformed word, size guard, size too small), an unreadable
file or a closed stdout, 2 on a usage error, 130 on an interrupt.  Every
command is deterministic for a fixed argument vector; sampling commands
default to seed 0 rather than the clock.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .census import enumerate_difficult_pairs, enumerate_trees
from .errors import MalformedWordError, TreePairError
from .growth import growth_neighbors
from .rotations import OneOffMove, exact_distance, parse_pair, reduce_pair, rotation_neighbors
from .rotations import DISTANCE_GUARD, _pair_views, _reduction
from .sampling import DEFAULT_SEED, sample_difficult_pair
from .stats import coverage_report
from .words import parse_word

__all__ = ["main"]


def _cmd_sample(args):
    for k in range(args.count):
        seed = args.seed + k
        pair = sample_difficult_pair(args.size, random.Random(seed))
        if args.format == "jsonl":
            print(json.dumps({"n": args.size, "s": pair.s, "t": pair.t, "seed": seed}))
        else:
            print(f"{pair.s} {pair.t}")
    return 0


def _verdict(pair):
    witness, pieces = _reduction(_pair_views(pair))
    if witness is None:
        return "difficult" if pieces else "not difficult: identical"
    if isinstance(witness, OneOffMove):
        side, node, (lo, hi) = witness
        return f"not difficult: one-off ({side},@{node})->({lo},{hi})"
    return "not difficult: common ({},{})".format(*witness)


def _file_pairs(path):
    """Every pair of a pair file, all parsed before any is checked."""
    pairs = []
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    for number, line in enumerate(lines, 1):
        try:
            line = line.decode("utf-8").strip()
            if line and not line.startswith("#"):
                pairs.append(parse_pair(line))
        except (MalformedWordError, UnicodeDecodeError) as exc:
            raise MalformedWordError(f"{path}:{number}: {exc}") from None
    return pairs


def _cmd_check(args):
    if (args.pair is None) == (args.file is None):
        print("error: provide exactly one of PAIR or --file", file=sys.stderr)
        return 2
    if args.pair is not None:
        print(_verdict(parse_pair(args.pair)))
        return 0
    for pair in _file_pairs(args.file):
        print(f"{pair.s} {pair.t}: {_verdict(pair)}")
    return 0


def _cmd_distance(args):
    pair = parse_pair(args.pair)
    print(exact_distance(pair, max_size=args.max_size))
    return 0


def _cmd_reduce(args):
    outcome = reduce_pair(parse_pair(args.pair))
    print(f"# forced_moves={outcome.forced_moves} components={len(outcome.components)}")
    for s, t in outcome.components:
        print(f"{s} {t}")
    return 0


def _cmd_enumerate(args):
    override = {} if args.max_size is None else {"max_size": args.max_size}
    if args.difficult:
        pairs = enumerate_difficult_pairs(args.size, **override)
        print(f"# n={args.size} count={len(pairs)}")
        for s, t in pairs:
            print(f"{s} {t}")
    else:
        trees = enumerate_trees(args.size, **override)
        print(f"# n={args.size} count={len(trees)}")
        for word in trees:
            print(word)
    return 0


def _cmd_neighbors(args):
    word = parse_word(args.word)
    found = growth_neighbors(word) if args.growth else rotation_neighbors(word)
    for neighbor in sorted(found):
        print(neighbor)
    return 0


def _cmd_coverage(args):
    report = coverage_report(args.size, args.samples, random.Random(args.seed))
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text(include_frequencies=args.frequencies))
    return 0


def _int_at_least(low, kind):
    """argparse type for ints >= ``low``; anything else is a usage error."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, not {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")  # counts and sizes
# seeds: random.Random seeds with |seed|, so -3 would repeat the draws of 3
_seed = _int_at_least(0, "non-negative")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="treepairs",
        description="Sample and analyse difficult tree pairs under rotation distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw difficult pairs of a given size")
    p.add_argument("--size", type=_positive_int, required=True, help="tree size n (>= 4)")
    p.add_argument("--count", type=_positive_int, default=1, help="number of pairs")
    p.add_argument(
        "--seed",
        type=_seed,
        default=DEFAULT_SEED,
        help=f"seed of the first pair; pair k uses seed+k (default: {DEFAULT_SEED})",
    )
    p.add_argument("--format", choices=("words", "jsonl"), default="words")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("check", help="report difficulty or a reducing witness")
    p.add_argument("pair", nargs="?", help='pair as one argument: "WORD WORD"')
    p.add_argument("--file", help="newline-delimited pair file, # comments ignored")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("distance", help="exact rotation distance (exhaustive search)")
    p.add_argument("pair", help='pair as one argument: "WORD WORD"')
    p.add_argument("--max-size", type=int, default=DISTANCE_GUARD, help="search size guard")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("reduce", help="forced moves and difficult components")
    p.add_argument("pair", help='pair as one argument: "WORD WORD"')
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("enumerate", help="census of trees or difficult pairs")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--difficult", action="store_true", help="list difficult pairs")
    p.add_argument("--max-size", type=int, default=None, help="override the census guard")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("neighbors", help="rotation or growth neighbors of a tree")
    p.add_argument("word")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--rotation", action="store_true", help="rotation neighbors (default)")
    group.add_argument("--growth", action="store_true", help="growth neighbors")
    p.set_defaults(func=_cmd_neighbors)

    p = sub.add_parser("coverage", help="sampling coverage report at one size")
    p.add_argument("--size", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument(
        "--seed", type=_seed, default=DEFAULT_SEED, help=f"(default: {DEFAULT_SEED})"
    )
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.add_argument(
        "--frequencies",
        action="store_true",
        help="add per-pair counts to the text output (--json always carries them)",
    )
    p.set_defaults(func=_cmd_coverage)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
        return code
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere, and quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TreePairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
