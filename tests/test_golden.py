"""Golden digests: seeded outputs pinned byte for byte across commits.

The README promises results that are bit-stable per seed.  Each case below
renders one seeded output as text and compares its SHA-256 digest with a
value recorded before any refactor of the kernels it exercises, so a change
that alters a single sampled word, reduction or neighbor list fails here.
Regenerate a digest only for a deliberate, documented change of output.
"""

import hashlib
import random

import pytest

from treepairs import (
    common_intervals,
    enumerate_trees,
    exact_distance,
    growth_neighbors,
    is_difficult,
    one_off_moves,
    pair_choices,
    primitive_pairs,
    reduce_pair,
    remy_sample,
    rotation_neighbors,
    sample_difficult_pair,
    sample_with_choice_counts,
    split_at_common,
)
from treepairs.cli import main

CLI_DIGESTS = {
    ("sample", "--size", "5", "--count", "20", "--seed", "0"):
        "4c0258077ed38e789972e1ebded3268b13d16893f0e7dc104e898e37c70af09a",
    ("sample", "--size", "12", "--count", "20", "--seed", "0"):
        "0a99862f493ebd1b492d374b8695024812351071da1b2c6179aad0fc0a2987df",
    ("sample", "--size", "30", "--count", "20", "--seed", "0"):
        "a092e6735923a63ce0750d7e4bb53d40db67966915c057229b2b67a6a2433b0f",
    ("sample", "--size", "100", "--count", "1", "--seed", "0"):
        "302e37a90846817fe5cdc437ac5fe0061707646a0b0736557616d9dc45d37054",
    ("enumerate", "--size", "6", "--difficult"):
        "e1d09dd6615d40fbaa95178a082e8d3e887cda85df153345296b3ce13f963e04",
    ("enumerate", "--size", "11"):
        "9de577bddeffdba8d23fa90ec3d7806afa6cc7cbda703d050eeeb13471cc87bb",
    ("coverage", "--size", "6", "--samples", "200", "--seed", "0", "--json"):
        "71b9e5907c4239e603243e9424365afda1924cbdb7cb1d81d538d80102e82c5d",
    ("coverage", "--size", "6", "--samples", "200", "--seed", "0", "--frequencies"):
        "ecad144634229076a0ccfb5d33817f3f95ed628b7c9d62a89982d3967975d12c",
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _remy_stream():
    rng = random.Random(0)
    return [remy_sample(n, rng) for n in range(60) for _ in range(3)]


def _reductions():
    rng = random.Random(1)
    lines = []
    for n in (6, 12, 30, 80):
        for _ in range(5):
            outcome = reduce_pair((remy_sample(n, rng), remy_sample(n, rng)))
            lines.append(f"# {outcome.forced_moves}")
            lines.extend(f"{s} {t}" for s, t in outcome.components)
    return lines


def _choices_of(pairs):
    lines = []
    for pair in pairs:
        lines.append(f"# {pair[0]} {pair[1]}")
        lines.extend(f"{u} {v}" for u, v in pair_choices(pair))
    return lines


def _choices():
    pairs = list(primitive_pairs())
    pairs += [sample_difficult_pair(n, random.Random(n)) for n in range(5, 11)]
    return _choices_of(pairs)


def _large_choices():
    # parents past the size where the sampler switches to the near-miss step
    return _choices_of(sample_difficult_pair(n, random.Random(n)) for n in (40, 64))


def _choice_counts():
    # every step's count drives its draw; these walks run the near-miss step to n = 200
    return [
        " ".join(map(str, sample_with_choice_counts(200, random.Random(seed))[1])) for seed in (5, 6)
    ]


def _neighbors():
    lines = []
    for word in _remy_stream()[::7]:
        lines.append("G " + " ".join(sorted(growth_neighbors(word))))
        lines.append("R " + " ".join(sorted(rotation_neighbors(word))))
    return lines


def _verdicts():
    # grown neighbors of difficult pairs mix difficult and reducible pairs
    lines = []
    for n in (4, 7):
        s, t = sample_difficult_pair(n, random.Random(n))
        lines.extend(
            "".join("1" if is_difficult((u, v)) else "0" for v in sorted(growth_neighbors(t)))
            for u in sorted(growth_neighbors(s))
        )
    return lines


def _distances():
    # difficult pairs near the 2n - 6 cap, past the sizes the BFS tests reach
    lines = []
    for n in (9, 10, 11):
        for seed in range(8):
            s, t = sample_difficult_pair(n, random.Random(seed))
            lines.append(f"{s} {t} {exact_distance((s, t))}")
    return lines


def _remy_pairs():
    # the stream holds three trees per size: pair each with the next, cyclically
    stream = _remy_stream()
    return [
        (stream[k + i], stream[k + (i + 1) % 3]) for k in range(0, len(stream), 3) for i in range(3)
    ]


def _pair_rules():
    # the three public reduction rules, as reduce_pair's replay calls them
    lines = []
    for s, t in _remy_pairs():
        commons = sorted(common_intervals((s, t)))
        lines.append(f"# {s} {t} " + " ".join(f"{lo},{hi}" for lo, hi in commons))
        lines.extend(f"{side} {node} {lo},{hi}" for side, node, (lo, hi) in one_off_moves((s, t)))
        for common in commons:
            inner, outer = split_at_common((s, t), common)
            lines.append(f"{inner.s} {inner.t} {outer.s} {outer.t}")
    return lines


def _check_pairs():
    trees = enumerate_trees(4)
    pairs = [(s, t) for s in trees for t in trees]
    for n in (4, 7):
        s, t = sample_difficult_pair(n, random.Random(n))
        pairs += [(u, v) for u in sorted(growth_neighbors(s)) for v in sorted(growth_neighbors(t))]
    return pairs


LIBRARY_DIGESTS = {
    "remy_sample": (_remy_stream, "26d8c861bdbc162ed4618a6f450cb6d781b4035fd473fca21644f763f8bfd544"),
    "reduce_pair": (_reductions, "48b153153814d4313cce6b348ef7591fb1debc059373983a0b2023c53d1d734f"),
    "pair_choices": (_choices, "8b73497cd40abe707a19386fb979a79abf69af5b77a8f3a1a67d0ad3ce627be5"),
    "pair_choices_large": (_large_choices, "0a32830fda32b79f2308ff05bcbbe7d0e2f843781027942602efa2e77b5bc52e"),
    "choice_counts": (_choice_counts, "5654bf83bf32c87cdbd0855dc3791b594078ad0107265ff110c0cecef70100af"),
    "neighbors": (_neighbors, "6d39e13203857e43d46f5a388e5249fd2c4dbc3622afa8020190c3bc03ac41b0"),
    "is_difficult": (_verdicts, "8444846a1eda8fa8b20eaa6811a2b82c3450f1be95b1bba8daeede7e84b9ebaa"),
    "exact_distance": (_distances, "b2eb22b41bcd6ae0b46f3a2fd67b03244d2354ec655fecb15df1a6e4ca49850a"),
    "pair_rules": (_pair_rules, "d75372367988d98d8b6d3d3642483921e72246098621b7cb25d75b1cb2c0eff6"),
}


@pytest.mark.parametrize("argv", list(CLI_DIGESTS), ids=" ".join)
def test_cli_output_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[argv]


CHECK_DIGEST = "a26f32716807406cc07e33fca1a61bf10288c4f1fb0b544697344fbdd2440856"


def test_check_witnesses_are_pinned(capsys, tmp_path):
    listing = tmp_path / "pairs.txt"
    listing.write_text("".join(f"{s} {t}\n" for s, t in _check_pairs()))
    assert main(["check", "--file", str(listing)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGEST


@pytest.mark.parametrize("name", list(LIBRARY_DIGESTS))
def test_library_output_is_pinned(name):
    render, expected = LIBRARY_DIGESTS[name]
    assert _digest(render()) == expected
