import json
import os
import subprocess
import sys

import pytest

import treepairs
from treepairs import cli, is_difficult, parse_pair, parse_word
from treepairs.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    # the child imports the package from where this process found it
    package_root = os.path.dirname(os.path.dirname(treepairs.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestCheck:
    def test_one_off_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "11000 10100")
        assert code == 0
        assert out == "not difficult: one-off (S,@1)->(1,2)\n"

    def test_common_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "1100100 1110000")
        assert code == 0
        assert out == "not difficult: common (0,1)\n"

    def test_difficult(self, capsys):
        code, out, _ = run_cli(capsys, "check", "101011000 111010000")
        assert code == 0
        assert out == "difficult\n"

    def test_identical(self, capsys):
        code, out, _ = run_cli(capsys, "check", "100 100")
        assert code == 0
        assert out == "not difficult: identical\n"

    def test_malformed_word_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "1010 0101")
        assert code == 1
        assert "error:" in err

    def test_file_input(self, capsys, tmp_path):
        listing = tmp_path / "pairs.txt"
        listing.write_text("# census slice\n11000 10100\n\n101011000 111010000\n")
        code, out, _ = run_cli(capsys, "check", "--file", str(listing))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("not difficult: one-off (S,@1)->(1,2)")
        assert lines[1] == "101011000 111010000: difficult"

    @pytest.mark.parametrize(
        "bad_line",
        [b"1010 0101", b"\xff\xfe 100"],
        ids=["malformed-word", "undecodable-bytes"],
    )
    def test_bad_file_line_is_named_before_any_output(self, capsys, tmp_path, bad_line):
        listing = tmp_path / "pairs.txt"
        listing.write_bytes(b"11000 10100\n" + bad_line + b"\n101011000 111010000\n")
        code, out, err = run_cli(capsys, "check", "--file", str(listing))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {listing}:2: ") and err.count("\n") == 1

    def test_missing_file_is_an_error_not_a_traceback(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "check", "--file", str(tmp_path / "missing.txt"))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "missing.txt" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "check")
        assert code == 2 and "error" in err


class TestDistanceReduceNeighbors:
    def test_distance(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "111100000 101010100")
        assert code == 0 and out == "3\n"

    def test_distance_guard(self, capsys):
        word = "1" * 13 + "0" * 14
        code, _, err = run_cli(capsys, "distance", f"{word} {word}")
        assert code == 1 and "guard" in err
        code, out, _ = run_cli(capsys, "distance", f"{word} {word}", "--max-size", "13")
        assert code == 0 and out == "0\n"

    def test_reduce(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "1100100 1110000")
        assert code == 0
        assert out == "# forced_moves=1 components=0\n"

    def test_reduce_difficult_pair(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "101011000 111010000")
        assert code == 0
        assert out.splitlines() == [
            "# forced_moves=0 components=1",
            "101011000 111010000",
        ]

    def test_rotation_neighbors_default(self, capsys):
        code, out, _ = run_cli(capsys, "neighbors", "1100100")
        assert code == 0
        assert out.splitlines() == ["1010100", "1110000"]

    def test_growth_neighbors(self, capsys):
        code, out, _ = run_cli(capsys, "neighbors", "100", "--growth")
        assert code == 0
        assert out.splitlines() == ["10100", "11000"]


class TestEnumerate:
    def test_trees(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--size", "2")
        assert code == 0
        assert out.splitlines() == ["# n=2 count=2", "10100", "11000"]

    def test_difficult_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--size", "4", "--difficult")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "# n=4 count=8"
        assert len(lines) == 9
        for line in lines[1:]:
            assert is_difficult(parse_pair(line))

    def test_guard_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--size", "20")
        assert code == 1 and "guard" in err

    def test_census_no_list_can_hold_is_domain_error(self, capsys):
        size = str(2**64)
        code, out, err = run_cli(capsys, "enumerate", "--size", size, "--max-size", size)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestSample:
    def test_words_format_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--size", "6", "--count", "4", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        for line in lines:
            pair = parse_pair(line)
            assert parse_word(pair.s).size == 6
            assert is_difficult(pair)

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--size", "5", "--count", "2", "--seed", "9", "--format", "jsonl"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["seed"] for r in records] == [9, 10]
        for record in records:
            assert record["n"] == 5
            assert is_difficult((record["s"], record["t"]))

    def test_size_guard(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--size", "3", "--count", "1", "--seed", "0")
        assert code == 1
        assert "size must be >= 4" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--size", "5", "--count", "-2"],
            ["sample", "--size", "0"],
            ["sample", "--size", "ten"],
            ["coverage", "--size", "5", "--samples", "0"],
        ],
    )
    def test_non_positive_count_or_size_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["sample", "--count", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["sample", "--size", "8"], ["coverage", "--size", "5", "--samples", "3"]]
    )
    def test_negative_seed_is_usage_error(self, argv, capsys):
        # random.Random(-1) draws what random.Random(1) does
        with pytest.raises(SystemExit) as info:
            main([*argv, "--seed", "-1"])
        assert info.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err


class TestCoverage:
    def test_json_carries_the_frequencies_with_or_without_the_flag(self, capsys):
        args = ["coverage", "--size", "6", "--samples", "50", "--seed", "0", "--json"]
        code, plain, _ = run_cli(capsys, *args)
        assert code == 0
        code, flagged, _ = run_cli(capsys, *args, "--frequencies")
        assert code == 0
        assert flagged == plain
        assert json.loads(plain)["frequencies"]


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, capsys):
        args = ["sample", "--size", "12", "--count", "5", "--seed", "7"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_across_processes(self):
        # separate processes get different hash seeds, which must not matter
        argv = [sys.executable, "-m", "treepairs", "sample", "--size", "10",
                "--count", "3", "--seed", "5"]
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(_child_env(), PYTHONHASHSEED=hash_seed)
            result = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestEndingEarly:
    def test_interrupt_exits_130(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_enumerate", interrupted)
        try:
            code = main(["enumerate", "--size", "3"])
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130

    def test_closed_stdout_ends_quietly(self):
        # about 380 KB, far more than a pipe holds: the child writes again after the close
        argv = [sys.executable, "-m", "treepairs", "enumerate", "--size", "10"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()
        ) as child:
            assert child.stdout.readline() == b"# n=10 count=16796\n"
            child.stdout.close()
            err = child.stderr.read()
        assert (child.returncode, err) == (1, b"")
