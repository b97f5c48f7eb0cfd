"""The direct argv reader against argparse.

`cli._read_argv` reads a well-formed request straight from the flag table
and declines the rest, which argparse reads.  On every argv here it must
either decline or give exactly argparse's namespace (the command's parser's
`parse_known_args`, with nothing left over, plus `command`), and it must
decline every argv argparse refuses.  The argvs are seeded draws from the
fuzz test's command generators, mangling included, every golden case, and
rows for the spellings only argparse reads.
"""

import contextlib
import io
import random

import pytest

from lcgspec import cli
from test_cli_fuzz import COMMANDS, _mangle
from test_golden_cli import CASES

DRAWS = 2000
FILES = {"intervals": ["intervals.txt"], "output": "dump.out"}


def argparse_reading(argv):
    """`vars()` of argparse's namespace for `argv`, `command` included, or
    None when argparse exits (help or a usage error)."""
    parser = cli.build_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            if not argv or argv[0] not in cli._COMMANDS:
                parser.parse_args(argv)
                raise AssertionError(f"argparse read {argv!r} with no command")
            args, extras = parser.commands[argv[0]].parse_known_args(argv[1:])
        except SystemExit:
            return None
    return None if extras else {**vars(args), "command": argv[0]}


def disagreement(argv):
    """None when the reader declines `argv` or reads what argparse reads,
    else what each of them read."""
    read = cli._read_argv(list(argv))
    if read is None:
        return None
    want = argparse_reading(list(argv))
    return None if vars(read) == want else (vars(read), want)


def test_reader_agrees_with_argparse_on_fuzz_draws():
    rng = random.Random(49)
    argvs = [_mangle(rng, rng.choice(COMMANDS)(rng, FILES)) for _ in range(DRAWS)]
    assert [(argv, d) for argv in argvs if (d := disagreement(argv)) is not None] == []
    # a reader that always declined would agree too
    assert sum(cli._read_argv(argv) is not None for argv in argvs) >= DRAWS // 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_reader_agrees_with_argparse_on_golden_cases(name):
    assert disagreement(CASES[name]) is None


UNIFORMITY = ["uniformity", "--a", "26", "--N", "625", "--interval", "0:1"]
DUMP = ["dump", "--a", "26", "--N", "625", "--count", "3"]
# (argv, whether the reader reads it)
ROWS = [
    (UNIFORMITY + ["--format", "json"], True),
    (UNIFORMITY + ["--form", "json"], False),  # an abbreviation
    (UNIFORMITY + ["--interval", "0:1/2"], True),  # append collects both
    (["analyze", "--a", "26", "--N", "625", "--s=3"], False),
    (DUMP + ["-o", "F"], True),
    (DUMP + ["--output", "F"], True),
    (UNIFORMITY + ["--a", "5"], False),  # repeated; argparse keeps the last
    (["analyze", "--a", "", "--N", "625"], True),
    (DUMP + ["--x0", "-1"], False),  # argparse takes -1 as a value
    (DUMP + ["--", "--count", "4"], False),
    (DUMP + ["-h"], False),
    (["-h"], False),
    ([], False),
    (["analyze", "--a", "26", "--N", "625", "--require-max-period"], True),
    (["analyze", "--a", "26", "--N", "625", "--require-max-period",
      "--require-max-period"], False),
    (["analyze", "--a", "26", "--N"], False),  # a value flag with no value
    (["analyze", "--N", "625"], False),  # --a is required
    (["build", "--a", "26"], False),  # neither --s nor --tau
    (["build", "--s", "2", "--tau", "3", "--a", "26"], False),
    (["build", "--s", "2", "--a", "26"], True),
    (["build", "--tau", "3", "--a", "26", "--format", "csv"], False),  # not a build format
]


@pytest.mark.parametrize("argv, direct", ROWS,
                         ids=[" ".join(argv) or "(none)" for argv, _ in ROWS])
def test_reader_rows(argv, direct):
    assert (cli._read_argv(list(argv)) is not None) is direct
    assert disagreement(argv) is None


def test_repeated_flag_is_left_to_argparse_which_keeps_the_last():
    assert cli._read_argv(UNIFORMITY + ["--a", "5"]) is None
    assert argparse_reading(UNIFORMITY + ["--a", "5"])["a"] == "5"


def test_negative_value_is_left_to_argparse():
    assert argparse_reading(DUMP + ["--x0", "-1"])["x0"] == "-1"


def test_reader_namespace_holds_every_default():
    read = vars(cli._read_argv(["build", "--s", "2", "--a", "26"]))
    assert read == {"tau": "2", "l": 0, "lambda": 1, "a": "26", "d": 1, "primes": None,
                    "min_accuracy": None, "validate": None, "enum_cap": None, "format": "text",
                    "func": cli.cmd_build, "command": "build"}
