"""Default CLI output, byte for byte, against recorded outputs in tests/golden/.

Each case runs `lcgspec.cli.main` in-process and compares stdout and the exit
code with `golden/<name>.out`, and stderr with `golden/<name>.err` (empty when
that file is absent).  argparse wraps usage lines to the terminal width, so
every case runs with COLUMNS=80.  `verify-paper` is left out: it prints
timings.  Record a new case, or re-record one whose output change is
intended, by naming it:

    PYTHONPATH=src python tests/test_golden_cli.py [NAME ...]

With no names, only the cases with no `.out` file yet are written.  A case
whose stderr is now empty loses its `.err` file.
"""

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from lcgspec.cli import main

GOLDEN = Path(__file__).with_name("golden")

GENERATORS = [("69069", "2^32"), ("3141592621", "10^10"), ("23", "10^8+1"),
              ("6364136223846793005", "2^64")]
CASES = {
    f"analyze_{a}_{fmt}": ["analyze", "--a", a, "--N", N, "--s", "2..8", "--format", fmt]
    for a, N in GENERATORS
    for fmt in ("text", "json", "csv")
}
CASES["svp_dual_json"] = ["svp", "--a", "3141592621", "--N", "10^10", "--s", "3"]
CASES["svp_dual_text"] = ["svp", "--a", "6364136223846793005", "--N", "2^64", "--s", "6",
                          "--format", "text"]
CASES["svp_brute_5_16_box4_text"] = ["svp", "--a", "5", "--N", "16", "--s", "2",
                                     "--brute-box", "4", "--format", "text"]
CASES["svp_brute_5_16_box3_json"] = ["svp", "--a", "5", "--N", "16", "--s", "2",
                                     "--brute-box", "3"]
CASES["svp_brute_26_625_json"] = ["svp", "--a", "26", "--N", "625", "--s", "4",
                                  "--brute-box", "625", "--format", "json"]
CASES["build_tau6_validate8"] = ["build", "--tau", "6", "--a", "69069", "--validate", "8"]
CASES["build_tau6_validate8_json"] = ["build", "--tau", "6", "--a", "69069", "--validate", "8",
                                      "--format", "json"]
# rows past the certificate carry only the packing check, and s = 9 none at all
CASES["build_s2_26_validate9"] = ["build", "--s", "2", "--a", "26", "--validate", "9"]
# theorem 3's asserted lower mark at s = 2, upper-only theorem-7 rows above it
CASES.update({
    f"analyze_13_16_{fmt}": ["analyze", "--a", "13", "--N", "16", "--s", "2..4", "--format", fmt]
    for fmt in ("text", "csv")
})
# theorem 1 (tau = 2), theorem 2 at s = tau = 6, theorem 5 with a rational
# lower bound, and B-bound "-" past s = 8 with a note per dimension
ANALYZE_ROWS = {
    "69069_69068e2": ["--a", "69069", "--N", "69068^2", "--s", "2..4"],
    "69069_69068e6": ["--a", "69069", "--N", "69068^6", "--s", "2..8"],
    "9_2e10": ["--a", "9", "--N", "2^10", "--s", "2..5"],
    "69069_s7_10": ["--a", "69069", "--N", "2^32", "--s", "7..10"],
}
CASES.update({
    f"analyze_{name}_{fmt}": ["analyze"] + argv + ["--format", fmt]
    for name, argv in ANALYZE_ROWS.items()
    for fmt in ("text", "csv")
})
CASES.update({
    f"uniformity_26_{fmt}": ["uniformity", "--a", "26", "--N", "625",
                             "--interval", "0.580815:0.850411", "--interval", "1/pi^2:1-1/e",
                             "--interval", "0:1", "--format", fmt]
    for fmt in ("text", "csv", "json")
})
# 3^7 has a non-terminating expansion, and its 2187 terms span several
# rendering chunks and end mid-row in the table
DUMPS = {
    "26_625_csv": ["--a", "26", "--N", "625"],
    "26_625_table": ["--a", "26", "--N", "625", "--format", "table"],
    "4_3e7_csv": ["--a", "4", "--N", "3^7"],
    "4_3e7_table": ["--a", "4", "--N", "3^7", "--format", "table"],
    "26_625_count10": ["--a", "26", "--N", "625", "--count", "10"],
    "26_625_digits3": ["--a", "26", "--N", "625", "--digits", "3", "--format", "table"],
    "26_625_per_line3": ["--a", "26", "--N", "625", "--count", "10", "--per-line", "3",
                         "--format", "table"],
}
CASES.update({f"dump_{name}": ["dump"] + argv for name, argv in DUMPS.items()})
# usage errors: argparse's messages on stderr, exit 2, nothing on stdout
CASES.update({
    "usage_unrecognized_flag": ["uniformity", "--a", "5", "--N", "16", "--interval", "0:1",
                                "--bogus", "x"],
    "usage_no_arguments": [],
    "usage_unknown_command": ["frobnicate", "--a", "5"],
    "usage_uniformity_without_a": ["uniformity", "--N", "16", "--interval", "0:1"],
    "usage_svp_without_s": ["svp", "--a", "5", "--N", "16"],
    "usage_build_s_and_tau": ["build", "--s", "2", "--tau", "3"],
})


def run(argv):
    """(exit line and stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return f"exit {code}\n" + out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    out, err = run(CASES[name])
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    err_file = GOLDEN / f"{name}.err"
    assert err.encode() == (err_file.read_bytes() if err_file.exists() else b"")


def record(names):
    """Write the `.out` (and `.err`, or remove a stale one) of each case named,
    or of each case with no `.out` file when none is named."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"no such case: {' '.join(unknown)}")
    for name in sorted(names or [n for n in CASES if not (GOLDEN / f"{n}.out").exists()]):
        out, err = run(CASES[name])
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        err_file = GOLDEN / f"{name}.err"
        if err:
            err_file.write_bytes(err.encode())
        else:
            err_file.unlink(missing_ok=True)
        print(f"wrote {name}", file=sys.stderr)


def test_record_writes_only_named_or_missing_cases(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    monkeypatch.setitem(globals(), "CASES", {"quiet": CASES["svp_brute_5_16_box3_json"],
                                             "usage": CASES["usage_no_arguments"]})
    (tmp_path / "quiet.out").write_bytes(b"old")
    (tmp_path / "quiet.err").write_bytes(b"stale")
    record([])
    assert (tmp_path / "quiet.out").read_bytes() == b"old"
    assert (tmp_path / "usage.err").read_bytes() != b""
    record(["quiet"])
    assert (tmp_path / "quiet.out").read_bytes() == run(CASES["quiet"])[0].encode()
    assert not (tmp_path / "quiet.err").exists()
    with pytest.raises(SystemExit):
        record(["nonesuch"])


if __name__ == "__main__":
    record(sys.argv[1:])
