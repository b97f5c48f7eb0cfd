"""Default CLI output, byte for byte, against recorded outputs in tests/golden/.

Each case runs `lcgspec.cli.main` in-process and compares stdout and the exit
code with `golden/<name>.out`.  `verify-paper` is left out: it prints timings.
Regenerate the files only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import sys
from pathlib import Path

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
CASES["svp_basis_json"] = ["svp", "--basis-file", str(GOLDEN / "basis.json")]
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
# theorem 3's informational lower~ mark at s = 2, upper-only theorem-7 rows above it
CASES.update({
    f"analyze_13_16_{fmt}": ["analyze", "--a", "13", "--N", "16", "--s", "2..4", "--format", fmt]
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


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return f"exit {code}\n" + buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    want = (GOLDEN / f"{name}.out").read_bytes()
    assert run(CASES[name]).encode() == want


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.out").write_bytes(run(argv).encode())
        print(f"wrote {name}.out", file=sys.stderr)
