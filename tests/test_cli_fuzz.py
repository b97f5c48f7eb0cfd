"""Seeded argv fuzz of the command line, in-process.

Every command but `verify-paper` is called about 300 times in all with
extreme and malformed values, from a fixed seed.  Each call must return one
of the documented exit codes 0, 2, 3 or 4, raise nothing (so print no
traceback), and finish inside a generous alarm.  Valid requests are kept
cheap: a dump always gets a --count, small or over the default budget, or a
small --budget.
"""

import io
import json
import random
import signal

import pytest

from lcgspec.cli import main

CASES = 300
ALARM_S = 30

# malformed or out-of-range values, drawn for any integer option now and then
BAD = ["", " ", "abc", "1e3", "0x10", "1/2", "2^", "(", "2^-1", "-1", "0", "-2^64", "\u0663",
       "10^4000", "2^2^2^2^2", "99999999999999999999999"]
MULTIPLIERS = ["5", "13", "21", "26", "129", "69069", "1000000007", "3141592621",
               "6364136223846793005", "2^32+1", "4*5^8+1"]
MODULI = ["16", "32", "625", "2^32", "2^35", "2^64", "10^18", "4*5^8", "3^12", "10^8+1",
          "69068^2", "69068^6"]
DIMS = ["2", "3", "2..4", "2..8", "5..9", "12", "13", "3000", "0", "1..3", "2..1000000",
        "4..2", "2..", "..", "x", ""]
INTERVALS = ["0:1", "0.2:0.9", "1/pi^2:1-1/e", "1/3:1/2", "0:1/10^100", "e^-1:pi/4",
             "0.580815:0.850411", "1/(3^1000)^25:1/2", "1e-3:1", "1:0", "0:2", "-1:1",
             "1/2:1/2", "a:b", "0", ":", "", "0:1:2", "0:1/0"]
SMALL = ["1", "2", "3", "4", "8", "12"]
# (a, N) pairs with a < N, most of maximum period; the last two have a
# cofactor lambda with more digits than Python prints
PAIRS = [("5", "16"), ("13", "16"), ("26", "625"), ("69069", "2^32"), ("129", "2^35"),
         ("6364136223846793005", "2^64"), ("3141592621", "10^10"), ("4*5^8+1", "4*5^16"),
         ("23", "10^8+1"), ("69069", "69068^6"), ("1000000007", "10^18"),
         ("12*(2^197+1)+1", "3*2^200"), ("4*(2^3997+1)+1", "2^4000")]


def _int(rng, good):
    return rng.choice(BAD if rng.random() < 0.1 else good)


# the box scans that once ran unbounded: a RecursionError, and a loop past 10 s
FIXED = [
    ["svp", "--a", "5", "--N", "16", "--s", "3000", "--brute-box", "1"],
    ["svp", "--a", "1000000007", "--N", "10^18", "--s", "2", "--brute-box", "10^9"],
]


def _maybe(rng, flag, pool, p=0.5):
    return [flag, _int(rng, pool)] if rng.random() < p else []


def _pair(rng):
    if rng.random() < 0.6:
        return rng.choice(PAIRS)
    return rng.choice(MULTIPLIERS), rng.choice(MODULI)


def _generator(rng):
    a, N = _pair(rng)
    return (["--a", _int(rng, [a]), "--N", _int(rng, [N])]
            + _maybe(rng, "--c", ["1", "3", "7", "12345"], 0.2)
            + _maybe(rng, "--x0", ["0", "1", "15", "624"], 0.2))


def _analyze(rng, files):
    return (["analyze"] + _generator(rng)
            + (["--s", rng.choice(DIMS)] if rng.random() < 0.8 else [])
            + (["--require-max-period"] if rng.random() < 0.3 else [])
            + _maybe(rng, "--enum-cap", SMALL, 0.3))


def _build(rng, files):
    argv = ["build"] + rng.choice([["--s", _int(rng, SMALL)], ["--tau", _int(rng, SMALL)],
                                   ["--s", "2", "--tau", "3"], []])
    if rng.random() < 0.6:
        argv += ["--a", _int(rng, MULTIPLIERS)]
    else:
        argv += ["--primes", rng.choice(["2:7", "2:2,17267", "3", "2,3", "4", "2:0",
                                         "3,2", "2:100000", "x", ""])]
        argv += _maybe(rng, "--d", SMALL, 0.4)
    return (argv + _maybe(rng, "--l", SMALL, 0.3) + _maybe(rng, "--lambda", SMALL, 0.3)
            + _maybe(rng, "--min-accuracy", ["0", "100", "10^6", "2^64"], 0.2)
            + _maybe(rng, "--validate", ["2", "3", "4", "8", "13"], 0.3)
            + _maybe(rng, "--enum-cap", SMALL, 0.2))


def _uniformity(rng, files):
    argv = ["uniformity"] + _generator(rng)
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        argv += ["--interval", rng.choice(INTERVALS)]
    return argv + (["--intervals-file", rng.choice(files["intervals"])]
                   if rng.random() < 0.3 else [])


def _dump(rng, files):
    # now and then a modulus whose default digit count is more than Python prints
    generator = _generator(rng) if rng.random() < 0.9 else ["--a", "5", "--N", "2^9999"]
    argv = ["dump"] + generator
    if rng.random() < 0.5:
        argv += ["--count", _int(rng, ["0", "1", "10", "100", "1000", "10^9", "2^64"])]
    else:
        argv += ["--budget", _int(rng, ["1", "100", "1000"])]
    return (argv + _maybe(rng, "--digits", SMALL + ["5000", "99999999999999999999999"], 0.3)
            + _maybe(rng, "--per-line", SMALL, 0.3)
            + (["-o", rng.choice([files["output"], ""])] if rng.random() < 0.2 else []))


def _svp(rng, files):
    if rng.random() < 0.25:
        argv = ["svp", "--basis-file", rng.choice(files["bases"])]
    else:
        a, N = _pair(rng)
        argv = (["svp"] + _maybe(rng, "--a", [a], 0.95) + _maybe(rng, "--N", [N], 0.95)
                + _maybe(rng, "--s", ["2", "3", "4", "8", "12", "13", "3000"], 0.9)
                + _maybe(rng, "--brute-box", ["1", "3", "16", "100", "10^9", "2^64"]))
    return argv + _maybe(rng, "--enum-cap", SMALL, 0.3)


COMMANDS = [_analyze, _build, _uniformity, _dump, _svp]


def _mangle(rng, argv):
    """Now and then a stray flag, a lost value or a token out of place."""
    roll = rng.random()
    if roll < 0.05:
        argv.insert(rng.randrange(1, len(argv) + 1), "--bogus")
    elif roll < 0.10 and len(argv) > 1:
        del argv[rng.randrange(1, len(argv))]
    elif roll < 0.13:
        rng.shuffle(argv)
    return argv


@pytest.fixture
def files(tmp_path):
    intervals = {"utf8": "# a comment\n0:1\n\n1/4:3/4\n".encode(), "bad": b"\xff0:1\n",
                 "empty": b"", "junk": b"x:y\n"}
    bases = {"ok": json.dumps({"rows": [[625, 0], [-26, 1]]}).encode(),
             "deep": b"[" * 5000, "big": json.dumps({"rows": [[int(i == j) for j in range(40)]
                                                               for i in range(40)]}).encode()}
    paths = {"intervals": [], "bases": []}
    for kind, contents in (("intervals", intervals), ("bases", bases)):
        for name, data in contents.items():
            path = tmp_path / f"{kind}-{name}"
            path.write_bytes(data)
            paths[kind].append(str(path))
        paths[kind].append(str(tmp_path / f"{kind}-missing"))
    paths["output"] = str(tmp_path / "dump.out")
    return paths


class _Alarm(BaseException):
    """Raised when a call outlives the alarm; `main` catches no BaseException
    (a TimeoutError would read as an OSError, exit 5)."""


def _timeout(signum, frame):
    raise _Alarm(f"a call ran past {ALARM_S} s")


def test_every_call_ends_in_a_documented_exit_code(files, capsys):
    rng = random.Random(23)
    argvs = FIXED + [_mangle(rng, rng.choice(COMMANDS)(rng, files))
                     for _ in range(CASES - len(FIXED))]
    previous = signal.signal(signal.SIGALRM, _timeout)
    bad = []
    try:
        for argv in argvs:
            signal.alarm(ALARM_S)
            try:
                code = main(argv, out=io.StringIO())
            except (Exception, SystemExit, _Alarm) as exc:
                code = repr(exc)
            finally:
                signal.alarm(0)
            err = capsys.readouterr().err
            if code not in (0, 2, 3, 4) or "Traceback" in err:
                bad.append((argv, code, err[-200:]))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert bad == []
    assert {argv[0] for argv in argvs} >= {"analyze", "build", "uniformity", "dump", "svp"}
