"""Exact ranking by L'Ecuyer's normalized spectral figure, kept as a test oracle.

For a generator with modulus N, the figure in dimension s is
`S_s = v_s / (H_s^(1/(2s)) * N^(1/s))`, where `H_s = gamma_s^(2s)` is the
packing constant `spectral._GAMMA_POW_2S` holds for s = 2..8.  `S_s` lies in
(0, 1], and its power `S_s^(2s) = v_sq^s / (H_s * N^2)` is rational, so no
float decides anything here: `S_s` and `S_t` compare as `(S_s^(2s))^t`
against `(S_t^(2t))^s`, in integers.  A multiplier scores
`M_T = min over s = 2..T of S_s` (L'Ecuyer, Math. Comp. 68 (1999), 249-260).

`a` and its inverse mod N have the same `v_s` in every dimension, so
`ranking` scores each inverse pair once, under its smaller member; ties in
`M_T` go to the smaller `a`.

    python tests/score_reference.py N [K]

prints the top K (default 5) of every maximum-period multiplier of N.
"""

import sys
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple

from lcgspec import LcgParams, check_max_period
from lcgspec.exprparse import parse_int_expr
from lcgspec.spectral import _GAMMA_POW_2S, spectral_profile


class Figure(NamedTuple):
    """`S_s`, held as the dimension s and the rational `S_s^(2s)`."""

    s: int
    power: Fraction

    def __float__(self) -> float:
        """`S_s` for display only."""
        return float(self.power) ** (1 / (2 * self.s))


def figure(s: int, N: int, v_sq: int) -> Figure:
    num, den = _GAMMA_POW_2S[s]
    return Figure(s, Fraction(v_sq**s * den, num * N * N))


def compare(x: Figure, y: Figure) -> int:
    """-1, 0 or 1 as `S_s` of x is below, equal to or above that of y:
    `(S_s^(2s))^t` against `(S_t^(2t))^s`, denominators cleared."""
    p, q = x.power, y.power
    lhs = p.numerator**y.s * q.denominator**x.s
    rhs = q.numerator**x.s * p.denominator**y.s
    return (lhs > rhs) - (lhs < rhs)


def score(figures) -> Figure:
    """`M_T`: the least figure; of tied ones, the one of lowest dimension."""
    return min(figures, key=cmp_to_key(compare))


class Row(NamedTuple):
    a: int
    inverse: int
    score: Figure
    figures: tuple[Figure, ...]


def ranking(N: int, T: int = 8) -> list[Row]:
    """One row per inverse pair of maximum-period multipliers of N, under
    its smaller member, best `M_T` first and the smaller `a` first in a tie."""
    rows = []
    for a in range(2, N):
        if not check_max_period(LcgParams(a, 1, N)).ok or (inverse := pow(a, -1, N)) < a:
            continue
        figures = tuple(figure(r.s, N, r.v_sq) for r in spectral_profile(a, N, range(2, T + 1)))
        rows.append(Row(a, inverse, score(figures), figures))
    return sorted(rows, key=cmp_to_key(lambda r, q: compare(q.score, r.score) or r.a - q.a))


def main(argv: list[str]) -> None:
    N = parse_int_expr(argv[0])
    top = int(argv[1]) if len(argv) > 1 else 5
    rows = ranking(N)
    print(f"{len(rows)} inverse pairs of maximum-period multipliers of N = {N}")
    table = [["rank", "a", "a^-1", "M_8", "at s"] + [f"S_{s}" for s in range(2, 9)]]
    for rank, row in enumerate(rows[:top], 1):
        table.append([str(rank), str(row.a), str(row.inverse), f"{float(row.score):.4f}",
                      str(row.score.s)] + [f"{float(f):.4f}" for f in row.figures])
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    for line in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))


if __name__ == "__main__":
    main(sys.argv[1:])
