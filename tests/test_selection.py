"""The paper's selection, exactly: the best maximum-period multipliers of
2^10 and 2^12 by L'Ecuyer's normalized figure M_8, ranked by
`score_reference` over `spectral_profile` with no float deciding a place."""

import math
import random
from fractions import Fraction

import score_reference as ref
from score_reference import Figure


def pairs(rows):
    return [(row.a, row.inverse) for row in rows]


def test_best_multipliers_of_2_12():
    rows = ref.ranking(2**12)
    assert len(rows) == 512
    assert sum(row.a == row.inverse for row in rows) == 1
    assert pairs(rows[:5]) == [(2117, 2701), (1101, 1157), (729, 3433), (325, 2445),
                               (2393, 3817)]
    assert rows[0].score == Figure(8, Fraction(1, 256))  # M_8 = 2^(-1/2)
    # 325 and 2393 tie exactly, at s = 5, and the smaller a goes first
    assert rows[3].score == rows[4].score and rows[3].score.s == 5
    assert ref.compare(rows[2].score, rows[3].score) == 1
    assert ref.compare(rows[4].score, rows[5].score) == 1


def test_best_multipliers_of_2_10():
    rows = ref.ranking(2**10)
    assert len(rows) == 128
    assert pairs(rows[:6]) == [(109, 357), (77, 133), (381, 981), (649, 953), (697, 905),
                               (777, 825)]
    # five rows tie exactly at S_5^10 = 3125/262144, 777/825 the last of them
    assert {row.score for row in rows[1:6]} == {Figure(5, Fraction(3125, 262144))}
    assert ref.compare(rows[0].score, rows[1].score) == 1
    assert ref.compare(rows[5].score, rows[6].score) == 1


def root_scaled(x: Figure, digits: int = 60) -> int:
    """floor(S_s * 10^digits), by an integer 2s-th root."""
    k = 2 * x.s
    y = x.power.numerator * 10 ** (digits * k) // x.power.denominator
    r = 1 << -(-y.bit_length() // k)  # at least the root
    while True:  # Newton's step from above: decreasing until it reaches the floor
        t = ((k - 1) * r + y // r ** (k - 1)) // k
        if t >= r:
            return r
        r = t


def test_compare_agrees_with_integer_roots():
    rng = random.Random(8)
    figures = [ref.figure(s, N, rng.randrange(1, math.isqrt(N) * 4) ** 2 + rng.randrange(3))
               for N in (2**10, 3**7, 10**6) for s in range(2, 9) for _ in range(6)]
    # exact ties across dimensions: x^s against x^t for one rational x
    ties = []
    for _ in range(40):
        x = Fraction(rng.randrange(1, 1000), 1000)
        s, t = rng.sample(range(2, 9), 2)
        ties.append((Figure(s, x**s), Figure(t, x**t)))
    checked = set()
    for x, y in [rng.sample(figures, 2) for _ in range(400)] + ties:
        want = (root_scaled(x) > root_scaled(y)) - (root_scaled(x) < root_scaled(y))
        assert ref.compare(x, y) == want == -ref.compare(y, x), (x, y)
        checked.add(want)
    assert checked == {-1, 0, 1}
    assert all(ref.compare(x, y) == 0 for x, y in ties)


def test_prints_the_top_table(capsys):
    ref.main(["2^8", "2"])
    assert capsys.readouterr().out.splitlines() == [
        "32 inverse pairs of maximum-period multipliers of N = 256",
        "rank   a  a^-1     M_8  at s     S_2     S_3     S_4     S_5     S_6     S_7     S_8",
        "   1  13   197  0.6150     6  0.7584  0.8181  0.6648  0.7579  0.6150  0.6730  0.7071",
        "   2  25    41  0.6150     6  0.6783  0.7685  0.7866  0.6563  0.6150  0.6730  0.7071",
    ]
