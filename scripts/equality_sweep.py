#!/usr/bin/env python3
"""How braid equality scales with word length.

    python3 scripts/equality_sweep.py

Three tables, each timing braids.same_braid, which acts by Dynnikov
coordinates on the freely and cyclically reduced core of a*b^-1.

Random words: for 200 to 12,800 letters on 4 and 7 strands, a random
word (fixed seeds) is compared with itself after one free insertion
s_i s_i^-1, an equal pair, and after one inserted commutator of two
pure braids, an unequal pair that no exponent-sum or permutation
shortcut separates.  The table gives the time of same_braid on the equal
pair, best of three, and up to 3,200 letters the time of the Garside
normal form of tests/garside_oracle.py, which costs O(|w|^2 n), on the
same pair.  The script asserts that same_braid decides both pairs
rightly, that the Garside form agrees wherever it runs, and that the
12,800-letter pair on 4 strands is decided in under 0.2 s.

Pseudo-Anosov words, equal: P s1 s3 against P s3 s1 on 4 strands, with
P = (s1 s2^-1)^k, from 20,000 to 640,000 letters.  P stretches the
Dynnikov coordinates exponentially, so acting on the whole words costs
O(|w|^2) bit operations; the core is s1 s3 s1^-1 s3^-1 at any k.  The
script asserts that the pairs are equal and that the 640,000-letter pair
is decided in under 2 s.

Pseudo-Anosov words, unequal: P s3^2 against s3^2 P, the same exponent
sum and permutation, whose core P s3^2 P^-1 s3^-2 stays as long as the
words.  Its coordinates reach O(|w|) bits, so the cost is quadratic;
the sizes double from 5,000 letters until one pair takes about 1 s.
The script asserts that every pair is unequal and asserts no time.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from braidcalc.braids import BraidWord, same_braid  # noqa: E402
from garside_oracle import garside_equal  # noqa: E402

SIZES = (200, 400, 800, 1600, 3200, 6400, 12800)
STRANDS = (4, 7)
GARSIDE_UP_TO = 3200
LONGEST_4_STRAND_S = 0.2
PA_SIZES = (20000, 40000, 80000, 160000, 320000, 640000)
LONGEST_PA_EQUAL_S = 2.0
PA_UNEQUAL_FROM = 5000
PA_UNEQUAL_STOP_S = 1.0


def best_of(runs: int, f) -> tuple[float, bool]:
    best, value = float("inf"), None
    for _ in range(runs):
        t = time.perf_counter()
        value = f()
        best = min(best, time.perf_counter() - t)
    return best, value


def pairs(n: int, length: int) -> tuple[BraidWord, BraidWord, BraidWord]:
    """(w, w with a free insertion, w with a pure commutator inserted)."""
    rng = random.Random(length * 10 + n)
    w = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]
    i, s, p = rng.randint(1, n - 2), rng.choice((1, -1)), rng.randint(0, length)
    free = w[:p] + [(i, s), (i, -s)] + w[p:]
    commutator = [(i, 1)] * 2 + [(i + 1, 1)] * 2 + [(i, -1)] * 2 + [(i + 1, -1)] * 2
    hard = w[:p] + commutator + w[p:]
    return BraidWord(n, tuple(w)), BraidWord(n, tuple(free)), BraidWord(n, tuple(hard))


def pseudo_anosov(length: int) -> tuple[tuple[int, int], ...]:
    """(s1 s2^-1)^k on `length` letters, rounded down to an even count."""
    return ((1, 1), (2, -1)) * (length // 2)


def random_words() -> None:
    print(f"{'strands':>7} {'letters':>7} {'same_braid ms':>13} {'garside ms':>11}")
    for n in STRANDS:
        for length in SIZES:
            w, free, hard = pairs(n, length)
            dyn_s, equal = best_of(3, lambda: same_braid(w, free))
            assert equal, f"{n} strands, {length} letters: free insertion judged unequal"
            assert not same_braid(w, hard), f"{n} strands, {length} letters: commutator ignored"
            garside = "-"
            if length <= GARSIDE_UP_TO:
                garside_s, g_equal = best_of(1, lambda: garside_equal(w, free))
                assert g_equal and not garside_equal(w, hard), "the Garside form disagrees"
                garside = f"{garside_s * 1e3:.1f}"
            print(f"{n:>7} {length:>7} {dyn_s * 1e3:>13.2f} {garside:>11}")
            if n == 4 and length == SIZES[-1]:
                assert dyn_s < LONGEST_4_STRAND_S, f"took {dyn_s:.3f} s"


def pseudo_anosov_equal() -> None:
    print("\nequal P s1 s3 = P s3 s1, P = (s1 s2^-1)^k, 4 strands")
    print(f"{'letters':>7} {'same_braid ms':>13}")
    for length in PA_SIZES:
        p = pseudo_anosov(length)
        a = BraidWord(4, p + ((1, 1), (3, 1)))
        b = BraidWord(4, p + ((3, 1), (1, 1)))
        took, equal = best_of(1, lambda: same_braid(a, b))
        assert equal, f"{length} letters: judged unequal"
        print(f"{len(a.letters):>7} {took * 1e3:>13.1f}")
        if length == PA_SIZES[-1]:
            assert took < LONGEST_PA_EQUAL_S, f"took {took:.3f} s"


def pseudo_anosov_unequal() -> None:
    print("\nunequal P s3^2 against s3^2 P, 4 strands: the core stays long")
    print(f"{'letters':>7} {'same_braid ms':>13}")
    length, took = PA_UNEQUAL_FROM, 0.0
    while took < PA_UNEQUAL_STOP_S:
        p, twist = pseudo_anosov(length), ((3, 1), (3, 1))
        a, b = BraidWord(4, p + twist), BraidWord(4, twist + p)
        took, equal = best_of(1, lambda: same_braid(a, b))
        assert not equal, f"{length} letters: judged equal"
        print(f"{len(a.letters):>7} {took * 1e3:>13.1f}")
        length *= 2


def main() -> int:
    random_words()
    pseudo_anosov_equal()
    pseudo_anosov_unequal()
    return 0


if __name__ == "__main__":
    sys.exit(main())
