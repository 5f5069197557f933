#!/usr/bin/env python3
"""How braid equality scales with word length: Dynnikov against Garside.

    python3 scripts/equality_sweep.py

For 200 to 12,800 letters on 4 and 7 strands, a random word (fixed
seeds) is compared with itself after one free insertion s_i s_i^-1, an
equal pair, and after one inserted commutator of two pure braids, an
unequal pair that no exponent-sum or permutation shortcut separates.
Both pairs reach the Dynnikov action of braids.same_braid.  The script
prints the time of same_braid on the equal pair, best of three, and up
to 3,200 letters the time of the Garside normal form of
tests/garside_oracle.py, which costs O(|w|^2 n), on the same pair.  It
asserts that same_braid decides both pairs rightly, that the Garside
form agrees wherever it runs, and that the 12,800-letter pair on 4
strands is decided in under 0.2 s.
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


def main() -> int:
    print(f"{'strands':>7} {'letters':>7} {'dynnikov ms':>12} {'garside ms':>11}")
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
            print(f"{n:>7} {length:>7} {dyn_s * 1e3:>12.2f} {garside:>11}")
            if n == 4 and length == SIZES[-1]:
                assert dyn_s < LONGEST_4_STRAND_S, f"took {dyn_s:.3f} s"
    return 0


if __name__ == "__main__":
    sys.exit(main())
