#!/usr/bin/env python3
"""How much does the factor order inside a spread matter?

The spread of a word multiplies one coface image per ascending index
tuple.  This script recomputes the product under permuted factor
orders and asks the complete band-word oracle two questions: does the
reordered product still equal the shipped one as a group element, and
does it still collapse to the lower spread under every face?

Observed answer at sample scale: random reorders fail both tests, and
adjacent transpositions almost always fail too.  Deleting a strand
sends each surviving factor to a factor of the lower spread, so the
face of the product is those images multiplied in the order given;
only the ascending enumeration makes that order the lower spread's own
order at every face simultaneously.  The factor order is therefore
load-bearing for the face recursion, not a cosmetic normalization.

Usage: python3 scripts/tau_order_experiment.py [--word l,m] [--orders N]
"""

import argparse
import random
import sys
from functools import reduce
from itertools import combinations

from braidcalc.braids import same_braid
from braidcalc.cohen import band_commutator
from braidcalc.combing import PureAWord
from braidcalc.lifting import tau_spread


def spread_factors(m, k, w):
    """The coface images whose ordered product is tau_spread(m, k, w)."""
    return [
        reduce(PureAWord.coface, indices, w).word
        for indices in combinations(range(1, k), k - m)
    ]


def check(order, factors, dst_rank, shipped, lower):
    word = factors[order[0]]
    for idx in order[1:]:
        word = word * factors[idx]
    permuted = PureAWord(dst_rank, word)
    same = same_braid(permuted, shipped)
    law = all(
        same_braid(permuted.face(i), lower)
        for i in range(1, dst_rank)
    ) and permuted.face(dst_rank).is_identity()
    return same, law


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--word", default="2,1", help="commutator exponents l,m")
    parser.add_argument("--orders", type=int, default=8, help="random reorders to try")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    l, m = (int(t) for t in args.word.split(","))
    alpha = band_commutator(l, m)
    src_rank, dst_rank = 3, 5
    shipped = tau_spread(src_rank, dst_rank, alpha)
    factors = spread_factors(src_rank, dst_rank, alpha)
    lower = tau_spread(src_rank, dst_rank - 1, alpha)
    print(f"word [A13^{l}, A23^{m}], spread {src_rank}->{dst_rank}, "
          f"{len(factors)} factors")

    rng = random.Random(args.seed)
    agree = face_ok = 0
    for _ in range(args.orders):
        order = list(range(len(factors)))
        rng.shuffle(order)
        same, law = check(order, factors, dst_rank, shipped, lower)
        agree += same
        face_ok += law
        print(f"  random order {order}: equals shipped: {str(same):5s}  "
              f"face law holds: {law}")
    print(f"random: {agree}/{args.orders} equal shipped, "
          f"{face_ok}/{args.orders} keep the face law")

    agree = face_ok = 0
    swaps = len(factors) - 1
    for pos in range(swaps):
        order = list(range(len(factors)))
        order[pos], order[pos + 1] = order[pos + 1], order[pos]
        same, law = check(order, factors, dst_rank, shipped, lower)
        agree += same
        face_ok += law
        print(f"  swap {pos}<->{pos + 1}: equals shipped: {str(same):5s}  "
              f"face law holds: {law}")
    print(f"adjacent swaps: {agree}/{swaps} equal shipped, "
          f"{face_ok}/{swaps} keep the face law")
    return 0


if __name__ == "__main__":
    sys.exit(main())
