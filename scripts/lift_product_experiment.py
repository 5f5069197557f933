#!/usr/bin/env python3
"""Is lifting multiplicative?  No, but the defect is always Brunnian.

If a and b are Brunnian on n strands then both lift(a b) and
lift(a) lift(b) are one-strand-up words whose every face equals a b,
because faces are multiplicative on pure words.  Two lifts of the same
element can differ, but their ratio has every face trivial, i.e. the
defect of multiplicativity lives in the Brunnian subgroup one rank up.
This script samples Brunnian pairs, reports how often the two lifts
coincide outright, and verifies the Brunnian-defect claim on every
sample with same_braid, the Dynnikov action.

Usage: python3 scripts/lift_product_experiment.py [--samples N]
"""

import argparse
import random
import sys

from braidcalc.braids import same_braid
from braidcalc.cohen import band_commutator, brunnian_generator
from braidcalc.lifting import full_lift
from braidcalc.words import GroupWord, a_sym


def random_brunnian(rng, n):
    if n == 3:
        return band_commutator(rng.choice((1, -1, 2)), rng.choice((1, -1, 2)))
    order = list(range(1, n))
    rng.shuffle(order)
    conjugators = []
    for _ in range(n - 1):
        u = GroupWord()
        if rng.random() < 0.5:
            u = GroupWord.single(
                a_sym(rng.randint(1, n - 1), n, n), rng.choice((1, -1))
            )
        conjugators.append(u)
    return brunnian_generator(n, perm=order, conjugators=conjugators)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=12)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally = {True: 0, False: 0}
    for trial in range(args.samples):
        n = rng.choice((3, 3, 4))
        a = random_brunnian(rng, n)
        b = random_brunnian(rng, n)
        lift_ab = full_lift(n, n + 1, a * b)
        lift_a_lift_b = full_lift(n, n + 1, a) * full_lift(n, n + 1, b)

        for i in range(1, n + 2):
            assert same_braid(lift_ab.face(i), a * b)
            assert same_braid(lift_a_lift_b.face(i), a * b)

        ratio = lift_ab.inverse() * lift_a_lift_b
        for i in range(1, ratio.strands + 1):
            face = ratio.face(i)
            assert same_braid(face, face.identity(face.strands)), \
                "defect escaped the Brunnian subgroup"
        same = same_braid(lift_ab, lift_a_lift_b)
        tally[same] += 1
        label = "yes" if same else "no"
        print(f"  trial {trial} (n={n}): lifts coincide: {label:3s}  "
              f"defect Brunnian: True, {len(ratio.word.syllables)} syllables")

    print(f"coincide: {tally[True]}, differ: {tally[False]} out of {args.samples}; "
          "every defect was Brunnian one rank up")
    return 0


if __name__ == "__main__":
    sys.exit(main())
