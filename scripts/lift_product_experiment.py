#!/usr/bin/env python3
"""Is lifting multiplicative?  No, but the defect is always Brunnian.

If a and b are Brunnian on n strands then both lift(a b) and
lift(a) lift(b) are one-strand-up words whose every face equals a b,
because faces are multiplicative on pure words.  Two lifts of the same
element can differ, but their ratio has every face trivial, i.e. the
defect of multiplicativity lives in the Brunnian subgroup one rank up.
This script samples Brunnian pairs, reports how often the two lifts
coincide outright, and verifies the Brunnian-defect claim on every
sample with the complete band-word oracle.  Exact comparison of two
rank-5 lifts can exhaust the comb budget; such trials are reported as
undetermined rather than guessed.

Usage: python3 scripts/lift_product_experiment.py [--samples N]
"""

import argparse
import random
import sys

from braidcalc.braids import BudgetExceededError
from braidcalc.cohen import band_commutator, brunnian_generator
from braidcalc.combing import comb
from braidcalc.lifting import cohen_lift
from braidcalc.words import GroupWord, a_sym


def random_brunnian(rng, n):
    if n == 3:
        return band_commutator(rng.choice((1, -1, 2)), rng.choice((1, -1, 2)))
    order = list(range(1, n))
    rng.shuffle(order)
    conjugators = []
    for _ in range(n - 1):
        u = GroupWord.identity(f"A{n}")
        if rng.random() < 0.5:
            u = GroupWord.single(
                a_sym(rng.randint(1, n - 1), n, n), rng.choice((1, -1))
            )
        conjugators.append(u)
    return brunnian_generator(n, perm=order, conjugators=conjugators)


def trivial(w, budget):
    """Whether the band word w is the identity, combing under the given budget.

    Free reduction and the abelianization answer first: the bands are a
    basis of H_1(P_n), so a nonzero exponent sum makes w nontrivial.
    """
    if w.word.is_identity():
        return True
    if w.word.abelianize():
        return False
    return all(c.is_identity() for c in comb(w, component_budget=budget).components)


def lift_coincidence(lift_ab, lift_a_lift_b):
    """True, False, or None when the comb budget runs out undecided."""
    if lift_ab.word == lift_a_lift_b.word:
        return True
    try:
        return trivial(lift_ab * lift_a_lift_b.inverse(), 10**6)
    except BudgetExceededError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=12)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally = {True: 0, False: 0, None: 0}
    for trial in range(args.samples):
        n = rng.choice((3, 3, 4))
        a = random_brunnian(rng, n)
        b = random_brunnian(rng, n)
        lift_ab = cohen_lift(a * b)
        lift_a_lift_b = cohen_lift(a) * cohen_lift(b)

        for i in range(1, n + 2):
            assert trivial(lift_ab.face(i) * (a * b).inverse(), 10**7)
            assert trivial(lift_a_lift_b.face(i) * (a * b).inverse(), 10**7)

        # defect words grow quickly, so comb their faces with a raised
        # component budget instead of the library default
        ratio = lift_ab.inverse() * lift_a_lift_b
        for i in range(1, ratio.strands + 1):
            face = ratio.face(i)
            assert trivial(face, 10**7), \
                "defect escaped the Brunnian subgroup"
        same = lift_coincidence(lift_ab, lift_a_lift_b)
        tally[same] += 1
        label = {True: "yes", False: "no", None: "undetermined"}[same]
        print(f"  trial {trial} (n={n}): lifts coincide: {label:12s}  "
              f"defect Brunnian: True, {len(ratio.word.syllables)} syllables")

    print(f"coincide: {tally[True]}, differ: {tally[False]}, "
          f"undetermined: {tally[None]} out of {args.samples}; "
          "every defect was Brunnian one rank up")
    return 0


if __name__ == "__main__":
    sys.exit(main())
