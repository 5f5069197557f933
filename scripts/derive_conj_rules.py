#!/usr/bin/env python3
"""Re-derive the frozen conjugation templates used by the combing pass.

For a band A_{i,j} conjugated by A_{r,s}^{+-1} with r < s < j the
result lies back in the free column group U_j, and up to the order
pattern of (r, s, i) it is a conjugate of a single column generator by
a short word in A_{r,j} and A_{s,j}.  This script searches that space
of candidates (conjugators up to two syllables, exponents up to 2),
keeps the candidates that same_braid accepts, and prints the
shortest survivor for every (pattern, sign) case.  Each derived entry
is then compared against the table frozen in braidcalc.combing, over
several concrete instantiations of the roles, so a regression in
either the table or the equality test is caught loudly.

The search is the honest expensive path; the frozen table is what the
library ships.  Run time is a few seconds.

Usage: python3 scripts/derive_conj_rules.py [-v]
"""

import argparse
import sys

from braidcalc.braids import BraidWord, band_power_letters, same_braid
from braidcalc.combing import _CONJ_TEMPLATES, conj_rule
from braidcalc.words import GroupWord, a_sym

# concrete role instantiations per order pattern: (r, s, i, j, ambient n)
INSTANCES = {
    "disjoint": [(1, 2, 4, 5, 5), (2, 3, 1, 5, 5), (3, 4, 2, 5, 5)],
    "r=i": [(1, 3, 1, 5, 5), (2, 4, 2, 5, 5), (1, 2, 1, 4, 5)],
    "s=i": [(1, 3, 3, 5, 5), (2, 4, 4, 5, 5), (1, 2, 2, 4, 5)],
    "linked": [(1, 3, 2, 5, 5), (2, 4, 3, 5, 5), (1, 4, 2, 5, 5)],
}


def band(i, j, n):
    """The band generator A_{i,j} in B_n as a crossing word."""
    return BraidWord(n, band_power_letters(i, j, 1))


def realize(template, r, s, i, j, n):
    """Play a (role, exponent) template into a braid word."""
    slots = {"r": r, "s": s, "i": i}
    out = BraidWord(n, ())
    for role, exp in template:
        g = band(slots[role], j, n)
        piece = g if exp > 0 else g.inverse()
        for _ in range(abs(exp)):
            out = out * piece
    return out


def conjugators(max_sylls=4):
    """Reduced syllable words over the roles r and s, shortest first."""
    yield ()
    frontier = [()]
    for _ in range(max_sylls):
        nxt = []
        for c in frontier:
            last = c[-1][0] if c else None
            for role in ("r", "s"):
                if role == last:
                    continue
                for exp in (1, -1, 2, -2):
                    cand = c + ((role, exp),)
                    nxt.append(cand)
                    yield cand
        frontier = nxt


def candidates():
    """Conjugates c^-1 g c of one column generator, c short."""
    for c in conjugators():
        inv = tuple((role, -exp) for role, exp in reversed(c))
        for g in ("r", "s", "i"):
            yield inv + ((g, 1),) + c


def derive(pattern, sign, verbose=False):
    """First (hence shortest) template same_braid accepts everywhere."""
    for cand in candidates():
        ok = True
        for r, s, i, j, n in INSTANCES[pattern]:
            conj = band(r, s, n) if sign > 0 else band(r, s, n).inverse()
            target = conj.inverse() * band(i, j, n) * conj
            if not same_braid(realize(cand, r, s, i, j, n), target):
                ok = False
                break
        if ok:
            if verbose:
                print(f"  candidate for ({pattern}, {sign:+d}): {cand}")
            return cand
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()

    failures = 0
    for pattern in INSTANCES:
        for sign in (1, -1):
            derived = derive(pattern, sign, verbose=args.verbose)
            frozen = _CONJ_TEMPLATES[(pattern, sign)]
            # compare as group elements, not strings: fold both into
            # reduced words over the role letters
            reduced_derived = GroupWord.from_letters(
                "A9", [(a_sym({"r": 1, "s": 2, "i": 3}[role], 9, 9), exp)
                       for role, exp in derived]
            )
            reduced_frozen = GroupWord.from_letters(
                "A9", [(a_sym({"r": 1, "s": 2, "i": 3}[role], 9, 9), exp)
                       for role, exp in frozen]
            )
            same = reduced_derived == reduced_frozen
            status = "ok" if same else "MISMATCH"
            print(f"({pattern:9s}, {sign:+d}): derived {derived}  [{status}]")
            if not same:
                failures += 1

    # independent spot check: the public conj_rule agrees with the oracle
    # on every pattern instance and both signs
    for pattern, cases in INSTANCES.items():
        for r, s, i, j, n in cases:
            for sign in (1, -1):
                rule = conj_rule(a_sym(r, s, n), sign, a_sym(i, j, n))
                conj = band(r, s, n) if sign > 0 else band(r, s, n).inverse()
                target = conj.inverse() * band(i, j, n) * conj
                played = BraidWord(n, ())
                for sym, exp in rule.syllables:
                    g = band(*sym, n)
                    piece = g if exp > 0 else g.inverse()
                    for _ in range(abs(exp)):
                        played = played * piece
                if not same_braid(played, target):
                    print(f"conj_rule FAILED oracle at {pattern} {(r, s, i, j)} {sign:+d}")
                    failures += 1

    if failures:
        print(f"{failures} failure(s)")
        return 1
    print("all derived entries match the frozen table; oracle agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
