"""Seeded query lists for the three workloads.

Each workload is a fixed recipe of query slots: the command, the strand
counts and the word sizes of every slot are fixed here, before anything
is drawn.  The seed only draws the content of each slot (band orders,
signs, random letters), and no draw is ever discarded.  A query is a
dict with the argv handed to ``cli.run`` plus what the checker needs.

Inputs are built with braidcalc's own constructions (full lifts, Hopf
reassembly), which the paper proves Cohen; the checker never trusts the
program's answers on them.
"""

from __future__ import annotations

import random

from braidcalc import (
    GroupWord,
    PureAWord,
    a_sym,
    commutator,
    delta_square_word,
    format_aword,
    full_lift,
    reassemble,
)
from checker import parse_crossings


def build(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}-{seed}")
    return {"band-solve": _band_solve, "band-comb": _band_comb, "crossing-eq": _crossing_eq}[
        workload
    ](rng)


# -- band words -----------------------------------------------------------


def _signed_brunnian(rng: random.Random, m: int):
    """Left-normed commutator of A_(t,m)^(+-1) over a shuffled t = 1..m-1.

    Every face kills one leaf (or all of them), so the word is Brunnian;
    its letter count 3 * 2^(m-2) - 2 does not depend on the draw.
    """
    if m == 1:
        return PureAWord.identity(1)
    order = list(range(1, m))
    rng.shuffle(order)
    leaves = [GroupWord.single(a_sym(t, m, m), rng.choice((1, -1))) for t in order]
    acc = leaves[0]
    for g in leaves[1:]:
        acc = commutator(acc, g)
    return PureAWord(m, acc)


def _crossing_text(band_text: str, n: int) -> str:
    """The same braid written in crossing tokens."""
    return _fmt_crossings(parse_crossings(band_text, n))


# -- band-solve -------------------------------------------------------------

# The latency of a slot hardly depends on the draw, so the latencies of a
# pass fall into clusters.  The counts are chosen so that the median
# lands mid-way through the 15-25 ms cluster ((4, 5), (6, 6), reassembled
# 5) and the 90th percentile mid-way through the 240-370 ms one ((4, 6),
# (6, 7)), not on the gap between two clusters.

# (source rank m, target rank n, slots): alpha = full_lift(m, n, w) for a
# drawn Brunnian w on m strands; solved one strand up, on n + 1 strands.
_LIFT_SLOTS = [
    (3, 3, 6), (3, 4, 9), (3, 5, 12), (3, 6, 3),
    (4, 4, 6), (4, 5, 12), (4, 6, 6),
    (5, 5, 9), (5, 6, 9),
    (6, 6, 6), (6, 7, 6),
    (7, 7, 6),
]
# alpha = reassemble of drawn Brunnian layers delta_1..delta_n.
_REASSEMBLE_SLOTS = [(3, 5), (4, 6), (5, 6), (6, 6), (7, 3)]
# planted non-Cohen inputs: a Cohen alpha times A_(1,2)^(+-1), two of
# each.  (A reassembled 5-strand alpha is left out: refusing it runs into
# the combing budget on some seeds, see CHANGES.md.)
_SOUR_SLOTS = [("lift", 3, 4), ("lift", 4, 5), ("lift", 5, 5), ("reassemble", 3, 3), ("reassemble", 4, 4)] * 2


def _reassembled(rng: random.Random, n: int):
    return reassemble([_signed_brunnian(rng, k) for k in range(1, n + 1)], n)


def _band_solve(rng: random.Random) -> list[dict]:
    queries = []

    def add(alpha, cohen: bool) -> None:
        text = format_aword(alpha)
        n = alpha.strands
        queries.append({
            "kind": "band_solve", "strands": n, "expr": text, "cohen": cohen,
            "argv": ["solve", "-n", str(n + 1), "--verify", text],
        })

    for m, n, count in _LIFT_SLOTS:
        for _ in range(count):
            add(full_lift(m, n, _signed_brunnian(rng, m), check=False), True)
    for n, count in _REASSEMBLE_SLOTS:
        for _ in range(count):
            add(_reassembled(rng, n), True)
    for how, m, n in _SOUR_SLOTS:
        alpha = (
            full_lift(m, n, _signed_brunnian(rng, m), check=False)
            if how == "lift"
            else _reassembled(rng, n)
        )
        kink = PureAWord(n, GroupWord.single(a_sym(1, 2, n), rng.choice((1, -1))))
        add(alpha * kink, False)
    return queries


# -- band-comb --------------------------------------------------------------

# (strands, lower letters, top letters, slots).  A query combs H * L:
# L is one of a fixed list of lower words (bands A_(i,j), j < n) and H
# a drawn word in the top bands A_(i,n).  Combing prepends the letters
# of H one at a time and conjugates each through the combed L, one
# substitution per lower letter.  How fast the images grow depends on L
# and on which top band is conjugated, not on its sign, so L is fixed
# per slot and H uses every top band equally often: the draw picks only
# the order and the signs.
_COMB_SLOTS = [(4, 6, 24, 48), (5, 5, 20, 48), (6, 4, 20, 48)]


def _random_reduced(rng: random.Random, bands: list[tuple[int, int]], length: int) -> list:
    """A reduced word of `length` signed letters, drawn letter by letter."""
    out: list[tuple[tuple[int, int], int]] = []
    while len(out) < length:
        band, sign = rng.choice(bands), rng.choice((1, -1))
        if out and out[-1] == (band, -sign):
            sign = -sign
        out.append((band, sign))
    return out


def _shuffled_reduced(rng: random.Random, bands: list[tuple[int, int]], length: int) -> list:
    """A reduced word using each band length / len(bands) times, in a
    drawn order with drawn signs."""
    order = bands * (length // len(bands))
    rng.shuffle(order)
    out: list[tuple[tuple[int, int], int]] = []
    for band in order:
        sign = rng.choice((1, -1))
        if out and out[-1][0] == band:
            sign = out[-1][1]
        out.append((band, sign))
    return out


def _words_text(letters: list) -> str:
    return " ".join(f"a{i}.{j}" if s > 0 else f"a{i}.{j}'" for (i, j), s in letters)


def _band_comb(rng: random.Random) -> list[dict]:
    lower_rng = random.Random("band-comb-lower-words")
    queries = []
    for n, lower_len, top_len, count in _COMB_SLOTS:
        lower_bands = [(i, j) for j in range(2, n) for i in range(1, j)]
        top_bands = [(i, n) for i in range(1, n)]
        for _ in range(count):
            lower = _words_text(_random_reduced(lower_rng, lower_bands, lower_len))
            top = _words_text(_shuffled_reduced(rng, top_bands, top_len))
            text = f"{top} {lower}"
            queries.append({
                "kind": "band_comb", "strands": n, "expr": text,
                "argv": ["comb", "-n", str(n), text],
            })
    return queries


# -- crossing-eq --------------------------------------------------------------

# (strands, base letters, pairs): each pair is planted equal (relation
# moves) and planted unequal (one sign flipped, which moves the exponent
# sum by 2 and keeps the permutation).
_EQ_SLOTS = [(3, 14, 40), (4, 18, 50), (5, 16, 35)]
_EQ_MOVES = 6
# half-twist powers of the non-pure solver inputs, one query each
_SOLVE_POWERS = (-1, -1, -1, -1, -3, -3, -3, -3, 1, 1, 1, 1, 3, 3)
# the Cohen, Brunnian, unary and solver queries are drawn this many times
_ROUNDS = 5


def _random_crossings(rng: random.Random, n: int, length: int) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    while len(out) < length:
        letter = (rng.randint(1, n - 1), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            letter = (letter[0], -letter[1])
        out.append(letter)
    return out


def _relation_move(rng: random.Random, w: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """One move that keeps the braid: a free insertion, a far
    commutation or a braid relation, chosen among those that apply."""
    far = [k for k in range(len(w) - 1) if abs(w[k][0] - w[k + 1][0]) >= 2]
    braid = [
        k for k in range(len(w) - 2)
        if w[k][1] == w[k + 1][1] == w[k + 2][1]
        and w[k][0] == w[k + 2][0] and abs(w[k][0] - w[k + 1][0]) == 1
    ]
    choice = rng.choice(["insert"] + ["far"] * bool(far) + ["braid"] * bool(braid))
    if choice == "insert":
        k = rng.randint(0, len(w))
        i, s = rng.randint(1, n - 1), rng.choice((1, -1))
        return w[:k] + [(i, s), (i, -s)] + w[k:]
    if choice == "far":
        k = rng.choice(far)
        return w[:k] + [w[k + 1], w[k]] + w[k + 2:]
    k = rng.choice(braid)
    (i, s), (j, _) = w[k], w[k + 1]
    return w[:k] + [(j, s), (i, s), (j, s)] + w[k + 3:]


def _fmt_crossings(w: list[tuple[int, int]]) -> str:
    return " ".join(f"s{i}" if s > 0 else f"s{i}'" for i, s in w) or "e"


def _crossing_eq(rng: random.Random) -> list[dict]:
    eq: list[dict] = []
    for n, length, pairs in _EQ_SLOTS:
        for _ in range(pairs):
            base = _random_crossings(rng, n, length)
            other = base
            for _ in range(_EQ_MOVES):
                other = _relation_move(rng, other, n)
            flipped = list(other)
            k = rng.randrange(len(flipped))
            flipped[k] = (flipped[k][0], -flipped[k][1])
            for planted, rhs in ((True, other), (False, flipped)):
                exprs = [_fmt_crossings(base), _fmt_crossings(rhs)]
                eq.append({
                    "kind": "eq", "strands": n, "exprs": exprs, "planted": planted,
                    "argv": ["eq", "-n", str(n), *exprs],
                })

    def kink(w, n):
        return w * PureAWord(n, GroupWord.single(a_sym(1, 2, n), rng.choice((1, -1))))

    def predicate(kind: str, w_text: str, n: int, planted: bool) -> dict:
        text = _crossing_text(w_text, n)
        return {
            "kind": kind, "strands": n, "expr": text, "planted": planted,
            "argv": [kind, "-n", str(n), text],
        }

    def twisted_tail(odd: int) -> str:
        """D^odd times Delta^(2k) [A13^l, A23^m] with odd + 2k = -1.

        The net half-twist power is fixed because the cost of checking
        the solver's faces with the Artin action grows steeply with it.
        """
        tail = delta_square_word(3, (-1 - odd) // 2)
        tail = tail * _signed_brunnian(rng, 3)
        return f"D^{odd} {_crossing_text(format_aword(tail), 3)}"

    checks: list[dict] = []
    solves: list[dict] = []
    for _ in range(_ROUNDS):
        for _ in range(4):
            checks.append(predicate("cohen", format_aword(full_lift(3, 4, _signed_brunnian(rng, 3), check=False)), 4, True))
        for _ in range(2):
            checks.append(predicate("cohen", format_aword(_signed_brunnian(rng, 4)), 4, True))
        for odd in (-1, -3, 1):
            text = twisted_tail(odd)
            checks.append({
                "kind": "cohen", "strands": 3, "expr": text, "planted": True,
                "argv": ["cohen", "-n", "3", text],
            })
        for _ in range(3):
            lifted = full_lift(3, 4, _signed_brunnian(rng, 3), check=False)
            checks.append(predicate("cohen", format_aword(kink(lifted, 4)), 4, False))
        for m in (3, 3, 3, 3, 4, 4, 4, 4):
            checks.append(predicate("brunnian", format_aword(_signed_brunnian(rng, m)), m, True))
        for _ in range(4):
            lifted = full_lift(3, 4, _signed_brunnian(rng, 3), check=False)
            checks.append(predicate("brunnian", format_aword(lifted), 4, False))
        for n, planted in ((3, True), (3, True), (4, True), (4, True), (4, True), (4, True),
                           (3, False), (4, False), (4, False)):
            # a word in the bands A_(1,j) has a trivial first face, so it
            # times the staircase s1..s_(n-1) is unary; A_(2,3) spoils that
            pure = [(a_sym(1, rng.randint(2, n), n), rng.choice((1, -1))) for _ in range(4)]
            w = PureAWord(n, GroupWord.from_letters(f"A{n}", pure))
            if not planted:
                w = w * PureAWord(n, GroupWord.single(a_sym(2, 3, n), rng.choice((1, -1))))
            q = predicate("unary", format_aword(w), n, planted)
            staircase = " ".join(f"s{i}" for i in range(1, n))
            q["expr"] = f"{q['expr']} {staircase}" if w.word.syllables else staircase
            q["argv"][-1] = q["expr"]
            checks.append(q)

        for odd in _SOLVE_POWERS:
            text = twisted_tail(odd)
            solves.append({
                "kind": "crossing_solve", "strands": 3, "expr": text,
                "argv": ["solve", "-n", "4", "--verify", text],
            })

    queries = eq + checks + solves
    rng.shuffle(queries)
    return queries
