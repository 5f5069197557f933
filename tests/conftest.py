"""Shared generators for randomized tests, and the 3-strand Cohen form.

Randomized tests use seeded random.Random instances so failures replay
exactly; hypothesis-based tests carry their own shrinking machinery.

cohen_p3_decompose reads the paper's 3-strand structure off combing:
a pure Cohen 3-braid is a full-twist power times a commutator.  The
library's hopf_decompose gives the same k as its layer delta_2 = A1,2^k.
"""

import random
from dataclasses import dataclass

import pytest

from braidcalc.braids import BraidWord
from braidcalc.combing import PureAWord, comb
from braidcalc.words import GroupWord, a_sym, commutator


def braid_pow(a: BraidWord, k: int) -> BraidWord:
    """a^k as a plain word: k copies of a, or -k of its inverse when k < 0."""
    if k < 0:
        a, k = a.inverse(), -k
    return BraidWord(a.strands, a.letters * k)


def aword(n: int, triples) -> PureAWord:
    """The freely reduced band word of (i, j, exponent) triples on n strands."""
    letters = [((i, j), e) for i, j, e in triples]
    return PureAWord(n, GroupWord.from_letters(f"A{n}", letters))


def band_braid(i: int, j: int, n: int) -> BraidWord:
    """The band generator A_{i,j} in B_n as a crossing word."""
    return PureAWord(n, GroupWord.single((i, j))).to_braid()


def band_face(i: int, pair: tuple[int, int], n: int) -> tuple[int, int] | None:
    """A_{s,t} on n strands less strand i, one strand at a time.

    The band dies (None) when strand i is one of its two ends; otherwise
    each end above i moves down by one.
    """
    s, t = pair
    assert 1 <= s < t <= n and 1 <= i <= n
    if i in (s, t):
        return None
    return (s - (s > i), t - (t > i))


def abelianize(w: GroupWord) -> dict[tuple[int, int], int]:
    """Exponent vector; symbols with total exponent zero are omitted."""
    totals: dict[tuple[int, int], int] = {}
    for sym, exp in w.syllables:
        totals[sym] = totals.get(sym, 0) + exp
    return {sym: exp for sym, exp in totals.items() if exp != 0}


def random_braid(rng: random.Random, n: int, max_len: int) -> BraidWord:
    length = rng.randint(0, max_len)
    letters = tuple(
        (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(n, letters)


def random_pure_aword(rng: random.Random, n: int, max_sylls: int,
                      max_exp: int = 1) -> PureAWord:
    pairs = []
    for _ in range(rng.randint(0, max_sylls)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        e = rng.choice((1, -1)) * rng.randint(1, max_exp)
        pairs.append((i, j, e))
    return aword(n, pairs)


def split_power_word(n: int, k: int) -> PureAWord:
    """A_12^k (A_13^k A_23^k) ... : each band powered separately."""
    if n < 2:
        raise ValueError("need at least two strands")
    return aword(n, [(i, j, k) for j in range(2, n + 1) for i in range(1, j)])


def signed_brunnian(rng: random.Random, m: int) -> PureAWord:
    """Left-normed commutator of A_(t,m)^(+-1) over a shuffled t = 1..m-1."""
    if m == 1:
        return PureAWord.identity(1)
    order = list(range(1, m))
    rng.shuffle(order)
    leaves = [GroupWord.single(a_sym(t, m, m), rng.choice((1, -1))) for t in order]
    word = leaves[0]
    for leaf in leaves[1:]:
        word = commutator(word, leaf)
    return PureAWord(m, word)


@dataclass(frozen=True)
class P3CohenForm:
    """A pure Cohen 3-braid written as (full twist)^k times gamma.

    gamma lies in the commutator subgroup of the free group on A_13,
    A_23; k is the exponent of the central full twist.
    """

    k: int
    gamma: GroupWord


@dataclass(frozen=True)
class P3Refusal:
    """Diagnosis for a pure 3-braid that is not Cohen.

    violations maps band labels to the leftover abelianized exponents
    after the central part is removed.
    """

    k: int
    violations: dict[str, int]


def cohen_p3_decompose(b: PureAWord) -> P3CohenForm | P3Refusal:
    """Normal form for pure Cohen 3-braids; refusal for non-Cohen input.

    Combing gives u_2 = A_12^k and u_3 in the free group on A_13, A_23.
    The braid is Cohen exactly when u_3 abelianizes to (k, k), i.e. the
    word is the k-th full twist times a commutator-subgroup element.
    """
    if b.strands != 3:
        raise ValueError("this normal form is specific to three strands")
    form = comb(b)
    u2, u3 = form.component(2), form.component(3)
    k = 0
    for sym, exp in u2.syllables:
        k += exp
    counts = abelianize(u3)
    leftovers = {
        "A1,3": counts.get(a_sym(1, 3, 3), 0) - k,
        "A2,3": counts.get(a_sym(2, 3, 3), 0) - k,
    }
    if any(leftovers.values()):
        return P3Refusal(k, {s: v for s, v in leftovers.items() if v})
    twist_tail = GroupWord.from_letters(
        "A3", [(a_sym(1, 3, 3), 1), (a_sym(2, 3, 3), 1)]
    ) ** k
    gamma = twist_tail.inverse() * u3
    return P3CohenForm(k, gamma)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
