"""Shared generators for randomized tests.

Randomized tests use seeded random.Random instances so failures replay
exactly; hypothesis-based tests carry their own shrinking machinery.
"""

import random

import pytest

from braidcalc.braids import BraidWord
from braidcalc.combing import PureAWord
from braidcalc.words import GroupWord, a_sym, commutator


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
    return PureAWord.from_pairs(n, pairs)


def split_power_word(n: int, k: int) -> PureAWord:
    """A_12^k (A_13^k A_23^k) ... : each band powered separately."""
    if n < 2:
        raise ValueError("need at least two strands")
    return PureAWord.from_pairs(
        n, [(i, j, k) for j in range(2, n + 1) for i in range(1, j)]
    )


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
