"""The Artin action of B_n on the free group F_n, kept as a test oracle.

sigma_i sends x_i -> x_i x_{i+1} x_i^{-1} and x_{i+1} -> x_i, fixing the
other generators.  A word acts by applying its first letter's
substitution first, so x^(ab) = (x^a)^b (a right action); this makes
sigma_1^2 send x_2 to x_1 x_2 x_1^{-1}, the orientation of the band
generators.  The action is faithful, so two braid words are equal iff
their endomorphisms agree on every generator.  That makes it a decision
procedure independent of the Garside normal form of garside_oracle.py
and of the library's Dynnikov action, and the tests cross-check them
against each other.

The free words are over the oracle's own generators x_1..x_r, the
integers 1..r, which the library never sees; it lends only its
GroupWord, whose words are symbol-agnostic, and the run join behind its
products.  An endomorphism is built from the generator images of its
letters, so its images stay in x_1..x_r.  substitute applies one to a
word; the other tests use it on band words too.

Reduced images can grow exponentially in the word length, so every
composition is checked against a letter budget and raises
BudgetExceededError rather than thrash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from braidcalc.braids import BraidWord, BudgetExceededError
from braidcalc.words import GroupWord, _join, _pow

LETTER_BUDGET = 10**6


def substitute(word: GroupWord, mapping: Mapping[Hashable, GroupWord]) -> GroupWord:
    """Apply the induced endomorphism letterwise.

    Every symbol occurring in the word must be mapped.  Each image is
    reduced, and so is each power of it, so they join only at junctions.
    """
    stack: list = []
    for sym, exp in word.syllables:
        image = mapping.get(sym)
        if image is None:
            raise ValueError(f"substitute: no image for symbol {sym}")
        _join(stack, _pow(image.syllables, exp))
    return GroupWord(tuple(stack))


def x_sym(i: int, rank: int) -> int:
    """The free-group generator x_i of F_rank, the integer i."""
    if not 1 <= i <= rank:
        raise ValueError(f"x_{i} is out of range for rank {rank}")
    return i


def format_x(word: GroupWord) -> str:
    """A free word as x<i>, a power as x<i>^<k>; e when empty."""
    parts = [f"x{i}" if exp == 1 else f"x{i}^{exp}" for i, exp in word.syllables]
    return " ".join(parts) if parts else "e"


@dataclass(frozen=True)
class FreeEndo:
    """An endomorphism of F_rank recorded by its generator images."""

    rank: int
    images: tuple[GroupWord, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise ValueError("image count must equal the rank")

    @classmethod
    def identity(cls, rank: int) -> FreeEndo:
        return cls(
            rank,
            tuple(GroupWord.single(x_sym(i, rank)) for i in range(1, rank + 1)),
        )

    def is_identity(self) -> bool:
        for i, img in enumerate(self.images, start=1):
            if img.syllables != ((x_sym(i, self.rank), 1),):
                return False
        return True

    def then(self, other: FreeEndo, budget: int | None = LETTER_BUDGET) -> FreeEndo:
        """Composite sending x to other(self(x)); diagrammatic order."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch in endomorphism composition")
        mapping = {x_sym(i, self.rank): img for i, img in enumerate(other.images, start=1)}
        new_images = []
        total = 0
        for img in self.images:
            word = substitute(img, mapping)
            total += word.letter_count()
            if budget is not None and total > budget:
                raise BudgetExceededError(
                    f"free-group images exceeded the {budget}-letter budget"
                )
            new_images.append(word)
        return FreeEndo(self.rank, tuple(new_images))

    # The two structural facts the Artin image always satisfies; checked
    # by the tests, not on every construction.

    def preserves_boundary(self) -> bool:
        """The product x_1 x_2 .. x_n must be fixed."""
        boundary = GroupWord(tuple((x_sym(i, self.rank), 1) for i in range(1, self.rank + 1)))
        image = GroupWord()
        for img in self.images:
            image = image * img
        return image == boundary

    def is_permutation_conjugating(self) -> bool:
        """Each image must reduce to w x_j w^{-1} with exponent +1 core."""
        seen = set()
        for img in self.images:
            syl = img.syllables
            if len(syl) % 2 == 0:
                return False
            mid = len(syl) // 2
            sym, exp = syl[mid]
            if exp != 1:
                return False
            for k in range(mid):
                left, lexp = syl[k]
                right, rexp = syl[len(syl) - 1 - k]
                if left != right or lexp != -rexp:
                    return False
            seen.add(sym)
        return len(seen) == self.rank


def _letter_rule(n: int, i: int, sign: int) -> FreeEndo:
    images = []
    for k in range(1, n + 1):
        xk = x_sym(k, n)
        if k == i:
            if sign == 1:
                xi, xj = x_sym(i, n), x_sym(i + 1, n)
                images.append(GroupWord(((xi, 1), (xj, 1), (xi, -1))))
            else:
                images.append(GroupWord.single(x_sym(i + 1, n)))
        elif k == i + 1:
            if sign == 1:
                images.append(GroupWord.single(x_sym(i, n)))
            else:
                xi, xj = x_sym(i, n), x_sym(i + 1, n)
                images.append(GroupWord(((xj, -1), (xi, 1), (xj, 1))))
        else:
            images.append(GroupWord.single(xk))
    return FreeEndo(n, tuple(images))


_LETTER_RULES: dict[tuple[int, int, int], FreeEndo] = {}


def artin_endo(braid: BraidWord, budget: int | None = LETTER_BUDGET) -> FreeEndo:
    """The induced endomorphism of F_n; divide and conquer over the word.

    Composing balanced halves keeps intermediate images close to their
    reduced size, which is far cheaper than a letter-by-letter fold on
    long structured words.
    """
    n = braid.strands
    letters = braid.letters
    if not letters:
        return FreeEndo.identity(n)

    def rule(pos: int) -> FreeEndo:
        key = (n, *letters[pos])
        endo = _LETTER_RULES.get(key)
        if endo is None:
            endo = _letter_rule(n, *letters[pos])
            _LETTER_RULES[key] = endo
        return endo

    def rec(lo: int, hi: int) -> FreeEndo:
        if hi - lo == 1:
            return rule(lo)
        mid = (lo + hi) // 2
        return rec(lo, mid).then(rec(mid, hi), budget=budget)

    return rec(0, len(letters))


def artin_equal(a: BraidWord, b: BraidWord, budget: int | None = LETTER_BUDGET) -> bool:
    """Equality in B_n by comparing Artin actions."""
    if a.strands != b.strands:
        raise ValueError(
            f"cannot compare braids on {a.strands} and {b.strands} strands"
        )
    if a.letters == b.letters:
        return True
    if a.perm() != b.perm():
        return False
    return artin_endo(a, budget) == artin_endo(b, budget)
