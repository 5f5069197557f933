"""Pure braids of the disk less k points, as a view of disk band words.

By Fadell-Neuwirth, P_n of the disk less k points is the subgroup of
P_(n+k)(disk) that dies when the n moving strands are deleted: strands
1..k are the punctures and k+1..k+n move.  A word in the bands A_(i,j)
with j > k lies in it, and for k = 1, the annulus, that is all of
P_(n+1).  Punctured(k, w) reads the disk word w on n + k strands as n
moving strands: face, faces and coface shift by k, and every other
member the solver and the predicates use passes straight through, so
equality is the disk's.  view(0, w) is w itself, so that a test over
k = 0, 1, 2 runs the plain word type on the disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from braidcalc.combing import PureAWord


@dataclass(frozen=True)
class Punctured:
    k: int
    word: PureAWord

    @property
    def strands(self) -> int:
        return self.word.strands - self.k

    def _view(self, word: PureAWord) -> Punctured:
        return Punctured(self.k, word)

    def identity(self, strands: int) -> Punctured:
        return self._view(PureAWord.identity(strands + self.k))

    def product(self, strands: int, factors: Iterable[Punctured]) -> Punctured:
        return self._view(PureAWord.product(strands + self.k, (f.word for f in factors)))

    def __mul__(self, other: Punctured) -> Punctured:
        return self._view(self.word * other.word)

    def inverse(self) -> Punctured:
        return self._view(self.word.inverse())

    def face(self, i: int) -> Punctured:
        return self._view(self.word.face(i + self.k))

    def faces(self) -> tuple[Punctured, ...]:
        return tuple(map(self._view, self.word.faces()[self.k:]))

    def coface(self, *positions: int) -> Punctured:
        return self._view(self.word.coface(*(i + self.k for i in positions)))

    def to_braid(self):
        return self.word.to_braid()

    def perm(self):
        return self.word.perm()

    def is_identity(self) -> bool:
        return self.word.is_identity()

    def letter_count(self) -> int:
        return self.word.letter_count()

    def exponent_sum(self) -> int:
        return self.word.exponent_sum()


def view(k: int, word: PureAWord) -> PureAWord | Punctured:
    """word on the disk less k points: Punctured(k, word), or word when k = 0."""
    return Punctured(k, word) if k else word
