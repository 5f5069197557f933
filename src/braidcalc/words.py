"""Freely reduced words; in the library their symbols are bands.

Words are the basic currency for everything downstream: pure braids
are written over the bands A_{i,j}, and combed normal forms keep one
word per fiber.  A band is the plain pair (i, j).  It keeps its name
when strands are added, so a word does not record a rank.

Representation: a word is a tuple of syllables (symbol, exponent) with
every exponent nonzero and no two adjacent syllables sharing a symbol,
i.e. free reduction is maintained at all times.  Free reduction is
confluent, so any construction path yields the same tuple and word
equality is plain tuple equality.

Every word built here is reduced, and so is its inverse, every power
and every image of a reduced word under a map that is injective on
symbols.  When reduced runs are concatenated, letters can therefore
cancel or merge only where two runs meet.  Products, powers and
combing join runs with _join, which works at the junction, copies the
rest across and returns the letters cancelled, so a caller that knows
the sizes of its runs knows the size of the result without recounting;
only from_letters, the path for raw input, reduces syllable by syllable.

Words are checked once, where they enter the library: in the public
constructors, from_letters and the reader expr.parse.  A GroupWord
checks free reduction only.  The strand count that bounds its bands
lives in combing.PureAWord, which checks 1 <= i < j <= strands, and
combing.CombedForm checks the level of each component; from_letters
checks every raw band against the range that its alphabet "A<r>"
names.  A word built from checked words is valid by construction, so
it is made with the private unchecked constructor of its class,
GroupWord._unchecked, braids.BraidWord._unchecked,
combing.PureAWord._unchecked or combing.CombedForm._unchecked, which
skip the check.  They serve products (product and *), inverse, powers
(**), face, coface, to_braid, combing.comb and
CombedForm.as_single_word, and nothing else.

All values here are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "GroupWord",
    "a_sym",
    "commutator",
]

Band = tuple[int, int]


def a_sym(i: int, j: int, rank: int) -> Band:
    """The band A_{i,j}, requiring 1 <= i < j <= rank."""
    if not 1 <= i < j <= rank:
        raise ValueError(f"A_{i},{j} is out of range for rank {rank}")
    return (i, j)


def _band_name(band: Band) -> str:
    return f"A{band[0]},{band[1]}"


Syllable = tuple[Band, int]


def _push(stack: list[Syllable], sym: Band, exp: int) -> int:
    """Append one raw syllable to a reduced stack, merging and cancelling.

    Returns the change in the stack's letter count.
    """
    if exp == 0:
        return 0
    if stack and stack[-1][0] == sym:
        old = stack[-1][1]
        new = old + exp
        if new == 0:
            stack.pop()
        else:
            stack[-1] = (sym, new)
        return abs(new) - abs(old)
    stack.append((sym, exp))
    return abs(exp)


def _join(stack: list[Syllable], run: Sequence[Syllable]) -> int:
    """Append a reduced run to a reduced stack; returns the letters cancelled.

    Both sides are reduced, so letters can cancel or merge only where
    they meet: the head of the run is matched against the top of the
    stack while it cancels, and the rest is copied across in one step.
    The stack gains the run's letter count less twice the return value.
    """
    k = cancelled = 0
    while k < len(run) and stack and stack[-1][0] == run[k][0]:
        sym, exp = run[k]
        old = stack[-1][1]
        total = old + exp
        k += 1
        if total:
            stack[-1] = (sym, total)
            cancelled += (abs(old) + abs(exp) - abs(total)) // 2
            break
        stack.pop()
        cancelled += abs(exp)
    stack.extend(run[k:] if k else run)
    return cancelled


def _invert(syllables: Sequence[Syllable]) -> list[Syllable]:
    return [(sym, -exp) for sym, exp in reversed(syllables)]


def _pow(syllables: Sequence[Syllable], k: int) -> Sequence[Syllable]:
    """Reduced syllables of a reduced word raised to the k-th power."""
    if k == 0 or not syllables:
        return ()
    if k < 0:
        return _pow(_invert(syllables), -k)
    result: list[Syllable] = []
    base = syllables
    while True:
        if k & 1:
            _join(result, base)
        k >>= 1
        if not k:
            return result
        doubled = list(base)
        _join(doubled, base)
        base = doubled


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word; the empty word is GroupWord()."""

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for sym, exp in self.syllables:
            if exp == 0:
                raise ValueError("zero exponent in a reduced word")
            if sym == prev:
                raise ValueError("adjacent syllables share a symbol; word is not reduced")
            prev = sym

    # -- construction ------------------------------------------------

    @classmethod
    def _unchecked(cls, syllables: tuple[Syllable, ...]) -> GroupWord:
        """A word built from checked words, so reduced already: no check."""
        word = object.__new__(cls)
        word.__dict__["syllables"] = syllables
        return word

    @classmethod
    def single(cls, sym: Band, exp: int = 1) -> GroupWord:
        return cls(((sym, exp),) if exp else ())

    @classmethod
    def from_letters(cls, alphabet: str, letters: Iterable[Syllable]) -> GroupWord:
        """Freely reduce raw band syllables.  Idempotent.

        The alphabet "A<r>" names the bands A_{i,j} with 1 <= i < j <= r;
        every raw band is checked against that range.
        """
        if not (alphabet.startswith("A") and alphabet[1:].isdecimal()):
            raise ValueError(f"{alphabet!r} is not a band alphabet A<r>")
        rank = int(alphabet[1:])
        stack: list[Syllable] = []
        for sym, exp in letters:
            _push(stack, a_sym(*sym, rank), exp)
        return cls(tuple(stack))

    # -- queries -----------------------------------------------------

    def is_identity(self) -> bool:
        return not self.syllables

    def letter_count(self) -> int:
        return sum(abs(exp) for _, exp in self.syllables)

    # -- group operations ---------------------------------------------

    def __mul__(self, other: GroupWord) -> GroupWord:
        stack = list(self.syllables)
        _join(stack, other.syllables)
        return GroupWord._unchecked(tuple(stack))

    def inverse(self) -> GroupWord:
        return GroupWord._unchecked(tuple(_invert(self.syllables)))

    def __pow__(self, k: int) -> GroupWord:
        return GroupWord._unchecked(tuple(_pow(self.syllables, k)))


def commutator(a: GroupWord, b: GroupWord) -> GroupWord:
    """[a, b] = a^{-1} b^{-1} a b."""
    return a.inverse() * b.inverse() * a * b
