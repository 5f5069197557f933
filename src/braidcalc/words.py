"""Freely reduced words over finite generator alphabets.

Words are the basic currency for everything downstream: pure braids
are written over the band alphabet A_{i,j}, and combed normal forms keep
one word per fiber.

Representation: a word is a tuple of syllables (symbol, exponent) with
every exponent nonzero and no two adjacent syllables sharing a symbol,
i.e. free reduction is maintained at all times.  Free reduction is
confluent, so any construction path yields the same tuple and word
equality is plain tuple equality.

Every word built here is reduced, and so is its inverse, every power
and every image of a reduced word under a map that is injective on
symbols.  When reduced runs are concatenated, letters can therefore
cancel or merge only where two runs meet.  Products, powers and
substitutions join runs with _join, which works at the junction and
copies the rest across; only from_letters, the path for raw input,
reduces syllable by syllable.

Words are checked once, where they enter the library: in the public
constructors, from_letters, combing.PureAWord.from_pairs and the reader
expr.parse.  A word built from checked words is valid by construction,
so it is made with the private unchecked constructor of its class,
GroupWord._unchecked, braids.BraidWord._unchecked or
combing.PureAWord._unchecked, which skip the check.  They serve
products (product and *), inverse, powers (** and braids.braid_pow),
substitute, face, coface, embed, to_braid, the components of
combing.comb and CombedForm.as_single_word, and nothing else.

Alphabets are identified by strings: "A<r>" is the band alphabet
{A_{i,j} : 1 <= i < j <= r}.  Operations never mix alphabets silently;
a mismatch raises AlphabetMismatchError.

All values here are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "AlphabetMismatchError",
    "GenSym",
    "GroupWord",
    "a_alphabet",
    "a_sym",
    "alphabet_rank",
    "commutator",
]


class AlphabetMismatchError(ValueError):
    """An operation mixed words or symbols from different alphabets."""


class GenSym(NamedTuple):
    """A generator symbol: an alphabet identifier plus an index tuple."""

    alphabet: str
    index: tuple[int, ...]

    def __str__(self) -> str:
        return f"A{self.index[0]},{self.index[1]}"


def a_alphabet(rank: int) -> str:
    return f"A{rank}"


def alphabet_rank(alphabet: str) -> int:
    """Number of strands/generator slots encoded in an alphabet id."""
    return int(alphabet[1:])


def a_sym(i: int, j: int, rank: int) -> GenSym:
    """The band symbol A_{i,j}, requiring 1 <= i < j <= rank."""
    if not 1 <= i < j <= rank:
        raise ValueError(f"A_{i},{j} is out of range for rank {rank}")
    return GenSym(a_alphabet(rank), (i, j))


Syllable = tuple[GenSym, int]


def _push(stack: list[Syllable], sym: GenSym, exp: int) -> int:
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
    """A freely reduced word over a single alphabet."""

    alphabet: str
    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self) -> None:
        prev: GenSym | None = None
        for sym, exp in self.syllables:
            if sym.alphabet != self.alphabet:
                raise AlphabetMismatchError(
                    f"symbol {sym} does not belong to alphabet {self.alphabet}"
                )
            if exp == 0:
                raise ValueError("zero exponent in a reduced word")
            if sym == prev:
                raise ValueError("adjacent syllables share a symbol; word is not reduced")
            prev = sym

    # -- construction ------------------------------------------------

    @classmethod
    def _unchecked(cls, alphabet: str, syllables: tuple[Syllable, ...]) -> GroupWord:
        """A word built from checked words, so reduced already: no check."""
        word = object.__new__(cls)
        word.__dict__.update(alphabet=alphabet, syllables=syllables)
        return word

    @classmethod
    def identity(cls, alphabet: str) -> GroupWord:
        return cls(alphabet, ())

    @classmethod
    def single(cls, sym: GenSym, exp: int = 1) -> GroupWord:
        if exp == 0:
            return cls(sym.alphabet, ())
        return cls(sym.alphabet, ((sym, exp),))

    @classmethod
    def from_letters(cls, alphabet: str, letters: Iterable[Syllable]) -> GroupWord:
        """Freely reduce a raw syllable sequence.  Idempotent."""
        stack: list[Syllable] = []
        for sym, exp in letters:
            if sym.alphabet != alphabet:
                raise AlphabetMismatchError(
                    f"symbol {sym} does not belong to alphabet {alphabet}"
                )
            _push(stack, sym, exp)
        return cls(alphabet, tuple(stack))

    # -- queries -----------------------------------------------------

    def is_identity(self) -> bool:
        return not self.syllables

    def syllable_count(self) -> int:
        return len(self.syllables)

    def letter_count(self) -> int:
        return sum(abs(exp) for _, exp in self.syllables)

    def abelianize(self) -> dict[GenSym, int]:
        """Exponent vector; symbols with total exponent zero are omitted."""
        totals: dict[GenSym, int] = {}
        for sym, exp in self.syllables:
            totals[sym] = totals.get(sym, 0) + exp
        return {sym: exp for sym, exp in totals.items() if exp != 0}

    # -- group operations ---------------------------------------------

    def __mul__(self, other: GroupWord) -> GroupWord:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(
                f"cannot multiply words over {self.alphabet} and {other.alphabet}"
            )
        stack = list(self.syllables)
        _join(stack, other.syllables)
        return GroupWord._unchecked(self.alphabet, tuple(stack))

    def inverse(self) -> GroupWord:
        return GroupWord._unchecked(self.alphabet, tuple(_invert(self.syllables)))

    def __pow__(self, k: int) -> GroupWord:
        return GroupWord._unchecked(self.alphabet, tuple(_pow(self.syllables, k)))

    def conjugate(self, by: GroupWord) -> GroupWord:
        """g^{-1} * self * g for g = `by`."""
        return by.inverse() * self * by

    def substitute(self, mapping: Mapping[GenSym, GroupWord]) -> GroupWord:
        """Apply the induced endomorphism of the word's alphabet letterwise.

        Every symbol occurring in the word must be mapped to a word over
        the same alphabet.
        """
        stack: list[Syllable] = []
        for sym, exp in self.syllables:
            image = mapping.get(sym)
            if image is None:
                raise ValueError(f"substitute: no image for symbol {sym}")
            if image.alphabet != self.alphabet:
                raise AlphabetMismatchError(
                    f"substitute maps {sym} to a word over {image.alphabet}, "
                    f"not {self.alphabet}"
                )
            if exp == 1:
                _join(stack, image.syllables)
            elif exp == -1:
                _join(stack, _invert(image.syllables))
            else:
                _join(stack, _pow(image.syllables, exp))
        return GroupWord._unchecked(self.alphabet, tuple(stack))

    def __str__(self) -> str:
        if not self.syllables:
            return "e"
        parts = []
        for sym, exp in self.syllables:
            parts.append(str(sym) if exp == 1 else f"{sym}^{exp}")
        return " ".join(parts)


def commutator(a: GroupWord, b: GroupWord) -> GroupWord:
    """[a, b] = a^{-1} b^{-1} a b."""
    return a.inverse() * b.inverse() * a * b
