"""Braid words, the Artin action on a free group, and the equality oracle.

A braid on n strands is stored as a plain word in the Artin generators
sigma_1 .. sigma_{n-1}.  No normal form is maintained on braid words;
every equality question is answered by computing the induced
automorphism of the free group F_n, which is a faithful, total
invariant: two braid words are equal in B_n iff their automorphisms
agree on every generator.

Conventions, pinned once and relied on everywhere:

 * the leftmost letter of a word acts first (time flows left to right);
 * sigma_i sends x_i -> x_i x_{i+1} x_i^{-1} and x_{i+1} -> x_i, fixing
   the other generators; a word acts by applying its first letter's
   substitution first, so x^(ab) = (x^a)^b (a right action).  This
   composition order makes sigma_1^2 send x_2 to x_1 x_2 x_1^{-1}, which
   is the orientation used by the band generators below;
 * Perm.images[i-1] is the endpoint of the strand that starts at
   position i, and permutations compose diagrammatically:
   (p.then(q))(i) = q(p(i)).

The band generator A_{i,j} = s_{j-1} .. s_{i+1} s_i^2 s_{i+1}^{-1} ..
s_{j-1}^{-1} (strand j swung over strands j-1..i+1, twisted around
strand i and brought back) generates the pure braid group together with
its fellows; the half twist Delta_n has Delta_n^2 central.

Intermediate free-group images can grow; computations guard against
runaway growth with a letter budget (default 10^6 letters summed over
the images) and raise BudgetExceededError rather than thrash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .words import GroupWord, _extend, _freeze, _pow, x_alphabet, x_sym

__all__ = [
    "DEFAULT_LETTER_BUDGET",
    "BudgetExceededError",
    "BraidWord",
    "FreeEndo",
    "Perm",
    "a_gen",
    "artin_endo",
    "braid_pow",
    "braids_equal",
    "compose",
    "half_twist",
    "invert_braid",
    "is_pure",
    "perm_of",
]

DEFAULT_LETTER_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """An intermediate free word outgrew the configured letter budget."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_n; letters are (index, sign).

    Shares its members with the band words of combing.PureAWord:
    strands, identity, product, *, inverse, face, coface, to_braid, perm.
    """

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 0:
            raise ValueError("strand count must be nonnegative")
        for i, sign in self.letters:
            if not 1 <= i <= self.strands - 1:
                raise ValueError(
                    f"generator index {i} out of range for {self.strands} strands"
                )
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")

    @classmethod
    def identity(cls, strands: int) -> BraidWord:
        return cls(strands, ())

    @classmethod
    def product(cls, strands: int, factors: Iterable[BraidWord]) -> BraidWord:
        """The ordered product of the factors, concatenated in one pass."""
        letters: list[tuple[int, int]] = []
        for f in factors:
            if f.strands != strands:
                raise ValueError(f"strand mismatch: {strands} vs {f.strands}")
            letters.extend(f.letters)
        return cls(strands, tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        """Concatenation: self happens first, then other."""
        if self.strands != other.strands:
            raise ValueError(f"strand mismatch: {self.strands} vs {other.strands}")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple((i, -s) for i, s in reversed(self.letters)))

    def to_braid(self) -> BraidWord:
        return self

    def perm(self) -> Perm:
        """Strand permutation; crossings swap regardless of sign."""
        n = self.strands
        strand_at = list(range(n + 1))  # strand_at[pos], 1-based positions
        for i, _sign in self.letters:
            strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
        images = [0] * n
        for pos in range(1, n + 1):
            images[strand_at[pos] - 1] = pos
        return Perm(tuple(images))

    def face(self, i: int) -> BraidWord:
        """Remove the strand starting at position i; result lives in B_{n-1}.

        Walks the word once, tracking the deleted strand's current
        position p: a crossing involving it is dropped (and p updated),
        any other crossing is kept, shifted down when it sits above p.
        """
        n = self.strands
        if not 1 <= i <= n:
            raise ValueError(f"strand {i} out of range for {n} strands")
        p = i
        out = []
        for j, sign in self.letters:
            if j == p:
                p += 1
            elif j == p - 1:
                p -= 1
            elif j > p:
                out.append((j - 1, sign))
            else:
                out.append((j, sign))
        return BraidWord(n - 1, tuple(out))

    def coface(self, i: int) -> BraidWord:
        """Insert a trivial strand at position i (1 <= i <= n+1).

        Letterwise: s_j -> s_j for j < i-1, s_{i-1} -> s_i s_{i-1} s_i^{-1},
        and s_j -> s_{j+1} for j > i-1.
        """
        n = self.strands
        if not 1 <= i <= n + 1:
            raise ValueError(f"insertion position {i} out of range for {n} strands")
        out = []
        for j, sign in self.letters:
            if j < i - 1:
                out.append((j, sign))
            elif j == i - 1:
                # s_{i-1} -> s_i s_{i-1} s_i^{-1}, respecting the letter sign
                out.extend([(i, 1), (i - 1, sign), (i, -1)])
            else:
                out.append((j + 1, sign))
        return BraidWord(n + 1, tuple(out))


compose = BraidWord.__mul__
invert_braid = BraidWord.inverse
perm_of = BraidWord.perm


def braid_pow(a: BraidWord, k: int) -> BraidWord:
    if k < 0:
        return braid_pow(invert_braid(a), -k)
    return BraidWord(a.strands, a.letters * k)


def half_twist(n: int) -> BraidWord:
    """Delta_n = (s_1..s_{n-1})(s_1..s_{n-2})...(s_1); Delta_n^2 is central."""
    letters = []
    for block in range(n - 1, 0, -1):
        letters.extend((i, 1) for i in range(1, block + 1))
    return BraidWord(n, tuple(letters))


def band_power_letters(i: int, j: int, exp: int) -> tuple[tuple[int, int], ...]:
    """Letters of A_{i,j}^exp, with the inner full twists merged."""
    if exp == 0:
        return ()
    sign = 1 if exp > 0 else -1
    prefix = [(t, 1) for t in range(j - 1, i, -1)]
    suffix = [(t, -1) for t in range(i + 1, j)]
    core = [(i, sign)] * (2 * abs(exp))
    return tuple(prefix + core + suffix)


def a_gen(i: int, j: int, n: int) -> BraidWord:
    """The band generator A_{i,j} in B_n."""
    if not 1 <= i < j <= n:
        raise ValueError(f"A_{i},{j} needs 1 <= i < j <= n, got n={n}")
    return BraidWord(n, band_power_letters(i, j, 1))


@dataclass(frozen=True)
class Perm:
    """Permutation of {1..n}; images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> Perm:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def order_reversal(cls, n: int) -> Perm:
        return cls(tuple(range(n, 0, -1)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def then(self, other: Perm) -> Perm:
        """Diagrammatic composition: apply self first, then other."""
        if other.size != self.size:
            raise ValueError("permutation size mismatch")
        return Perm(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> Perm:
        images = [0] * len(self.images)
        for i, v in enumerate(self.images, start=1):
            images[v - 1] = i
        return Perm(tuple(images))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))


def is_pure(braid: BraidWord) -> bool:
    """The strand permutation is the identity; a band word always is."""
    return braid.perm().is_identity()


@dataclass(frozen=True)
class FreeEndo:
    """An endomorphism of F_rank recorded by its generator images."""

    rank: int
    images: tuple[GroupWord, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise ValueError("image count must equal the rank")
        alphabet = x_alphabet(self.rank)
        for img in self.images:
            if img.alphabet != alphabet:
                raise ValueError(f"image alphabet {img.alphabet} != {alphabet}")

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

    def letter_size(self) -> int:
        return sum(img.letter_count() for img in self.images)

    def then(self, other: FreeEndo, budget: int | None = DEFAULT_LETTER_BUDGET) -> FreeEndo:
        """Composite sending x to other(self(x)); diagrammatic order."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch in endomorphism composition")
        alphabet = x_alphabet(self.rank)
        target = other.images
        new_images = []
        total = 0
        for img in self.images:
            stack: list[list] = []
            for sym, exp in img.syllables:
                image = target[sym.index[0] - 1].syllables
                if exp == 1:
                    _extend(stack, image)
                else:
                    _extend(stack, _pow(list(image), exp))
            word = GroupWord(alphabet, _freeze(stack))
            total += word.letter_count()
            if budget is not None and total > budget:
                raise BudgetExceededError(
                    f"free-group images exceeded the {budget}-letter budget"
                )
            new_images.append(word)
        return FreeEndo(self.rank, tuple(new_images))

    # The two structural facts the Artin image always satisfies; used by
    # tests and by --verify mode, not rechecked on every construction.

    def preserves_boundary(self) -> bool:
        """The product x_1 x_2 .. x_n must be fixed."""
        alphabet = x_alphabet(self.rank)
        boundary = GroupWord.from_letters(
            alphabet, [(x_sym(i, self.rank), 1) for i in range(1, self.rank + 1)]
        )
        image = GroupWord.identity(alphabet)
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
    alphabet = x_alphabet(n)
    images = []
    for k in range(1, n + 1):
        xk = x_sym(k, n)
        if k == i:
            if sign == 1:
                xi, xj = x_sym(i, n), x_sym(i + 1, n)
                images.append(GroupWord(alphabet, ((xi, 1), (xj, 1), (xi, -1))))
            else:
                images.append(GroupWord.single(x_sym(i + 1, n)))
        elif k == i + 1:
            if sign == 1:
                images.append(GroupWord.single(x_sym(i, n)))
            else:
                xi, xj = x_sym(i, n), x_sym(i + 1, n)
                images.append(GroupWord(alphabet, ((xj, -1), (xi, 1), (xj, 1))))
        else:
            images.append(GroupWord.single(xk))
    return FreeEndo(n, tuple(images))


_LETTER_RULES: dict[tuple[int, int, int], FreeEndo] = {}


def artin_endo(braid: BraidWord, budget: int | None = DEFAULT_LETTER_BUDGET) -> FreeEndo:
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


def braids_equal(
    a: BraidWord, b: BraidWord, budget: int | None = DEFAULT_LETTER_BUDGET
) -> bool:
    """Faithful equality test in B_n via the Artin action."""
    if a.strands != b.strands:
        raise ValueError(
            f"cannot compare braids on {a.strands} and {b.strands} strands"
        )
    if a.letters == b.letters:
        return True
    if perm_of(a) != perm_of(b):
        return False
    return artin_endo(a, budget) == artin_endo(b, budget)
