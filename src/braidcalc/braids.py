"""Braid words, strand permutations, and the Garside normal form.

A braid on n strands is stored as a plain word in the Artin generators
sigma_1 .. sigma_{n-1}.  Words are not kept in normal form; same_braid,
the one equality test of the library, decides equality of any two words
(crossing words or band words) by computing the left-greedy normal form
Delta^k P_1 .. P_r of both sides (Garside 1969; ElRifai-Morton 1994;
Epstein et al., Word Processing in Groups, ch. 9).  Here Delta is the
half twist and the P_t are permutation braids, each pair left-weighted;
the form is unique, so two words are equal in B_n exactly when their
forms agree.  Computing it takes O(|w|^2 n) work, so no budget guards it.

Conventions, pinned once and relied on everywhere:

 * the leftmost letter of a word acts first (time flows left to right),
   and a product a*b is a followed by b;
 * Perm.images[i-1] is the endpoint of the strand that starts at
   position i.

The band generator A_{i,j} = s_{j-1} .. s_{i+1} s_i^2 s_{i+1}^{-1} ..
s_{j-1}^{-1} (strand j swung over strands j-1..i+1, twisted around
strand i and brought back) generates the pure braid group together with
its fellows; the half twist Delta_n has Delta_n^2 central.

BudgetExceededError is the refusal raised when a computation that is
genuinely exponential, such as combing, outgrows its size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .combing import PureAWord

__all__ = [
    "BudgetExceededError",
    "BraidWord",
    "Perm",
    "a_gen",
    "braid_pow",
    "half_twist",
    "is_pure",
    "left_normal_form",
    "same_braid",
]


class BudgetExceededError(RuntimeError):
    """An intermediate word outgrew the configured size budget.

    `limit` is the budget in letters, `observed` the size of the word that
    passed it, and `stage` says where the work stopped, for example
    "u_5 after 37 of 120 syllables".
    """

    def __init__(
        self,
        message: str,
        limit: int | None = None,
        observed: int | None = None,
        stage: str | None = None,
    ) -> None:
        super().__init__(message)
        self.limit = limit
        self.observed = observed
        self.stage = stage


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_n; letters are (index, sign).

    Shares its members with the band words of combing.PureAWord:
    strands, identity, product, *, inverse, face, coface, to_braid, perm,
    letter_count, exponent_sum, products_reduce.
    """

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    # products only concatenate: no letters cancel where factors meet
    products_reduce = False

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
    def _unchecked(cls, strands: int, letters: tuple[tuple[int, int], ...]) -> BraidWord:
        """A word built from checked words, so in range already: no check."""
        word = object.__new__(cls)
        word.__dict__.update(strands=strands, letters=letters)
        return word

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
        return cls._unchecked(strands, tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def letter_count(self) -> int:
        return len(self.letters)

    def exponent_sum(self) -> int:
        """The image under the homomorphism B_n -> Z sending each s_i to 1."""
        return sum(sign for _, sign in self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        """Concatenation: self happens first, then other."""
        if self.strands != other.strands:
            raise ValueError(f"strand mismatch: {self.strands} vs {other.strands}")
        return BraidWord._unchecked(self.strands, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord._unchecked(
            self.strands, tuple((i, -s) for i, s in reversed(self.letters))
        )

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
        return BraidWord._unchecked(n - 1, tuple(out))

    def coface(self, *positions: int) -> BraidWord:
        """Insert trivial strands at the positions in turn, leftmost first.

        Each insertion at i (1 <= i <= n+1 on the current n strands) is
        letterwise: s_j -> s_j for j < i-1, s_{i-1} -> s_i s_{i-1} s_i^{-1},
        and s_j -> s_{j+1} for j > i-1.
        """
        n = self.strands
        letters = self.letters
        for i in positions:
            if not 1 <= i <= n + 1:
                raise ValueError(f"insertion position {i} out of range for {n} strands")
            out = []
            for j, sign in letters:
                if j < i - 1:
                    out.append((j, sign))
                elif j == i - 1:
                    # s_{i-1} -> s_i s_{i-1} s_i^{-1}, respecting the letter sign
                    out.extend([(i, 1), (i - 1, sign), (i, -1)])
                else:
                    out.append((j + 1, sign))
            letters = out
            n += 1
        return BraidWord._unchecked(n, tuple(letters))


def braid_pow(a: BraidWord, k: int) -> BraidWord:
    if k < 0:
        return braid_pow(a.inverse(), -k)
    return BraidWord._unchecked(a.strands, a.letters * k)


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

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))


def is_pure(braid: BraidWord) -> bool:
    """The strand permutation is the identity; a band word always is."""
    return braid.perm().is_identity()


# Permutation braids (the positive braids in which any two strands cross
# at most once) are stored as arrangements: arr[p] is the strand, named
# 0..n-1 by its starting position, that sits at position p at the end.
# Appending sigma_i swaps arr[i-1] and arr[i].  The finishing set F(A)
# holds the i with arr_A[i-1] > arr_A[i], the starting set S(B) the i
# with inv_B[i-1] > inv_B[i], where inv_B[s] is the end position of s.


def _left_weight(a: list[int], b: list[int]) -> bool:
    """Move sigma_i from b to a while i is in S(b) but not in F(a).

    Both arrangements are rewritten in place so that a*b is unchanged
    and S(b) lies in F(a); returns whether anything moved.
    """
    n = len(b)
    inv = [0] * n
    for p, s in enumerate(b):
        inv[s] = p
    moved = False
    i = 1
    while i < n:
        if inv[i - 1] > inv[i] and a[i - 1] < a[i]:
            a[i - 1], a[i] = a[i], a[i - 1]
            # b becomes sigma_i^{-1} b: strands i-1 and i trade end positions
            p, q = inv[i - 1], inv[i]
            b[p], b[q] = i, i - 1
            inv[i - 1], inv[i] = q, p
            moved = True
            # only the conditions at i-1 and i+1 can have changed
            if i > 1:
                i -= 1
        else:
            i += 1
    return moved


def _tau(arr: list[int]) -> list[int]:
    """Conjugation by Delta: sigma_j -> sigma_{n-j}."""
    n = len(arr)
    return [n - 1 - s for s in reversed(arr)]


def left_normal_form(b: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The left-greedy normal form Delta^k P_1 .. P_r of a braid word.

    Returns (k, factors) with each P_t a permutation braid given by its
    arrangement tuple, none of them Delta or the identity, and every
    pair (P_t, P_{t+1}) left-weighted.  Two braid words are equal in B_n
    exactly when their normal forms are equal.

    The word is read letter by letter.  sigma_i is the factor sigma_i
    and sigma_i^{-1} is Delta^{-1} (Delta sigma_i^{-1}); the Delta^{-1}
    moves to the front across every factor, applying tau to each, which
    is kept as one flag over the whole list instead.  After each factor
    is appended, one backward pass of left-weighting restores the form,
    stopping at the first pair that does not change.  Two shortcuts
    give the same result with less work: a letter that the last factor
    absorbs, or a sigma_i^{-1} that removes its last crossing, adds no
    factor; and a factor that the pass turns into Delta goes straight
    to the front.  Work is O(|b|^2 n) in the worst case.
    """
    n = b.strands
    identity = list(range(n))
    delta = identity[::-1]
    k = 0
    twisted = False  # the stored factors are tau of the true ones
    factors: list[list[int]] = []
    for i, sign in b.letters:
        j = n - i if twisted else i
        last = factors[-1] if factors else None
        if sign > 0:
            if last is not None and last[j - 1] < last[j]:
                # sigma_j keeps the last factor a permutation braid
                last[j - 1], last[j] = last[j], last[j - 1]
                t = len(factors) - 1
            else:
                # S(sigma_j) = {j} lies in F(last): nothing to weight
                f = identity[:]
                f[j - 1], f[j] = f[j], f[j - 1]
                factors.append(f)
                t = 0
        elif last is not None and last[j - 1] > last[j]:
            # the last factor ends in sigma_j and loses it; a prefix of a
            # factor starts with no more than the factor did
            last[j - 1], last[j] = last[j], last[j - 1]
            t = 0
        else:
            k -= 1
            twisted = not twisted
            j = n - j
            f = delta[:]
            f[j - 1], f[j] = f[j], f[j - 1]
            factors.append(f)
            t = len(factors) - 1
        while t > 0 and _left_weight(factors[t - 1], factors[t]):
            t -= 1
            if factors[t] == delta:
                # the rest of the pass would carry Delta to the front,
                # applying tau to every factor it crosses
                del factors[t]
                factors[:t] = [_tau(f) for f in factors[:t]]
                k += 1
                break
        while factors and factors[-1] == identity:
            factors.pop()
        while factors and factors[0] == delta:
            factors.pop(0)
            k += 1
    if twisted:
        factors = [_tau(f) for f in factors]
    return k, tuple(tuple(f) for f in factors)


def same_braid(a: BraidWord | PureAWord, b: BraidWord | PureAWord) -> bool:
    """Equality in B_n of two crossing words, two band words or one of each.

    Equal words are equal braids, and braids with different exponent
    sums differ; otherwise both sides are expanded to crossings and
    compared by permutation, then by left normal form.
    """
    if a.strands != b.strands:
        raise ValueError(
            f"cannot compare braids on {a.strands} and {b.strands} strands"
        )
    if a == b:
        return True
    if a.exponent_sum() != b.exponent_sum():
        return False
    a, b = a.to_braid(), b.to_braid()
    if a.perm() != b.perm():
        return False
    return left_normal_form(a) == left_normal_form(b)
