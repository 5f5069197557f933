"""Braid words, strand permutations, and equality by Dynnikov coordinates.

A braid on n strands is stored as a plain word in the Artin generators
sigma_1 .. sigma_{n-1}.  Words are not kept in normal form; same_braid,
the one equality test of the library, decides equality of any two words
(crossing words or band words) by the Dynnikov action.

The theorem it uses: B_n acts on the integer laminations of the
punctured disk, and in Dynnikov's coordinates each generator acts by a
piecewise linear map (I. Dynnikov, Russian Math. Surveys 57, 2002).
Embed B_n in B_(n+2) by sigma_i -> sigma_(i+1), so that B_n acts on the
2n coordinates of the (n+2)-punctured disk; then a braid is trivial
exactly when it fixes (0, 1, .., 0, 1) (P. Dehornoy, "Efficient
solutions to the braid isotopy problem", Discrete Appl. Math. 156, 2008;
Dehornoy, Dynnikov, Rolfsen and Wiest, Ordering Braids, ch. XII).  The
shift matters: on the n-punctured disk itself Delta^2 is a boundary
twist and acts trivially.

Two words a and b are equal exactly when a*b^-1 is trivial, and a braid
is trivial exactly when any conjugate of it is.  So same_braid reads the
letters of a and then of b^-1 once, reduces them freely in one stack
pass and then cyclically, and acts on that core alone: equal words that
differ in a short stretch leave a short core however long they are.
Each letter of the core takes O(1) steps on integers that gain O(1)
bits, so the integers can reach O(|core|) bits, and an unequal pair
whose core stays long (pseudo-Anosov words, for one) costs O(|w|^2)
bit operations.  No budget guards equality.

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
    "half_twist",
    "is_pure",
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

    Its members besides letters are those of combing.PureAWord: strands,
    identity, product, *, inverse, face, faces, coface, to_braid, perm,
    is_identity, letter_count and exponent_sum.  As there, a product
    cancels letters where two factors meet, and nowhere else.
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
        """The ordered product of the factors, in one pass.

        Where two factors meet, the head of the next one cancels against
        the top of the stack while they are inverse letters; the rest is
        copied across.
        """
        stack: list[tuple[int, int]] = []
        for f in factors:
            if f.strands != strands:
                raise ValueError(f"strand mismatch: {strands} vs {f.strands}")
            run = f.letters
            k = 0
            while k < len(run) and stack and stack[-1] == (run[k][0], -run[k][1]):
                stack.pop()
                k += 1
            stack.extend(run[k:] if k else run)
        return cls._unchecked(strands, tuple(stack))

    def is_identity(self) -> bool:
        """The word is empty (an identity braid may have other words)."""
        return not self.letters

    def letter_count(self) -> int:
        return len(self.letters)

    def exponent_sum(self) -> int:
        """The image under the homomorphism B_n -> Z sending each s_i to 1."""
        return sum(sign for _, sign in self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        """self happens first, then other."""
        return BraidWord.product(self.strands, (self, other))

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

    def faces(self) -> tuple[BraidWord, ...]:
        """The faces d_1, .., d_n, one walk of the word each."""
        return tuple(self.face(i) for i in range(1, self.strands + 1))

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

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))


def is_pure(braid: BraidWord) -> bool:
    """The strand permutation is the identity; a band word always is."""
    return braid.perm().is_identity()


def _dynnikov(coords: list[int], letters: Iterable[tuple[int, int]]) -> list[int]:
    """Act on the Dynnikov coordinates (a_1, b_1, .., a_n, b_n) in place.

    The letter sigma_i^e rewrites the pairs (a_i, b_i) and (a_(i+1),
    b_(i+1)) alone, with x+ = max(x, 0) and x- = min(x, 0):

        e = +1:  c = a_i - b_i- - a_(i+1) + b_(i+1)+
          a_i     <- a_i + b_i+ + (b_(i+1)+ - c)+
          b_i     <- b_(i+1) - c+
          a_(i+1) <- a_(i+1) + b_(i+1)- + (b_i- + c)-
          b_(i+1) <- b_i + c+
        e = -1:  d = a_i + b_i- - a_(i+1) - b_(i+1)+
          a_i     <- a_i - b_i+ - (b_(i+1)+ + d)+
          b_i     <- b_(i+1) + d-
          a_(i+1) <- a_(i+1) - b_(i+1)- - (b_i- - d)-
          b_(i+1) <- b_i - d-

    These are the interior-generator formulas, sigma_(i+1) of B_(n+2)
    acting on the n coordinate pairs of the (n+2)-punctured disk, so no
    letter needs a boundary case.  The letters act left to right.
    """
    x = coords
    for i, sign in letters:
        k = 2 * i - 2
        a1, b1, a2, b2 = x[k], x[k + 1], x[k + 2], x[k + 3]
        b1p, b1n = (b1, 0) if b1 > 0 else (0, b1)
        b2p, b2n = (b2, 0) if b2 > 0 else (0, b2)
        if sign > 0:
            c = a1 - b1n - a2 + b2p
            cp = c if c > 0 else 0
            t = b2p - c
            u = b1n + c
            x[k] = a1 + b1p + (t if t > 0 else 0)
            x[k + 1] = b2 - cp
            x[k + 2] = a2 + b2n + (u if u < 0 else 0)
            x[k + 3] = b1 + cp
        else:
            d = a1 + b1n - a2 - b2p
            dn = d if d < 0 else 0
            t = b2p + d
            u = b1n - d
            x[k] = a1 - b1p - (t if t > 0 else 0)
            x[k + 1] = b2 + dn
            x[k + 2] = a2 - b2n - (u if u < 0 else 0)
            x[k + 3] = b1 - dn
    return x


def _reduced_core(a: BraidWord, b: BraidWord) -> BraidWord:
    """a*b^-1 freely reduced in one stack pass, then cyclically.

    The result is a conjugate of a*b^-1, so it is trivial exactly when
    a and b are equal.  The letters of b^-1 are made only where they
    stay on the stack.
    """
    stack = [(0, 0)]  # a sentinel that cancels no letter
    push, pop = stack.append, stack.pop
    for letter in a.letters:
        top = stack[-1]
        if top[0] == letter[0] and top[1] != letter[1]:
            pop()
        else:
            push(letter)
    for letter in reversed(b.letters):
        # b^-1 reads (i, -sign), which cancels a top equal to (i, sign)
        if stack[-1] == letter:
            pop()
        else:
            push((letter[0], -letter[1]))
    lo, hi = 1, len(stack) - 1
    while lo < hi and stack[lo][0] == stack[hi][0] and stack[lo][1] != stack[hi][1]:
        lo += 1
        hi -= 1
    return BraidWord._unchecked(a.strands, tuple(stack[lo:hi + 1]))


def same_braid(a: BraidWord | PureAWord, b: BraidWord | PureAWord) -> bool:
    """Equality in B_n of two crossing words, two band words or one of each.

    Equal words are equal braids, and braids with different exponent
    sums differ; otherwise both sides are expanded to crossings and
    a*b^-1 is reduced freely and cyclically to a core, a conjugate of
    it.  An empty core is the trivial braid; otherwise the braids are
    equal exactly when the core permutes no strand and fixes the start
    vector of the Dynnikov action.
    """
    if a.strands != b.strands:
        raise ValueError(
            f"cannot compare braids on {a.strands} and {b.strands} strands"
        )
    if a == b:
        return True
    if a.exponent_sum() != b.exponent_sum():
        return False
    core = _reduced_core(a.to_braid(), b.to_braid())
    if not core.letters:
        return True
    if not is_pure(core):
        return False
    start = [0, 1] * a.strands
    return _dynnikov(start[:], core.letters) == start
