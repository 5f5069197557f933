"""Combing pure braid words into the iterated semidirect normal form.

A pure braid on n strands factors uniquely as u_2 u_3 .. u_n where u_k
is a word in the free group U_k generated by the bands A_{1,k} ..
A_{k-1,k}.  Combing processes an A-word right to left: to prepend a
letter A_{i,j}^e to an accumulated form, conjugate it through the
components u_2 .. u_{j-1} (staying inside U_j, which is normal in P_j)
and multiply the result onto u_j.

Those components need not be read.  Deleting strands j..n retracts P_n
onto P_{j-1}, fixing the bands of level (second index) below j and
killing the rest, so u_2 .. u_{j-1} is the same braid as the subword of
the already combed letters that have level below j.  comb conjugates
through the shorter of the two, and memoises each band's image until a
letter of lower level is combed.

A pure braid sends each free generator of U_j to a conjugate of itself
(E. Artin, "Theory of braids", 1947), so the reduced image of a band A
is X A X^-1 with A at its centre.  Conjugation rewrites only X, and a
power of the image is X A^e X^-1: the image with its centre set to A^e.

The conjugation of a band A_{i,j} by A_{r,s}^{+-1} with s < j depends
only on the order pattern of (r, s, i); the case table below was
derived by scripts/derive_conj_rules.py (a bounded brute-force search)
and then frozen.  The tests check every entry against braids.same_braid
once, so comb applies the table unchecked.  Entries are written
over the roles r, s, i and instantiated with second index j.

A band A_{i,j} is the pair (i, j), the same pair on any number of
strands, so PureAWord(n, w.word) reads w on n strands and coface maps
pairs alone.  The strand count lives in PureAWord.strands, whose check
bounds every band by 1 <= i < j <= strands; CombedForm checks that u_k
holds only bands (i, k) with 1 <= i < k.

Combed components are canonical: since each U_k is free, two pure
braids are equal iff their combed components agree syllable by
syllable.  Combing is a decision procedure of its own, which the tests
cross-check against braids.same_braid; the library decides equality by
the Dynnikov action alone, since combed components can grow
exponentially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .braids import (
    BraidWord,
    BudgetExceededError,
    Perm,
    band_power_letters,
)
from .faces import _surviving_faces, coface_on_pure_gen
from .words import Band, GroupWord, Syllable, _band_name, _invert, _join, _push

__all__ = [
    "DEFAULT_COMPONENT_BUDGET",
    "CombedForm",
    "PureAWord",
    "comb",
    "conj_rule",
]

DEFAULT_COMPONENT_BUDGET = 10**5

# g^{-1} A_{i,j} g for g = A_{r,s}^{eps}, keyed by (pattern, eps); the
# value is the reduced U_j word as (role, exponent) syllables.
_CONJ_TEMPLATES: dict[tuple[str, int], tuple[tuple[str, int], ...]] = {
    ("disjoint", 1): (("i", 1),),
    ("disjoint", -1): (("i", 1),),
    ("r=i", 1): (("r", 1), ("s", 1), ("r", 1), ("s", -1), ("r", -1)),
    ("r=i", -1): (("s", -1), ("r", 1), ("s", 1)),
    ("s=i", 1): (("r", 1), ("s", 1), ("r", -1)),
    ("s=i", -1): (("s", -1), ("r", -1), ("s", 1), ("r", 1), ("s", 1)),
    ("linked", 1): (
        ("r", 1), ("s", 1), ("r", -1), ("s", -1),
        ("i", 1),
        ("s", 1), ("r", 1), ("s", -1), ("r", -1),
    ),
    ("linked", -1): (
        ("s", -1), ("r", -1), ("s", 1), ("r", 1),
        ("i", 1),
        ("r", -1), ("s", -1), ("r", 1), ("s", 1),
    ),
}


def _pattern(r: int, s: int, i: int) -> str:
    if s < i or i < r:
        return "disjoint"
    if i == r:
        return "r=i"
    if i == s:
        return "s=i"
    return "linked"


def conj_rule(g_sym: Band, g_sign: int, h_sym: Band) -> GroupWord:
    """Reduced U_j word equal to g^{-1} h g for g = A_{r,s}^{g_sign}.

    Requires r < s < j and i < j where h = A_{i,j}.
    """
    r, s = g_sym
    i, j = h_sym
    if g_sign not in (1, -1):
        raise ValueError("conjugator sign must be +1 or -1")
    if not (r < s < j and i < j):
        raise ValueError(
            f"conj_rule needs r < s < j and i < j, got A_{r},{s} acting on A_{i},{j}"
        )
    template = _CONJ_TEMPLATES[(_pattern(r, s, i), g_sign)]
    slots = {"r": r, "s": s, "i": i}
    # each template is reduced, and its roles name distinct slots
    return GroupWord(tuple(((slots[role], j), exp) for role, exp in template))


@lru_cache(maxsize=None)
def _conj_runs(
    g_sym: Band, g_sign: int, j: int
) -> dict[Band, tuple[tuple[Syllable, ...], tuple[Syllable, ...], int]]:
    """For each band h of level j: conj_rule's syllables for h and for
    h^-1, and their letter count, the length, as every exponent is +-1.

    Each run is a reduced conjugate Y h Y^-1 of its band: it has odd
    length, h at its centre and Y as its first half.
    """
    runs = {}
    for i in range(1, j):
        run = conj_rule(g_sym, g_sign, (i, j)).syllables
        runs[(i, j)] = (run, tuple(_invert(run)), len(run))
    return runs


@dataclass(frozen=True)
class PureAWord:
    """A word in the bands of B_n, representing a pure braid.

    Has the members of braids.BraidWord: strands, identity, product, *,
    inverse, face, faces, coface, to_braid, perm, is_identity,
    letter_count and exponent_sum; and also word.  As there, a product
    cancels letters where two factors meet, and nowhere else.
    """

    strands: int
    word: GroupWord

    def __post_init__(self) -> None:
        if self.strands < 0:
            raise ValueError("strand count must be nonnegative")
        for sym, _ in self.word.syllables:
            i, j = sym
            if not 1 <= i < j <= self.strands:
                raise ValueError(
                    f"band {_band_name(sym)} out of range for {self.strands} strands"
                )

    @classmethod
    def _unchecked(cls, strands: int, word: GroupWord) -> PureAWord:
        """A word built from checked words, so its bands fit: no check."""
        pure = object.__new__(cls)
        pure.__dict__.update(strands=strands, word=word)
        return pure

    @classmethod
    def identity(cls, strands: int) -> PureAWord:
        return cls(strands, GroupWord())

    @classmethod
    def product(cls, strands: int, factors: Iterable[PureAWord]) -> PureAWord:
        """The ordered product of the factors, freely reduced in one pass.

        Each factor is reduced, so only the junctions between them reduce.
        """
        stack: list[Syllable] = []
        for f in factors:
            if f.strands != strands:
                raise ValueError(f"strand mismatch: {strands} vs {f.strands}")
            _join(stack, f.word.syllables)
        return cls._unchecked(strands, GroupWord._unchecked(tuple(stack)))

    def is_identity(self) -> bool:
        return self.word.is_identity()

    def letter_count(self) -> int:
        return self.word.letter_count()

    def exponent_sum(self) -> int:
        """Exponent sum of the crossing expansion: each band is two crossings."""
        return 2 * sum(exp for _, exp in self.word.syllables)

    def perm(self) -> Perm:
        """The identity: a band word is pure, so nothing is expanded."""
        return Perm.identity(self.strands)

    def to_braid(self) -> BraidWord:
        letters: list[tuple[int, int]] = []
        for sym, exp in self.word.syllables:
            letters.extend(band_power_letters(*sym, exp))
        return BraidWord._unchecked(self.strands, tuple(letters))

    def __mul__(self, other: PureAWord) -> PureAWord:
        return PureAWord.product(self.strands, (self, other))

    def inverse(self) -> PureAWord:
        return PureAWord._unchecked(self.strands, self.word.inverse())

    def face(self, i: int) -> PureAWord:
        """Delete strand i, letterwise on bands.

        Reads the band table of n that faces fills, and keeps a syllable
        where a run of its band holds face i - 1.  As in faces, the
        image can merge with or cancel the top only across deleted bands.
        """
        n = self.strands
        if not 1 <= i <= n:
            raise ValueError(f"strand {i} out of range for {n} strands")
        table, rule = _faces_map(n)
        out: list[Syllable] = []
        for sym, exp in self.word.syllables:
            try:
                runs = table[sym]
            except KeyError:
                runs = table[sym] = rule(sym)
            for kept, faced in runs:
                if i - 1 in kept:
                    _push(out, faced, exp)
        return PureAWord._unchecked(n - 1, GroupWord._unchecked(tuple(out)))

    def faces(self) -> tuple[PureAWord, ...]:
        """The faces d_1, .., d_n, from one walk of the word.

        Each syllable is looked up once, in the band table of n, which
        gives the faces where its band survives and its image there.
        The image is pushed onto each of those faces.  The surviving
        bands map injectively, so it can merge with or cancel the top
        only across deleted bands.
        """
        n = self.strands
        table, rule = _faces_map(n)
        outs: list[list[Syllable]] = [[] for _ in range(n)]
        for sym, exp in self.word.syllables:
            try:
                runs = table[sym]
            except KeyError:
                runs = table[sym] = rule(sym)
            for kept, faced in runs:
                syllable = (faced, exp)
                for k in kept:
                    out = outs[k]
                    if out and out[-1][0] == faced:
                        total = out[-1][1] + exp
                        if total:
                            out[-1] = (faced, total)
                        else:
                            out.pop()
                    else:
                        out.append(syllable)
        return tuple(
            PureAWord._unchecked(n - 1, GroupWord._unchecked(tuple(out))) for out in outs
        )

    def coface(self, *positions: int) -> PureAWord:
        """Insert trivial strands at the positions in turn, leftmost first.

        Each insertion is injective on bands, so reduced syllables copy
        straight across through one band map, cached across words per
        position sequence.
        """
        n = self.strands
        for k, i in enumerate(positions):
            if not 1 <= i <= n + k + 1:
                raise ValueError(
                    f"insertion position {i} out of range for {n + k} strands"
                )
        image, rule = _coface_map(positions)
        out: list[Syllable] = []
        for sym, exp in self.word.syllables:
            try:
                out.append((image[sym], exp))
            except KeyError:
                image[sym] = band = rule(sym)
                out.append((band, exp))
        return PureAWord._unchecked(
            n + len(positions), GroupWord._unchecked(tuple(out))
        )


@dataclass(frozen=True)
class CombedForm:
    """Components u_2 .. u_n of the iterated semidirect normal form."""

    strands: int
    components: tuple[GroupWord, ...]

    def __post_init__(self) -> None:
        if self.strands < 0:
            raise ValueError("strand count must be nonnegative")
        if len(self.components) != max(self.strands - 1, 0):
            raise ValueError("expected one component per k in 2..n")
        for k, comp in enumerate(self.components, start=2):
            for sym, _ in comp.syllables:
                i, j = sym
                if j != k or not 1 <= i < k:
                    raise ValueError(
                        f"component u_{k} contains the foreign band {_band_name(sym)}"
                    )

    @classmethod
    def _unchecked(cls, strands: int, components: tuple[GroupWord, ...]) -> CombedForm:
        """Components combed from a checked word, so each fits its level: no check."""
        form = object.__new__(cls)
        form.__dict__.update(strands=strands, components=components)
        return form

    def component(self, k: int) -> GroupWord:
        """u_k for 2 <= k <= n."""
        if not 2 <= k <= self.strands:
            raise ValueError(f"no component u_{k}: k runs over 2..{self.strands}")
        return self.components[k - 2]

    def as_single_word(self) -> PureAWord:
        # components hold bands of distinct levels, so nothing reduces
        return PureAWord._unchecked(self.strands, GroupWord._unchecked(
            tuple(syl for comp in self.components for syl in comp.syllables),
        ))


def comb(w: PureAWord, component_budget: int = DEFAULT_COMPONENT_BUDGET) -> CombedForm:
    """Comb an A-word; processes syllables right to left by prepending.

    Prepending A_{i,j}^e to u_2 .. u_n conjugates A_{i,j} through the
    prefix u_2 .. u_{j-1} and multiplies the e-th power onto u_j.
    Deleting strands j..n is a retraction P_n -> P_{j-1} that fixes the
    bands of level (second index) below j and kills the others, so as a
    braid that prefix equals the freely reduced subword of the syllables
    already combed that have level below j, at most |w| syllables.  The
    band is conjugated through whichever of the two is shorter; U_j is
    free, so the reduced image is the same word either way.

    Each band's image is memoised.  Combing a level-j syllable changes
    the prefix of every level above j and no other, so it drops the
    images of those levels and keeps the rest.  Components are kept as
    reversed reduced stacks, so prepending an image joins it at the top.

    component_budget caps, in letters, every conjugated band image, its
    power and every component; passing it raises BudgetExceededError.
    An image that passes it through the raw subword is redone through
    the components, so a word is refused only when conjugating through
    the components refuses it.  No size is recounted: an image comes with
    its letter count, a power of it is counted from its exponent, and a
    component's count moves by the letters _join cancels.

    Every image is a reduced conjugate X A X^-1 of its band (see
    _conjugate), so its e-th power is X A^e X^-1: the reversed image with
    its centre set to A^e, |e| - 1 letters more than the image.
    """
    n = w.strands
    syllables = w.word.syllables
    total = len(syllables)
    # Reversed reduced stacks, leftmost syllable on top: stacks[k-2] is
    # u_k, lower[k] the combed syllables of level below k.
    stacks: list[list[Syllable]] = [[] for _ in range(2, n + 1)]
    sizes = [0 for _ in stacks]
    lower: list[list[Syllable]] = [[] for _ in range(n + 1)]
    lower_sizes = [0 for _ in lower]
    # each band's image, in order, with its letter count
    images: list[dict[Band, tuple[list[Syllable], int]]] = [{} for _ in range(n + 1)]

    def refuse(observed: int, what: str, reached: int, where: str = "") -> BudgetExceededError:
        return BudgetExceededError(
            f"combing passed the {component_budget}-letter component budget{where}",
            limit=component_budget, observed=observed,
            stage=f"{what} after {reached} of {total} syllables",
        )

    for p in range(total - 1, -1, -1):
        sym, exp = syllables[p]
        j = sym[1]
        done = total - 1 - p
        memo = images[j].get(sym)
        if memo is None:
            if lower_sizes[j] < sum(sizes[:j - 2]):
                memo = _conjugate(sym, reversed(lower[j]), component_budget)
            if memo is None or memo[1] > component_budget:
                combed = (syl for stack in stacks[:j - 2] for syl in reversed(stack))
                memo = _conjugate(sym, combed, component_budget)
                if memo[1] > component_budget:
                    raise refuse(memo[1], f"image of {_band_name(sym)}", done)
            images[j][sym] = memo
        image, size = memo
        # the stack is reversed, so the image joins it read backwards; the
        # image is X A X^-1, so its power is X A^e X^-1, |e| - 1 letters more
        run = image[::-1]
        if exp != 1:
            run[len(run) // 2] = (sym, exp)
            size += abs(exp) - 1
            if size > component_budget:
                raise refuse(size, f"image of {_band_name(sym)}", done)
        sizes[j - 2] += size - 2 * _join(stacks[j - 2], run)
        if sizes[j - 2] > component_budget:
            raise refuse(sizes[j - 2], f"u_{j}", done + 1, f" in u_{j}")
        for k in range(j + 1, n + 1):
            lower_sizes[k] += _push(lower[k], sym, exp)
            images[k].clear()
    return CombedForm._unchecked(n, tuple(
        GroupWord._unchecked(tuple(reversed(stack))) for stack in stacks
    ))


# A band map: the images of the bands looked up so far under one
# letterwise map, and the rule that fills in a band on its first lookup.
# So a map holds the bands that words bring, not all C(n, 2) bands.  The
# callers fill it in an except KeyError clause: a plain dict keeps
# Python's fast dict lookup, which a dict subclass with __missing__ loses
# (a band-solve pass took 8% longer that way on CPython 3.11).
_BandMap = tuple[dict[Band, Band], Callable[[Band], Band]]


# The faces a band survives, in runs of face positions with one image each.
_FaceRuns = tuple[tuple[range, Band], ...]


@lru_cache(maxsize=256)
def _faces_map(n: int) -> tuple[dict[Band, _FaceRuns], Callable[[Band], _FaceRuns]]:
    """Bands of P_n under all n deletions at once, for PureAWord.face and faces."""
    return {}, lambda band: _surviving_faces(band, n)


@lru_cache(maxsize=1024)
def _coface_map(positions: tuple[int, ...]) -> _BandMap:
    """Bands under inserting trivial strands at the positions in turn.

    A band's image does not depend on the strand count, so one map
    serves every word; PureAWord.coface checks the positions.
    """
    def rule(band: Band) -> Band:
        for i in positions:
            band = coface_on_pure_gen(i, band)
        return band

    return {}, rule


def _conjugate(
    band: Band, prefix: Iterable[Syllable], budget: int
) -> tuple[list[Syllable], int]:
    """The band conjugated by the prefix syllables, leftmost first, and its
    letter count.

    The image is a reduced conjugate X A X^-1 of its band A, so only X
    is rewritten.  A conjugator letter g acts as the automorphism
    phi(w) = g^-1 w g, and A's own rule run is phi(A) = Y A Y^-1, so
    phi(X A X^-1) = phi(X) Y A (phi(X) Y)^-1.  Each letter therefore
    rewrites X syllable by syllable from the conjugation-rule runs,
    appends Y and drops a trailing power of A; that leaves X reduced and
    not ending in A, so X A X^-1 is reduced.  A syllable B^e with
    |e| > 1 takes its run Z B Z^-1 with the centre set to B^e.  The runs
    join inline, cancelling where they meet, and the count moves by the
    letters cancelled, so nothing is recounted.  After each conjugator
    letter the image's 2|X| + 1 letters are checked against the budget,
    and the first image that passes it is returned.
    """
    x: list[Syllable] = []
    letters = 0  # of X
    j = band[1]
    for g_sym, g_exp in prefix:
        rules = _conj_runs(g_sym, 1 if g_exp > 0 else -1, j)
        own = rules[band][0]
        half = own[:len(own) // 2]
        for _ in range(abs(g_exp)):
            stack: list[Syllable] = []
            letters = 0
            for sym, exp in x:
                plus, minus, size = rules[sym]
                if exp == 1:
                    run = plus
                elif exp == -1:
                    run = minus
                else:
                    run = list(plus)
                    run[size // 2] = (sym, exp)
                    size += abs(exp) - 1
                letters += size
                if stack and stack[-1][0] == run[0][0]:
                    # cancel while the top of the stack meets the head of
                    # the run, then extend: _join, inline
                    k = 0
                    while k < len(run) and stack and stack[-1][0] == run[k][0]:
                        head, e = run[k]
                        old = stack.pop()[1]
                        k += 1
                        if old + e:
                            stack.append((head, old + e))
                            letters -= abs(old) + abs(e) - abs(old + e)
                            break
                        letters -= 2 * abs(e)
                    stack.extend(run[k:])
                else:
                    stack.extend(run)
            letters += len(half) - 2 * _join(stack, half)
            if stack and stack[-1][0] == band:
                letters -= abs(stack.pop()[1])
            x = stack
            if 2 * letters + 1 > budget:
                return [*x, (band, 1), *_invert(x)], 2 * letters + 1
    return [*x, (band, 1), *_invert(x)], 2 * letters + 1
