"""Cohen, Brunnian, generalized Cohen and unary braid predicates.

A braid is Cohen when all of its strand-deletion faces agree, and
Brunnian when every face is trivial.  The predicates here accept either
a BraidWord or a PureAWord and take faces through their shared faces
member, which gives d_1 .. d_n together.  Every equality
goes through braids.same_braid, which compares Dynnikov coordinates;
equal band words answer before any expansion.

Also provided: the generator families used throughout the test suite
(band commutators, conjugated iterated commutators, full-twist product
words).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .braids import BraidWord, is_pure, same_braid
from .combing import PureAWord
from .words import GroupWord, _band_name, a_sym, commutator

__all__ = [
    "Braidlike",
    "NotCohenError",
    "StrandPartition",
    "band_commutator",
    "brunnian_generator",
    "common_face",
    "delta_square_word",
    "is_brunnian",
    "is_cohen",
    "is_generalized_cohen",
    "is_unary",
    "unary_factor",
]

Braidlike = Union[BraidWord, PureAWord]


class NotCohenError(ValueError):
    """Raised when an operation requires a Cohen braid and the faces differ.

    Carries the faces d_1 .. d_n it found, and as a witness the indices
    and words of the first pair that differs, d_1 and d_j.
    """

    def __init__(self, faces: Sequence[Braidlike], j: int):
        self.faces = tuple(faces)
        self.witness_indices = (1, j)
        self.witness_faces = (self.faces[0], self.faces[j - 1])
        super().__init__(f"faces d_1 and d_{j} differ")


def is_cohen(b: Braidlike) -> bool:
    """All faces of b agree: common_face without the witness.

    Vacuously true on zero strands, which have no faces.
    """
    if not b.strands:
        return True
    try:
        common_face(b)
    except NotCohenError:
        return False
    return True


def common_face(b: Braidlike) -> Braidlike:
    """The shared face of a Cohen braid; raises NotCohenError with a witness."""
    faces = b.faces()
    for j, f in enumerate(faces[1:], start=2):
        if not same_braid(faces[0], f):
            raise NotCohenError(faces, j)
    if faces:
        return faces[0]
    raise ValueError("a braid on zero strands has no faces")


def is_brunnian(b: Braidlike) -> bool:
    """Every face of b is trivial."""
    return all(same_braid(f, f.identity(f.strands)) for f in b.faces())


@dataclass(frozen=True)
class StrandPartition:
    """Pairwise disjoint nonempty blocks of strand indices in {1..n}.

    Takes each block as any collection of strands, such as a list, and
    keeps it as a frozenset.
    """

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("strand count must be nonnegative")
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            mine: set[int] = set()
            for i in block:
                if not 1 <= i <= self.n:
                    raise ValueError(f"strand {i} out of range for n={self.n}")
                if i in mine:
                    raise ValueError(f"strand {i} appears twice in one block")
                if i in seen:
                    raise ValueError(f"strand {i} appears in two blocks")
                mine.add(i)
                seen.add(i)
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))


def is_generalized_cohen(b: Braidlike, partition: StrandPartition) -> bool:
    """Within each block of strand indices, all faces of b agree."""
    if partition.n != b.strands:
        raise ValueError("partition is for a different strand count")
    faces = b.faces()
    for block in partition.blocks:
        indices = sorted(block)
        first = faces[indices[0] - 1]
        for i in indices[1:]:
            if not same_braid(first, faces[i - 1]):
                return False
    return True


def is_unary(b: BraidWord) -> bool:
    """Strand 1 ends at position n and deleting it leaves the trivial braid.

    False on zero strands, which have no strand 1.
    """
    n = b.strands
    if n == 0 or b.perm()(1) != n:
        return False
    f = b.face(1)
    return same_braid(f, f.identity(f.strands))


def unary_factor(b: BraidWord) -> BraidWord:
    """The pure part b0 with b = b0 sigma_1 sigma_2 .. sigma_{n-1}."""
    if not is_unary(b):
        raise ValueError("not a unary braid")
    n = b.strands
    staircase = BraidWord(n, tuple((i, 1) for i in range(1, n)))
    factor = b * staircase.inverse()
    if not is_pure(factor):
        raise AssertionError("unary factor failed the purity check")
    return factor


def band_commutator(l: int, m: int) -> PureAWord:
    """[A_13^l, A_23^m] on three strands; Brunnian whenever l, m != 0."""
    x = GroupWord.single(a_sym(1, 3, 3), l)
    y = GroupWord.single(a_sym(2, 3, 3), m)
    return PureAWord(3, commutator(x, y))


def brunnian_generator(
    n: int,
    perm: Sequence[int] | None = None,
    conjugators: Sequence[GroupWord] | None = None,
) -> PureAWord:
    """Left-normed commutator of conjugated last-column bands.

    Builds [g_1, g_2, ..., g_{n-1}] with g_t the band A_{perm(t),n}
    conjugated by the t-th conjugator (a word in the bands A_{.,n}).
    Every face of the result is trivial, which the test suite checks
    rather than assumes.
    """
    if n < 2:
        raise ValueError("need at least two strands")
    order = tuple(perm) if perm is not None else tuple(range(1, n))
    if sorted(order) != list(range(1, n)):
        raise ValueError(f"{order} is not a permutation of 1..{n - 1}")
    if conjugators is None:
        conjugators = [GroupWord()] * (n - 1)
    if len(conjugators) != n - 1:
        raise ValueError("need one conjugator per band")
    leaves = []
    for t, u in zip(order, conjugators):
        for sym, _ in u.syllables:
            i, j = sym
            if j != n or not 1 <= i < n:
                raise ValueError(
                    f"conjugator uses {_band_name(sym)}, not a last-column band"
                )
        leaves.append(u.inverse() * GroupWord.single(a_sym(t, n, n)) * u)
    acc = leaves[0]
    for g in leaves[1:]:
        acc = commutator(acc, g)
    return PureAWord(n, acc)


def delta_square_word(n: int, k: int) -> PureAWord:
    """A_12^k (A_13 A_23)^k ... (A_1n .. A_{n-1,n})^k, the full twist to the k."""
    if n < 2:
        raise ValueError("need at least two strands")
    word = GroupWord()
    for j in range(2, n + 1):
        block = GroupWord.from_letters(
            f"A{n}", [(a_sym(i, j, n), 1) for i in range(1, j)]
        )
        word = word * block ** k
    return PureAWord(n, word)
