"""Raising Brunnian braids to Cohen braids on more strands.

The constructions here all follow one mechanism: push a word through
coface (trivial-strand insertion) maps and multiply the images in a
fixed order with one product call.  A factor with several insertions
is one coface(i_1, .., i_r) call.  Every band-word factor is reduced,
so a product of them reduces only where two factors meet.  One
insertion of a word in the last-column bands of P_m gives the
one-strand lift whose every face is the original word; iterating over
all index combinations gives the multi-strand spread and the full
lift; the James-Hopf product plays the same game on any braid,
crossing word or band word.  On top of these
sit the Hopf decomposition of a pure Cohen braid into Brunnian layers
and the solver for the face system d_1(beta) = ... = d_n(beta) = alpha.

Order conventions (pinned by worked examples in the test suite):
  - spread multi-indices are enumerated lexicographically, leftmost
    position most significant, and the leftmost index is applied first;
  - James-Hopf multi-indices are enumerated colexicographically,
    rightmost position most significant.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .braids import Perm, half_twist, is_pure
from .cohen import Braidlike, common_face, is_brunnian
from .combing import PureAWord
from .words import GroupWord

__all__ = [
    "cohen_lift",
    "full_lift",
    "hopf_decompose",
    "james_hopf",
    "reassemble",
    "solve_cohen_system",
    "tau_spread",
]


def _require_last_column(word: GroupWord, n: int) -> None:
    for sym, _ in word.syllables:
        if sym.index[1] != n:
            raise ValueError(
                f"expected a word in the bands A_(.,{n}), found {sym}"
            )


def cohen_lift(w: PureAWord, check: bool = True) -> PureAWord:
    """One-strand lift d^(n+1)(w) d^1(w) .. d^n(w); every face equals w.

    Input must be a Brunnian word in the last-column bands of P_n.
    """
    n = w.strands
    _require_last_column(w.word, n)
    if check and not is_brunnian(w):
        raise ValueError("cohen_lift requires a Brunnian input")
    return PureAWord.product(n + 1, (w.coface(i) for i in (n + 1, *range(1, n + 1))))


def tau_spread(m: int, k: int, w: PureAWord, check: bool = True) -> PureAWord:
    """Product of iterated coface images of w over index combinations.

    Factors run over 1 <= i_1 < ... < i_(k-m) <= k-1 in lexicographic
    order (leftmost most significant); within a factor the leftmost
    index is applied first.  The result is a word in the last-column
    bands of P_k.
    """
    if w.strands != m:
        raise ValueError("strand count disagrees with m")
    if m > k:
        raise ValueError("target rank must be at least the source rank")
    _require_last_column(w.word, m)
    if check and not is_brunnian(w):
        raise ValueError("tau_spread requires a Brunnian input")
    return PureAWord.product(k, (
        w.coface(*indices) for indices in combinations(range(1, k), k - m)
    ))


def full_lift(m: int, n: int, w: PureAWord, check: bool = True) -> PureAWord:
    """Product of the spreads tau_(m,k)(w) for k = m .. n, ascending.

    Sends a Brunnian word in P_m to a Cohen braid in P_n whose faces
    are all the full lift one rank down.
    """
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    if check and not is_brunnian(w):
        raise ValueError("full_lift requires a Brunnian input")
    return PureAWord.product(n, (
        tau_spread(m, k, w, check=False).embed(n) for k in range(m, n + 1)
    ))


def james_hopf(k: int, n: int, b: Braidlike, check: bool = True) -> Braidlike:
    """Ordered product of coface images d^(i_(n-k)) .. d^(i_1) of b.

    Multi-indices 1 <= i_1 < ... < i_(n-k) <= n are enumerated
    colexicographically (rightmost most significant); inside a factor
    the leftmost (smallest) insertion applies first.
    """
    if k != b.strands:
        raise ValueError("strand count disagrees with k")
    if k > n:
        raise ValueError("target rank must be at least the source rank")
    if check and not is_brunnian(b):
        raise ValueError("james_hopf requires a Brunnian input")
    ordered = sorted(
        combinations(range(1, n + 1), n - k), key=lambda t: tuple(reversed(t))
    )
    return b.product(n, (b.coface(*indices) for indices in ordered))


def reassemble(
    deltas: Sequence[Braidlike], n: int
) -> Braidlike:
    """Product of james_hopf(k, n, delta_k) for k = 1 .. len(deltas)."""
    return deltas[0].product(n, (
        james_hopf(k, n, d, check=False) for k, d in enumerate(deltas, start=1)
    ))


def hopf_decompose(a: Braidlike) -> tuple[Braidlike, ...]:
    """Split a pure Cohen braid into Brunnian layers delta_1 .. delta_n.

    Recursion on the common face: the layers of the face determine
    delta_1 .. delta_(n-1), and the top layer is what remains of a
    after dividing out their James-Hopf images.  Reassembling the
    layers reproduces a, and each layer is Brunnian (asserted).
    """
    if not is_pure(a):
        raise ValueError("hopf_decompose requires a pure braid")
    n = a.strands
    if n <= 1:
        return (a,)
    if n == 2:
        return (a.identity(1), a)
    shared = common_face(a)
    lower = hopf_decompose(shared)
    partial = reassemble(lower, n)
    top = partial.inverse() * a
    if not is_brunnian(top):
        raise AssertionError("residual top layer is not Brunnian")
    return (*lower, top)


def solve_cohen_system(a: Braidlike, n: int) -> Braidlike:
    """A braid on n strands whose every face equals the given a.

    Requires all faces of a to agree (NotCohenError with a witness pair
    otherwise).  Pure inputs are rebuilt from their Brunnian layers one
    rank up; a non-pure input is reduced to the pure case by a half
    twist, whose own faces are again half twists.
    """
    if n != a.strands + 1:
        raise ValueError("can only solve one strand up")
    pm = a.perm()
    if pm.is_identity():
        # hopf_decompose raises NotCohenError through common_face; a pure
        # braid on two strands or fewer has its faces in the trivial B_1 or B_0
        return reassemble(hopf_decompose(a), n)
    common_face(a)  # the witness names the faces of a, not of the twisted braid
    if pm != Perm.order_reversal(a.strands):
        raise AssertionError(
            "a Cohen braid permutation must be the identity or the reversal"
        )
    gamma = solve_cohen_system(half_twist(a.strands) * a, n)
    return half_twist(n).inverse() * gamma
