"""Raising Brunnian braids to Cohen braids on more strands.

The constructions here all follow one mechanism: push a word through
coface (trivial-strand insertion) maps and multiply the images in a
fixed order with one product call.  A factor with several insertions
is one coface(i_1, .., i_r) call.  A product of either word type
cancels letters only where two factors meet.  The James-Hopf product
does this over all index combinations, on any braid; an empty word
contributes no factors, and most Hopf layers of a lifted Brunnian word
are empty.  The full lift of a last-column band word of P_m is by
definition its James-Hopf product in spread order, and the one-strand
lift, whose every face is the original word, is full_lift(m, m+1, .).
On top of these sit the Hopf decomposition of a pure Cohen braid into
Brunnian layers and the solver for the face system d_1(beta) = ... =
d_n(beta) = alpha.

Both take faces down a chain a_n = a, a_(n-1), .., a_1, and delta_1 =
a_1.  The faces of each input are compared once, by common_face, at the
top rank only and from two strands up: d_j d_1 = d_1 d_(j+1), so once
the faces of a agree, every rank below is Cohen and its first face is
its common face.  No fact of the disk is used (there delta_1 is
trivial, as P_1 is), so a pure input of any word type with the members
BraidWord and PureAWord share is solved the same way; the tests solve
on the disk less k points (tests/punctured.py).  A non-pure input is
solved through its half twist, whose faces need no second comparison.
A layer is checked to be Brunnian only where it is kept: hopf_decompose
checks all its layers, the solver those of the order it reassembles.

Order conventions (pinned by worked examples in the test suite):
  - spread multi-indices are enumerated lexicographically, leftmost
    position most significant, and the leftmost index is applied first;
  - James-Hopf multi-indices are enumerated colexicographically,
    rightmost position most significant;
  - the spread order of James-Hopf multi-indices sorts by the top kept
    strand, then lexicographically by the insertions below it; it is
    the factor order of full_lift, and of the nested product of the
    spreads tau_(m,k) for k = m .. n;
  - the solver decomposes band words in both orders and reassembles the
    one whose bound sum_k C(n, k) letters(delta_k) on the answer is
    shorter; ties go to colex.  james_hopf, reassemble and
    hopf_decompose are colex.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterator, Sequence

from .braids import Perm, half_twist, is_pure
from .cohen import Braidlike, common_face, is_brunnian
from .combing import PureAWord
from .words import GroupWord, _band_name

__all__ = [
    "full_lift",
    "hopf_decompose",
    "james_hopf",
    "reassemble",
    "solve_cohen_system",
    "tau_spread",
]


def _require_last_column(word: GroupWord, n: int) -> None:
    for sym, _ in word.syllables:
        if sym[1] != n:
            raise ValueError(
                f"expected a word in the bands A_(.,{n}), found {_band_name(sym)}"
            )


def tau_spread(m: int, k: int, w: PureAWord) -> PureAWord:
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
    if not is_brunnian(w):
        raise ValueError("tau_spread requires a Brunnian input")
    return PureAWord.product(k, (
        w.coface(*indices) for indices in combinations(range(1, k), k - m)
    ))


def full_lift(m: int, n: int, w: PureAWord, check: bool = True) -> PureAWord:
    """The James-Hopf product of w on n strands, in spread order.

    That is the product of the spreads tau_(m,k)(w) for k = m .. n.  For
    a Brunnian w it is a Cohen braid whose faces are all the full lift
    one rank down; full_lift(m, m + 1, w) is d^(m+1)(w) d^1(w) .. d^m(w).
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if check and not is_brunnian(w):
        raise ValueError("full_lift requires a Brunnian input")
    if w.strands != m:
        raise ValueError("strand count disagrees with m")
    _require_last_column(w.word, m)
    return _james_hopf(m, n, w, _spread)


_Order = Callable[[int, int], Sequence[tuple[int, ...]]]


@lru_cache(maxsize=256)
def _colex(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The r-insertion tuples on n strands, rightmost position most significant."""
    return tuple(sorted(combinations(range(1, n + 1), r), key=lambda t: t[::-1]))


@lru_cache(maxsize=256)
def _spread(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The r-insertion tuples on n strands, in spread order."""
    kept = n - r
    return tuple(
        (*below, *range(top + 1, n + 1))
        for top in range(kept, n + 1)
        for below in combinations(range(1, top), top - kept)
    )


def _james_hopf(k: int, n: int, b: Braidlike, order: _Order) -> Braidlike:
    if b.is_identity():
        return b.identity(n)  # every factor is a coface of the empty word
    # on fewer than k strands there are C(n, k) = 0 factors
    indices = order(n, n - k) if k <= n else ()
    return b.product(n, (b.coface(*ins) for ins in indices))


def _reassemble(deltas: Sequence[Braidlike], n: int, order: _Order) -> Braidlike:
    return deltas[0].product(n, (
        _james_hopf(k, n, d, order) for k, d in enumerate(deltas, start=1)
    ))


def james_hopf(k: int, n: int, b: Braidlike) -> Braidlike:
    """Ordered product of coface images d^(i_(n-k)) .. d^(i_1) of b.

    Multi-indices 1 <= i_1 < ... < i_(n-k) <= n are enumerated
    colexicographically (rightmost most significant); inside a factor
    the leftmost (smallest) insertion applies first.
    """
    if k != b.strands:
        raise ValueError("strand count disagrees with k")
    if k > n:
        raise ValueError("target rank must be at least the source rank")
    if not is_brunnian(b):
        raise ValueError("james_hopf requires a Brunnian input")
    return _james_hopf(k, n, b, _colex)


def reassemble(deltas: Sequence[Braidlike], n: int) -> Braidlike:
    """Product of james_hopf(k, n, delta_k) for k = 1 .. len(deltas)."""
    if not deltas:
        raise ValueError("reassemble needs at least one layer")
    for k, d in enumerate(deltas, start=1):
        if d.strands != k:
            raise ValueError(f"layer {k} has {d.strands} strands, not {k}")
    return _reassemble(deltas, n, _colex)


def _face_chain(a: Braidlike, below: Braidlike | None) -> list[Braidlike]:
    """a_1, .., a_n: a_n = a, a_(n-1) = below and a_(k-1) = d_1(a_k) under it.

    No face is compared here.  The caller passes as below the common
    face of a, taken once by common_face, or None when a has at most one
    strand and so is the whole chain.  The faces satisfy
    d_j d_1 = d_1 d_(j+1), so a_(n-1) = d_1(a) gives d_j(a_(n-1)) =
    d_1(d_(j+1)(a)) = d_1(a_(n-1)) as braids for every j: a_(n-1) is
    Cohen again, and by induction so is every rank below, whose common
    face is its first.
    """
    chain = [a] if below is None else [a, below]
    while chain[-1].strands > 1:
        chain.append(chain[-1].face(1))
    return chain[::-1]


def _hopf_layers(chain: Sequence[Braidlike], order: _Order) -> Iterator[Braidlike]:
    """Yield the layers delta_1, delta_2, .. of the chain's top.

    delta_1 = a_1 (the 1-strand identity for a 0-strand chain), and the
    layers of a_(k-1) determine delta_1 .. delta_(k-1); delta_k
    is what remains of a_k after dividing out their James-Hopf images,
    taken in the given order.  The layers are not checked here: the
    callers check that the ones they keep are Brunnian, with
    _check_layers.
    """
    bottom = chain[0]
    layers = [bottom if bottom.strands else bottom.identity(1)]
    yield layers[0]
    for a in chain[1:]:
        top = _reassemble(layers, a.strands, order).inverse() * a
        layers.append(top)
        yield top


def _check_layers(layers: Sequence[Braidlike]) -> None:
    """Assert that every layer is Brunnian; an empty one is, unread."""
    for k, layer in enumerate(layers, start=1):
        if not layer.is_identity() and not is_brunnian(layer):
            raise AssertionError(f"Hopf layer delta_{k} is not Brunnian")


def hopf_decompose(a: Braidlike) -> tuple[Braidlike, ...]:
    """Split a pure Cohen braid into Brunnian layers delta_1 .. delta_n.

    Reassembling the layers (colex order) reproduces a, and each layer
    is Brunnian (asserted, all of them).  delta_1 = a_1, the face of a
    on one strand.
    """
    if not is_pure(a):
        raise ValueError("hopf_decompose requires a pure braid")
    below = common_face(a) if a.strands > 1 else None
    layers = tuple(_hopf_layers(_face_chain(a, below), _colex))
    _check_layers(layers)
    return layers


def _solve_pure(chain: Sequence[Braidlike], n: int) -> Braidlike:
    """Reassemble on n strands the layers of the order with the smaller bound.

    The layers are those of the chain's top.  The answer has at most
    sum_k C(n, k) letters(delta_k) letters.  Both orders decompose the
    same face chain, and each step advances the one whose running bound
    is smaller (colex on a tie), so the first to run out of layers has
    the smaller final bound and the other stops at most one layer past
    it.  Only the winner's layers are checked to be Brunnian, just
    before they are reassembled: the loser's never reach the answer.
    """
    runs = [(order, _hopf_layers(chain, order), []) for order in (_colex, _spread)]
    bounds = [0, 0]
    while True:
        side = bounds.index(min(bounds))
        order, layers, done = runs[side]
        layer = next(layers, None)
        if layer is None:
            _check_layers(done)
            return _reassemble(done, n, order)
        done.append(layer)
        bounds[side] += comb(n, len(done)) * layer.letter_count()


def solve_cohen_system(a: Braidlike, n: int) -> Braidlike:
    """A braid on n strands whose every face equals the given a.

    Requires all faces of a to agree (NotCohenError with a witness pair
    otherwise); they are compared once, here.  Pure inputs are rebuilt
    from their Brunnian layers one rank up, in colex or spread order,
    whichever bounds the answer shorter.  A non-pure input is reduced to
    the pure case by a half twist, whose own faces are again half
    twists: d_i(Delta_m a) = Delta_(m-1) d_(m+1-i)(a), so the twisted
    braid is Cohen with a, and its chain starts from its first face (a
    non-pure input has two strands or more).  The half twist is a disk
    braid; a pure input of any word type with the shared members is
    solved on its own chain.
    """
    if n != a.strands + 1:
        raise ValueError("can only solve one strand up")
    below = common_face(a) if a.strands > 1 else None
    pm = a.perm()
    if pm.is_identity():
        return _solve_pure(_face_chain(a, below), n)
    if pm != Perm.order_reversal(a.strands):
        raise AssertionError(
            "a Cohen braid permutation must be the identity or the reversal"
        )
    twisted = half_twist(a.strands) * a
    chain = _face_chain(twisted, twisted.face(1))
    return half_twist(n).inverse() * _solve_pure(chain, n)
