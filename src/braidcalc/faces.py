"""Strand deletion (faces) and trivial-strand insertion (cofaces).

On crossing words the two maps are BraidWord.face and BraidWord.coface,
and on band words PureAWord.face and PureAWord.coface; faces() on
either type gives all of d_1 .. d_n at once, and PureAWord.faces reads
each syllable once for all of them.  This module holds the rules on
single band generators, which combing.PureAWord applies letterwise
through two band maps: one per strand count, which gives a band's
images in all n faces at once and serves both face and faces, and one
per insertion sequence, however many strands it inserts.  A map is
filled with the bands that words bring, so it holds the bands in use,
not every band of P_n.  Both maps are injective on the bands that
survive, so a reduced band word stays reduced under a coface, and under
a face it can reduce only across the letters that die.

Both maps are homomorphisms on words by construction; the test suite
checks the simplicial-style identities they satisfy with
braids.same_braid.
"""

from __future__ import annotations

__all__ = [
    "coface_on_pure_gen",
]


def coface_on_pure_gen(i: int, pair: tuple[int, int]) -> tuple[int, int]:
    """Image index pair of A_{s,t} under trivial-strand insertion at i."""
    s, t = pair
    if not 1 <= s < t:
        raise ValueError(f"band A_{s},{t} is malformed")
    if i < 1:
        raise ValueError("insertion position must be >= 1")
    if i <= s:
        return (s + 1, t + 1)
    if i <= t:
        return (s, t + 1)
    return (s, t)


def _surviving_faces(
    pair: tuple[int, int], n: int
) -> tuple[tuple[range, tuple[int, int]], ...]:
    """The faces of P_n in which A_{s,t} survives, in runs of one image.

    Deleting strand s or t kills the band; deleting any other strand
    renumbers the ends above it down by one.  A run is a range of face
    positions i - 1 (so 0-based) and the band's image under each of
    those deletions: for the strands below s, between s and t, and
    above t.  Empty runs are left out.
    """
    s, t = pair
    runs = (
        (range(s - 1), (s - 1, t - 1)),
        (range(s, t - 1), (s, t - 1)),
        (range(t, n), (s, t)),
    )
    return tuple(run for run in runs if run[0])
