"""Band-word builders against letterwise references.

Faces and cofaces of band words are built from per-call symbol maps, and
products of many factors are reduced in one pass.  The references here
apply the band rules one syllable at a time and multiply left to right
with `*`; free reduction is confluent, so both must give the same
syllables, not merely equal braids.
"""

from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from braidcalc.combing import PureAWord, coface_on_aword, face_on_aword
from braidcalc.expr import BandAtom, Commutator, Concat, Power, to_aword
from braidcalc.faces import coface_on_pure_gen, face_on_pure_gen
from braidcalc.lifting import james_hopf
from braidcalc.words import GroupWord, a_alphabet, a_sym, commutator


def face_reference(w: PureAWord, i: int) -> GroupWord:
    n = w.strands
    letters = []
    for sym, exp in w.word.syllables:
        letters.extend((face_on_pure_gen(i, sym.index, n) ** exp).syllables)
    return GroupWord.from_letters(a_alphabet(n - 1), letters)


def coface_reference(w: PureAWord, i: int) -> GroupWord:
    n = w.strands
    letters = [
        (a_sym(*coface_on_pure_gen(i, sym.index), n + 1), exp)
        for sym, exp in w.word.syllables
    ]
    return GroupWord.from_letters(a_alphabet(n + 1), letters)


def james_hopf_reference(k: int, n: int, b: PureAWord) -> GroupWord:
    ordered = sorted(combinations(range(1, n + 1), n - k), key=lambda t: t[::-1])
    word = GroupWord.identity(a_alphabet(n))
    for indices in ordered:
        factor = b
        for i in indices:
            factor = PureAWord(factor.strands + 1, coface_reference(factor, i))
        word = word * factor.word
    return word


def aword_reference(expr, n: int) -> GroupWord:
    if isinstance(expr, BandAtom):
        return GroupWord.single(a_sym(expr.i, expr.j, n))
    if isinstance(expr, Power):
        return aword_reference(expr.base, n) ** expr.exp
    if isinstance(expr, Concat):
        word = GroupWord.identity(a_alphabet(n))
        for part in expr.parts:
            word = word * aword_reference(part, n)
        return word
    return commutator(aword_reference(expr.left, n), aword_reference(expr.right, n))


def bands(n: int):
    return st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).map(
        lambda t: (min(t), max(t) + 1)
    )


@st.composite
def band_words(draw, min_strands=2, max_strands=7, max_syllables=12):
    n = draw(st.integers(min_strands, max_strands))
    pairs = draw(st.lists(
        st.tuples(bands(n), st.sampled_from([1, -1, 2, -3])).map(lambda t: (*t[0], t[1])),
        max_size=max_syllables,
    ))
    return PureAWord.from_pairs(n, pairs)


@st.composite
def band_expressions(draw):
    n = draw(st.integers(2, 7))
    leaves = bands(n).map(lambda p: BandAtom(*p))
    tree = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from([-2, -1, 2, 3])).map(lambda t: Power(*t)),
            st.lists(inner, max_size=5).map(lambda ps: Concat(tuple(ps))),
            st.tuples(inner, inner).map(lambda t: Commutator(*t)),
        ),
        max_leaves=16,
    )
    return draw(tree), n


MERGING = PureAWord.from_pairs(3, [(1, 3, 1), (1, 2, 1), (1, 3, 1)])


class TestFaceMaps:
    def test_deleting_a_band_end_merges_its_neighbours(self):
        assert str(face_on_aword(MERGING, 2).word) == "A1,2^2"

    @settings(max_examples=150)
    @given(band_words())
    @example(PureAWord.identity(2))
    @example(MERGING)
    def test_face_matches_letterwise_reference(self, w):
        for i in range(1, w.strands + 1):
            faced = face_on_aword(w, i)
            assert faced.strands == w.strands - 1
            assert faced.word == face_reference(w, i)

    @settings(max_examples=150)
    @given(band_words())
    @example(PureAWord.identity(2))
    @example(MERGING)
    def test_coface_matches_letterwise_reference(self, w):
        for i in range(1, w.strands + 2):
            cofaced = coface_on_aword(w, i)
            assert cofaced.strands == w.strands + 1
            assert cofaced.word == coface_reference(w, i)


class TestProducts:
    @settings(max_examples=60, deadline=None)
    @given(band_words(max_strands=4, max_syllables=6), st.integers(0, 3))
    @example(PureAWord.identity(2), 2)
    def test_james_hopf_matches_left_fold(self, b, extra):
        k = b.strands
        out = james_hopf(k, k + extra, b, check=False)
        assert out.word == james_hopf_reference(k, k + extra, b)

    @settings(max_examples=150)
    @given(band_expressions())
    @example((Concat(()), 3))
    def test_to_aword_matches_left_fold(self, case):
        expr, n = case
        assert to_aword(expr, n).word == aword_reference(expr, n)
