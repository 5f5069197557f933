"""Strand deletion and insertion maps."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from braidcalc.braids import BraidWord, Perm, same_braid
from braidcalc.combing import PureAWord
from braidcalc.faces import _surviving_faces, coface_on_pure_gen

from conftest import aword, band_braid, band_face

braid_letters = st.lists(
    st.tuples(st.integers(1, 4), st.sampled_from([1, -1])), max_size=16
)


def braid5(pairs):
    return BraidWord(5, tuple(pairs))


def perm_face(perm: Perm, i: int) -> Perm:
    """Delete i from the domain and perm(i) from the codomain, renumbering."""
    removed = perm(i)
    images = []
    for k in range(1, len(perm.images)):
        value = perm(k if k < i else k + 1)
        images.append(value if value < removed else value - 1)
    return Perm(tuple(images))


class TestDelete:
    def test_uninvolved_strand_shifts_indices(self):
        b = BraidWord(3, ((2, 1), (2, 1)))
        assert b.face(1).letters == ((1, 1), (1, 1))

    def test_involved_strand_drops_crossings(self):
        b = BraidWord(2, ((1, 1),))
        assert b.face(1).letters == ()
        assert b.face(2).letters == ()

    def test_walk_follows_the_strand(self):
        # sigma_2 sigma_1^2: strand 1 stays at position 1 until the first
        # sigma_1, so d_1 keeps only the crossing among strands 2 and 3.
        b = BraidWord(3, ((2, 1), (1, 1), (1, 1)))
        assert b.face(1).letters == ((1, 1),)
        assert b.face(2).letters == ((1, 1), (1, 1))
        assert b.face(3).letters == ()

    def test_index_validation(self):
        b = BraidWord(3, ())
        with pytest.raises(ValueError):
            b.face(0)
        with pytest.raises(ValueError):
            b.face(4)

    @given(braid_letters, st.integers(1, 5))
    def test_perm_face_matches_deleted_perm(self, pairs, i):
        b = braid5(pairs)
        assert b.face(i).perm() == perm_face(b.perm(), i)


class TestInsert:
    def test_insert_shifts_far_letters(self):
        b = BraidWord(3, ((2, 1),))
        assert b.coface(1).letters == ((3, 1),)
        assert b.coface(4).letters == ((2, 1),)

    def test_insert_conjugates_straddled_letter(self):
        b = BraidWord(2, ((1, 1),))
        assert b.coface(2).letters == ((2, 1), (1, 1), (2, -1))

    def test_insert_then_delete_is_identity(self):
        b = BraidWord(4, ((1, 1), (3, -1), (2, 1)))
        for i in range(1, 6):
            assert b.coface(i).face(i).letters == b.letters

    @given(braid_letters, st.integers(1, 6))
    def test_inserted_strand_returns_to_its_position(self, pairs, i):
        b = braid5(pairs)
        up = b.coface(i)
        assert up.strands == 6
        assert up.perm().images[i - 1] == i


band_triples = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, -1, 2])).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]) + 1, t[2])
    ),
    max_size=8,
)


def some_braids(pairs, triples):
    """A crossing word on 5 strands and a band word on 4."""
    return BraidWord(5, tuple(pairs)), aword(4, triples)


class TestMultiCoface:
    @given(braid_letters, band_triples)
    def test_matches_chain_of_single_cofaces(self, pairs, triples):
        for b in some_braids(pairs, triples):
            n = b.strands
            for count in range(4):
                for ps in combinations(range(1, n + count + 1), count):
                    chained = b
                    for i in ps:
                        chained = chained.coface(i)
                    assert b.coface(*ps) == chained

    @given(braid_letters, band_triples, st.lists(st.integers(1, 5), max_size=4))
    def test_any_position_sequence_matches_chain(self, pairs, triples, ps):
        # band maps are cached per position sequence, so sequences that
        # repeat or fall, and the same sequence on other strand counts,
        # must each get their own images
        crossing, band = some_braids(pairs, triples)
        for b in (crossing, band, PureAWord(5, band.word), PureAWord(7, band.word)):
            chained = b
            for i in ps:
                chained = chained.coface(i)
            assert b.coface(*ps) == chained  # fills the map, unless chained did
            assert b.coface(*ps) == chained  # reads it

    @given(braid_letters, band_triples)
    def test_no_positions_is_the_word_itself(self, pairs, triples):
        for b in some_braids(pairs, triples):
            assert b.coface() == b

    def test_positions_are_checked_against_the_running_strand_count(self):
        for b in (BraidWord(3, ((1, 1), (2, -1))), aword(3, [(1, 3, 2)])):
            assert b.coface(4, 5).strands == 5
            for ps in ((1, 9), (4, 6), (0,), (5,), (1, 2, 0)):
                with pytest.raises(ValueError):
                    b.coface(*ps)


class TestPureGeneratorTables:
    def test_face_kills_own_band(self):
        for n in (3, 4, 5):
            for (s, t) in [(1, 2), (1, n), (n - 1, n)]:
                assert aword(n, [(s, t, 1)]).face(s).is_identity()
                assert aword(n, [(s, t, 1)]).face(t).is_identity()

    def test_face_shifts_disjoint_band(self):
        assert aword(5, [(2, 4, 1)]).face(1).word.syllables == (((1, 3), 1),)

    def test_face_table_agrees_with_strand_deletion(self):
        for n in (3, 4):
            for s in range(1, n):
                for t in range(s + 1, n + 1):
                    for i in range(1, n + 1):
                        image = band_face(i, (s, t), n)
                        walked = band_braid(s, t, n).face(i)
                        if image is None:
                            assert same_braid(walked, BraidWord.identity(n - 1))
                        else:
                            assert same_braid(band_braid(*image, n - 1), walked)

    def test_surviving_faces_follow_the_strand_rule(self):
        # face and faces both read these runs, so they are checked here
        # against the per-strand rule, which neither of them uses
        for n in range(2, 9):
            for s, t in combinations(range(1, n + 1), 2):
                runs = _surviving_faces((s, t), n)
                for i in range(1, n + 1):
                    holding = [image for kept, image in runs if i - 1 in kept]
                    want = band_face(i, (s, t), n)
                    assert holding == ([] if want is None else [want])

    def test_coface_on_band_matches_insertion(self):
        for n in (2, 3, 4):
            for s in range(1, n):
                for t in range(s + 1, n + 1):
                    for i in range(1, n + 2):
                        s2, t2 = coface_on_pure_gen(i, (s, t))
                        assert same_braid(
                            band_braid(s2, t2, n + 1), band_braid(s, t, n).coface(i)
                        )


@st.composite
def band_words(draw):
    """A band word on 2-7 strands over a few bands, so kept syllables
    often meet again across deleted ones; exponents +-1..+-3."""
    n = draw(st.integers(2, 7))
    bands = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    few = draw(st.lists(st.sampled_from(bands), min_size=1, max_size=4))
    exps = st.integers(1, 3).flatmap(lambda e: st.sampled_from((e, -e)))
    triples = draw(st.lists(st.tuples(st.sampled_from(few), exps), max_size=14))
    return aword(n, [(i, j, e) for (i, j), e in triples])


@st.composite
def crossing_words(draw):
    """A crossing word on 2-7 strands; each generator raised to +-1..+-3."""
    n = draw(st.integers(2, 7))
    powers = draw(st.lists(
        st.tuples(st.integers(1, n - 1), st.integers(1, 3), st.sampled_from((1, -1))),
        max_size=10,
    ))
    return BraidWord(n, tuple((i, sign) for i, k, sign in powers for _ in range(k)))


def faces_one_by_one(b):
    return tuple(b.face(i) for i in range(1, b.strands + 1))


class TestAllFaces:
    @given(band_words())
    def test_band_word_faces_match_face_by_face(self, w):
        faces = w.faces()
        assert len(faces) == w.strands
        for got, want in zip(faces, faces_one_by_one(w)):
            assert got.strands == want.strands
            assert got.word.syllables == want.word.syllables

    @given(crossing_words())
    def test_crossing_word_faces_match_face_by_face(self, b):
        faces = b.faces()
        assert len(faces) == b.strands
        for got, want in zip(faces, faces_one_by_one(b)):
            assert got.strands == want.strands
            assert got.letters == want.letters

    def test_empty_words(self):
        for n in range(8):
            for b in (BraidWord.identity(n), PureAWord.identity(n)):
                assert b.faces() == faces_one_by_one(b)
                assert all(f.is_identity() for f in b.faces())

    @pytest.mark.parametrize("n, triples, i, want", [
        # A1,3 A1,2 A1,3 less strand 2: the A1,3 images merge across A1,2
        (3, [(1, 3, 1), (1, 2, 1), (1, 3, 1)], 2, [((1, 2), 2)]),
        (3, [(1, 3, 2), (1, 2, -1), (1, 3, -2)], 2, []),
        # A1,3 cancels across A3,4, and the two A1,2 then merge
        (4, [(1, 2, 1), (1, 4, 1), (3, 4, 1), (1, 4, -1), (1, 2, 2)], 3, [((1, 2), 3)]),
    ], ids=["merge", "cancel", "cancel-then-merge"])
    def test_kept_syllables_meet_across_dead_ones(self, n, triples, i, want):
        w = aword(n, triples)
        assert w.faces()[i - 1].word.syllables == tuple(want)
        assert w.faces() == faces_one_by_one(w)
