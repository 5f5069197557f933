"""Free group words: reduction, algebra, substitution."""

import pytest
from hypothesis import given, strategies as st

from braidcalc.expr import format_aword
from braidcalc.words import GroupWord, a_sym, commutator

from artin_oracle import substitute
from conftest import abelianize

RANK = 4


def word_from(pairs, n=RANK + 1):
    """The word in the bands A_(i,n), one syllable per pair (i, exponent)."""
    return GroupWord.from_letters(f"A{n}", [(a_sym(i, n, n), e) for i, e in pairs])


letters = st.lists(
    st.tuples(st.integers(min_value=1, max_value=RANK), st.sampled_from([1, -1])),
    max_size=12,
)


class TestReduction:
    def test_adjacent_inverse_letters_cancel(self):
        w = word_from([(1, 1), (2, 1), (2, -1), (1, -1)])
        assert w.is_identity()

    def test_nested_cancellation(self):
        w = word_from([(1, 1), (2, 1), (3, 1), (3, -1), (2, -1)])
        assert format_aword(w) == "a1.5"

    def test_syllables_merge(self):
        w = word_from([(1, 1)]) * word_from([(1, 1)]) * word_from([(1, 1)])
        assert len(w.syllables) == 1
        assert w.letter_count() == 3

    @given(letters)
    def test_reduced_form_has_no_adjacent_equal_symbols(self, pairs):
        w = word_from(pairs)
        for (a, _), (b, _) in zip(w.syllables, w.syllables[1:]):
            assert a != b
        for _, e in w.syllables:
            assert e != 0


class TestGroupLaws:
    @given(letters, letters)
    def test_product_reduces_concatenation(self, p, q):
        assert word_from(p) * word_from(q) == word_from(p + q)

    @given(letters)
    def test_inverse_cancels(self, pairs):
        w = word_from(pairs)
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()

    @given(letters, st.integers(min_value=-4, max_value=4))
    def test_integer_powers(self, pairs, k):
        w = word_from(pairs)
        expected = GroupWord()
        step = w if k >= 0 else w.inverse()
        for _ in range(abs(k)):
            expected = expected * step
        assert w**k == expected

    @given(letters, letters)
    def test_commutator_vanishes_iff_product_commutes(self, p, q):
        a, b = word_from(p), word_from(q)
        assert commutator(a, b).is_identity() == (a * b == b * a)


class TestAbelianization:
    def test_commutator_abelianizes_to_zero(self):
        a = word_from([(1, 1), (2, 1)])
        b = word_from([(3, 1), (1, -1)])
        assert abelianize(commutator(a, b)) == {}

    @given(letters, letters)
    def test_abelianize_is_additive(self, p, q):
        a, b = word_from(p), word_from(q)
        left = abelianize(a * b)
        ra, rb = abelianize(a), abelianize(b)
        for sym in set(ra) | set(rb) | set(left):
            assert left.get(sym, 0) == ra.get(sym, 0) + rb.get(sym, 0)


class TestSubstitution:
    def test_substitute_generator_image(self):
        w = word_from([(1, 2), (2, -1)], n=3)
        image = {
            a_sym(1, 3, 3): GroupWord.from_letters(
                "A3", [(a_sym(1, 2, 3), 1), (a_sym(1, 3, 3), 1)]
            ),
            a_sym(2, 3, 3): GroupWord.single(a_sym(2, 3, 3)),
        }
        out = substitute(w, image)
        assert format_aword(out) == "a1.2 a1.3 a1.2 a1.3 a2.3'"

    def test_substitution_is_homomorphism_on_sample(self):
        a = word_from([(1, 1), (2, 1)], n=3)
        b = word_from([(2, -1), (1, 1)], n=3)
        image = {
            a_sym(1, 3, 3): word_from([(2, 1), (1, 1)], n=3),
            a_sym(2, 3, 3): word_from([(1, -1)], n=3),
        }
        lhs = substitute(a * b, image)
        rhs = substitute(a, image) * substitute(b, image)
        assert lhs == rhs


class TestRawBands:
    def test_a_band_is_its_pair(self):
        assert a_sym(2, 5, 5) == (2, 5)
        assert GroupWord.single(a_sym(1, 3, 3)) == GroupWord.single(a_sym(1, 3, 7))

    def test_band_out_of_range_for_the_alphabet_rejected(self):
        with pytest.raises(ValueError):
            GroupWord.from_letters("A4", [((1, 5), 1)])
        with pytest.raises(ValueError):
            GroupWord.from_letters("A4", [((3, 2), 1)])
        with pytest.raises(ValueError):
            a_sym(1, 5, 4)

    def test_only_band_alphabets_name_a_range(self):
        for alphabet in ("x4", "A", "Ax", "A-1", "A 4"):
            with pytest.raises(ValueError, match="is not a band alphabet A<r>"):
                GroupWord.from_letters(alphabet, [])
