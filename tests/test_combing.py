"""Markov combing and the conjugation-rule table."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidcalc import combing
from braidcalc.braids import BudgetExceededError, same_braid
from braidcalc.combing import (
    CombedForm,
    PureAWord,
    _conjugate,
    comb,
    conj_rule,
)
from braidcalc.expr import format_aword, parse
from braidcalc.words import GroupWord, a_sym

from artin_oracle import artin_equal
from conftest import aword, random_pure_aword, split_power_word


def aw(n, *pairs):
    return aword(n, list(pairs))


def is_harmonic(w):
    """Combed components must satisfy d_1(u_i) = u_{i-1} for 3 <= i <= n.

    Both sides live in free groups, so syllable comparison of the faced
    word with the lower component is a complete equality test.
    """
    form = comb(w)
    n = w.strands
    return all(
        PureAWord(n, form.component(i)).face(1).word == form.component(i - 1)
        for i in range(3, n + 1)
    )


band_pairs = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, -1])).map(
        lambda t: (t[0], min(t[0] + t[1], 4), t[2])
    ),
    max_size=8,
)


class TestConjRule:
    def test_worked_example_negative_sign(self):
        # A_{1,2}^{-1} conjugates A_{1,3} to a three letter word.
        img = conj_rule(a_sym(1, 2, 3), -1, a_sym(1, 3, 3))
        assert format_aword(img) == "a2.3' a1.3 a2.3"

    def test_worked_example_positive_sign(self):
        img = conj_rule(a_sym(1, 2, 3), 1, a_sym(1, 3, 3))
        assert format_aword(img) == "a1.3 a2.3 a1.3 a2.3' a1.3'"

    def test_disjoint_bands_commute(self):
        img = conj_rule(a_sym(1, 2, 4), 1, a_sym(3, 4, 4))
        assert format_aword(img) == "a3.4"

    def test_every_template_is_oracle_verified(self):
        # g^{-1} h g must equal the table image as a 5-strand braid,
        # for every index pattern and sign of the conjugator.
        cases = [
            ((1, 2), (4, 5)),  # disjoint, h's index above the conjugator
            ((2, 3), (1, 5)),  # disjoint, h's index below the conjugator
            ((1, 3), (1, 5)),  # h shares the conjugator's smaller index
            ((1, 3), (3, 5)),  # h shares the conjugator's larger index
            ((1, 3), (2, 5)),  # linked: h's index strictly inside
        ]
        n = 5
        for (gi, gj), (hi, hj) in cases:
            for sign in (1, -1):
                g = aw(n, (gi, gj, sign))
                h = aw(n, (hi, hj, 1))
                image = conj_rule(a_sym(gi, gj, n), sign, a_sym(hi, hj, n))
                realized = PureAWord(n, image)
                conjugated = g.inverse() * h * g
                assert same_braid(realized.to_braid(), conjugated.to_braid())

    def test_pattern_is_stable_across_ambient_rank(self):
        # The same role pattern yields index-shifted copies of one template.
        shapes = set()
        for j in (3, 4, 5):
            img = conj_rule(a_sym(1, 2, j + 1), 1, a_sym(1, j, j + 1))
            shapes.add(
                tuple((s, e) for s, e in img.syllables)
            )
        # shapes differ only in the second index, so normalize it away
        normalized = {
            tuple(((i,), e) for (i, _), e in shape) for shape in shapes
        }
        assert len(normalized) == 1


class TestStrandRange:
    """The strand count bounds the bands in PureAWord alone."""

    def test_band_above_the_strand_count_rejected(self):
        with pytest.raises(ValueError):
            PureAWord(4, GroupWord.single(a_sym(1, 5, 5)))
        with pytest.raises(ValueError):
            aword(4, [(1, 5, 1)])

    def test_negative_strand_count_rejected(self):
        with pytest.raises(ValueError, match="strand count must be nonnegative"):
            PureAWord(-1, GroupWord())
        with pytest.raises(ValueError, match="strand count must be nonnegative"):
            CombedForm(-1, ())

    def test_malformed_band_rejected(self):
        for band in ((0, 2), (2, 2), (3, 2)):
            with pytest.raises(ValueError):
                PureAWord(4, GroupWord.single(band))

    def test_embed_and_coface_keep_band_names(self):
        w = aw(3, (1, 3, 2), (1, 2, -1))
        assert w.coface(4, 5) == PureAWord(5, w.word)
        assert w.coface(4).word == w.word
        assert w.coface(1).word == aw(4, (2, 4, 2), (2, 3, -1)).word


class TestCombedForm:
    def test_component_discipline_enforced(self):
        # three components for four strands, so only u_3 is at fault
        for foreign in ((1, 2), (1, 4), (3, 3), (0, 3)):
            bad = GroupWord.single(foreign)
            with pytest.raises(ValueError, match="u_3 contains the foreign band"):
                CombedForm(4, (GroupWord(), bad, GroupWord()))
        with pytest.raises(ValueError, match="one component per k"):
            CombedForm(4, (GroupWord(), GroupWord.single(a_sym(1, 3, 4))))

    def test_single_band_combs_to_itself(self):
        form = comb(aw(3, (1, 3, 1)))
        assert format_aword(form.component(3)) == "a1.3"
        assert format_aword(form.component(2)) == "e"

    def test_component_is_named_by_its_column(self):
        form = comb(parse("a1.2 a1.3 a2.4", 4))
        assert [form.component(k) for k in (2, 3, 4)] == list(form.components)
        for k in (-1, 0, 1, 5):
            with pytest.raises(ValueError, match=f"u_{k}: k runs over 2..4"):
                form.component(k)

    def test_comb_of_u2_word(self):
        form = comb(aw(3, (1, 2, -2)))
        assert format_aword(form.component(2)) == "a1.2^-2"
        assert form.component(3).is_identity()

    @settings(max_examples=40, deadline=None)
    @given(band_pairs)
    def test_round_trip_against_braid_oracle(self, pairs):
        # same_braid (the Dynnikov action) is itself property-checked
        # against the Garside form and the Artin oracle in test_braids.py
        w = aw(4, *pairs)
        form = comb(w)
        assert same_braid(form.as_single_word().to_braid(), w.to_braid())

    @settings(max_examples=40, deadline=None)
    @given(band_pairs)
    def test_components_live_in_their_column(self, pairs):
        form = comb(aw(4, *pairs))
        for k in range(2, 5):
            for sym, _ in form.component(k).syllables:
                assert sym[1] == k

    def test_combed_word_is_fixed_by_combing(self):
        w = aw(4, (1, 4, 1), (2, 4, -1), (1, 3, 2))
        once = comb(w).as_single_word()
        twice = comb(once).as_single_word()
        assert once.word == twice.word


WITNESS_BUDGETS = (30, 100, 300, 1000)
# (strands, word, outcome at each of WITNESS_BUDGETS): a refusal's
# (limit, observed, stage), or None when the word combs.  The words were
# drawn from random.Random(21) on 4-6 strands with exponents +-1..+-3 and
# chosen so that, between them, the refused syllable takes each exponent
# in +-1, +-2, +-3 both where an image and where a component passes the
# budget, and every budget refuses some word; the first two comb at all
# four.  A miscounted image, power or component moves an outcome.
REFUSAL_WITNESSES = [
    (4, "a2.3^2 a1.4^3 a2.3^-3 a1.3^-3 a1.4 a2.4^-3 a1.4^-2 a2.4'", (None, None, None, None)),
    (6, "a4.6 a2.3 a4.5' a3.6^3 a4.6^-2 a2.6^-2 a3.5' a1.2^-2", (None, None, None, None)),
    (6, "a1.6^2 a5.6^-3 a4.5^-4 a3.5^-3", (
        (30, 31, "image of A5,6 after 2 of 4 syllables"),
        None,
        None,
        None,
    )),
    (5, "a2.4^2 a3.5' a1.2^2 a1.5^2 a2.5' a3.5^-2 a1.4^-3", (
        (30, 42, "u_5 after 6 of 7 syllables"),
        None,
        None,
        None,
    )),
    (5, "a2.5^-2 a1.3^-3 a1.2' a4.5^-2 a1.2^-3 a3.4' a3.5^-5 a1.4^2 a1.5^2", (
        (30, 35, "u_5 after 6 of 9 syllables"),
        (100, 121, "image of A2,5 after 8 of 9 syllables"),
        (300, 439, "image of A2,5 after 8 of 9 syllables"),
        None,
    )),
    (4, "a3.4^3 a1.3^-2 a2.4^5 a1.2^-2 a2.3^3 a1.3^2 a2.4^3", (
        (30, 49, "image of A2,4 after 4 of 7 syllables"),
        (100, 205, "image of A2,4 after 4 of 7 syllables"),
        (300, 349, "image of A2,4 after 4 of 7 syllables"),
        (1000, 1147, "u_4 after 7 of 7 syllables"),
    )),
    (5, "a4.5^3 a2.5^-3 a3.5^2 a4.5^-4 a2.5^2 a1.4^2 a2.4^2 a1.2^3", (
        (30, 35, "image of A2,5 after 3 of 8 syllables"),
        (100, 179, "image of A2,5 after 3 of 8 syllables"),
        (300, 326, "u_5 after 6 of 8 syllables"),
        None,
    )),
    (4, "a3.4' a2.4^-3 a1.4 a3.4^3 a2.3^-2 a2.4 a3.4' a2.3'", (
        (30, 31, "u_4 after 7 of 8 syllables"),
        None,
        None,
        None,
    )),
    (6, "a5.6^2 a1.5^-2 a1.6' a1.2^-3 a4.5^-2 a2.5^-2 a3.4^-3 a3.6^3 a5.6' a2.3^-3", (
        (30, 31, "image of A4,5 after 5 of 10 syllables"),
        (100, 143, "image of A1,6 after 7 of 10 syllables"),
        (300, 301, "image of A5,6 after 9 of 10 syllables"),
        (1000, 1051, "image of A5,6 after 9 of 10 syllables"),
    )),
    (4, "a1.4^3 a1.2 a1.4 a2.3^-2 a1.2^2 a3.4^3 a2.3^-5", (
        (30, 33, "image of A1,4 after 4 of 7 syllables"),
        (100, 104, "u_4 after 5 of 7 syllables"),
        (300, 321, "image of A1,4 after 6 of 7 syllables"),
        None,
    )),
]


def letterwise_conjugate(band, prefix, budget):
    """The band conjugated through the prefix syllables one letter at a
    time, rewriting the whole image from conj_rule with GroupWord
    products; stops at the first image past the budget.  Returns the
    image and the number of prefix syllables read."""
    image = GroupWord.single(band)
    for read, (g_sym, g_exp) in enumerate(prefix, start=1):
        sign = 1 if g_exp > 0 else -1
        for _ in range(abs(g_exp)):
            rewritten = GroupWord()
            for sym, exp in image.syllables:
                rule = conj_rule(g_sym, sign, sym)
                for _ in range(abs(exp)):
                    rewritten = rewritten * (rule if exp > 0 else rule.inverse())
            image = rewritten
            if image.letter_count() > budget:
                return image, read
    return image, len(prefix)


def letterwise_comb(w):
    """Comb w with every power written out as +-1 letters: each letter
    is conjugated through the lower components by letterwise_conjugate
    and multiplied onto its own component."""
    comps = [GroupWord() for _ in range(w.strands - 1)]
    for sym, exp in reversed(w.word.syllables):
        j = sym[1]
        prefix = [syl for comp in comps[:j - 2] for syl in comp.syllables]
        image, _ = letterwise_conjugate(sym, prefix, float("inf"))
        letter = image if exp > 0 else image.inverse()
        for _ in range(abs(exp)):
            comps[j - 2] = letter * comps[j - 2]
    return comps


@st.composite
def conjugations(draw):
    """A band on 3-7 strands, a prefix of up to 8 lower-level syllables
    with exponents +-1..+-3, and a budget that often stops mid-prefix."""
    n = draw(st.integers(3, 7))
    j = draw(st.integers(3, n))
    band = (draw(st.integers(1, j - 1)), j)
    lower = st.integers(2, j - 1).flatmap(lambda s: st.tuples(st.integers(1, s - 1), st.just(s)))
    exponents = st.sampled_from([1, -1, 2, -2, 3, -3])
    prefix = draw(st.lists(st.tuples(lower, exponents), max_size=8))
    budget = draw(st.integers(1, 400))
    return band, prefix, budget


class TestConjugation:
    @settings(max_examples=300, deadline=None)
    @given(conjugations())
    def test_conjugate_matches_letterwise_rewrite(self, case):
        band, prefix, budget = case
        read = []

        def counted():
            for syl in prefix:
                read.append(syl)
                yield syl

        image, letters = _conjugate(band, counted(), budget)
        expected, expected_read = letterwise_conjugate(band, prefix, budget)
        assert GroupWord(tuple(image)) == expected
        assert letters == expected.letter_count()
        assert len(read) == expected_read
        # the image is X A X^-1 with the band at its centre, which is
        # what lets a power of it be set at the centre
        mid = len(image) // 2
        assert len(image) % 2 == 1 and image[mid] == (band, 1)
        assert GroupWord(tuple(image[mid + 1:])) == GroupWord(tuple(image[:mid])).inverse()

    def test_memoised_image_takes_every_power(self, monkeypatch):
        # combed right to left, A1,4 meets the exponents -3, 2, -1 and 1
        # with only level-4 bands between, so its one image is reused
        w = parse("a1.4 a2.4 a1.4' a3.4 a1.4^2 a2.4' a1.4^-3 a1.3' a2.3^2 a1.2", 4)
        calls = []

        def conjugate(band, prefix, budget):
            calls.append(band)
            return _conjugate(band, prefix, budget)

        monkeypatch.setattr(combing, "_conjugate", conjugate)
        form = comb(w)
        assert calls.count((1, 4)) == 1
        assert [e for sym, e in w.word.syllables if sym == (1, 4)] == [1, -1, 2, -3]
        assert list(form.components) == letterwise_comb(w)
        assert same_braid(form.as_single_word(), w)
        assert not same_braid(form.as_single_word(), w * parse("a1.4", 4))


class TestRefusalWitnesses:
    @pytest.mark.parametrize("n, text, outcomes", REFUSAL_WITNESSES)
    def test_refusals_are_pinned(self, n, text, outcomes):
        w = parse(text, n)
        for budget, expected in zip(WITNESS_BUDGETS, outcomes):
            try:
                comb(w, component_budget=budget)
                got = None
            except BudgetExceededError as e:
                got = (e.limit, e.observed, e.stage)
            assert got == expected, f"budget {budget}"


@st.composite
def band_words(draw):
    """Band words on 2-5 strands, at most 8 syllables, exponents +-1..+-2."""
    n = draw(st.integers(2, 5))
    band = st.integers(2, n).flatmap(lambda j: st.tuples(st.integers(1, j - 1), st.just(j)))
    syllables = draw(st.lists(
        st.tuples(band, st.sampled_from([-2, -1, 1, 2])).map(lambda t: (*t[0], t[1])),
        max_size=8,
    ))
    return aw(n, *syllables)


class TestEquality:
    @settings(deadline=None)
    @given(band_words(), st.data())
    def test_combing_and_normal_form_agree(self, a, data):
        # b is the combed word itself, or that word with two adjacent
        # syllables swapped, so the abelianization cannot tell the two
        # apart.  Combed forms grow exponentially (8 syllables can comb to
        # thousands), and combing b a^-1 costs seconds there, so long
        # forms are skipped.  b goes first: combing b a^-1 conjugates the
        # bands of b through the few letters of a^-1 only, while a b^-1
        # conjugates the components of b through each other and can pass
        # the default budget.
        b = comb(a).as_single_word()
        assume(len(b.word.syllables) <= 400)
        syllables = list(b.word.syllables)
        if len(syllables) >= 2 and data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(syllables) - 2))
            syllables[k], syllables[k + 1] = syllables[k + 1], syllables[k]
            b = aw(a.strands, *((*sym, e) for sym, e in syllables))
        by_combing = all(c.is_identity() for c in comb(b * a.inverse()).components)
        assert by_combing == same_braid(b, a)
        assert by_combing == same_braid(b.to_braid(), a.to_braid())
        assert by_combing == same_braid(b, a.to_braid())

    @given(band_pairs)
    def test_word_times_inverse_is_trivial(self, pairs):
        w = aw(4, *pairs)
        t = w * w.inverse()
        assert same_braid(t, t.identity(t.strands))

    @given(band_pairs)
    def test_nontrivial_words_have_nonempty_form(self, pairs):
        w = aw(4, *pairs)
        if not same_braid(w, w.identity(w.strands)):
            assert any(
                not comb(w).component(k).is_identity() for k in range(2, 5)
            )

    def test_equality_agrees_with_braid_oracle(self, rng):
        for _ in range(12):
            a = random_pure_aword(rng, 4, 4)
            b = random_pure_aword(rng, 4, 4)
            assert same_braid(a, b) == artin_equal(
                a.to_braid(), b.to_braid(), budget=10**7
            )

    @given(band_words())
    def test_exponent_sum_survives_expansion(self, w):
        assert w.exponent_sum() == w.to_braid().exponent_sum()

    def test_central_square_commutes_with_everything(self):
        delta2 = split_power_word(4, 1)
        w = aw(4, (1, 3, 1), (2, 4, -1))
        assert same_braid(delta2 * w, w * delta2)


class TestFacesOnAWords:
    @settings(deadline=None)
    @given(band_pairs, st.integers(1, 4))
    def test_face_matches_braid_level_deletion(self, pairs, i):
        w = aw(4, *pairs)
        assert same_braid(w.face(i).to_braid(), w.to_braid().face(i))

    @settings(deadline=None)
    @given(band_pairs, st.integers(1, 5))
    def test_coface_matches_braid_level_insertion(self, pairs, i):
        w = aw(4, *pairs)
        assert same_braid(w.coface(i).to_braid(), w.to_braid().coface(i))


class TestHarmonic:
    def test_delta_square_words_are_harmonic(self):
        for n in (3, 4, 5):
            assert is_harmonic(split_power_word(n, 1))

    def test_generic_word_is_not_harmonic(self):
        # d_1(A_{2,4}) = A_{1,3}, which cannot match an empty u_3.
        assert not is_harmonic(aw(4, (2, 4, 1)))
