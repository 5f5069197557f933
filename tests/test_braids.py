"""Braid words, permutations, the Dynnikov action and equality.

Equality is cross-checked against two independent decision procedures:
the Garside normal form of tests/garside_oracle.py, on words of any
length, and the Artin action of tests/artin_oracle.py, on short words.
The normal form is itself checked against the Artin action.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from braidcalc import braids
from braidcalc.braids import (
    BraidWord,
    BudgetExceededError,
    Perm,
    half_twist,
    is_pure,
    same_braid,
)

from artin_oracle import artin_endo, artin_equal, format_x
from conftest import aword, band_braid, braid_pow
from garside_oracle import garside_equal, left_normal_form


def sig(n, *pairs):
    return BraidWord(n, tuple(pairs))


def plant(choose, n, letters, moves):
    """An equal word: `moves` rewrites, each drawn with choose(sequence).

    A move is a free insertion, a far commutation or a braid relation,
    of either sign.  A far commutation or braid relation that finds no
    place to apply becomes an insertion of its relator instead, or a
    free insertion when the strand count is too small for one.
    """
    word = list(letters)
    for _ in range(moves):
        move = choose(("free", "far", "braid"))
        if move == "far":
            spots = [p for p in range(len(word) - 1)
                     if abs(word[p][0] - word[p + 1][0]) >= 2]
            if spots:
                p = choose(spots)
                word[p], word[p + 1] = word[p + 1], word[p]
                continue
            if n >= 4:
                i, s, t = choose(range(1, n - 2)), choose((1, -1)), choose((1, -1))
                pos = choose(range(len(word) + 1))
                word[pos:pos] = [(i, s), (i + 2, t), (i, -s), (i + 2, -t)]
                continue
        if move == "braid":
            spots = [p for p in range(len(word) - 2)
                     if word[p] == word[p + 2] and word[p + 1][1] == word[p][1]
                     and abs(word[p + 1][0] - word[p][0]) == 1]
            if spots:
                p = choose(spots)
                (i, s), (j, _) = word[p], word[p + 1]
                word[p:p + 3] = [(j, s), (i, s), (j, s)]
                continue
            if n >= 3:
                i, s = choose(range(1, n - 1)), choose((1, -1))
                pos = choose(range(len(word) + 1))
                word[pos:pos] = [(i, s), (i + 1, s), (i, s),
                                 (i + 1, -s), (i, -s), (i + 1, -s)]
                continue
        i, s = choose(range(1, n)), choose((1, -1))
        pos = choose(range(len(word) + 1))
        word[pos:pos] = [(i, s), (i, -s)]
    return word


@st.composite
def braid_pairs(draw):
    """(a, b, planted): half the pairs are planted equal; of the rest,
    half are a planted pair with one sign flipped (same permutation,
    different braid) and half are independent words."""
    n = draw(st.integers(2, 6))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    a = draw(st.lists(letter, max_size=12))
    choose = lambda seq: draw(st.sampled_from(seq))  # noqa: E731
    if draw(st.booleans()):
        return sig(n, *a), sig(n, *plant(choose, n, a, draw(st.integers(1, 6)))), True
    if draw(st.booleans()) and a:
        b = plant(choose, n, a, draw(st.integers(1, 6)))
        p = draw(st.integers(0, len(b) - 1))
        b[p] = (b[p][0], -b[p][1])
        return sig(n, *a), sig(n, *b), False
    return sig(n, *a), sig(n, *draw(st.lists(letter, max_size=12))), False


def positive_word(arrangement):
    """A positive word for the permutation braid with this arrangement.

    Bubble-sorting the arrangement back to the identity swaps adjacent
    positions; read in reverse, those swaps build it up from the identity.
    """
    arr = list(arrangement)
    swaps = []
    for end in range(len(arr) - 1, 0, -1):
        for p in range(end):
            if arr[p] > arr[p + 1]:
                arr[p], arr[p + 1] = arr[p + 1], arr[p]
                swaps.append((p + 1, 1))
    return swaps[::-1]


def word_of_form(n, form):
    k, factors = form
    letters = [letter for f in factors for letter in positive_word(f)]
    return braid_pow(half_twist(n), k) * BraidWord(n, tuple(letters))


def finishing_set(arr):
    return {i for i in range(1, len(arr)) if arr[i - 1] > arr[i]}


def starting_set(arr):
    end = {s: p for p, s in enumerate(arr)}
    return {i for i in range(1, len(arr)) if end[i - 1] > end[i]}


class TestGeneratorAction:
    """The action is pinned so the oracle cannot silently flip conventions."""

    def test_sigma_maps_its_own_strand(self):
        endo = artin_endo(sig(3, (1, 1)))
        assert format_x(endo.images[0]) == "x1 x2 x1^-1"
        assert format_x(endo.images[1]) == "x1"
        assert format_x(endo.images[2]) == "x3"

    def test_first_letter_acts_innermost(self):
        # sigma_1^2 sends x2 to x1 x2 x1^-1; the reversed composition
        # order would send it elsewhere, so this pins the convention.
        endo = artin_endo(sig(3, (1, 1), (1, 1)))
        assert format_x(endo.images[1]) == "x1 x2 x1^-1"

    def test_inverse_generator_inverts_action(self):
        composite = artin_endo(sig(3, (2, 1), (2, -1)))
        assert composite.is_identity()
        composite = artin_endo(sig(3, (2, -1), (2, 1)))
        assert composite.is_identity()

    def test_action_preserves_boundary_word(self):
        b = sig(4, (1, 1), (3, -1), (2, 1), (1, 1))
        assert artin_endo(b).preserves_boundary()

    def test_action_is_permutation_conjugating(self):
        b = sig(4, (2, 1), (3, 1), (1, -1))
        assert artin_endo(b).is_permutation_conjugating()


class TestOracle:
    def test_braid_relation_adjacent(self):
        assert same_braid(
            sig(3, (1, 1), (2, 1), (1, 1)), sig(3, (2, 1), (1, 1), (2, 1))
        )

    def test_far_generators_commute(self):
        assert same_braid(sig(4, (1, 1), (3, 1)), sig(4, (3, 1), (1, 1)))

    def test_separations(self):
        words = [
            sig(3),
            sig(3, (1, 1)),
            sig(3, (2, 1)),
            sig(3, (1, 1), (2, 1)),
        ]
        for idx, u in enumerate(words):
            for v in words[idx + 1:]:
                assert not same_braid(u, v)

    def test_perm_short_circuit_detects_unequal_perms(self):
        assert not same_braid(sig(3, (1, 1)), sig(3, (1, 1), (2, 1)))

    def test_exponent_sum_short_circuit_skips_the_normal_form(self, monkeypatch):
        def unreachable(coords, letters):
            raise AssertionError("Dynnikov coordinates computed")

        monkeypatch.setattr(braids, "_dynnikov", unreachable)
        pure = sig(3, (1, 1), (1, 1), (2, 1), (2, 1))
        assert not same_braid(pure, sig(3))
        assert not same_braid(pure, pure.inverse())

    def test_conjugate_of_generator(self):
        lhs = sig(3, (1, 1)).inverse() * (half_twist(3) * sig(3, (1, 1)))
        rhs = sig(3, (2, 1), (1, 1), (1, 1))
        assert same_braid(lhs, rhs)

    def test_budget_raises(self):
        # Repeated squaring makes the image words grow exponentially.
        b = braid_pow(sig(3, (1, 1), (2, -1)), 24)
        with pytest.raises(BudgetExceededError):
            artin_equal(b, sig(3), budget=2000)

    @settings(max_examples=300, deadline=None)
    @given(braid_pairs())
    def test_agrees_with_artin_action(self, pair):
        a, b, planted = pair
        equal = same_braid(a, b)
        assert equal == artin_equal(a, b)
        if planted:
            assert equal

    def test_long_planted_pair_is_decided(self):
        # The Artin action did not finish a braid of this size in minutes.
        rng = random.Random(190)
        a = [(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(190)]
        b = plant(rng.choice, 4, a, 120)
        assert same_braid(sig(4, *a), sig(4, *b))
        p = rng.randrange(len(b))
        b[p] = (b[p][0], -b[p][1])
        assert not same_braid(sig(4, *a), sig(4, *b))

    @given(st.integers(min_value=2, max_value=6))
    def test_half_twist_square_is_central(self, n):
        delta2 = braid_pow(half_twist(n), 2)
        assert left_normal_form(delta2) == (2, ())
        for k in range(1, n):
            for s in (1, -1):
                g = sig(n, (k, s))
                assert same_braid(delta2 * g, g * delta2)


def inverse_letters(letters):
    return [(i, -s) for i, s in reversed(letters)]


@st.composite
def hard_pairs(draw):
    """(a, b, planted) on 0-7 strands: equal exponent sums and permutations.

    A third of the pairs are planted equal.  A third insert somewhere the
    commutator of a random word with a random conjugate of sigma_j^(+-2),
    a pure braid, so the commutator is pure and usually not trivial.  The
    rest insert Delta^(2k) somewhere: b moves it to the end,
    which is the same braid since it is central, or puts sigma_i^(k n(n-1))
    in its place, a pure braid of the same exponent sum that differs from
    it on three strands or more.
    """
    n = draw(st.integers(0, 7))
    letter = st.tuples(st.integers(1, max(n - 1, 1)), st.sampled_from((1, -1)))
    letters = st.lists(letter, max_size=12 if n >= 2 else 0)
    a = draw(letters)
    choose = lambda seq: draw(st.sampled_from(seq))  # noqa: E731
    kind = draw(st.sampled_from(("planted", "commutator", "central")))
    p = draw(st.integers(0, len(a)))
    if kind == "planted":
        moves = draw(st.integers(1, 6)) if n >= 2 else 0
        return sig(n, *a), sig(n, *plant(choose, n, a, moves)), True
    if kind == "commutator":
        u, y = draw(letters), draw(letters)
        v = y + [(choose(range(1, n)), choose((1, -1)))] * 2 + inverse_letters(y) if n >= 2 else []
        b = a[:p] + u + v + inverse_letters(u) + inverse_letters(v) + a[p:]
        return sig(n, *a), sig(n, *b), False
    k = draw(st.sampled_from((-2, -1, 1, 2)))
    twist = list(braid_pow(half_twist(n), 2 * k).letters)
    if n < 2 or draw(st.booleans()):
        b = a + twist
    else:
        sign = 1 if k > 0 else -1
        b = a[:p] + [(choose(range(1, n)), sign)] * (abs(k) * n * (n - 1)) + a[p:]
    return sig(n, *(a[:p] + twist + a[p:])), sig(n, *b), False


def act(n, coords, letters):
    return braids._dynnikov(list(coords), letters)


@st.composite
def vectors(draw):
    """(n, x): n in 2..7 and any integer vector of length 2n."""
    n = draw(st.integers(2, 7))
    return n, draw(st.lists(st.integers(-60, 60), min_size=2 * n, max_size=2 * n))


class TestDynnikov:
    """The action of braids._dynnikov, pinned by the relations of B_n.

    The relations are checked on arbitrary integer vectors, not only on
    the orbit of the start vector, so every case of the piecewise
    formulas is reached.
    """

    @settings(max_examples=300, deadline=None)
    @given(vectors(), st.data())
    def test_inverse_letter_undoes_a_letter(self, nx, data):
        n, x = nx
        i = data.draw(st.integers(1, n - 1))
        for s in (1, -1):
            assert act(n, x, [(i, s), (i, -s)]) == x

    @settings(max_examples=300, deadline=None)
    @given(vectors(), st.data())
    def test_braid_relation(self, nx, data):
        n, x = nx
        if n < 3:
            return
        i = data.draw(st.integers(1, n - 2))
        for s in (1, -1):
            assert act(n, x, [(i, s), (i + 1, s), (i, s)]) == act(
                n, x, [(i + 1, s), (i, s), (i + 1, s)]
            )

    @settings(max_examples=300, deadline=None)
    @given(vectors(), st.data())
    def test_far_generators_commute(self, nx, data):
        n, x = nx
        if n < 4:
            return
        i = data.draw(st.integers(1, n - 3))
        j = data.draw(st.integers(i + 2, n - 1))
        s, t = data.draw(st.sampled_from((1, -1))), data.draw(st.sampled_from((1, -1)))
        assert act(n, x, [(i, s), (j, t)]) == act(n, x, [(j, t), (i, s)])

    @pytest.mark.parametrize("n", range(2, 8))
    def test_no_generator_and_no_full_twist_fixes_the_start(self, n):
        # with the shift, Delta^2 and every generator move the start
        # vector; on the n-punctured disk itself both would fix it
        start = [0, 1] * n
        moves = [[(i, s)] for i in range(1, n) for s in (1, -1)]
        moves += [list(braid_pow(half_twist(n), k).letters) for k in (2, -2, 4)]
        for letters in moves:
            assert act(n, start, letters) != start

    @pytest.mark.parametrize("n", range(3, 8))
    def test_full_twist_differs_from_a_twisted_pair(self, n):
        # same permutation and exponent sum; both fix the start vector
        # of the unshifted action
        delta2 = braid_pow(half_twist(n), 2)
        assert not same_braid(delta2, braid_pow(sig(n, (1, 1)), n * (n - 1)))
        assert same_braid(delta2, braid_pow(sig(n, *((i, 1) for i in range(1, n))), n))

    @settings(max_examples=400, deadline=None)
    @given(hard_pairs())
    def test_agrees_with_the_garside_form(self, pair):
        a, b, planted = pair
        equal = same_braid(a, b)
        assert equal == garside_equal(a, b)
        assert same_braid(b, a) == equal
        if planted:
            assert equal


@st.composite
def band_words(draw):
    """Band words on 2-5 strands, at most 6 syllables, exponents +-1..+-2."""
    n = draw(st.integers(2, 5))
    band = st.integers(2, n).flatmap(lambda j: st.tuples(st.integers(1, j - 1), st.just(j)))
    syllables = draw(st.lists(
        st.tuples(band, st.sampled_from((-2, -1, 1, 2))).map(lambda t: (*t[0], t[1])),
        max_size=6,
    ))
    return aword(n, syllables)


class TestReducedCore:
    """same_braid acts once, on the freely and cyclically reduced a*b^-1."""

    @settings(max_examples=300, deadline=None)
    @given(hard_pairs(), st.data())
    def test_conjugated_pairs_agree_with_the_garside_form(self, pair, data):
        # u x u^-1 (u y u^-1)^-1 reduces to a conjugate of x y^-1, so
        # the long conjugator u is stripped before the action
        x, y, _ = pair
        n = x.strands
        letter = st.tuples(st.integers(1, max(n - 1, 1)), st.sampled_from((1, -1)))
        u = sig(n, *data.draw(st.lists(letter, max_size=30 if n >= 2 else 0)))
        conjugated = same_braid(u * x * u.inverse(), u * y * u.inverse())
        assert conjugated == garside_equal(x, y)

    @settings(max_examples=200, deadline=None)
    @given(band_words(), st.data())
    def test_band_and_crossing_words_mix(self, w, data):
        n = w.strands
        choose = lambda seq: data.draw(st.sampled_from(seq))  # noqa: E731
        moves = data.draw(st.integers(1, 4))
        crossing = sig(n, *plant(choose, n, list(w.to_braid().letters), moves))
        assert same_braid(w, crossing) and same_braid(crossing, w)
        # two adjacent syllables swapped: the exponent sum and permutation
        # stay, so only the action can tell the words apart
        pairs = [(*sym, e) for sym, e in w.word.syllables]
        if len(pairs) >= 2:
            k = data.draw(st.integers(0, len(pairs) - 2))
            pairs[k], pairs[k + 1] = pairs[k + 1], pairs[k]
        swapped = aword(n, pairs).to_braid()
        equal = garside_equal(w, swapped)
        assert same_braid(w, swapped) == equal
        assert same_braid(swapped, w) == equal

    def test_long_pseudo_anosov_pairs_act_on_four_letters(self, monkeypatch):
        # P = (s1 s2^-1)^k stretches the coordinates exponentially; the
        # whole words would cost quadratic time, their cores are 4 letters
        read = []
        dynnikov = braids._dynnikov

        def counted(coords, letters):
            letters = list(letters)
            read.extend(letters)
            return dynnikov(coords, letters)

        monkeypatch.setattr(braids, "_dynnikov", counted)
        p = ((1, 1), (2, -1)) * 10000
        assert same_braid(sig(4, *p, (1, 1), (3, 1)), sig(4, *p, (3, 1), (1, 1)))
        assert len(read) <= 4
        read.clear()
        assert not same_braid(sig(4, *p, (1, 1), (1, 1)), sig(4, *p, (3, 1), (3, 1)))
        assert len(read) <= 4


class TestPerm:
    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, -1])), max_size=10))
    def test_perm_of_respects_composition(self, pairs):
        n = 5
        b = BraidWord(n, tuple(pairs))
        c = BraidWord(n, tuple(reversed([(i, -e) for i, e in pairs])))
        assert (b * c).perm().is_identity()

    def test_perm_is_defined_on_1_to_n_only(self):
        p = sig(3, (1, 1), (2, 1)).perm()  # s1 s2
        assert [p(i) for i in (1, 2, 3)] == [3, 1, 2]
        for i in (-1, 0, 4):
            with pytest.raises(ValueError, match=f"{i} is not in 1..3"):
                p(i)

    def test_half_twist_perm_reverses(self):
        for n in (2, 3, 4, 5):
            assert half_twist(n).perm() == Perm.order_reversal(n)

    def test_is_pure_on_bands(self):
        assert is_pure(band_braid(2, 4, 4))
        assert not is_pure(sig(4, (2, 1)))


class TestBands:
    def test_band_is_conjugated_square(self):
        # A_{1,3} in B_3 equals sigma_2 sigma_1^2 sigma_2^-1.
        assert band_braid(1, 3, 3).letters == ((2, 1), (1, 1), (1, 1), (2, -1))

    def test_adjacent_band_is_square(self):
        assert band_braid(2, 3, 3).letters == ((2, 1), (2, 1))

    def test_bands_generate_pure_braids(self):
        assert is_pure(band_braid(2, 5, 5))

    def test_half_twist_square_equals_band_product(self):
        # Delta_3^2 = A12 A13 A23.
        lhs = braid_pow(half_twist(3), 2)
        rhs = band_braid(1, 2, 3) * (band_braid(1, 3, 3) * band_braid(2, 3, 3))
        assert same_braid(lhs, rhs)


class TestNormalForm:
    @settings(max_examples=200, deadline=None)
    @given(braid_pairs())
    def test_form_is_canonical(self, pair):
        b = pair[0]
        n = b.strands
        form = left_normal_form(b)
        k, factors = form
        identity, delta = tuple(range(n)), tuple(range(n - 1, -1, -1))
        for f in factors:
            assert sorted(f) == list(identity)
            assert f not in (identity, delta)
        for left, right in zip(factors, factors[1:]):
            assert starting_set(right) <= finishing_set(left)
        rebuilt = word_of_form(n, form)
        assert left_normal_form(rebuilt) == form
        assert artin_equal(rebuilt, b)

    def test_small_forms(self):
        assert left_normal_form(sig(3)) == (0, ())
        assert left_normal_form(sig(3, (1, 1))) == (0, ((1, 0, 2),))
        assert left_normal_form(sig(3, (1, -1))) == (-1, ((1, 2, 0),))
        assert left_normal_form(half_twist(4)) == (1, ())
        assert left_normal_form(sig(2, (1, -1), (1, -1))) == (-2, ())

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_delta_conjugation_flips_generators(self, n):
        delta = half_twist(n)
        for i in range(1, n):
            for s in (1, -1):
                conj = delta * sig(n, (i, s)) * delta.inverse()
                assert left_normal_form(conj) == left_normal_form(sig(n, (n - i, s)))
