"""Braid words, permutations, and the action-based equality oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from braidcalc.braids import (
    BraidWord,
    BudgetExceededError,
    Perm,
    a_gen,
    artin_endo,
    braid_pow,
    braids_equal,
    compose,
    half_twist,
    invert_braid,
    is_pure,
    perm_of,
)


def sig(n, *pairs):
    return BraidWord(n, tuple(pairs))


class TestGeneratorAction:
    """The action is pinned so the oracle cannot silently flip conventions."""

    def test_sigma_maps_its_own_strand(self):
        endo = artin_endo(sig(3, (1, 1)))
        assert str(endo.images[0]) == "x1 x2 x1^-1"
        assert str(endo.images[1]) == "x1"
        assert str(endo.images[2]) == "x3"

    def test_first_letter_acts_innermost(self):
        # sigma_1^2 sends x2 to x1 x2 x1^-1; the reversed composition
        # order would send it elsewhere, so this pins the convention.
        endo = artin_endo(sig(3, (1, 1), (1, 1)))
        assert str(endo.images[1]) == "x1 x2 x1^-1"

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
        assert braids_equal(
            sig(3, (1, 1), (2, 1), (1, 1)), sig(3, (2, 1), (1, 1), (2, 1))
        )

    def test_far_generators_commute(self):
        assert braids_equal(sig(4, (1, 1), (3, 1)), sig(4, (3, 1), (1, 1)))

    def test_separations(self):
        words = [
            sig(3),
            sig(3, (1, 1)),
            sig(3, (2, 1)),
            sig(3, (1, 1), (2, 1)),
        ]
        for idx, u in enumerate(words):
            for v in words[idx + 1:]:
                assert not braids_equal(u, v)

    def test_perm_short_circuit_detects_unequal_perms(self):
        assert not braids_equal(sig(3, (1, 1)), sig(3, (1, 1), (2, 1)))

    def test_conjugate_of_generator(self):
        lhs = compose(invert_braid(sig(3, (1, 1))), compose(half_twist(3), sig(3, (1, 1))))
        rhs = sig(3, (2, 1), (1, 1), (1, 1))
        assert braids_equal(lhs, rhs)

    def test_budget_raises(self):
        # Repeated squaring makes the image words grow exponentially.
        b = braid_pow(sig(3, (1, 1), (2, -1)), 24)
        with pytest.raises(BudgetExceededError):
            braids_equal(b, sig(3), budget=2000)

    @given(st.integers(min_value=2, max_value=5))
    def test_half_twist_square_is_central(self, n):
        delta2 = braid_pow(half_twist(n), 2)
        for k in range(1, n):
            g = sig(n, (k, 1))
            assert braids_equal(compose(delta2, g), compose(g, delta2))


class TestPerm:
    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, -1])), max_size=10))
    def test_perm_of_respects_composition(self, pairs):
        n = 5
        b = BraidWord(n, tuple(pairs))
        c = BraidWord(n, tuple(reversed([(i, -e) for i, e in pairs])))
        assert perm_of(compose(b, c)).is_identity()

    def test_half_twist_perm_reverses(self):
        for n in (2, 3, 4, 5):
            assert perm_of(half_twist(n)) == Perm.order_reversal(n)

    def test_is_pure_on_bands(self):
        assert is_pure(a_gen(2, 4, 4))
        assert not is_pure(sig(4, (2, 1)))


class TestBands:
    def test_band_is_conjugated_square(self):
        # A_{1,3} in B_3 equals sigma_2 sigma_1^2 sigma_2^-1.
        assert a_gen(1, 3, 3).letters == ((2, 1), (1, 1), (1, 1), (2, -1))

    def test_adjacent_band_is_square(self):
        assert a_gen(2, 3, 3).letters == ((2, 1), (2, 1))

    def test_bands_generate_pure_braids(self):
        assert is_pure(a_gen(2, 5, 5))

    def test_half_twist_square_equals_band_product(self):
        # Delta_3^2 = A12 A13 A23.
        lhs = braid_pow(half_twist(3), 2)
        rhs = compose(a_gen(1, 2, 3), compose(a_gen(1, 3, 3), a_gen(2, 3, 3)))
        assert braids_equal(lhs, rhs)
