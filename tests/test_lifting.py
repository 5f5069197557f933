"""Coface images, spreads, James-Hopf products, decomposition, and the solver."""

import pytest

from braidcalc.braids import BraidWord, braid_pow, half_twist, is_pure, same_braid
from braidcalc.cohen import (
    NotCohenError,
    all_faces,
    band_commutator,
    delta_square_word,
    is_brunnian,
    is_cohen,
)
from braidcalc.combing import PureAWord
from braidcalc.lifting import (
    cohen_lift,
    full_lift,
    hopf_decompose,
    james_hopf,
    reassemble,
    solve_cohen_system,
    tau_spread,
)


def aw(n, *pairs):
    return PureAWord.from_pairs(n, list(pairs))


class TestSkips:
    def test_apply_skip_relabels_last_column(self):
        w = aw(3, (1, 3, 1), (2, 3, -1))
        out = w.coface(2).word
        assert str(out) == "A1,4 A3,4^-1"

    def test_apply_skip_rejects_early_columns(self):
        with pytest.raises(ValueError):
            tau_spread(3, 4, aw(3, (1, 2, 1)), check=False)


class TestCohenLift:
    def test_all_faces_recover_input(self):
        for (l, m) in [(1, 1), (2, 3)]:
            alpha = band_commutator(l, m)
            lifted = cohen_lift(alpha)
            assert lifted.strands == 4
            for i in range(1, 5):
                assert same_braid(lifted.face(i), alpha)

    def test_lift_rejects_non_brunnian(self):
        with pytest.raises(ValueError):
            cohen_lift(aw(3, (1, 3, 1)))


class TestSpreads:
    def test_tau_factor_order_is_printed_order(self):
        # tau_{2,3}(A12) has exactly two factors, one per skip index,
        # enumerated with the smallest skip index first.
        out = tau_spread(2, 3, aw(2, (1, 2, 1)))
        assert str(out.word) == "A2,3 A1,3"

    def test_tau_of_commutator_matches_pinned_word(self):
        # the three skip images of [A13, A23] into rank 4, in order
        lifted = tau_spread(3, 4, band_commutator(1, 1))
        assert str(lifted.word) == (
            "A2,4^-1 A3,4^-1 A2,4 A3,4 "
            "A1,4^-1 A3,4^-1 A1,4 A3,4 "
            "A1,4^-1 A2,4^-1 A1,4 A2,4"
        )

    def test_spread_faces_collapse_to_lower_spread(self):
        # deleting any strand but the last sends tau_{3,5} to tau_{3,4};
        # deleting the last strand kills every factor outright.
        alpha = band_commutator(2, 1)
        t5 = tau_spread(3, 5, alpha)
        t4 = tau_spread(3, 4, alpha)
        for i in range(1, 5):
            assert same_braid(t5.face(i), t4)
        last = t5.face(5)
        assert str(last.word) == "e"

    def test_full_lift_is_cohen(self):
        alpha = band_commutator(1, 2)
        big = full_lift(3, 5, alpha)
        assert big.strands == 5
        assert is_cohen(big)


class TestJamesHopf:
    def test_worked_example_letters(self):
        out = james_hopf(2, 4, aw(2, (1, 2, 1)))
        assert str(out.word) == "A3,4 A2,4 A1,4 A2,3 A1,3 A1,2"

    def test_powers_thread_through(self):
        out = james_hopf(2, 4, aw(2, (1, 2, 3)))
        assert str(out.word) == "A3,4^3 A2,4^3 A1,4^3 A2,3^3 A1,3^3 A1,2^3"

    def test_face_law(self):
        # d_i H_{k,n} = H_{k,n-1} on Brunnian input, k < n <= 5
        samples = {2: aw(2, (1, 2, 2)), 3: band_commutator(1, 1)}
        for k in (2, 3):
            for n in range(k + 1, 6):
                image = james_hopf(k, n, samples[k])
                lower = james_hopf(k, n - 1, samples[k]) if n - 1 > k else samples[k]
                for i in range(1, n + 1):
                    assert same_braid(image.face(i), lower)

    def test_braid_input_path(self):
        b = half_twist(2)
        out = james_hopf(2, 3, b)
        assert isinstance(out, BraidWord)
        assert out.strands == 3


class TestDecomposition:
    def test_half_twist_square_layers(self):
        layers = hopf_decompose(braid_pow(half_twist(3), 2))
        assert len(layers) == 3
        assert same_braid(layers[0], BraidWord(1, ()))
        assert same_braid(layers[1], half_twist(2).__class__(2, ((1, 1), (1, 1))))
        assert is_brunnian(layers[2])

    def test_reassemble_inverts_decompose(self):
        b = delta_square_word(3, 1) * band_commutator(1, 1)
        layers = hopf_decompose(b)
        assert same_braid(reassemble(layers, 3), b)

    def test_planted_layers_recovered(self):
        delta2 = aw(2, (1, 2, 2))
        delta3 = band_commutator(1, -1)
        planted = reassemble((PureAWord.identity(1), delta2, delta3), 3)
        got = hopf_decompose(planted)
        assert same_braid(got[1], delta2)
        assert same_braid(got[2], delta3)


class TestSolver:
    def test_pure_worked_example(self):
        beta = solve_cohen_system(aw(2, (1, 2, 1)), 3)
        assert str(beta.word) == "A2,3 A1,3 A1,2"
        for i in range(1, 4):
            assert same_braid(beta.face(i), aw(2, (1, 2, 1)))

    def test_nonpure_input(self):
        alpha = half_twist(2)  # single crossing; all faces empty
        beta = solve_cohen_system(alpha, 3)
        assert not is_pure(beta)
        for f in all_faces(beta):
            assert same_braid(f, alpha)

    def test_refusal_names_a_face_pair(self):
        with pytest.raises(NotCohenError) as exc:
            solve_cohen_system(aw(3, (1, 3, 1)), 4)
        assert exc.value.witness_indices in {(1, 2), (1, 3), (2, 3)}

    def test_full_lift_and_james_hopf_differ_on_five_strands(self):
        # two 60-letter band words whose quotient combs past the default
        # component budget
        w = band_commutator(2, -1)
        assert not same_braid(full_lift(3, 5, w), james_hopf(3, 5, w))

    def test_delta_power_solution(self):
        alpha = delta_square_word(3, 1)
        beta = solve_cohen_system(alpha, 4)
        for i in range(1, 5):
            assert same_braid(beta.face(i), alpha)
