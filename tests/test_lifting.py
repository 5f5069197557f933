"""Coface images, spreads, James-Hopf products, decomposition, and the solver."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from braidcalc import lifting
from braidcalc.braids import BraidWord, half_twist, is_pure, same_braid
from braidcalc.cohen import (
    NotCohenError,
    band_commutator,
    brunnian_generator,
    common_face,
    delta_square_word,
    is_brunnian,
    is_cohen,
)
from braidcalc.combing import PureAWord
from braidcalc.expr import format_aword
from braidcalc.lifting import (
    _colex,
    _face_chain,
    _hopf_layers,
    _james_hopf,
    _reassemble,
    _spread,
    full_lift,
    hopf_decompose,
    james_hopf,
    reassemble,
    solve_cohen_system,
    tau_spread,
)

from conftest import aword, braid_pow, signed_brunnian
from punctured import Punctured, view


def aw(n, *pairs):
    return aword(n, list(pairs))


class TestSkips:
    def test_apply_skip_relabels_last_column(self):
        w = aw(3, (1, 3, 1), (2, 3, -1))
        out = w.coface(2).word
        assert format_aword(out) == "a1.4 a3.4'"

    def test_apply_skip_rejects_early_columns(self):
        with pytest.raises(ValueError, match="expected a word in the bands"):
            tau_spread(3, 4, aw(3, (1, 2, 1)))


class TestCohenLift:
    def test_all_faces_recover_input(self):
        for (l, m) in [(1, 1), (2, 3)]:
            alpha = band_commutator(l, m)
            lifted = full_lift(3, 4, alpha)
            assert lifted.strands == 4
            for i in range(1, 5):
                assert same_braid(lifted.face(i), alpha)

    def test_lift_rejects_non_brunnian(self):
        with pytest.raises(ValueError):
            full_lift(3, 4, aw(3, (1, 3, 1)))


class TestSpreads:
    def test_tau_factor_order_is_printed_order(self):
        # tau_{2,3}(A12) has exactly two factors, one per skip index,
        # enumerated with the smallest skip index first.
        out = tau_spread(2, 3, aw(2, (1, 2, 1)))
        assert format_aword(out) == "a2.3 a1.3"

    def test_tau_of_commutator_matches_pinned_word(self):
        # the three skip images of [A13, A23] into rank 4, in order
        lifted = tau_spread(3, 4, band_commutator(1, 1))
        assert format_aword(lifted) == (
            "a2.4' a3.4' a2.4 a3.4 "
            "a1.4' a3.4' a1.4 a3.4 "
            "a1.4' a2.4' a1.4 a2.4"
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
        assert format_aword(last) == "e"

    def test_full_lift_is_cohen(self):
        alpha = band_commutator(1, 2)
        big = full_lift(3, 5, alpha)
        assert big.strands == 5
        assert is_cohen(big)


class TestJamesHopf:
    def test_worked_example_letters(self):
        out = james_hopf(2, 4, aw(2, (1, 2, 1)))
        assert format_aword(out) == "a3.4 a2.4 a1.4 a2.3 a1.3 a1.2"

    def test_powers_thread_through(self):
        out = james_hopf(2, 4, aw(2, (1, 2, 3)))
        assert format_aword(out) == "a3.4^3 a2.4^3 a1.4^3 a2.3^3 a1.3^3 a1.2^3"

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

    @pytest.mark.parametrize("order", [_colex, _spread])
    def test_empty_layer_takes_no_coface(self, order, monkeypatch):
        def refuse(self, *positions):
            raise AssertionError("a coface of the empty word was taken")

        for cls in (BraidWord, PureAWord):
            monkeypatch.setattr(cls, "coface", refuse)
            for k in range(1, 5):
                for n in range(k, 7):
                    assert _james_hopf(k, n, cls.identity(k), order) == cls.identity(n)


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

    def test_reassemble_inverts_decompose_on_zero_to_four_strands(self):
        # a k-strand layer has no James-Hopf factor on fewer than k
        # strands, so a 0-strand word reassembles from its 1-strand delta_1
        words = [PureAWord.identity(n) for n in range(5)]
        words += [BraidWord(n, ()) for n in range(5)]
        words += [delta_square_word(n, k) for n in (2, 3, 4) for k in (1, -2)]
        words += [band_commutator(1, -1), full_lift(3, 4, band_commutator(2, 1))]
        for a in words:
            assert reassemble(hopf_decompose(a), a.strands) == a
        for n in (2, 3, 4):
            a = braid_pow(half_twist(n), 2)
            assert same_braid(reassemble(hopf_decompose(a), n), a)

    def test_reassemble_needs_a_layer(self):
        with pytest.raises(ValueError, match="at least one layer"):
            reassemble([], 3)

    def test_reassemble_checks_each_layer_strand_count(self):
        # an empty layer contributes no factors, so its strand count is
        # checked before the product
        for empty in (PureAWord.identity(3), BraidWord(3, ())):
            with pytest.raises(ValueError, match="layer 2 has 3 strands"):
                reassemble([empty.identity(1), empty], 3)

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
        assert format_aword(beta) == "a2.3 a1.3 a1.2"
        for i in range(1, 4):
            assert same_braid(beta.face(i), aw(2, (1, 2, 1)))

    def test_nonpure_input(self):
        alpha = half_twist(2)  # single crossing; all faces empty
        beta = solve_cohen_system(alpha, 3)
        assert not is_pure(beta)
        for f in beta.faces():
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


class TestSpreadOrder:
    @pytest.mark.parametrize("m", [3, 4])
    def test_spread_product_is_the_full_lift(self, m):
        w = brunnian_generator(m)
        for n in range(m, m + 3):
            image = _james_hopf(m, n, w, _spread)
            assert image == full_lift(m, n, w)
            lower = _james_hopf(m, n - 1, w, _spread) if n > m else None
            for f in image.faces():
                if lower is None:
                    assert same_braid(f, f.identity(f.strands))
                else:
                    assert same_braid(f, lower)

    @pytest.mark.parametrize("m", [3, 4])
    def test_spread_layers_of_a_full_lift_are_empty_but_the_source(self, m):
        for w in (brunnian_generator(m), signed_brunnian(random.Random(m), m)):
            for n in range(m, 7):
                a = full_lift(m, n, w)
                layers = list(_hopf_layers(_face_chain(a, common_face(a)), _spread))
                assert len(layers) == n
                assert layers[m - 1] == w
                for k, layer in enumerate(layers, start=1):
                    if k != m:
                        assert layer == PureAWord.identity(k)

    def test_spread_and_colex_hold_the_same_factors(self):
        for n in range(1, 7):
            for r in range(n + 1):
                assert sorted(_spread(n, r)) == sorted(_colex(n, r))


@st.composite
def last_column_words(draw):
    """A word in the bands A_(i,m) of P_m, m = 0..5, Brunnian or not."""
    m = draw(st.integers(0, 5))
    if m >= 2 and draw(st.booleans()):
        return signed_brunnian(random.Random(draw(st.integers(0, 2**32))), m)
    pairs = draw(st.lists(
        st.tuples(st.integers(1, max(m - 1, 1)), st.sampled_from((1, -1, 2, -3))),
        max_size=6 if m >= 2 else 0,
    ))
    return aw(m, *((i, m, e) for i, e in pairs))


class TestLiftReferences:
    """full_lift against the explicit products it is defined to equal."""

    @settings(deadline=None, max_examples=60)
    @given(last_column_words())
    def test_one_strand_lift_is_the_coface_product(self, w):
        # d^(m+1)(w) d^1(w) .. d^m(w)
        m = w.strands
        factors = (w.coface(i) for i in (m + 1, *range(1, m + 1)))
        assert full_lift(m, m + 1, w, check=False) == PureAWord.product(m + 1, factors)

    @settings(deadline=None, max_examples=60)
    @given(last_column_words(), st.integers(0, 3))
    def test_full_lift_is_the_nested_spread_product(self, w, extra):
        m = w.strands
        n = m + extra

        def spread(k):
            # tau_(m,k)(w), read on n strands: lexicographic insertions
            factors = (w.coface(*ins) for ins in combinations(range(1, k), k - m))
            return PureAWord(n, PureAWord.product(k, factors).word)

        spreads = (spread(k) for k in range(m, n + 1))
        assert full_lift(m, n, w, check=False) == PureAWord.product(n, spreads)

    def test_checks_come_in_their_order(self):
        # the rank range, then Brunnian, then the strand count, then the bands
        cases = [
            ((3, 2, band_commutator(1, 1)), "need 0 <= m <= n"),
            ((3, 4, aw(3, (1, 2, 1))), "requires a Brunnian input"),
            ((2, 4, aw(3, (1, 3, 1))), "requires a Brunnian input"),
            ((2, 4, band_commutator(1, 1), False), "strand count disagrees"),
            ((3, 4, aw(3, (1, 2, 1)), False), "expected a word in the bands"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                full_lift(*args)


def _signed_layers(seed, n, k=0):
    """Brunnian layers delta_1 .. delta_n, each drawn or trivial.

    On the disk less k points, layer m is a disk-Brunnian word on m + k
    strands, which all its faces kill.  On the disk, delta_1 is trivial.
    """
    rng = random.Random(seed)
    return [
        view(k, signed_brunnian(rng, m + k) if rng.random() < 0.8
             else PureAWord.identity(m + k))
        for m in range(1, n + 1)
    ]


def _bound(layers, n):
    return sum(comb(n, k) * d.letter_count() for k, d in enumerate(layers, start=1))


class TestSolverOrder:
    @pytest.mark.parametrize("n,letters", [(4, 60), (5, 120), (6, 210)])
    def test_full_lift_is_solved_by_the_next_full_lift(self, n, letters):
        w = band_commutator(2, -1)
        beta = solve_cohen_system(full_lift(3, n, w), n + 1)
        assert beta == full_lift(3, n + 1, w)
        assert beta.letter_count() == letters

    def test_tie_goes_to_colex(self):
        # both orders give the single layer w, so the bounds tie
        w = band_commutator(2, -1)
        beta = solve_cohen_system(w, 4)
        assert beta == james_hopf(3, 4, w)
        assert beta != full_lift(3, 4, w)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32), st.integers(3, 5), st.integers(0, 2))
    def test_the_smaller_bound_wins(self, seed, n, k):
        a = reassemble(_signed_layers(seed, n, k), n)
        beta = solve_cohen_system(a, n + 1)
        colex = hopf_decompose(a)
        spread = tuple(_hopf_layers(_face_chain(a, common_face(a)), _spread))
        if _bound(spread, n + 1) < _bound(colex, n + 1):
            assert beta == _reassemble(spread, n + 1, _spread)
        else:
            assert beta == reassemble(colex, n + 1)

    @pytest.mark.parametrize("a,shorter", [
        (reassemble(_signed_layers(7, 4), 4).to_braid(), _colex),
        (full_lift(3, 4, band_commutator(2, -1)).to_braid(), _spread),
    ], ids=["colex-shorter", "spread-shorter"])
    def test_crossing_words_race_both_orders(self, a, shorter):
        n = a.strands + 1
        colex = hopf_decompose(a)
        spread = tuple(_hopf_layers(_face_chain(a, common_face(a)), _spread))
        assert (_bound(spread, n) < _bound(colex, n)) == (shorter is _spread)
        beta = solve_cohen_system(a, n)
        assert beta == _reassemble(colex if shorter is _colex else spread, n, shorter)
        assert all(same_braid(f, a) for f in beta.faces())

    def test_refusal_names_the_top_faces(self):
        # the faces of the top rank disagree; the chain stops there
        a = full_lift(3, 5, band_commutator(2, -1)) * aw(5, (4, 5, 1))
        with pytest.raises(NotCohenError) as exc:
            solve_cohen_system(a, 6)
        assert exc.value.witness_indices == (1, 4)
        assert exc.value.witness_faces[0].strands == 4


class TestLayerChecks:
    """The solver checks that the layers it keeps are Brunnian, and only those."""

    @staticmethod
    def counting(monkeypatch, verdict=lambda b: True):
        seen = []

        def is_brunnian(b):
            seen.append(b)
            return verdict(b)

        monkeypatch.setattr(lifting, "is_brunnian", is_brunnian)
        return seen

    def test_solver_checks_only_the_winners_nonempty_layers(self, monkeypatch):
        w = band_commutator(2, -1)
        a, want = full_lift(3, 5, w), full_lift(3, 6, w)
        seen = self.counting(monkeypatch)
        # spread wins, and its only nonempty layer is w
        assert solve_cohen_system(a, 6) == want
        assert seen == [w]

    def test_loser_layers_are_not_read(self, monkeypatch):
        w = band_commutator(2, -1)
        a, want = full_lift(3, 5, w), full_lift(3, 6, w)
        colex = hopf_decompose(a)
        assert sum(not d.is_identity() for d in colex) > 1
        # every layer but w fails; only colex has such layers, and colex loses
        seen = self.counting(monkeypatch, lambda b: b == w)
        assert solve_cohen_system(a, 6) == want
        assert seen == [w]

    def test_decompose_checks_all_its_nonempty_layers(self, monkeypatch):
        a = full_lift(3, 5, band_commutator(2, -1))
        layers = hopf_decompose(a)
        seen = self.counting(monkeypatch)
        assert hopf_decompose(a) == layers
        assert seen == [d for d in layers if not d.is_identity()]

    def test_a_bad_winning_layer_still_raises(self, monkeypatch):
        w = band_commutator(2, -1)
        a = full_lift(3, 5, w)
        layers = hopf_decompose(a)
        self.counting(monkeypatch, lambda b: b != w)
        with pytest.raises(AssertionError, match="delta_3 is not Brunnian"):
            solve_cohen_system(a, 6)
        self.counting(monkeypatch, lambda b: b != layers[-1])
        with pytest.raises(AssertionError, match="delta_5 is not Brunnian"):
            hopf_decompose(a)


class TestFaceChain:
    def test_one_face_per_rank_below_the_top(self, monkeypatch):
        a = full_lift(3, 6, band_commutator(2, -1))
        calls = []
        face, faces = PureAWord.face, PureAWord.faces

        def count_face(self, i):
            calls.append(("face", self.strands, i))
            return face(self, i)

        def count_faces(self):
            calls.append(("faces", self.strands))
            return faces(self)

        monkeypatch.setattr(PureAWord, "face", count_face)
        monkeypatch.setattr(PureAWord, "faces", count_faces)
        below = common_face(a)
        assert calls == [("faces", 6)]
        chain = _face_chain(a, below)
        assert [c.strands for c in chain] == [1, 2, 3, 4, 5, 6]
        assert calls[1:] == [
            ("face", 5, 1), ("face", 4, 1), ("face", 3, 1), ("face", 2, 1),
        ]

    @pytest.mark.parametrize("a", [
        half_twist(3),
        half_twist(4) * full_lift(3, 4, band_commutator(2, -1)).to_braid(),
        full_lift(3, 5, band_commutator(2, -1)),
        solve_cohen_system(Punctured(1, aw(2, (1, 2, 1))), 2),
    ], ids=["twist-3", "twisted-lift-4", "lift-5", "annulus-2"])
    def test_the_solver_compares_the_input_faces_once(self, monkeypatch, a):
        seen = []

        def counting(b):
            seen.append(b)
            return common_face(b)

        monkeypatch.setattr(lifting, "common_face", counting)
        beta = solve_cohen_system(a, a.strands + 1)
        assert seen == [a]
        assert all(same_braid(f, a) for f in beta.faces())

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32), st.integers(3, 6), st.integers(0, 2))
    def test_every_rank_below_a_cohen_top_is_cohen(self, seed, n, k):
        a = reassemble(_signed_layers(seed, n, k), n)
        chain = _face_chain(a, common_face(a))
        assert chain[-1] == a
        for lower, upper in zip(chain, chain[1:]):
            assert is_cohen(lower)
            assert common_face(upper) == lower


def _punctured_word(rng, k, m):
    """Up to 8 letters A_(i,j)^(+-1), j > k, on m moving strands less k points."""
    n = m + k
    bands = [(i, j) for j in range(max(k + 1, 2), n + 1) for i in range(1, j)]
    letters = [] if not bands else [
        (*rng.choice(bands), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))
    ]
    return view(k, aword(n, letters))


def _is_trivial(b):
    return same_braid(b, b.identity(b.strands))


class TestPuncturedDisk:
    """The solver on the disk less k points, through the Punctured view.

    k = 0 is the disk and the plain word type; k = 1 is the annulus,
    whose P_1 is Z, so its chain bottom delta_1 = a_1 need not be trivial.
    """

    @pytest.mark.parametrize("k", [0, 1, 2])
    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32), st.integers(1, 4))
    def test_solved_exactly_when_cohen(self, k, seed, m):
        a = _punctured_word(random.Random(seed), k, m)
        if not is_cohen(a):
            with pytest.raises(NotCohenError) as exc:
                solve_cohen_system(a, m + 1)
            assert not same_braid(*exc.value.witness_faces)
            return
        beta = solve_cohen_system(a, m + 1)
        assert all(same_braid(f, a) for f in beta.faces())
        punctures = beta
        while punctures.strands:
            punctures = punctures.face(1)
        assert _is_trivial(punctures)
        assert same_braid(reassemble(hopf_decompose(a), m), a)

    @pytest.mark.parametrize("k", [1, 2])
    def test_the_draws_reach_past_the_disk(self, k):
        # Cohen inputs that are not Cohen on the disk, and Cohen inputs
        # whose common face is not trivial, both occur
        rng = random.Random(k)
        cohen = not_disk_cohen = nontrivial = 0
        for _ in range(1000):
            a = _punctured_word(rng, k, rng.randint(2, 4))
            if is_cohen(a):
                cohen += 1
                not_disk_cohen += not is_cohen(a.word)
                nontrivial += not _is_trivial(common_face(a))
        assert min(cohen, not_disk_cohen, nontrivial) >= 10

    @pytest.mark.parametrize("e", [1, -2, 3])
    def test_a_loop_round_the_puncture_lifts_to_five_strands(self, e):
        # A1,2^e is the 1-strand annulus braid that circles the puncture
        a = Punctured(1, aw(2, (1, 2, e)))
        for m in range(2, 6):
            beta = solve_cohen_system(a, m)
            assert beta.strands == m
            assert all(same_braid(f, a) for f in beta.faces())
            assert hopf_decompose(beta)[0] == Punctured(1, aw(2, (1, 2, e)))
            a = beta
