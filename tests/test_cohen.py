"""Cohen, Brunnian, generalized, and unary predicates plus constructors."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from braidcalc.braids import BraidWord, half_twist, same_braid
from braidcalc.cohen import (
    NotCohenError,
    StrandPartition,
    band_commutator,
    brunnian_generator,
    common_face,
    delta_square_word,
    is_brunnian,
    is_cohen,
    is_generalized_cohen,
    is_unary,
    unary_factor,
)
from braidcalc.combing import PureAWord, comb
from braidcalc.expr import format_aword
from braidcalc.lifting import full_lift, hopf_decompose, reassemble
from braidcalc.words import GroupWord, a_sym, commutator

from conftest import (
    aword,
    band_braid,
    P3CohenForm,
    P3Refusal,
    abelianize,
    braid_pow,
    cohen_p3_decompose,
    random_pure_aword,
    split_power_word,
)


def aw(n, *pairs):
    return aword(n, list(pairs))


@dataclass(frozen=True)
class CommutatorTree:
    """Formal commutator over band-power leaves, for the covering test.

    A leaf is (i, j, exp); an inner node holds two subtrees and denotes
    the commutator of their values.
    """

    leaf: tuple[int, int, int] | None = None
    left: CommutatorTree | None = None
    right: CommutatorTree | None = None

    def __post_init__(self) -> None:
        if (self.leaf is None) == (self.left is None or self.right is None):
            raise ValueError("node must be either a leaf or have two children")

    @classmethod
    def band(cls, i: int, j: int, exp: int = 1) -> CommutatorTree:
        return cls(leaf=(i, j, exp))

    @classmethod
    def bracket(cls, left: CommutatorTree, right: CommutatorTree) -> CommutatorTree:
        return cls(left=left, right=right)

    def index_set(self) -> frozenset[int]:
        if self.leaf is not None:
            return frozenset(self.leaf[:2])
        return self.left.index_set() | self.right.index_set()

    def evaluate(self, n: int) -> PureAWord:
        return PureAWord(n, self._word(n))

    def _word(self, n: int) -> GroupWord:
        if self.leaf is not None:
            i, j, exp = self.leaf
            if exp == 0:
                return GroupWord()
            return GroupWord.single(a_sym(i, j, n), exp)
        return commutator(self.left._word(n), self.right._word(n))


def all_indices_commutator_check(tree, n):
    """Brunnian test for a formal commutator, with the covering guarantee.

    When the leaf indices cover {1..n} the evaluated braid must be
    Brunnian; that implication is asserted.  Returns is_brunnian of the
    evaluated word either way.
    """
    value = is_brunnian(tree.evaluate(n))
    if tree.index_set() == frozenset(range(1, n + 1)):
        assert value, "a commutator whose indices cover every strand must be Brunnian"
    return value


def cohen_commutator_certificate(b):
    """Necessary condition for a pure braid to be Cohen.

    After combing and removing the central full-twist contribution
    (read off u_2 = A_12^k), every component must abelianize to zero.
    This is necessary but not assumed sufficient.
    """
    form = comb(b)
    n = b.strands
    if n < 2:
        return True
    k = sum(exp for _, exp in form.component(2).syllables)
    return all(
        abelianize(form.component(j)).get(a_sym(i, j, n), 0) == k
        for j in range(3, n + 1)
        for i in range(1, j)
    )


class TestPredicates:
    def test_half_twist_square_is_cohen_not_brunnian(self):
        b = braid_pow(half_twist(3), 2)
        assert is_cohen(b)
        assert not is_brunnian(b)
        assert same_braid(common_face(b), band_braid(1, 2, 2))

    def test_single_band_is_not_cohen(self):
        with pytest.raises(NotCohenError) as exc:
            common_face(aw(3, (1, 3, 1)))
        i, j = exc.value.witness_indices
        assert i < j
        fi, fj = exc.value.witness_faces
        assert not same_braid(fi, fj)

    def test_band_commutator_is_brunnian(self):
        for (l, m) in [(1, 1), (2, 3), (-1, 2)]:
            w = band_commutator(l, m)
            assert is_brunnian(w)
            assert is_cohen(w)
            f = common_face(w)
            assert same_braid(f, f.identity(f.strands))

    def test_brunnian_implies_cohen_on_samples(self, rng):
        for _ in range(5):
            conj = [
                random_pure_aword(rng, 4, 2).word
                for _ in range(3)
            ]
            # restrict conjugators to the last column as required
            conj = [
                GroupWord.from_letters(
                    "A4",
                    [(a_sym(s[0], 4, 4), e) for s, e in u.syllables if s[1] == 4],
                )
                for u in conj
            ]
            g = brunnian_generator(4, conjugators=conj)
            assert is_brunnian(g)
            assert is_cohen(g)

    def test_conjugator_off_the_last_column_rejected(self):
        for band in ((1, 3), (1, 5), (4, 4), (0, 4)):
            conj = [GroupWord(), GroupWord.single(band), GroupWord()]
            with pytest.raises(ValueError, match="not a last-column band"):
                brunnian_generator(4, conjugators=conj)

    def test_extra_top_band_breaks_cohen(self):
        # faces 1..n-2 keep the extra band and faces n-1, n delete it, so
        # the exponent sums of the faces differ
        w = band_commutator(2, -1)
        for n in (6, 7, 8):
            b = full_lift(3, n, w) * aw(n, (n - 1, n, 1))
            assert not is_cohen(b)

    def test_nonpure_half_twist_is_cohen(self):
        d = half_twist(3)
        assert is_cohen(d)
        assert same_braid(common_face(d), half_twist(2))


class TestGeneralized:
    def test_partition_validation(self):
        cases = [
            ([[1, 2], [2, 3]], "strand 2 appears in two blocks"),
            ([[0, 1]], "strand 0 out of range for n=4"),
            ([[]], "empty block"),
            ([[1, 3, 1]], "strand 1 appears twice in one block"),
        ]
        for blocks, message in cases:
            with pytest.raises(ValueError, match=message):
                StrandPartition(4, blocks)
        with pytest.raises(ValueError, match="strand count must be nonnegative"):
            StrandPartition(-1, ())

    def test_blocks_are_kept_as_sets(self):
        assert StrandPartition(4, [[2, 1], [4]]) == StrandPartition(4, ((1, 2), (4,)))
        assert StrandPartition(4, [[2, 1]]).blocks == (frozenset({1, 2}),)

    def test_blockwise_agreement(self):
        b = braid_pow(half_twist(4), 2)
        assert is_generalized_cohen(b, StrandPartition(4, [[1, 2], [3, 4]]))
        assert is_generalized_cohen(b, StrandPartition(4, [[1, 2, 3, 4]]))

    def test_singleton_blocks_always_pass(self):
        w = aw(3, (1, 3, 1))
        assert is_generalized_cohen(w, StrandPartition(3, [[1], [2], [3]]))

    def test_failing_block(self):
        w = aw(3, (1, 3, 1))
        assert not is_generalized_cohen(w, StrandPartition(3, [[1, 2, 3]]))


class TestUnary:
    def test_staircase_is_unary(self):
        b = BraidWord(3, ((1, 1), (2, 1)))
        assert is_unary(b)
        f = unary_factor(b)
        assert same_braid(f, f.identity(f.strands))

    def test_unary_factor_reconstructs_the_braid(self):
        from braidcalc.braids import is_pure

        staircase = BraidWord(3, ((1, 1), (2, 1)))
        b = staircase * band_braid(2, 3, 3)
        assert is_unary(b)
        factor = unary_factor(b)
        assert is_pure(factor)
        assert same_braid(factor * staircase, b)

    def test_wrong_permutation_is_not_unary(self):
        assert not is_unary(BraidWord(3, ((2, 1), (1, 1), (1, 1))))

    def test_zero_strands_are_not_unary(self):
        assert not is_unary(BraidWord(0))

    def test_unary_factor_refuses_a_braid_that_is_not_unary(self):
        with pytest.raises(ValueError, match="^not a unary braid$"):
            unary_factor(BraidWord(3, ((1, 1), (1, 1))))


class TestConstructors:
    def test_delta_square_word_matches_half_twist(self):
        for n in (3, 4):
            for k in (1, 2):
                assert same_braid(
                    delta_square_word(n, k).to_braid(),
                    braid_pow(half_twist(n), 2 * k),
                )

    def test_split_power_word_syllables(self):
        w = split_power_word(3, 2)
        assert format_aword(w) == "a1.2^2 a1.3^2 a2.3^2"

    def test_commutator_tree_evaluates(self):
        t = CommutatorTree.bracket(
            CommutatorTree.band(1, 3, 2), CommutatorTree.band(2, 3, 3)
        )
        assert t.index_set() == frozenset({1, 2, 3})
        assert same_braid(t.evaluate(3), band_commutator(2, 3))

    def test_full_index_commutator_is_brunnian(self):
        t = CommutatorTree.bracket(
            CommutatorTree.bracket(
                CommutatorTree.band(1, 4), CommutatorTree.band(2, 4)
            ),
            CommutatorTree.band(3, 4),
        )
        assert all_indices_commutator_check(t, 4)

    def test_partial_index_commutator_fails_check(self):
        t = CommutatorTree.bracket(
            CommutatorTree.band(1, 4), CommutatorTree.band(2, 4)
        )
        assert not all_indices_commutator_check(t, 4)


class TestP3Structure:
    def test_accepts_central_power_times_commutator(self):
        for k in (1, 2):
            gamma = band_commutator(1, -2)
            b = delta_square_word(3, k) * gamma
            out = cohen_p3_decompose(b)
            assert isinstance(out, P3CohenForm)
            assert out.k == k
            assert is_brunnian(PureAWord(3, out.gamma))

    def test_refuses_pure_non_cohen(self):
        for (k, l) in [(1, 0), (0, 2), (2, 1)]:
            b = aw(3, (1, 3, k), (2, 3, l)) if k and l else (
                aw(3, (1, 3, k)) if k else aw(3, (2, 3, l))
            )
            out = cohen_p3_decompose(b)
            assert isinstance(out, P3Refusal)
            assert out.violations

    def test_twist_exponent_is_the_exponent_sum_of_delta_2(self, rng):
        last_col = [a_sym(1, 3, 3), a_sym(2, 3, 3)]

        def word():
            return GroupWord.from_letters("A3", [
                (rng.choice(last_col), rng.choice((1, -1, 2, -2)))
                for _ in range(rng.randint(1, 4))
            ])

        for _ in range(60):
            k = rng.randint(-3, 3)
            delta_3 = GroupWord()
            for _ in range(rng.randint(0, 2)):
                delta_3 = delta_3 * commutator(word(), word())
            layers = (PureAWord.identity(1), aw(2, (1, 2, k)), PureAWord(3, delta_3))
            b = reassemble(layers, 3)
            form = cohen_p3_decompose(b)
            assert isinstance(form, P3CohenForm)
            delta_2 = hopf_decompose(b)[1]
            assert form.k == sum(exp for _, exp in delta_2.word.syllables)

    def test_certificate_matches_decomposition(self):
        good = delta_square_word(3, 2) * band_commutator(2, 1)
        assert cohen_commutator_certificate(good)
        assert not cohen_commutator_certificate(aw(3, (1, 3, 1)))
