"""Band-word builders against letterwise references.

Faces and cofaces of band words are built from symbol maps, and
products, substitutions and faces reduce only where reduced runs meet.
The references here apply the band rules one syllable at a time and
reduce the raw concatenation letter by letter (`from_letters`, or `*` left
to right); free reduction is confluent, so both must give the same
syllables, not merely equal braids.

The reader evaluates expression text in one pass.  Its band words are
checked against a left fold of `*`, `**` and `commutator` over the same
expression, and its crossing words against the plain letterwise
expansion: each band its conjugated square, each power its base
repeated, nothing cancelled.

Combing conjugates each band through the reduced subword of lower-level
input letters or through the lower components, whichever is shorter,
and memoises the images.  Its reference conjugates every incoming
syllable through the components u_2 .. u_{j-1}; each U_j is free, so
both must give the same components.  The letter count that the
conjugation carries must equal a recount of the reference image.

Words built from checked words skip the constructor checks; every such
word must still pass them when rebuilt through the checked constructor.
"""

from itertools import combinations
from typing import NamedTuple

from hypothesis import assume, example, given, settings, strategies as st

from braidcalc.braids import BraidWord, BudgetExceededError, same_braid
from braidcalc.combing import (
    CombedForm,
    PureAWord,
    _conjugate,
    comb,
    conj_rule,
)
from braidcalc.expr import format_aword, parse
from braidcalc.faces import coface_on_pure_gen
from braidcalc.lifting import _colex, _james_hopf
from braidcalc.words import GroupWord, a_sym, commutator

from artin_oracle import substitute
from conftest import aword, band_face


def face_reference(w: PureAWord, i: int) -> GroupWord:
    n = w.strands
    letters = []
    for sym, exp in w.word.syllables:
        faced = band_face(i, sym, n)
        if faced is not None:
            letters.append((faced, exp))
    return GroupWord.from_letters(f"A{n - 1}", letters)


def coface_reference(w: PureAWord, i: int) -> GroupWord:
    n = w.strands
    letters = [
        (a_sym(*coface_on_pure_gen(i, sym), n + 1), exp)
        for sym, exp in w.word.syllables
    ]
    return GroupWord.from_letters(f"A{n + 1}", letters)


def james_hopf_reference(k: int, n: int, b: PureAWord) -> GroupWord:
    ordered = sorted(combinations(range(1, n + 1), n - k), key=lambda t: t[::-1])
    word = GroupWord()
    for indices in ordered:
        factor = b
        for i in indices:
            factor = PureAWord(factor.strands + 1, coface_reference(factor, i))
        word = word * factor.word
    return word


def reference_conjugate(word: GroupWord, prefix, budget: int) -> GroupWord:
    """The word conjugated through the prefix syllables, one letter at a
    time; stops at the first image that passes the budget."""
    for h_sym, h_exp in prefix:
        sign = 1 if h_exp > 0 else -1
        for _ in range(abs(h_exp)):
            word = substitute(word, {t: conj_rule(h_sym, sign, t) for t, _ in word.syllables})
            if word.letter_count() > budget:
                return word
    return word


def reference_comb(w: PureAWord, component_budget: int) -> CombedForm:
    """Comb by conjugating each syllable through the combed lower components."""
    n = w.strands
    comps = [GroupWord() for _ in range(max(n - 1, 0))]
    for sym, exp in reversed(w.word.syllables):
        j = sym[1]
        prefix = [syl for comp in comps[:j - 2] for syl in comp.syllables]
        c = reference_conjugate(GroupWord.single(sym, exp), prefix, component_budget)
        if c.letter_count() > component_budget:
            raise BudgetExceededError("reference image passed the budget")
        comps[j - 2] = c * comps[j - 2]
        if comps[j - 2].letter_count() > component_budget:
            raise BudgetExceededError(f"reference u_{j} passed the budget")
    return CombedForm(n, tuple(comps))


def bands(n: int):
    return st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).map(
        lambda t: (min(t), max(t) + 1)
    )


@st.composite
def band_words(draw, min_strands=2, max_strands=7, max_syllables=12,
               exponents=(1, -1, 2, -3)):
    n = draw(st.integers(min_strands, max_strands))
    pairs = draw(st.lists(
        st.tuples(bands(n), st.sampled_from(exponents)).map(lambda t: (*t[0], t[1])),
        max_size=max_syllables,
    ))
    return aword(n, pairs)


class Text(NamedTuple):
    """Expression text with its references.

    kind says what a power attaches to: "atom" and "commutator" take
    ^k directly, anything else is grouped first.  word is the left fold
    over the bands, None once a crossing or twist occurs;
    letters is the letterwise crossing expansion.
    """

    text: str
    kind: str
    word: GroupWord | None
    letters: list


def band_letters(i: int, j: int) -> list:
    """A_(i,j): strand j swung over j-1..i+1, twisted round strand i, brought back."""
    return [(t, 1) for t in range(j - 1, i, -1)] + [(i, 1), (i, 1)] + [
        (t, -1) for t in range(i + 1, j)
    ]


def inverted(letters: list) -> list:
    return [(i, -sign) for i, sign in reversed(letters)]


def powered(base: Text, k: int) -> Text:
    if base.kind == "atom":
        text = base.text + ("'" if k == -1 else f"^{k}")
    elif base.kind == "commutator":
        text = f"{base.text}^{k}"
    else:
        text = f"( {base.text} )" + ("" if k == 1 else f"^{k}")
    word = None if base.word is None else base.word ** k
    letters = base.letters * k if k > 0 else inverted(base.letters) * -k
    return Text(text, "group", word, letters)


def concatenated(parts: list[Text]) -> Text:
    word = GroupWord()
    for part in parts:
        word = None if word is None or part.word is None else word * part.word
    text = " ".join(part.text for part in parts) or "e"
    return Text(text, "group", word, [x for part in parts for x in part.letters])


def commuted(left: Text, right: Text) -> Text:
    both = left.word is not None and right.word is not None
    return Text(
        f"[ {left.text} , {right.text} ]",
        "commutator",
        commutator(left.word, right.word) if both else None,
        inverted(left.letters) + inverted(right.letters) + left.letters + right.letters,
    )


@st.composite
def expressions(draw, crossings: bool):
    """Expression text over bands, e, ( ), [ , ] and powers; s and D too if crossings."""
    n = draw(st.integers(2, 7))
    leaves = [
        bands(n).map(lambda p: Text(
            f"a{p[0]}.{p[1]}", "atom", GroupWord.single(a_sym(*p, n)), band_letters(*p)
        )),
        st.just(Text("e", "group", GroupWord(), [])),
    ]
    if crossings:
        twist = [(i, 1) for top in range(n - 1, 0, -1) for i in range(1, top + 1)]
        leaves += [
            st.integers(1, n - 1).map(lambda i: Text(f"s{i}", "atom", None, [(i, 1)])),
            st.just(Text("D", "atom", None, twist)),
        ]
    tree = st.recursive(
        st.one_of(leaves),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from([-2, -1, 1, 2, 3])).map(lambda t: powered(*t)),
            st.lists(inner, max_size=5).map(lambda parts: concatenated(parts)),
            st.tuples(inner, inner).map(lambda t: commuted(*t)),
        ),
        max_leaves=16,
    )
    return draw(tree), n


def cut(word: PureAWord, points: list[int]) -> list[PureAWord]:
    """Split a word into subwords at the given letter positions.

    A cut may fall inside a syllable, so neighbouring pieces can merge.
    """
    n = word.strands
    letters = [
        (*sym, 1 if exp > 0 else -1)
        for sym, exp in word.word.syllables
        for _ in range(abs(exp))
    ]
    bounds = [0, *sorted(p % (len(letters) + 1) for p in points), len(letters)]
    return [aword(n, letters[a:b]) for a, b in zip(bounds, bounds[1:])]


@st.composite
def cancelling_factors(draw):
    """Factors u.., pieces of w, pieces of w^-1, v..: runs cancel across cuts."""
    n = draw(st.integers(2, 5))
    words = band_words(min_strands=n, max_strands=n, max_syllables=6)
    w = draw(words)
    points = st.lists(st.integers(0, 40), max_size=4)
    return n, [
        *draw(st.lists(words, max_size=2)),
        *cut(w, draw(points)),
        *cut(w.inverse(), draw(points)),
        *draw(st.lists(words, max_size=2)),
    ]


def raw_product(n: int, factors) -> GroupWord:
    return GroupWord.from_letters(
        f"A{n}", [syl for f in factors for syl in f.word.syllables]
    )


MERGING = aword(3, [(1, 3, 1), (1, 2, 1), (1, 3, 1)])
# Deleting strand 4 kills A1,4; the two A1,3 then cancel, which brings
# the two A1,2 together, and they cancel too: the face is e.
CASCADE = aword(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 3, -1), (1, 2, -1)])


class TestFaceMaps:
    def test_deleting_a_band_end_merges_its_neighbours(self):
        assert format_aword(MERGING.face(2)) == "a1.2^2"

    @settings(max_examples=150)
    @given(band_words())
    @example(PureAWord.identity(2))
    @example(MERGING)
    @example(CASCADE)
    def test_face_matches_letterwise_reference(self, w):
        for i in range(1, w.strands + 1):
            faced = w.face(i)
            assert faced.strands == w.strands - 1
            assert faced.word == face_reference(w, i)

    @settings(max_examples=150)
    @given(band_words())
    @example(PureAWord.identity(2))
    @example(MERGING)
    def test_coface_matches_letterwise_reference(self, w):
        for i in range(1, w.strands + 2):
            cofaced = w.coface(i)
            assert cofaced.strands == w.strands + 1
            assert cofaced.word == coface_reference(w, i)


class TestProducts:
    @settings(max_examples=200)
    @given(cancelling_factors(), st.lists(st.sampled_from((1, -1, 2, -3)), max_size=12))
    def test_joins_match_raw_concatenation(self, case, exps):
        n, factors = case
        expected = raw_product(n, factors)
        assert PureAWord.product(n, factors).word == expected
        folded = GroupWord()
        for f in factors:
            folded = folded * f.word
        assert folded == expected
        # A_(1,N)^(e_1) .. A_(m,N)^(e_m) with A_(k,N) sent to factor k on N
        # strands, so the images meet in the same order, each repeated |e_k| times
        m = len(factors)
        big = max(n, m + 1)
        exps = [*exps, *[1] * m][:m]
        embedded = [f.word for f in factors]  # the same bands on big strands
        source = GroupWord(tuple(
            (a_sym(k, big, big), e) for k, e in enumerate(exps, 1)
        ))
        mapping = {a_sym(k, big, big): f for k, f in enumerate(embedded, 1)}
        raw = []
        for f, e in zip(embedded, exps):
            syllables = f.syllables
            if e < 0:
                syllables = tuple((sym, -x) for sym, x in reversed(syllables))
            raw.extend(syllables * abs(e))
        substituted = substitute(source, mapping)
        assert substituted == GroupWord.from_letters(f"A{big}", raw)

    @settings(max_examples=60, deadline=None)
    @given(band_words(max_strands=4, max_syllables=6), st.integers(0, 3))
    @example(PureAWord.identity(2), 2)
    def test_james_hopf_matches_left_fold(self, b, extra):
        k = b.strands
        out = _james_hopf(k, k + extra, b, _colex)
        assert out.word == james_hopf_reference(k, k + extra, b)


class TestReader:
    @settings(max_examples=150)
    @given(expressions(crossings=False))
    @example((Text("e", "group", GroupWord(), []), 3))
    def test_band_text_matches_left_fold(self, case):
        expr, n = case
        assert parse(expr.text, n) == PureAWord(n, expr.word)

    @settings(max_examples=150)
    @given(expressions(crossings=True))
    @example((Text("a1.3^2 s1", "group", None, band_letters(1, 3) * 2 + [(1, 1)]), 3))
    def test_crossing_text_matches_letterwise_expansion(self, case):
        expr, n = case
        word = parse(expr.text, n)
        if expr.word is None:
            assert word == BraidWord(n, tuple(expr.letters))
        else:
            assert word == PureAWord(n, expr.word)


COMB_EXPONENTS = (1, -1, 2, -2, 3, -3)
# Small enough that the reference, whose components can be exponentially
# longer than the input, finishes or refuses within a second.
REFERENCE_BUDGET = 5000
# The A1,6 image passes the budget through the raw lower letters but not
# through the components; u_6 ends at 3,915 letters.
RAW_LETTERS_OVERFLOW = aword(6, [
    (1, 6, 1), (1, 3, 1), (1, 2, 2), (1, 5, 3), (1, 2, -2), (1, 5, 3), (2, 3, 1), (1, 5, -1),
])


@st.composite
def conjugations(draw):
    """A band of level 3..7 and a prefix of lower-level band syllables."""
    j = draw(st.integers(3, 7))
    band = (draw(st.integers(1, j - 1)), j)
    lower = st.integers(2, j - 1).flatmap(lambda s: st.tuples(st.integers(1, s - 1), st.just(s)))
    prefix = draw(st.lists(st.tuples(lower, st.sampled_from(COMB_EXPONENTS)), max_size=8))
    return band, prefix


class TestComb:
    @settings(max_examples=200, deadline=None)
    @given(conjugations())
    def test_conjugate_carries_its_letter_count(self, case):
        band, prefix = case
        image, letters = _conjugate(band, prefix, REFERENCE_BUDGET)
        expected = reference_conjugate(GroupWord.single(band), prefix, REFERENCE_BUDGET)
        assert GroupWord(tuple(image)) == expected
        assert letters == expected.letter_count()

    @settings(max_examples=200, deadline=None)
    @given(band_words(max_strands=6, max_syllables=12, exponents=COMB_EXPONENTS))
    @example(PureAWord.identity(2))
    @example(aword(4, [(1, 3, 1), (2, 4, 1)] * 6))
    @example(RAW_LETTERS_OVERFLOW)
    def test_comb_matches_reference(self, w):
        try:
            expected = reference_comb(w, REFERENCE_BUDGET)
        except BudgetExceededError:
            assume(False)
        assert comb(w, component_budget=REFERENCE_BUDGET) == expected

    @settings(max_examples=15, deadline=None)
    @given(band_words(max_strands=5, max_syllables=5, exponents=COMB_EXPONENTS))
    def test_verified_comb_matches_reference(self, w):
        try:
            expected = reference_comb(w, REFERENCE_BUDGET)
        except BudgetExceededError:
            assume(False)
        form = comb(w, component_budget=REFERENCE_BUDGET)
        assert same_braid(form.as_single_word(), w)
        assert form == expected


def rechecked(word):
    """Rebuild a word through its checked constructor, which raises on any flaw."""
    if isinstance(word, BraidWord):
        return BraidWord(word.strands, word.letters)
    if isinstance(word, PureAWord):
        return PureAWord(word.strands, rechecked(word.word))
    if isinstance(word, CombedForm):
        return CombedForm(word.strands, tuple(map(rechecked, word.components)))
    return GroupWord(word.syllables)


@st.composite
def crossing_words(draw, n: int):
    letters = draw(st.lists(
        st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=12
    ))
    return BraidWord(n, tuple(letters))


@st.composite
def word_sets(draw):
    """Two band words and two crossing words on one strand count in 2..6."""
    n = draw(st.integers(2, 6))
    bands_n = band_words(min_strands=n, max_strands=n, max_syllables=6,
                         exponents=COMB_EXPONENTS)
    return draw(bands_n), draw(bands_n), draw(crossing_words(n)), draw(crossing_words(n))


class TestBuiltWordsPassTheCheck:
    @settings(max_examples=150, deadline=None)
    @given(word_sets(), st.sampled_from((-3, -2, -1, 0, 1, 2, 3)))
    @example((CASCADE, CASCADE.inverse(), BraidWord(4, ((1, 1),)), BraidWord(4, ())), -2)
    def test_every_built_word_passes_the_check(self, words, k):
        a, b, x, y = words
        n = a.strands
        built = [
            a * b, a * a.inverse(), a.inverse(), a.to_braid(),
            PureAWord.product(n, (a, b, b.inverse(), a)),
            a.word ** k, substitute(a.word, {sym: b.word ** k for sym, _ in a.word.syllables}),
            x * y, x.inverse(), BraidWord.product(n, (x, y, x.inverse())),
            a.coface(1, n + 1), x.coface(1, n + 1),
        ]
        for w in (a, b, x):
            built += [w.face(i) for i in range(1, n + 1)]
            built += [w.coface(i) for i in range(1, n + 2)]
        try:
            form = comb(a * b, component_budget=REFERENCE_BUDGET)
        except BudgetExceededError:
            form = None
        if form is not None:
            built += [form, *form.components, form.as_single_word()]
        for w in built:
            assert rechecked(w) == w
