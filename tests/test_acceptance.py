"""Acceptance gate: end-to-end identities the library must satisfy.

Each test pins one headline property at zero tolerance (oracle
equality, never approximate).  The Cohen elements that tests 3 through
12 certify are built once per session by the ``certified`` fixture;
those tests check what it built, and the final test checks closure
properties over the whole population, so every test also runs alone.

Known red: test_05 asserts that the combed three-strand commutator
matches a published reference word letter for letter.  The computed
form disagrees with that reference in a single syllable sign, and the
reference word cannot be correct as printed: its exponent sum over the
band A_{2,3} is 2, while any commutator abelianizes to zero.  The
computed word passes the round-trip oracle check, so the assertion is
left in place to record the discrepancy rather than silently swapping
in our own value as "the" reference.
"""

import random
from itertools import combinations

import pytest

from braidcalc.braids import (
    BraidWord,
    Perm,
    half_twist,
    is_pure,
    same_braid,
)
from braidcalc.cohen import (
    NotCohenError,
    band_commutator,
    brunnian_generator,
    common_face,
    delta_square_word,
    is_brunnian,
    is_cohen,
)
from braidcalc.combing import (
    PureAWord,
    comb,
)
from braidcalc.expr import format_aword
from braidcalc.finite_models import (
    build_p2_rp2,
    derive_rp2_face_assignments,
    enumerate_brunnian,
    enumerate_cohen,
    h_element_check,
)
from braidcalc.lifting import (
    full_lift,
    hopf_decompose,
    james_hopf,
    reassemble,
    solve_cohen_system,
)
from braidcalc.words import GroupWord, a_sym, commutator

from conftest import (
    P3CohenForm,
    P3Refusal,
    abelianize,
    aword,
    braid_pow,
    cohen_p3_decompose,
    split_power_word,
)

RNG_SEED = 0xACCE


def random_braid(rng, n, max_len=30):
    length = rng.randint(0, max_len)
    letters = tuple(
        (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(n, letters)


def random_band_word(rng, n, max_sylls=12):
    pairs = []
    for _ in range(rng.randint(0, max_sylls)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        pairs.append((i, j, rng.choice((1, -1))))
    return aword(n, pairs)


def comm_band(pairs, l, m, rank):
    """Product of commutators [A_{a,b}^l, A_{c,d}^m] over listed pairs."""
    acc = GroupWord()
    for (a, b), (c, d) in pairs:
        x = GroupWord.single(a_sym(a, b, rank)) ** l
        y = GroupWord.single(a_sym(c, d, rank)) ** m
        acc = acc * commutator(x, y)
    return acc


def gamma_word(n: int) -> PureAWord:
    """[c_2, c_3] where c_k is the split k-th power word on n strands."""
    return PureAWord(
        n, commutator(split_power_word(n, 2).word, split_power_word(n, 3).word)
    )


def _build_lifts():
    """(l, m, alpha, one-strand lift, full lift to five strands)."""
    out = []
    for l, m in [(1, 1), (2, 3)]:
        alpha = band_commutator(l, m)
        out.append((l, m, alpha, full_lift(3, 4, alpha), full_lift(3, 5, alpha)))
    return out


def _build_generator_lifts():
    """Twenty sampled Brunnian generators (conjugators of length at most
    two) on four and five strands, each with its one-strand lift."""
    rng = random.Random(RNG_SEED + 8)
    out = []
    for n in (4, 5):
        alphabet_syms = [a_sym(i, n, n) for i in range(1, n)]
        for _ in range(10):
            order = list(range(1, n))
            rng.shuffle(order)
            conjugators = []
            for _ in range(n - 1):
                u = GroupWord()
                for _ in range(rng.randint(0, 2)):
                    u = u * GroupWord.single(rng.choice(alphabet_syms), rng.choice((1, -1)))
                conjugators.append(u)
            w = brunnian_generator(n, perm=order, conjugators=conjugators)
            out.append((w, full_lift(n, n + 1, w)))
    return out


def _build_hopf_images():
    """(k, n, w, james_hopf(k, n, w)) over Brunnian samples on k strands."""
    samples = {
        2: [aword(2, [(1, 2, 1)]),
            aword(2, [(1, 2, -2)])],
        3: [band_commutator(1, 1), band_commutator(2, -1)],
        4: [brunnian_generator(4), brunnian_generator(4, perm=(2, 1, 3))],
    }
    return [
        (k, n, w, james_hopf(k, n, w))
        for k, ws in samples.items()
        for n in range(k + 1, 6)
        for w in ws
    ]


def _build_planted():
    """Fifty (layers, reassembled braid) pairs on four strands."""
    rng = random.Random(RNG_SEED + 10)
    last_col = [a_sym(i, 4, 4) for i in (1, 2, 3)]
    out = []
    for _ in range(50):
        d1 = PureAWord.identity(1)
        d2 = aword(2, [(1, 2, rng.randint(-2, 2))])
        l = rng.choice((1, -1, 2))
        m = rng.choice((1, -1, 2))
        d3 = band_commutator(l, m)
        conjugators = []
        for _ in range(3):
            u = GroupWord()
            if rng.random() < 0.5:
                u = GroupWord.single(rng.choice(last_col), rng.choice((1, -1)))
            conjugators.append(u)
        d4 = brunnian_generator(4, conjugators=conjugators)
        planted = (d1, d2, d3, d4)
        out.append((planted, reassemble(planted, 4)))
    return out


def _build_solved_pure():
    """Eighteen (pure Cohen 3-braid, solver answer on four strands)."""
    rng = random.Random(RNG_SEED + 11)
    out = []
    for _ in range(18):
        alpha = delta_square_word(3, rng.randint(1, 2))
        alpha = alpha * band_commutator(rng.choice((1, 2)), rng.choice((1, -1)))
        if rng.random() < 0.5:
            alpha = alpha * band_commutator(1, 1).inverse()
        out.append((alpha, solve_cohen_system(alpha, 4)))
    return out


def _build_solved_nonpure():
    """Seven (non-pure Cohen 3-braid, solver answer on four strands).

    Non-pure inputs stay short: oracle verification of the faces costs
    exponentially in word length, and these sizes already exercise the
    half-twist reduction for positive, negative, and higher odd powers.
    """
    tails = [
        BraidWord(3, ()),
        delta_square_word(3, 1).to_braid(),
        band_commutator(1, 1).to_braid(),
    ]
    nonpure = [braid_pow(half_twist(3), odd) * tails[0] for odd in (1, -1, 3)]
    nonpure += [braid_pow(half_twist(3), odd) * tails[1] for odd in (1, -1)]
    nonpure += [braid_pow(half_twist(3), odd) * tails[2] for odd in (1, -1)]
    return [(alpha, solve_cohen_system(alpha, 4)) for alpha in nonpure]


def _build_p3_words():
    """Ten (k, full twist to the k times a commutator) on three strands."""
    rng = random.Random(RNG_SEED + 12)
    last_col = [a_sym(1, 3, 3), a_sym(2, 3, 3)]
    out = []
    for _ in range(10):
        u = GroupWord()
        v = GroupWord()
        for _ in range(rng.randint(1, 3)):
            u = u * GroupWord.single(rng.choice(last_col), rng.choice((1, -1)))
            v = v * GroupWord.single(rng.choice(last_col), rng.choice((1, -1)))
        gamma = commutator(u, v)
        k = rng.randint(0, 2)
        out.append((k, delta_square_word(3, k) * PureAWord(3, gamma)))
    return out


@pytest.fixture(scope="session")
def certified():
    """What tests 3 through 12 build, built once per session.

    "population" lists every Cohen element among them, in test order;
    test_14 checks closure properties over it.
    """
    built = {
        "twists": [(n, k, delta_square_word(n, k)) for n in (3, 4, 5) for k in (1, 2)],
        "splits": [split_power_word(4, k) for k in (1, 2, 3)],
        "gammas": (gamma_word(3), gamma_word(4)),
        "lifts": _build_lifts(),
        "generator_lifts": _build_generator_lifts(),
        "hopf_images": _build_hopf_images(),
        "planted": _build_planted(),
        "solved_pure": _build_solved_pure(),
        "solved_nonpure": _build_solved_nonpure(),
        "p3_words": _build_p3_words(),
    }
    built["population"] = [
        *(word for _, _, word in built["twists"]),
        *built["splits"],
        *built["gammas"],
        *(x for _, _, _, tilde, beta in built["lifts"] for x in (tilde, beta)),
        *(lifted for _, lifted in built["generator_lifts"]),
        *(image for _, _, _, image in built["hopf_images"]),
        *(a for trial, (_, a) in enumerate(built["planted"]) if trial % 7 == 0),
        *(
            x
            for trial, pair in enumerate(built["solved_pure"])
            for x in (pair if trial < 5 else pair[:1])
        ),
        *(alpha for alpha, _ in built["solved_nonpure"]),
        *(b for _, b in built["p3_words"]),
    ]
    return built


def test_01_bidelta_identity_suite():
    """Deletion and insertion satisfy the three rewrite families.

    Two deletions reorder as d_j d_i = d_i d_(j+1) for j >= i, two
    insertions as (up)_j (up)_i = (up)_(i+1) (up)_j for j <= i, and
    deleting a freshly inserted strand is the identity.  The remaining
    mixed family, moving a deletion past an unrelated insertion, only
    makes sense where strand positions are not permuted, so it is
    sampled over pure braids; the two-strand crossing pins the failure
    outside the pure subgroup.
    """
    rng = random.Random(RNG_SEED)
    insertion_maps_agree: dict[tuple[int, int, int], bool] = {}

    def insertions_agree_on_generators(n, i, j):
        key = (n, i, j)
        if key not in insertion_maps_agree:
            ok = True
            for t in range(1, n):
                g = BraidWord(n, ((t, 1),))
                ok = ok and same_braid(
                    g.coface(i).coface(j),
                    g.coface(j).coface(i + 1),
                )
            insertion_maps_agree[key] = ok
        return insertion_maps_agree[key]

    for _ in range(1000):
        n = rng.randint(3, 6)
        b = random_braid(rng, n)

        i = rng.randint(1, n - 1)
        j = rng.randint(i, n - 1)
        lhs = b.face(i).face(j)
        rhs = b.face(j + 1).face(i)
        assert lhs.letters == rhs.letters

        i = rng.randint(1, n + 1)
        j = rng.randint(1, i)
        lhs = b.coface(i).coface(j)
        rhs = b.coface(j).coface(i + 1)
        # insertion is a homomorphism, so agreement on every generator
        # settles agreement on the word when letters differ cosmetically
        assert lhs.letters == rhs.letters or insertions_agree_on_generators(n, i, j)

        i = rng.randint(1, n + 1)
        assert b.coface(i).face(i).letters == b.letters

    for _ in range(1000):
        n = rng.randint(3, 6)
        w = random_band_word(rng, n)
        i = rng.randint(1, n + 1)
        j = rng.choice([x for x in range(1, n + 2) if x != i])
        lhs = w.coface(i).face(j)
        if j < i:
            rhs = w.face(j).coface(i - 1)
        else:
            rhs = w.face(j - 1).coface(i)
        assert lhs.word == rhs.word or same_braid(lhs, rhs)

    # the mixed rule genuinely fails on non-pure input: deleting strand 1
    # after inserting at 2 keeps the crossing, the other order loses it
    s1 = BraidWord(2, ((1, 1),))
    kept = s1.coface(2).face(1)
    lost = s1.face(1).coface(1)
    assert kept.letters == ((1, 1),)
    assert lost.letters == ()
    assert not same_braid(kept, lost)


def test_02_oracle_soundness_and_twisted_rule():
    """The equality oracle accepts both defining relations, separates
    four small elements pairwise, and deletion obeys the twisted
    product rule d_i(bg) = d_i(b) d_(perm_b(i))(g)."""
    s = lambda *ls: BraidWord(3, tuple(ls))
    assert same_braid(s((1, 1), (2, 1), (1, 1)), s((2, 1), (1, 1), (2, 1)))
    far = BraidWord(4, ((1, 1), (3, 1)))
    raf = BraidWord(4, ((3, 1), (1, 1)))
    assert same_braid(far, raf)

    quad = [s(), s((1, 1)), s((2, 1)), s((1, 1), (2, 1))]
    for a, b in combinations(quad, 2):
        assert not same_braid(a, b)

    rng = random.Random(RNG_SEED + 2)
    for _ in range(500):
        n = rng.randint(3, 6)
        b = random_braid(rng, n, max_len=20)
        g = random_braid(rng, n, max_len=20)
        i = rng.randint(1, n)
        lhs = (b * g).face(i)
        rhs = b.face(i) * g.face(b.perm()(i))
        assert lhs.letters == rhs.letters or same_braid(lhs, rhs)


def test_03_full_twist_product_formula(certified):
    """Even powers of the half twist expand into the ordered band
    product, and the split power words are Cohen."""
    for n, k, word in certified["twists"]:
        assert same_braid(braid_pow(half_twist(n), 2 * k), word.to_braid())
    for word in certified["splits"]:
        assert is_cohen(word)


def test_04_half_twist_conjugate_faces():
    """The crossing-conjugated half twist equals s2 s1^2, whose faces
    are exactly s1, s1^2, and the empty braid, so conjugation moves
    the half twist off its own face pattern."""
    d3 = half_twist(3)
    conj = BraidWord(3, ((1, -1),)) * d3 * BraidWord(3, ((1, 1),))
    canonical = BraidWord(3, ((2, 1), (1, 1), (1, 1)))
    assert same_braid(conj, canonical)
    assert canonical.face(1).letters == ((1, 1),)
    assert canonical.face(2).letters == ((1, 1), (1, 1))
    assert canonical.face(3).letters == ()
    for i in (1, 2, 3):
        assert same_braid(conj.face(i), canonical.face(i))


def test_05_three_strand_commutator_normal_form():
    """Combing [c2, c3] on three strands: the first component vanishes
    and the second is a fixed 15-syllable word.

    The reference word below is transcribed from print.  Its A_{2,3}
    exponents sum to 2, which no commutator value can do, so the
    eleventh syllable's sign is evidently a typo; the assertion is kept
    as written and fails, recording the discrepancy openly.  The
    computed form is verified against the braid oracle instead of
    against any human transcription.
    """
    gamma3 = gamma_word(3)
    form = comb(gamma3)
    assert same_braid(form.as_single_word(), gamma3)
    assert form.component(2).is_identity()

    computed = PureAWord(3, form.component(3))
    reference = aword(
        3,
        [
            (2, 3, -2), (1, 3, -1), (2, 3, 1), (1, 3, 1), (2, 3, -2),
            (1, 3, -2), (2, 3, 1), (1, 3, 2), (2, 3, 1), (1, 3, -1),
            (2, 3, 1), (1, 3, -1), (2, 3, -1), (1, 3, 2), (2, 3, 3),
        ],
    )
    print(f"computed  u3: {computed.word}")
    print(f"reference u3: {reference.word}")
    print(f"exact string match: {str(computed.word) == str(reference.word)}")
    assert same_braid(computed, reference)


def test_06_four_strand_certificate(certified):
    """All four faces of [c2, c3] on four strands are the three-strand
    value, which is nontrivial: a Cohen braid that is not Brunnian."""
    gamma3, gamma4 = certified["gammas"]
    for i in range(1, 5):
        assert same_braid(gamma4.face(i), gamma3)
    assert not same_braid(gamma3, gamma3.identity(gamma3.strands))
    assert is_cohen(gamma4)
    assert not is_brunnian(gamma4)


def test_07_lifting_identities(certified):
    """One-strand lifts match their printed commutator products letter
    for letter, every face of the four-strand lift is the input, and
    every face of the five-strand lift is the four-strand lift."""
    for l, m, alpha, tilde, beta in certified["lifts"]:
        expected4 = comm_band(
            [((1, 3), (2, 3)), ((2, 4), (3, 4)), ((1, 4), (3, 4)), ((1, 4), (2, 4))],
            l, m, 4,
        )
        assert tilde.word == expected4
        for i in range(1, 5):
            assert same_braid(tilde.face(i), alpha)

        tail = comm_band(
            [((3, 5), (4, 5)), ((2, 5), (4, 5)), ((2, 5), (3, 5)),
             ((1, 5), (4, 5)), ((1, 5), (3, 5)), ((1, 5), (2, 5))],
            l, m, 5,
        )
        assert beta.word == tilde.word * tail
        for i in range(1, 6):
            assert same_braid(beta.face(i), tilde)


def test_08_lifting_lemma_samples(certified):
    """Lifting twenty sampled Brunnian generators (conjugators of
    length at most two) gives words whose every face is the input."""
    for w, lifted in certified["generator_lifts"]:
        n = w.strands
        assert lifted.strands == n + 1
        for i in range(1, n + 2):
            assert same_braid(lifted.face(i), w)


def test_09_james_hopf_example_and_face_law(certified):
    """H_{2,4} of the two-strand band is the fixed six-band product,
    and faces step the operation down one rank on Brunnian input."""
    image = james_hopf(2, 4, aword(2, [(1, 2, 1)]))
    assert format_aword(image) == "a3.4 a2.4 a1.4 a2.3 a1.3 a1.2"

    for k, n, w, image in certified["hopf_images"]:
        lower = james_hopf(k, n - 1, w)
        for i in range(1, n + 1):
            assert same_braid(image.face(i), lower)


def test_10_hopf_decomposition_round_trip(certified):
    """Fifty braids planted as products of layered operation images
    decompose back into the planted layers and reassemble exactly."""
    for planted, a in certified["planted"]:
        got = hopf_decompose(a)
        assert len(got) == 4
        assert got[0].is_identity()
        for want, have in zip(planted[1:], got[1:]):
            assert same_braid(want, have)
        assert same_braid(reassemble(got, 4), a)


def test_11_cohen_system_solver(certified):
    """The solver produces a braid one strand up whose every face is
    the given Cohen braid, for pure and non-pure inputs alike, and
    refuses non-Cohen input with a witness face pair."""
    for alpha, beta in certified["solved_pure"]:
        assert is_cohen(alpha)
        for i in range(1, 5):
            assert same_braid(beta.face(i), alpha)

    assert len(certified["solved_nonpure"]) == 7
    for alpha, beta in certified["solved_nonpure"]:
        assert not is_pure(alpha)
        assert is_cohen(alpha)
        for i in range(1, 5):
            assert same_braid(beta.face(i), alpha)

    sour = aword(3, [(1, 3, 1)])
    with pytest.raises(NotCohenError) as exc:
        solve_cohen_system(sour, 4)
    i, j = exc.value.witness_indices
    face_i, face_j = exc.value.witness_faces
    assert i != j
    assert not same_braid(face_i, face_j)


def test_12_three_strand_cohen_structure(certified):
    """Every central twist power times a commutator-subgroup element is
    accepted and reconstructed; pure band powers with mismatched
    exponents are refused with the leftover exponents as witnesses."""
    for k, b in certified["p3_words"]:
        form = cohen_p3_decompose(b)
        assert isinstance(form, P3CohenForm)
        assert form.k == k
        assert not abelianize(form.gamma)
        rebuilt = delta_square_word(3, form.k) * PureAWord(3, form.gamma)
        assert same_braid(b, rebuilt)

    for k in range(-2, 3):
        for l in range(-2, 3):
            if (k, l) == (0, 0):
                continue
            bad = aword(3, [(1, 3, k), (2, 3, l)])
            form = cohen_p3_decompose(bad)
            assert isinstance(form, P3Refusal)
            assert form.violations
            assert form.violations.get("A1,3", 0) == k
            assert form.violations.get("A2,3", 0) == l


def test_13_projective_plane_model():
    """Exhaustive enumeration of the quaternion model: two Brunnian
    elements, a cyclic order-four Cohen subgroup, a unique face
    assignment up to swapping, and the product ru lands Cohen."""
    m = build_p2_rp2()
    assert enumerate_brunnian(m) == ["e", "u2"]
    cohen = enumerate_cohen(m)
    assert cohen == ["e", "u2", "ru", "ru3"]
    assert m.order("ru") == 4
    acc, powers = "ru", {"ru"}
    for _ in range(3):
        acc = m.mul(acc, "ru")
        powers.add(acc)
    assert powers == set(cohen)

    survivors = derive_rp2_face_assignments()
    assert survivors == [("r", "u"), ("u", "r")]
    assert {frozenset(s) for s in survivors} == {frozenset(("r", "u"))}
    assert h_element_check(m, "r", "u")


def test_14_cohen_subgroup_properties(certified):
    """Over every Cohen element certified by the earlier tests:
    inverses stay Cohen, sampled products stay Cohen with the common
    face multiplying along, and permutations are the identity or the
    order reversal."""
    population = certified["population"]
    assert len(population) >= 60

    for x in population:
        assert is_cohen(x.inverse())

    for x in population:
        braid = x.to_braid()
        pm = braid.perm()
        assert pm == Perm.identity(braid.strands) or pm == Perm.order_reversal(
            braid.strands
        )

    rng = random.Random(RNG_SEED + 14)
    groups: dict[tuple[type, int], list] = {}
    for x in population:
        groups.setdefault((type(x), x.strands), []).append(x)
    keys = [k for k, xs in groups.items() if len(xs) >= 2]
    for _ in range(30):
        a, b = rng.sample(groups[rng.choice(keys)], 2)
        prod = a * b
        assert is_cohen(prod)
        assert same_braid(common_face(prod), common_face(a) * common_face(b))
