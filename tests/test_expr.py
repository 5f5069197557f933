"""Reading, printing, and evaluation of the token grammar."""

import pytest

from braidcalc.braids import BraidWord, band_power_letters, half_twist, is_pure, same_braid
from braidcalc import expr
from braidcalc.combing import PureAWord
from braidcalc.expr import (
    NotAWordError,
    ParseError,
    format_aword,
    format_braid,
    parse,
    parse_bands,
)
from braidcalc.words import GroupWord, a_sym, commutator

from conftest import aword


def band_word(n, *pairs):
    return aword(n, list(pairs))


class TestParsing:
    def test_atoms(self):
        assert parse("s2", 3) == BraidWord(3, ((2, 1),))
        assert parse("a1.3", 3) == band_word(3, (1, 3, 1))
        assert parse("s2'", 3) == BraidWord(3, ((2, -1),))
        assert parse("a1.3^-4", 3) == band_word(3, (1, 3, -4))

    def test_power_one_collapses(self):
        assert parse("s1^1", 3) == parse("s1", 3) == BraidWord(3, ((1, 1),))

    def test_empty_token(self):
        assert parse("e", 3) == PureAWord.identity(3)

    def test_concatenation(self):
        assert parse("s1 s2' s1^2", 3).letters == ((1, 1), (2, -1), (1, 1), (1, 1))

    def test_grouping_power(self):
        assert parse("( s1 s2 )^2", 3).letters == ((1, 1), (2, 1)) * 2

    def test_commutator(self):
        assert parse("[ s1 , s2 ]", 3).letters == ((1, -1), (2, -1), (1, 1), (2, 1))

    def test_commutator_power(self):
        a12, a13 = (GroupWord.single(a_sym(i, j, 3)) for i, j in ((1, 2), (1, 3)))
        assert parse("[ a1.2 , a1.3 ]^2", 3) == PureAWord(3, commutator(a12, a13) ** 2)


class TestParseErrors:
    def test_crossing_index_zero(self):
        with pytest.raises(ParseError) as exc:
            parse("s0", 3)
        assert exc.value.offset == 0
        assert "out of range" in exc.value.message

    def test_crossing_index_too_large(self):
        with pytest.raises(ParseError) as exc:
            parse("s1 s3", 3)
        assert exc.value.offset == 3

    def test_band_needs_increasing_indices(self):
        with pytest.raises(ParseError):
            parse("a2.2", 3)
        with pytest.raises(ParseError):
            parse("a3.1", 3)

    def test_band_out_of_range(self):
        with pytest.raises(ParseError):
            parse("a1.4", 3)

    def test_zero_power(self):
        with pytest.raises(ParseError) as exc:
            parse("s1^0", 3)
        assert "nonzero" in exc.value.message

    def test_prime_cannot_take_power(self):
        with pytest.raises(ParseError) as exc:
            parse("s1'^2", 3)
        assert "unrecognized" in exc.value.message

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse("   ", 3)
        assert exc.value.offset == 0

    def test_unclosed_group(self):
        with pytest.raises(ParseError) as exc:
            parse("( s1 s2", 3)
        assert "unexpected end" in exc.value.message

    def test_mismatched_close(self):
        with pytest.raises(ParseError):
            parse("( s1 ]", 3)
        with pytest.raises(ParseError):
            parse("[ s1 , s2 )", 3)

    def test_stray_close(self):
        with pytest.raises(ParseError) as exc:
            parse("s1 )", 3)
        assert exc.value.offset == 3

    def test_unknown_token(self):
        with pytest.raises(ParseError) as exc:
            parse("s1 q7", 3)
        assert "unrecognized" in exc.value.message


class TestEvaluation:
    def test_sigma_word(self):
        b = parse("s1 s2' s1^2", 3)
        assert b.letters == ((1, 1), (2, -1), (1, 1), (1, 1))

    def test_commutator_letters(self):
        b = parse("[ s1 , s2 ]", 3)
        assert b.letters == ((1, -1), (2, -1), (1, 1), (2, 1))

    def test_half_twist_token(self):
        assert parse("D", 3) == half_twist(3)
        assert is_pure(parse("D^2", 3))

    def test_group_power_expands(self):
        b = parse("( s1 s2 )^-1", 3)
        assert b.letters == ((2, -1), (1, -1))

    def test_band_evaluation_matches_aword_realization(self):
        # a crossing makes the same bands read as crossing letters
        direct = parse("a1.3^2 a2.3' a1.2 s1 s1'", 3)
        played = BraidWord(3, ())
        for sym, exp in parse("a1.3^2 a2.3' a1.2", 3).word.syllables:
            i, j = sym
            played = played * BraidWord(3, band_power_letters(i, j, exp))
        assert isinstance(direct, BraidWord)
        assert same_braid(direct, played)

    def test_bands_under_a_crossing_expand_unmerged(self):
        # each band of a power is its own conjugated square
        b = parse("a1.3^2 s1", 3)
        assert b.letters == (band_power_letters(1, 3, 1) * 2) + ((1, 1),)

    def test_to_aword_refuses_crossings(self):
        # a crossing letter keeps the text off the band-word path: parse
        # gives a crossing word, and a reader that needs bands refuses it
        assert not isinstance(parse("s1 a1.2", 3), PureAWord)
        with pytest.raises(NotAWordError, match="bands only"):
            parse_bands("s1 a1.2", 3, "bands only")
        assert parse_bands("a1.2 a1.3", 3, "bands only") == band_word(3, (1, 2, 1), (1, 3, 1))

    def test_band_reader_checks_crossing_text_without_expanding_it(self, monkeypatch):
        # a syntax error still comes first, with the message and offset parse gives
        bad = ["s1^1000 a1.2 )", "( s1 a1.3^2", "D s3", "[ s1 ]"]
        expected = []
        for text in bad:
            with pytest.raises(ParseError) as full:
                parse(text, 3)
            expected.append((full.value.message, full.value.offset))

        def expand(*args):
            raise AssertionError("crossing text was expanded")

        monkeypatch.setattr(expr, "_crossings", expand)
        monkeypatch.setattr(expr, "_repeat", expand)
        with pytest.raises(NotAWordError, match="bands only"):
            parse_bands("( ( s1^1000 a1.3 )^1000 )^1000 [ D , a1.2 ]^-7", 3, "bands only")
        for text, error in zip(bad, expected):
            with pytest.raises(ParseError) as read:
                parse_bands(text, 3, "bands only")
            assert (read.value.message, read.value.offset) == error

    def test_uses_only_bands(self):
        # bands alone read as a reduced band word, any crossing or twist
        # makes the whole text a crossing word
        assert parse("[ a1.2 , a1.3^2 ]", 3) == band_word(
            3, (1, 2, -1), (1, 3, -2), (1, 2, 1), (1, 3, 2)
        )
        assert parse("a1.2 a1.2'", 3) == PureAWord.identity(3)
        assert isinstance(parse("a1.2 s1", 3), BraidWord)
        assert isinstance(parse("D", 3), BraidWord)
        assert isinstance(parse("a1.2 D", 3), BraidWord)


class TestPrinting:
    def test_format_braid_merges_runs(self):
        b = BraidWord(3, ((1, 1), (1, 1), (2, -1)))
        assert format_braid(b) == "s1^2 s2'"
        assert format_braid(BraidWord(3, ())) == "e"

    def test_format_aword(self):
        w = parse("a1.3^2 a2.3'", 3)
        assert format_aword(w) == "a1.3^2 a2.3'"
        assert format_aword(parse("e", 3)) == "e"

    def test_expression_round_trip(self):
        printed = {
            "s1 s2' s1^2": "s1 s2' s1^2",
            "[ a1.2 , a1.3 ]^2": "a1.2' a1.3' a1.2 a1.3 a1.2' a1.3' a1.2 a1.3",
            "( s1 s2 )^3": "s1 s2 s1 s2 s1 s2",
            "e": "e",
            "D'": "s1' s2' s1'",
        }
        for text, expected in printed.items():
            word = parse(text, 3)
            out = format_braid(word) if isinstance(word, BraidWord) else format_aword(word)
            assert out == expected
            assert parse(out, 3) == word

    def test_braid_print_parse_round_trip(self):
        b = parse("s2 s1^3 s2' s1'", 4)
        again = parse(format_braid(b), 4)
        assert same_braid(b, again)


def band_token(i, j, k):
    return f"a{i}.{j}" + ("" if k == 1 else "'" if k == -1 else f"^{k}")


class TestTables:
    """An atom token is read once per strand count; both tables stay bounded."""

    def test_a_second_read_reads_no_token_again(self):
        text = "s1 s2' ( s1 a1.3^2 )^3 [ D , s2 ]"
        first = parse(text, 3)
        misses = expr._atom.cache_info().misses
        assert parse(text, 3) == first
        assert expr._atom.cache_info().misses == misses

    def test_a_bad_token_raises_alike_on_every_read(self):
        for text, offset in [("s9", 0), ("s1 s9", 3), ("s9", 0), ("( s1 s9 )^2", 5)]:
            with pytest.raises(ParseError) as exc:
                parse(text, 3)
            assert exc.value.message == "crossing index 9 out of range for n=3"
            assert exc.value.offset == offset

    def test_a_band_read_on_more_strands_is_checked_again(self):
        assert parse("a1.4", 4) == band_word(4, (1, 4, 1))
        with pytest.raises(ParseError) as exc:
            parse("a1.4", 3)
        assert exc.value.message == "band (1,4) out of range for n=3"
        assert exc.value.offset == 0

    def test_the_atom_table_is_bounded(self):
        for n in range(2, 5002):
            parse("s1", n)
        info = expr._atom.cache_info()
        assert info.currsize == info.maxsize == 4096

    def test_the_band_token_table_is_bounded(self):
        # one word with more distinct syllables than the table holds, then many short ones
        long = [(1, 2 + k % 2, k + 1) for k in range(5000)]
        short = [[(1, 2, k), (2, 3, -k)] for k in range(2, 3000)]
        for triples in [long, *short, long, [(1, 3, 2), (2, 3, -1)]]:
            printed = format_aword(band_word(3, *triples))
            assert printed == " ".join(band_token(*t) for t in triples)
            assert len(expr._BAND_TOKENS) <= 4096
