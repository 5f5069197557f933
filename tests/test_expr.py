"""Parsing, printing, and evaluation of the token grammar."""

import pytest

from braidcalc.braids import BraidWord, band_power_letters, half_twist, is_pure, same_braid
from braidcalc.expr import (
    BandAtom,
    Commutator,
    Concat,
    NotAWordError,
    ParseError,
    Power,
    SigmaAtom,
    format_aword,
    format_braid,
    format_expression,
    parse,
    to_aword,
    to_braid,
    uses_only_bands,
)


class TestParsing:
    def test_atoms(self):
        assert parse("s2", 3) == SigmaAtom(2)
        assert parse("a1.3", 3) == BandAtom(1, 3)
        assert parse("s2'", 3) == Power(SigmaAtom(2), -1)
        assert parse("a1.3^-4", 3) == Power(BandAtom(1, 3), -4)

    def test_power_one_collapses(self):
        assert parse("s1^1", 3) == SigmaAtom(1)

    def test_empty_token(self):
        assert parse("e", 3) == Concat(())

    def test_concatenation(self):
        expr = parse("s1 s2' s1^2", 3)
        assert isinstance(expr, Concat)
        assert len(expr.parts) == 3

    def test_grouping_power(self):
        expr = parse("( s1 s2 )^2", 3)
        assert isinstance(expr, Power)
        assert expr.exp == 2

    def test_commutator(self):
        expr = parse("[ s1 , s2 ]", 3)
        assert expr == Commutator(SigmaAtom(1), SigmaAtom(2))

    def test_commutator_power(self):
        expr = parse("[ a1.2 , a1.3 ]^2", 3)
        assert isinstance(expr, Power)
        assert isinstance(expr.base, Commutator)


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
        b = to_braid(parse("s1 s2' s1^2", 3), 3)
        assert b.letters == ((1, 1), (2, -1), (1, 1), (1, 1))

    def test_commutator_letters(self):
        b = to_braid(parse("[ s1 , s2 ]", 3), 3)
        assert b.letters == ((1, -1), (2, -1), (1, 1), (2, 1))

    def test_half_twist_token(self):
        assert to_braid(parse("D", 3), 3) == half_twist(3)
        assert is_pure(to_braid(parse("D^2", 3), 3))

    def test_group_power_expands(self):
        b = to_braid(parse("( s1 s2 )^-1", 3), 3)
        assert b.letters == ((2, -1), (1, -1))

    def test_band_evaluation_matches_aword_realization(self):
        expr = parse("a1.3^2 a2.3' a1.2", 3)
        direct = to_braid(expr, 3)
        played = BraidWord(3, ())
        for sym, exp in to_aword(expr, 3).word.syllables:
            i, j = sym.index
            played = played * BraidWord(3, band_power_letters(i, j, exp))
        assert same_braid(direct, played)

    def test_to_aword_refuses_crossings(self):
        with pytest.raises(NotAWordError):
            to_aword(parse("s1 a1.2", 3), 3)

    def test_uses_only_bands(self):
        assert uses_only_bands(parse("[ a1.2 , a1.3^2 ]", 3))
        assert not uses_only_bands(parse("a1.2 s1", 3))
        assert not uses_only_bands(parse("D", 3))


class TestPrinting:
    def test_format_braid_merges_runs(self):
        b = BraidWord(3, ((1, 1), (1, 1), (2, -1)))
        assert format_braid(b) == "s1^2 s2'"
        assert format_braid(BraidWord(3, ())) == "e"

    def test_format_aword(self):
        w = to_aword(parse("a1.3^2 a2.3'", 3), 3)
        assert format_aword(w) == "a1.3^2 a2.3'"
        assert format_aword(to_aword(parse("e", 3), 3)) == "e"

    def test_expression_round_trip(self):
        for text in ["s1 s2' s1^2", "[ a1.2 , a1.3 ]^2", "( s1 s2 )^3", "e", "D'"]:
            expr = parse(text, 3)
            assert format_expression(expr) == text
            assert parse(format_expression(expr), 3) == expr

    def test_braid_print_parse_round_trip(self):
        b = to_braid(parse("s2 s1^3 s2' s1'", 4), 4)
        again = to_braid(parse(format_braid(b), 4), 4)
        assert same_braid(b, again)
