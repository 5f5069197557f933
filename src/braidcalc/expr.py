"""Token grammar for braid expressions, read straight to words.

Tokens are whitespace separated:

    s<i>        crossing sigma_i            s2
    s<i>'       inverse crossing            s2'
    a<i>.<j>    band generator A_(i,j)      a1.3
    D           half twist on all strands   D
    e           empty word
    ( ... )     grouping
    [ x , y ]   commutator x^-1 y^-1 x y
    tok^<k>     integer power, attached     s1^-2  a1.3^4  D^2  )^3  ]^2

A prime is shorthand for ^-1 and cannot be combined with an explicit
power.  Indices are validated against the declared strand count as
they are read, with character offsets in error messages.

parse reads the tokens once, left to right, evaluating as it goes.  A
text of bands alone becomes a PureAWord: a band a<i>.<j> is the pair
(i, j), each band syllable is pushed onto one reduced stack, and a
group is built apart only under ( ... )^k or [ , ], then joined back
with _join.  A text with any crossing or twist becomes a BraidWord
whose letters are its plain expansion: a band is
s_(j-1) .. s_(i+1) s_i^2 s_(i+1)^-1 .. s_(j-1)^-1, a power repeats its
base, and nothing cancels.  No band-only text
contains an s or a D, so the kind is known before the first token.
parse_bands, for commands that take band words only, runs the same
loop but only checks crossing text, building nothing: a ParseError
still comes first, then NotAWordError.

Words are checked once, where they enter the library: here, token by
token and again by the checked constructor that the reader returns through,
and in the public constructors and from_letters.  Words the
library builds from checked words skip the check through the private
GroupWord._unchecked, BraidWord._unchecked, PureAWord._unchecked and
CombedForm._unchecked: products, *, inverse, powers, face, coface,
to_braid, and comb and its single word.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Sequence

from .braids import BraidWord, band_power_letters, half_twist
from .combing import PureAWord
from .words import GroupWord, Syllable, _invert, _join, _pow

__all__ = [
    "NotAWordError",
    "ParseError",
    "format_aword",
    "format_braid",
    "parse",
    "parse_bands",
]


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        self.message = message
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class NotAWordError(ValueError):
    """The expression contains crossings or twists, not only bands."""


class _BadToken(Exception):
    """A bad atom token; the reader raises it again as a ParseError at its offset."""


_SIGMA = re.compile(r"s(\d+)(?:(')|\^(-?\d+))?$")
_BAND = re.compile(r"a(\d+)\.(\d+)(?:(')|\^(-?\d+))?$")
_TWIST = re.compile(r"D(?:(')|\^(-?\d+))?$")
_CLOSE = re.compile(r"([)\]])(?:\^(-?\d+))?$")
_NONZERO = "powers must be nonzero (use e for the empty word)"


def _offset(text: str, k: int) -> int:
    """Character offset of the k-th token; only errors need it."""
    return [m.start() for m in re.finditer(r"\S+", text)][k]


def _exponent(prime: str | None, power: str | None) -> int:
    if prime:
        return -1
    return 1 if power is None else int(power)


def _repeat(letters: Sequence[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    """Crossing letters of a base to the k-th power: repeated, never reduced."""
    if k < 0:
        return _invert(letters) * -k
    return list(letters) * k


def _atom(tok: str, n: int) -> tuple[str, tuple[int, ...], int]:
    """The kind ("s", "a" or "D"), indices and power of an atom token.

    Raises _BadToken with the ParseError message when the token is bad.
    """
    if m := _SIGMA.match(tok):
        i = int(m.group(1))
        if not 1 <= i <= n - 1:
            raise _BadToken(f"crossing index {i} out of range for n={n}")
        atom = ("s", (i,), _exponent(m.group(2), m.group(3)))
    elif m := _BAND.match(tok):
        i, j = int(m.group(1)), int(m.group(2))
        if not 1 <= i < j <= n:
            raise _BadToken(f"band ({i},{j}) out of range for n={n}")
        atom = ("a", (i, j), _exponent(m.group(3), m.group(4)))
    elif m := _TWIST.match(tok):
        atom = ("D", (), _exponent(m.group(1), m.group(2)))
    else:
        raise _BadToken(f"unrecognized token {tok!r}")
    if atom[2] == 0:
        raise _BadToken(_NONZERO)
    return atom


def _band(n: int, kind: str, index: tuple[int, ...], k: int) -> list[Syllable]:
    """The one syllable of a band atom in a band word."""
    return [(index, k)]


def _crossings(n: int, kind: str, index: tuple[int, ...], k: int) -> list[tuple[int, int]]:
    """The crossing letters of an atom; a band is its conjugated square, repeated."""
    if kind == "s":
        return [(index[0], 1 if k > 0 else -1)] * abs(k)
    return _repeat(band_power_letters(*index, 1) if kind == "a" else half_twist(n).letters, k)


def _skip(*_) -> tuple:
    """Build nothing: parse_bands only checks crossing text."""
    return ()


def parse(text: str, n: int) -> BraidWord | PureAWord:
    """Read an expression on n strands: a PureAWord if it uses bands alone, else a BraidWord."""
    return _read(text, n, None)


def parse_bands(text: str, n: int, refusal: str) -> PureAWord:
    """Read a band expression as parse does; raise NotAWordError(refusal) on crossings.

    A ParseError comes first, as in parse, but crossing text is only
    checked, never expanded, so a large crossing power is refused at once.
    """
    return _read(text, n, refusal)


def _read(text: str, n: int, refusal: str | None) -> BraidWord | PureAWord:
    """The one reader behind parse (refusal None) and parse_bands."""
    if n < 0:
        raise ValueError("strand count must be nonnegative")
    tokens = text.split()
    if not tokens:
        raise ParseError("empty input (use e for the empty word)", 0)
    crossing = "s" in text or "D" in text  # no band-only text has either
    if not crossing:
        join, power, letters = _join, _pow, _band
    elif refusal is None:
        join, power, letters = list.extend, _repeat, _crossings
    else:  # checked for a ParseError, never expanded
        join = power = letters = _skip
    # the run of each atom token read so far; one run may be joined many
    # times, so it is shared and join and power must never change it
    runs: dict[str, Sequence] = {}
    out: list = []
    # one frame per open group: (its closing token, the enclosing
    # buffer, the finished left side when it is a commutator)
    frames: list[tuple[str, list, list | None]] = []
    for pos, tok in enumerate(tokens):
        if tok == "(" or tok == "[":
            frames.append((")" if tok == "(" else ",", out, None))
            out = []
        elif tok == "e":
            continue
        elif frames and (tok == frames[-1][0] or tok.startswith(frames[-1][0] + "^")):
            stop, parent, left = frames.pop()
            if stop == ",":
                if tok != ",":
                    raise ParseError("expected , inside commutator", _offset(text, pos))
                frames.append(("]", parent, out))
                out = []
                continue
            m = _CLOSE.match(tok)
            if not m:
                raise ParseError(f"expected {stop}", _offset(text, pos))
            k = _exponent(None, m.group(2))
            if k == 0:
                raise ParseError(_NONZERO, _offset(text, pos))
            if left is not None:
                group = _invert(left)
                join(group, _invert(out))
                join(group, left)
                join(group, out)
                out = group
            join(parent, power(out, k))
            out = parent
        else:
            run = runs.get(tok)
            if run is None:
                try:
                    atom = _atom(tok, n)
                except _BadToken as e:
                    raise ParseError(str(e), _offset(text, pos)) from None
                run = runs[tok] = letters(n, *atom)
            join(out, run)
    if frames:
        raise ParseError("unexpected end of input", _offset(text, len(tokens) - 1))
    if not crossing:
        return PureAWord(n, GroupWord(tuple(out)))
    if refusal is not None:
        raise NotAWordError(refusal)
    return BraidWord(n, tuple(out))


def format_braid(b: BraidWord) -> str:
    """Print a crossing word in the token grammar (merging runs)."""
    out: list[str] = []
    idx = 0
    letters = b.letters
    while idx < len(letters):
        i, sign = letters[idx]
        run = sign
        idx += 1
        while idx < len(letters) and letters[idx][0] == i and (letters[idx][1] > 0) == (sign > 0):
            run += letters[idx][1]
            idx += 1
        if run == 1:
            out.append(f"s{i}")
        elif run == -1:
            out.append(f"s{i}'")
        else:
            out.append(f"s{i}^{run}")
    return " ".join(out) if out else "e"


def format_aword(w: PureAWord | GroupWord) -> str:
    """Print a band word in the token grammar."""
    word = w.word if isinstance(w, PureAWord) else w
    return " ".join(map(_band_token, word.syllables)) if word.syllables else "e"


@lru_cache(maxsize=4096)
def _band_token(syllable: Syllable) -> str:
    """The token of one band syllable; a word repeats few of them."""
    (i, j), exp = syllable
    if exp == 1:
        return f"a{i}.{j}"
    if exp == -1:
        return f"a{i}.{j}'"
    return f"a{i}.{j}^{exp}"
