"""Token grammar for braid expressions.

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
power.  Indices are validated against the declared strand count at
parse time, with character offsets in error messages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .braids import BraidWord, band_power_letters, braid_pow, half_twist
from .combing import PureAWord
from .words import GroupWord, a_alphabet, a_sym, commutator

__all__ = [
    "BandAtom",
    "Commutator",
    "Concat",
    "Expression",
    "NotAWordError",
    "ParseError",
    "Power",
    "SigmaAtom",
    "TwistAtom",
    "format_aword",
    "format_braid",
    "format_expression",
    "parse",
    "to_aword",
    "to_braid",
    "uses_only_bands",
]


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        self.message = message
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class NotAWordError(ValueError):
    """The expression contains crossings or twists, not only bands."""


@dataclass(frozen=True)
class SigmaAtom:
    index: int


@dataclass(frozen=True)
class BandAtom:
    i: int
    j: int


@dataclass(frozen=True)
class TwistAtom:
    pass


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exp: int


@dataclass(frozen=True)
class Concat:
    parts: tuple["Expression", ...]


@dataclass(frozen=True)
class Commutator:
    left: "Expression"
    right: "Expression"


Expression = Union[SigmaAtom, BandAtom, TwistAtom, Power, Concat, Commutator]

_SIGMA = re.compile(r"s(\d+)(?:(')|\^(-?\d+))?$")
_BAND = re.compile(r"a(\d+)\.(\d+)(?:(')|\^(-?\d+))?$")
_TWIST = re.compile(r"D(?:(')|\^(-?\d+))?$")
_CLOSE = re.compile(r"([)\]])(?:\^(-?\d+))?$")


def _wrap_power(node: Expression, prime: str | None, power: str | None, offset: int) -> Expression:
    if prime:
        return Power(node, -1)
    if power is not None:
        k = int(power)
        if k == 0:
            raise ParseError("powers must be nonzero (use e for the empty word)", offset)
        if k == 1:
            return node
        return Power(node, k)
    return node


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = [(m.group(0), m.start()) for m in re.finditer(r"\S+", text)]
        self.pos = 0
        self.n = n

    def peek(self) -> tuple[str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.tokens[-1][1] if self.tokens else 0)
        self.pos += 1
        return tok

    def parse(self) -> Expression:
        node = self.sequence(stoppers=())
        if self.pos != len(self.tokens):
            tok, off = self.tokens[self.pos]
            raise ParseError(f"unexpected token {tok!r}", off)
        return node

    def sequence(self, stoppers: tuple[str, ...]) -> Expression:
        parts: list[Expression] = []
        while True:
            tok = self.peek()
            if tok is None or tok[0].split("^")[0] in stoppers or tok[0] in stoppers:
                break
            parts.append(self.item())
        if not parts:
            return Concat(())
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def item(self) -> Expression:
        tok, off = self.take()
        if tok == "(":
            inner = self.sequence(stoppers=(")",))
            close, coff = self.take()
            m = _CLOSE.match(close)
            if not m or m.group(1) != ")":
                raise ParseError("expected )", coff)
            return _wrap_power(inner, None, m.group(2), coff)
        if tok == "[":
            left = self.sequence(stoppers=(",",))
            comma, coff = self.take()
            if comma != ",":
                raise ParseError("expected , inside commutator", coff)
            right = self.sequence(stoppers=("]",))
            close, coff = self.take()
            m = _CLOSE.match(close)
            if not m or m.group(1) != "]":
                raise ParseError("expected ]", coff)
            return _wrap_power(Commutator(left, right), None, m.group(2), coff)
        if tok == "e":
            return Concat(())
        m = _SIGMA.match(tok)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= self.n - 1:
                raise ParseError(f"crossing index {i} out of range for n={self.n}", off)
            return _wrap_power(SigmaAtom(i), m.group(2), m.group(3), off)
        m = _BAND.match(tok)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            if not 1 <= i < j <= self.n:
                raise ParseError(f"band ({i},{j}) out of range for n={self.n}", off)
            return _wrap_power(BandAtom(i, j), m.group(3), m.group(4), off)
        m = _TWIST.match(tok)
        if m:
            return _wrap_power(TwistAtom(), m.group(1), m.group(2), off)
        raise ParseError(f"unrecognized token {tok!r}", off)


def parse(text: str, n: int) -> Expression:
    """Parse an expression for a braid on n strands."""
    if n < 0:
        raise ValueError("strand count must be nonnegative")
    if not text.strip():
        raise ParseError("empty input (use e for the empty word)", 0)
    return _Parser(text, n).parse()


def uses_only_bands(expr: Expression) -> bool:
    if isinstance(expr, BandAtom):
        return True
    if isinstance(expr, (SigmaAtom, TwistAtom)):
        return False
    if isinstance(expr, Power):
        return uses_only_bands(expr.base)
    if isinstance(expr, Concat):
        return all(uses_only_bands(p) for p in expr.parts)
    return uses_only_bands(expr.left) and uses_only_bands(expr.right)


def to_braid(expr: Expression, n: int) -> BraidWord:
    """Evaluate an expression to a word in the crossing letters."""
    if isinstance(expr, SigmaAtom):
        return BraidWord(n, ((expr.index, 1),))
    if isinstance(expr, BandAtom):
        return BraidWord(n, band_power_letters(expr.i, expr.j, 1))
    if isinstance(expr, TwistAtom):
        return half_twist(n)
    if isinstance(expr, Power):
        return braid_pow(to_braid(expr.base, n), expr.exp)
    if isinstance(expr, Concat):
        return BraidWord.product(n, (to_braid(p, n) for p in expr.parts))
    left, right = to_braid(expr.left, n), to_braid(expr.right, n)
    return BraidWord.product(n, (left.inverse(), right.inverse(), left, right))


def to_aword(expr: Expression, n: int) -> PureAWord:
    """Evaluate a bands-only expression to a word over the band alphabet."""
    return PureAWord(n, _aword(expr, n))


def _aword(expr: Expression, n: int) -> GroupWord:
    if isinstance(expr, BandAtom):
        return GroupWord.single(a_sym(expr.i, expr.j, n))
    if isinstance(expr, (SigmaAtom, TwistAtom)):
        raise NotAWordError("expression uses crossings or twists, not only bands")
    if isinstance(expr, Power):
        return _aword(expr.base, n) ** expr.exp
    if isinstance(expr, Concat):
        return GroupWord.from_letters(
            a_alphabet(n), (syl for p in expr.parts for syl in _aword(p, n).syllables)
        )
    return commutator(_aword(expr.left, n), _aword(expr.right, n))


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
    out = []
    for sym, exp in word.syllables:
        i, j = sym.index
        if exp == 1:
            out.append(f"a{i}.{j}")
        elif exp == -1:
            out.append(f"a{i}.{j}'")
        else:
            out.append(f"a{i}.{j}^{exp}")
    return " ".join(out) if out else "e"


def format_expression(expr: Expression) -> str:
    """Print an expression tree back into the grammar."""
    if isinstance(expr, SigmaAtom):
        return f"s{expr.index}"
    if isinstance(expr, BandAtom):
        return f"a{expr.i}.{expr.j}"
    if isinstance(expr, TwistAtom):
        return "D"
    if isinstance(expr, Power):
        base = format_expression(expr.base)
        if isinstance(expr.base, (SigmaAtom, BandAtom, TwistAtom)):
            return f"{base}'" if expr.exp == -1 else f"{base}^{expr.exp}"
        if isinstance(expr.base, Commutator):
            return f"{base}^{expr.exp}"
        return f"( {base} )^{expr.exp}"
    if isinstance(expr, Concat):
        if not expr.parts:
            return "e"
        return " ".join(format_expression(p) for p in expr.parts)
    return f"[ {format_expression(expr.left)} , {format_expression(expr.right)} ]"
