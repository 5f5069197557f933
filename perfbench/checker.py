"""Independent checker for braidcalc answers.

Nothing here imports braidcalc.  Answers are read back from the report
that ``cli.run`` returns, with a small parser of its own for the
``s3'``, ``a1.3^-2`` and ``D^3`` tokens, and judged with:

* the unreduced Burau representation evaluated at a random point t
  modulo the prime 2^61 - 1 and applied to a random row vector.  Equal
  braids always give equal vectors; unequal Burau matrices give equal
  vectors with probability about (word length)/2^61.  Burau is faithful
  on 3 strands, so there the test decides equality; above that it is a
  necessary condition;
* exact invariants: the strand permutation and exponent sum of crossing
  words, and the abelianization of pure band words (combing must keep
  it, and every face of a solver answer must have that of the input);
* the checker's own strand-deletion maps, on crossing words and on
  band words;
* answers planted by construction when the query list is built.

``Checker.check`` returns None for an accepted answer and a one-line
reason otherwise.
"""

from __future__ import annotations

import random
import re

P = (1 << 61) - 1
MAX_STRANDS = 16

_TOKEN = re.compile(r"([sa])(\d+)(?:\.(\d+))?(?:(')|\^(-?\d+))?$|D(?:(')|\^(-?\d+))?$")


class CheckError(ValueError):
    """An answer that the checker refuses, with the reason."""


def _exp(prime: str | None, power: str | None) -> int:
    if prime:
        return -1
    return int(power) if power is not None else 1


def half_twist(n: int) -> list[tuple[int, int]]:
    """Delta_n = (s1..s_{n-1})(s1..s_{n-2})..(s1) as crossing letters."""
    return [(i, 1) for block in range(n - 1, 0, -1) for i in range(1, block + 1)]


def band_letters(i: int, j: int, e: int) -> list[tuple[int, int]]:
    """A_{i,j}^e = s_{j-1}..s_{i+1} s_i^{2e} s_{i+1}^-1..s_{j-1}^-1."""
    sign = 1 if e > 0 else -1
    return (
        [(t, 1) for t in range(j - 1, i, -1)]
        + [(i, sign)] * (2 * abs(e))
        + [(t, -1) for t in range(i + 1, j)]
    )


def parse_crossings(text: str, n: int) -> list[tuple[int, int]]:
    """Crossing letters (index, +-1) of a word in s, a and D tokens."""
    out: list[tuple[int, int]] = []
    for tok in text.split():
        if tok == "e":
            continue
        m = _TOKEN.match(tok)
        if not m:
            raise CheckError(f"unreadable token {tok!r}")
        if tok[0] == "D":
            e = _exp(m.group(6), m.group(7))
            twist = half_twist(n)
            if e < 0:
                twist = [(i, -s) for i, s in reversed(twist)]
            out.extend(twist * abs(e))
            continue
        e = _exp(m.group(4), m.group(5))
        if e == 0:
            raise CheckError(f"zero power in {tok!r}")
        if m.group(1) == "s":
            i = int(m.group(2))
            if m.group(3) is not None or not 1 <= i < n:
                raise CheckError(f"crossing {tok!r} out of range for {n} strands")
            out.extend([(i, 1 if e > 0 else -1)] * abs(e))
        else:
            i, j = int(m.group(2)), int(m.group(3) or 0)
            if not 1 <= i < j <= n:
                raise CheckError(f"band {tok!r} out of range for {n} strands")
            out.extend(band_letters(i, j, e))
    return out


def parse_bands(text: str, n: int) -> list[tuple[int, int, int]]:
    """Band syllables (i, j, e) of a word in a tokens only."""
    out: list[tuple[int, int, int]] = []
    for tok in text.split():
        if tok == "e":
            continue
        m = _TOKEN.match(tok)
        if not m or m.group(1) != "a":
            raise CheckError(f"{tok!r} is not a band token")
        i, j = int(m.group(2)), int(m.group(3))
        e = _exp(m.group(4), m.group(5))
        if not 1 <= i < j <= n or e == 0:
            raise CheckError(f"band {tok!r} out of range for {n} strands")
        out.append((i, j, e))
    return out


def delete_crossing_strand(word: list[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    """Face d_k on crossing letters: drop the strand that starts at k."""
    p = k
    out = []
    for i, s in word:
        if i == p:
            p = i + 1
        elif i == p - 1:
            p = i
        else:
            out.append((i - 1 if i > p else i, s))
    return out


def delete_band_strand(word: list[tuple[int, int, int]], k: int) -> list[tuple[int, int, int]]:
    """Face d_k on band syllables: bands through k die, the rest renumber."""
    return [
        (i - (i > k), j - (j > k), e) for i, j, e in word if i != k and j != k
    ]


def permutation(word: list[tuple[int, int]], n: int) -> tuple[int, ...]:
    """Where each starting position ends up."""
    at = list(range(n + 1))
    for i, _ in word:
        at[i], at[i + 1] = at[i + 1], at[i]
    ends = [0] * n
    for pos in range(1, n + 1):
        ends[at[pos] - 1] = pos
    return tuple(ends)


def abelianization(word: list[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    totals: dict[tuple[int, int], int] = {}
    for i, j, e in word:
        totals[(i, j)] = totals.get((i, j), 0) + e
    return {k: v for k, v in totals.items() if v}


class Burau:
    """v * Burau(w)(t) mod P for one random t and one random row vector v."""

    def __init__(self, rng: random.Random):
        self.t = rng.randrange(2, P - 1)
        self.tinv = pow(self.t, P - 2, P)
        self.v = [rng.randrange(1, P) for _ in range(MAX_STRANDS + 1)]

    def crossings(self, word: list[tuple[int, int]], n: int) -> tuple[int, ...]:
        v = self.v[: n + 1]
        t, tinv, one_t, one_tinv = self.t, self.tinv, 1 - self.t, 1 - self.tinv
        for i, s in word:
            a, b = v[i], v[i + 1]
            if s > 0:
                v[i], v[i + 1] = (a * one_t + b) % P, a * t % P
            else:
                v[i], v[i + 1] = b * tinv % P, (a + b * one_tinv) % P
        return tuple(v[1:])

    def bands(self, word: list[tuple[int, int, int]], n: int) -> tuple[int, ...]:
        letters: list[tuple[int, int]] = []
        for i, j, e in word:
            letters.extend(band_letters(i, j, e))
        return self.crossings(letters, n)

    def identity(self, n: int) -> tuple[int, ...]:
        return tuple(self.v[1 : n + 1])


class Checker:
    """Judges one report of ``cli.run`` against its query."""

    def __init__(self, seed: int):
        self.burau = Burau(random.Random(f"burau-{seed}"))

    def check(self, query: dict, code: int, payload: dict) -> str | None:
        try:
            getattr(self, "_" + query["kind"])(query, code, payload)
        except CheckError as e:
            return str(e)
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            return f"malformed report: {type(e).__name__}: {e}"
        return None

    # -- band-solve ------------------------------------------------------

    def _band_solve(self, q: dict, code: int, payload: dict) -> None:
        n = q["strands"]
        alpha = parse_bands(q["expr"], n)
        if not q["cohen"]:
            _expect(code == 1 and payload["result"] == "refused", "non-Cohen input not refused")
            self._refusal_witness(alpha, n, payload["witnesses"], bands=True)
            return
        _expect(code == 0, f"exit status {code}, result {payload['result']!r}")
        _expect(payload["witnesses"].get("faces_equal_input") is True, "no face verification")
        beta = parse_bands(payload["result"], n + 1)
        target_ab = abelianization(alpha)
        target = self.burau.bands(alpha, n)
        for k in range(1, n + 2):
            face = delete_band_strand(beta, k)
            _expect(abelianization(face) == target_ab, f"face d{k} abelianizes wrongly")
            _expect(self.burau.bands(face, n) == target, f"face d{k} differs from the input in Burau")

    def _refusal_witness(self, word: list, n: int, witnesses: dict, bands: bool) -> None:
        i, j = witnesses["violating_pair"]
        faces = witnesses["faces"]
        _expect(1 <= i <= n and 1 <= j <= n and i != j, f"bad witness pair {i}, {j}")
        images = []
        for k in (i, j):
            if bands:
                own = delete_band_strand(word, k)
                shown = parse_bands(faces[f"d{k}"], n - 1)
                ok = abelianization(own) == abelianization(shown)
                mine, theirs = self.burau.bands(own, n - 1), self.burau.bands(shown, n - 1)
            else:
                own = delete_crossing_strand(word, k)
                shown = parse_crossings(faces[f"d{k}"], n - 1)
                ok = permutation(own, n - 1) == permutation(shown, n - 1)
                mine, theirs = self.burau.crossings(own, n - 1), self.burau.crossings(shown, n - 1)
            _expect(ok and mine == theirs, f"witness face d{k} is not the face of the input")
            images.append(mine)
        _expect(images[0] != images[1], "witness faces are not shown to differ")

    # -- band-comb -------------------------------------------------------

    def _band_comb(self, q: dict, code: int, payload: dict) -> None:
        n = q["strands"]
        _expect(code == 0, f"exit status {code}, result {payload['result']!r}")
        result = payload["result"]
        _expect(sorted(result) == sorted(f"u{k}" for k in range(2, n + 1)), "wrong components")
        product: list[tuple[int, int, int]] = []
        for k in range(2, n + 1):
            comp = parse_bands(result[f"u{k}"], n)
            for idx, (i, j, _) in enumerate(comp):
                _expect(j == k, f"u{k} uses the foreign band A{i},{j}")
                _expect(idx == 0 or comp[idx - 1][0] != i, f"u{k} is not freely reduced")
            product.extend(comp)
        word = parse_bands(q["expr"], n)
        _expect(abelianization(product) == abelianization(word), "combing changed the abelianization")
        _expect(self.burau.bands(product, n) == self.burau.bands(word, n), "u2..un differs from the input in Burau")

    # -- crossing-eq -----------------------------------------------------

    def _eq(self, q: dict, code: int, payload: dict) -> None:
        _expect(payload["result"] is q["planted"] and code == (0 if q["planted"] else 1),
                f"eq answered {payload['result']!r}, planted {q['planted']}")
        n = q["strands"]
        a, b = (parse_crossings(e, n) for e in q["exprs"])
        same = (
            permutation(a, n) == permutation(b, n)
            and sum(s for _, s in a) == sum(s for _, s in b)
            and self.burau.crossings(a, n) == self.burau.crossings(b, n)
        )
        _expect(same is q["planted"], "planted answer contradicts the invariants")

    def _cohen(self, q: dict, code: int, payload: dict) -> None:
        n = q["strands"]
        word = parse_crossings(q["expr"], n)
        _expect(payload["result"] is q["planted"], f"cohen answered {payload['result']!r}")
        if q["planted"]:
            shown = parse_crossings(payload["witnesses"]["common_face"], n - 1)
            target = self.burau.crossings(delete_crossing_strand(word, 1), n - 1)
            _expect(self.burau.crossings(shown, n - 1) == target, "common face is not d1")
            for k in range(2, n + 1):
                face = self.burau.crossings(delete_crossing_strand(word, k), n - 1)
                _expect(face == target, f"face d{k} differs from d1 in Burau")
        else:
            self._refusal_witness(word, n, payload["witnesses"], bands=False)

    def _brunnian(self, q: dict, code: int, payload: dict) -> None:
        n = q["strands"]
        word = parse_crossings(q["expr"], n)
        _expect(payload["result"] is q["planted"], f"brunnian answered {payload['result']!r}")
        listed = set(payload["witnesses"].get("nontrivial_faces", []))
        ident = self.burau.identity(n - 1)
        for k in range(1, n + 1):
            trivial = self.burau.crossings(delete_crossing_strand(word, k), n - 1) == ident
            _expect(trivial != (k in listed), f"face d{k} triviality misreported")

    def _unary(self, q: dict, code: int, payload: dict) -> None:
        n = q["strands"]
        word = parse_crossings(q["expr"], n)
        _expect(payload["result"] is q["planted"], f"unary answered {payload['result']!r}")
        if q["planted"]:
            factor = parse_crossings(payload["witnesses"]["pure_factor"], n)
            _expect(permutation(factor, n) == tuple(range(1, n + 1)), "pure factor is not pure")
            staircase = [(i, 1) for i in range(1, n)]
            rebuilt = self.burau.crossings(factor + staircase, n)
            _expect(rebuilt == self.burau.crossings(word, n), "factor times staircase is not the input")

    def _crossing_solve(self, q: dict, code: int, payload: dict) -> None:
        n = q["strands"]
        _expect(code == 0, f"exit status {code}, result {payload['result']!r}")
        _expect(payload["witnesses"].get("faces_equal_input") is True, "no face verification")
        alpha = parse_crossings(q["expr"], n)
        beta = parse_crossings(payload["result"], n + 1)
        target = self.burau.crossings(alpha, n)
        perm = permutation(alpha, n)
        for k in range(1, n + 2):
            face = delete_crossing_strand(beta, k)
            _expect(permutation(face, n) == perm, f"face d{k} has the wrong permutation")
            _expect(self.burau.crossings(face, n) == target, f"face d{k} differs from the input in Burau")


def _expect(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


# Known-wrong answers the checker must refuse.  The first is the
# reference word pinned in test_05 offered as the comb of [c2, c3],
# c_k = A12^k A13^k A23^k on 3 strands; its A2,3 exponent sum is 2.  The
# second is a correct solver answer (every face is [A1,2, A1,3]) with
# the sign of one syllable flipped.
_C2_INV = "a2.3^-2 a1.3^-2 a1.2^-2"
_C3_INV = "a2.3^-3 a1.3^-3 a1.2^-3"
_GAMMA3 = f"{_C2_INV} {_C3_INV} a1.2^2 a1.3^2 a2.3^2 a1.2^3 a1.3^3 a2.3^3"
_TEST05_REFERENCE = (
    "a2.3^-2 a1.3' a2.3 a1.3 a2.3^-2 a1.3^-2 a2.3 a1.3^2 "
    "a2.3 a1.3' a2.3 a1.3' a2.3' a1.3^2 a2.3^3"
)
_SOLVED = (
    "a2.3' a2.4' a2.3 a2.4 a1.3' a1.4' a1.3 a1.4 "
    "a1.2' a1.4' a1.2 a1.4 a1.2' a1.3' a1.2 a1.3"
)
_SOLVED_FLIPPED = _SOLVED.replace("a1.3' a1.4' a1.3 a1.4", "a1.3' a1.4' a1.3' a1.4", 1)


def self_test(checker: Checker) -> list[str]:
    """Problems found; empty when the checker accepts the right answers
    and refuses both known-wrong ones."""
    comb_q = {"kind": "band_comb", "strands": 3, "expr": _GAMMA3}
    solve_q = {"kind": "band_solve", "strands": 3, "cohen": True, "expr": "a1.2' a1.3' a1.2 a1.3"}
    wrong_comb = {"result": {"u2": "e", "u3": _TEST05_REFERENCE}, "witnesses": {}}
    right_solve = {"result": _SOLVED, "witnesses": {"faces_equal_input": True}}
    wrong_solve = {"result": _SOLVED_FLIPPED, "witnesses": {"faces_equal_input": True}}
    problems = []
    if checker.check(comb_q, 0, wrong_comb) is None:
        problems.append("accepted the test_05 reference word as the comb of gamma_word(3)")
    if checker.check(solve_q, 0, right_solve) is not None:
        problems.append("refused a correct solver answer")
    if checker.check(solve_q, 0, wrong_solve) is None:
        problems.append("accepted a solver answer with one sign flipped")
    return problems
