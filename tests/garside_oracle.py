"""The Garside left normal form of a braid word, kept as a test oracle.

The left-greedy normal form Delta^k P_1 .. P_r (Garside 1969;
ElRifai-Morton 1994; Epstein et al., Word Processing in Groups, ch. 9)
is unique, so two words are equal in B_n exactly when their forms
agree.  Here Delta is the half twist and the P_t are permutation
braids, each pair left-weighted.  The library decides equality by the
Dynnikov action instead; this O(|w|^2 n) procedure is the independent
polynomial cross-check the tests hold it to, and the exponential Artin
action of artin_oracle.py checks the form itself on short words.
"""

from __future__ import annotations

from braidcalc.braids import BraidWord


def garside_equal(a: BraidWord, b: BraidWord) -> bool:
    """Equality in B_n of two crossing or band words by their normal forms."""
    return left_normal_form(a.to_braid()) == left_normal_form(b.to_braid())


# Permutation braids (the positive braids in which any two strands cross
# at most once) are stored as arrangements: arr[p] is the strand, named
# 0..n-1 by its starting position, that sits at position p at the end.
# Appending sigma_i swaps arr[i-1] and arr[i].  The finishing set F(A)
# holds the i with arr_A[i-1] > arr_A[i], the starting set S(B) the i
# with inv_B[i-1] > inv_B[i], where inv_B[s] is the end position of s.


def _left_weight(a: list[int], b: list[int]) -> bool:
    """Move sigma_i from b to a while i is in S(b) but not in F(a).

    Both arrangements are rewritten in place so that a*b is unchanged
    and S(b) lies in F(a); returns whether anything moved.
    """
    n = len(b)
    inv = [0] * n
    for p, s in enumerate(b):
        inv[s] = p
    moved = False
    i = 1
    while i < n:
        if inv[i - 1] > inv[i] and a[i - 1] < a[i]:
            a[i - 1], a[i] = a[i], a[i - 1]
            # b becomes sigma_i^{-1} b: strands i-1 and i trade end positions
            p, q = inv[i - 1], inv[i]
            b[p], b[q] = i, i - 1
            inv[i - 1], inv[i] = q, p
            moved = True
            # only the conditions at i-1 and i+1 can have changed
            if i > 1:
                i -= 1
        else:
            i += 1
    return moved


def _tau(arr: list[int]) -> list[int]:
    """Conjugation by Delta: sigma_j -> sigma_{n-j}."""
    n = len(arr)
    return [n - 1 - s for s in reversed(arr)]


def left_normal_form(b: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The left-greedy normal form Delta^k P_1 .. P_r of a braid word.

    Returns (k, factors) with each P_t a permutation braid given by its
    arrangement tuple, none of them Delta or the identity, and every
    pair (P_t, P_{t+1}) left-weighted.  Two braid words are equal in B_n
    exactly when their normal forms are equal.

    The word is read letter by letter.  sigma_i is the factor sigma_i
    and sigma_i^{-1} is Delta^{-1} (Delta sigma_i^{-1}); the Delta^{-1}
    moves to the front across every factor, applying tau to each, which
    is kept as one flag over the whole list instead.  After each factor
    is appended, one backward pass of left-weighting restores the form,
    stopping at the first pair that does not change.  Two shortcuts
    give the same result with less work: a letter that the last factor
    absorbs, or a sigma_i^{-1} that removes its last crossing, adds no
    factor; and a factor that the pass turns into Delta goes straight
    to the front.  Work is O(|b|^2 n) in the worst case.
    """
    n = b.strands
    identity = list(range(n))
    delta = identity[::-1]
    k = 0
    twisted = False  # the stored factors are tau of the true ones
    factors: list[list[int]] = []
    for i, sign in b.letters:
        j = n - i if twisted else i
        last = factors[-1] if factors else None
        if sign > 0:
            if last is not None and last[j - 1] < last[j]:
                # sigma_j keeps the last factor a permutation braid
                last[j - 1], last[j] = last[j], last[j - 1]
                t = len(factors) - 1
            else:
                # S(sigma_j) = {j} lies in F(last): nothing to weight
                f = identity[:]
                f[j - 1], f[j] = f[j], f[j - 1]
                factors.append(f)
                t = 0
        elif last is not None and last[j - 1] > last[j]:
            # the last factor ends in sigma_j and loses it; a prefix of a
            # factor starts with no more than the factor did
            last[j - 1], last[j] = last[j], last[j - 1]
            t = 0
        else:
            k -= 1
            twisted = not twisted
            j = n - j
            f = delta[:]
            f[j - 1], f[j] = f[j], f[j - 1]
            factors.append(f)
            t = len(factors) - 1
        while t > 0 and _left_weight(factors[t - 1], factors[t]):
            t -= 1
            if factors[t] == delta:
                # the rest of the pass would carry Delta to the front,
                # applying tau to every factor it crosses
                del factors[t]
                factors[:t] = [_tau(f) for f in factors[:t]]
                k += 1
                break
        while factors and factors[-1] == identity:
            factors.pop()
        while factors and factors[0] == delta:
            factors.pop(0)
            k += 1
    if twisted:
        factors = [_tau(f) for f in factors]
    return k, tuple(tuple(f) for f in factors)
