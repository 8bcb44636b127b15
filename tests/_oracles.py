"""Knot invariants computed by routes that share no convention with the
package's evaluators, for the tests to check those against.

The Jones polynomial comes from the Kauffman bracket, summed over all
2^c smoothings of the diagram.  Only the planar rotation system of the
code is borrowed from the package; no sign constant, weight system or
pattern file is.  Expanded at t = e^h, the coefficient of h^2 is -3 v2
and that of h^3 is -6 v3 (Chmutov-Duzhin-Mostovoy, "Introduction to
Vassiliev Knot Invariants", arXiv:1103.5628, the chapter on the Jones
polynomial).  The cost is exponential, so keep inputs to about a dozen
crossings.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial

from vassiliev.codes import GaussCode, _rotation_system


def _times(p: Counter, q: Counter) -> Counter:
    """The product of two Laurent polynomials, as {exponent: coefficient}."""
    out = Counter()
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] += a * b
    return out


def _loops(rotations: list[tuple[int, int, int, int]], smoothing: tuple[int, ...], darts: int) -> int:
    """The number of circles left when crossing i is smoothed the A way
    (smoothing[i] = 1) or the B way (-1)."""
    join = [0] * darts
    for (r0, r1, r2, r3), a in zip(rotations, smoothing):
        for x, y in ((r1, r2), (r3, r0)) if a > 0 else ((r0, r1), (r2, r3)):
            join[x], join[y] = y, x
    loops, seen = 0, [False] * darts
    for start in range(darts):
        if not seen[start]:
            loops += 1
            d = start
            while not seen[d]:  # along edge d // 2, then through the smoothing
                seen[d] = seen[d ^ 1] = True
                d = join[d ^ 1]
    return max(loops, 1)  # a code without crossings is one circle


def kauffman_bracket(code: GaussCode) -> Counter:
    """<K> = sum over states of A^(#A - #B) d^(loops - 1), d = -A^2 - A^-2,
    as {exponent of A: coefficient}."""
    rotations = _rotation_system(code)
    states = Counter(
        (sum(s), _loops(rotations, s, 2 * len(code.passages)))
        for s in product((1, -1), repeat=len(rotations))
    )
    d = Counter({2: -1, -2: -1})
    bracket = Counter()
    for (a_minus_b, loops), count in states.items():
        term = Counter({a_minus_b: count})
        for _ in range(loops - 1):
            term = _times(term, d)
        bracket.update(term)
    return bracket


def jones(code: GaussCode) -> dict[int, int]:
    """V(t) = (-A^3)^(-w) <K> at A = t^(-1/4), as {exponent of t: coefficient}."""
    writhe = sum(p.sign for p in code.passages) // 2
    v = {}
    for e, a in kauffman_bracket(code).items():
        e -= 3 * writhe
        if a:
            if e % 4:
                raise ValueError(f"A^{e} in the Jones polynomial of a knot")
            v[-e // 4] = -a if writhe % 2 else a
    return v


def jones_moments(code: GaussCode, top: int = 3) -> list[Fraction]:
    """The coefficients of h^0 .. h^top in V(e^h): sum a_k k^j / j!."""
    v = jones(code)
    return [Fraction(sum(a * k**j for k, a in v.items()), factorial(j)) for j in range(top + 1)]
