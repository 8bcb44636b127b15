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

The Conway polynomial comes from the Alexander polynomial of a
Wirtinger presentation: one row per under-passage, read straight off
the passages.  Its z^2 coefficient is v2 (same chapter on the Conway
polynomial).  The cost grows like c^4 in the crossing count c, so keep
inputs to about 20 crossings.

For a braid closure the Conway polynomial also comes from the reduced
Burau matrix (Birman, "Braids, Links and Mapping Class Groups", 1974),
as a series in h with t = e^h.  Series are lists of exact Fractions,
the coefficients of h^0 .. h^7, so it gives z^0 .. z^6; nothing is
interpolated, so the numbers stay small.  The cost is one series
product per letter and matrix row, so it reaches closures of a few
hundred crossings.

For a braid closure the Jones polynomial also comes from the
Temperley-Lieb algebra (Jones, "Hecke algebra representations of braid
groups and link polynomials", Ann. Math. 126, 1987; Kauffman, "State
models and the Jones polynomial", Topology 26, 1987), as the same kind
of series.  The state holds one series per crossingless matching,
Catalan(k) of them on k strands, so the cost is two series products
per letter and matching.

Two weight systems come in closed form from the same book, for chord
diagrams given as pairs of endpoint positions.  The Conway symbol, the
symbol of c_n, is 1 when the diagram's ribbon surface has one boundary
component (the chapter on the Conway polynomial).  The deframed sl2
symbol w' comes from the chapter on Lie algebra weight systems;
(-1)^n w' is the symbol of the h^n coefficient of the Jones polynomial
at t = e^h.  On n chords the Conway symbol costs one boundary count,
w' 4^n of them.
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


def _alexander_matrix(code: GaussCode, t: int) -> list[list[int]]:
    """The Wirtinger matrix at an integer t: arc j runs from the j-th
    under-passage to the next, and the row of the j-th under-passage
    puts (1 - t, t, -1) on (over arc, incoming arc, outgoing arc) at a
    positive crossing, (t - 1, 1, -t) at a negative one."""
    ps = code.passages
    unders = [i for i, p in enumerate(ps) if p.role == "U"]
    c = len(unders)
    arc_at, arc = [], c - 1  # positions before the first under-passage lie on the last arc
    for p in ps:
        arc = (arc + 1) % c if p.role == "U" else arc
        arc_at.append(arc)
    over = {p.label: arc_at[i] for i, p in enumerate(ps) if p.role == "O"}
    rows = []
    for j, i in enumerate(unders):
        row = [0] * c
        entries = (1 - t, t, -1) if ps[i].sign > 0 else (t - 1, 1, -t)
        for a, e in zip((over[ps[i].label], (j - 1) % c, j), entries):
            row[a] += e
        rows.append(row)
    return rows


def _bareiss(m: list[list[int]]) -> int:
    """The determinant of a square integer matrix, by fraction-free
    elimination."""
    m = [row[:] for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def alexander(code: GaussCode) -> list[int]:
    """The Alexander polynomial's coefficients, lowest power of t first,
    with no power of t to spare, Delta(1) = 1 and Delta symmetric."""
    c = sum(p.role == "U" for p in code.passages)
    points = range(c + 1)  # the minor has degree at most c - 1 in t
    values = [_bareiss([row[1:] for row in _alexander_matrix(code, t)[1:]]) for t in points]
    coeffs = Counter()
    for xi, value in zip(points, values):  # Lagrange interpolation through the values
        basis, scale = Counter({0: 1}), Fraction(value)
        for xj in points:
            if xj != xi:
                basis, scale = _times(basis, Counter({0: -xj, 1: 1})), scale / (xi - xj)
        for k, b in basis.items():
            coeffs[k] += scale * b
    if any(coeffs[k].denominator != 1 for k in points):
        raise ValueError(f"Alexander polynomial with fractional coefficients {coeffs}")
    delta = [int(coeffs[k]) for k in points]
    while delta and delta[-1] == 0:
        delta.pop()
    while delta and delta[0] == 0:
        delta.pop(0)
    if abs(sum(delta)) != 1 or delta != delta[::-1]:
        raise ValueError(f"{delta} is not the Alexander polynomial of a knot")
    return delta if sum(delta) == 1 else [-x for x in delta]


def conway(code: GaussCode) -> list[int]:
    """The Conway polynomial's coefficients of z^0, z^2, z^4, ...: Delta
    written in t + 1/t = z^2 + 2, through t^k + t^-k = T_k, where T_0 = 2,
    T_1 = z^2 + 2 and T_(k+1) = (z^2 + 2) T_k - T_(k-1)."""
    delta = alexander(code)
    m = len(delta) // 2
    s = Counter({0: 2, 1: 1})  # z^2 + 2, as {exponent of z^2: coefficient}
    out = Counter({0: delta[m]})
    before, here = Counter({0: 2}), s  # T_0 and T_1
    for k in range(1, m + 1):
        for e, x in here.items():
            out[e] += delta[m + k] * x
        after = _times(s, here)
        for e, x in before.items():
            after[e] -= x
        before, here = here, after
    return [out[e] for e in range(max(out) + 1)]


def _boundaries(chords) -> int:
    """Boundary components of the ribbon surface of a chord diagram: the
    orbits of p -> the endpoint after p's partner, in circle order.  A
    diagram without chords has one."""
    points = sorted(p for chord in chords for p in chord)
    partner = {a: b for chord in chords for a, b in (chord, chord[::-1])}
    after = {p: points[(i + 1) % len(points)] for i, p in enumerate(points)}
    seen: set[int] = set()
    orbits = 0
    for start in points:
        if start not in seen:
            orbits += 1
            p = start
            while p not in seen:
                seen.add(p)
                p = after[partner[p]]
    return max(orbits, 1)


def _subsets(chords):
    """(subset, the other chords) for every subset of the chords."""
    for mask in range(1 << len(chords)):
        picked = [mask >> i & 1 for i in range(len(chords))]
        yield [c for c, p in zip(chords, picked) if p], [c for c, p in zip(chords, picked) if not p]


def conway_symbol(chords) -> int:
    """1 when the ribbon surface has one boundary component, else 0."""
    return 1 if _boundaries(chords) == 1 else 0


def _sl2(chords) -> Fraction:
    """W(D) = 1/2 sum over chord subsets s of (-1/2)^|s| 2^b(D minus s)."""
    return sum(Fraction(-1, 2) ** len(s) * 2 ** _boundaries(rest) for s, rest in _subsets(chords)) / 2


def sl2_symbol(chords) -> Fraction:
    """w'(D) = sum over chord subsets J of (-3/2)^|J| W(D minus J)."""
    return sum(Fraction(-3, 2) ** len(j) * _sl2(rest) for j, rest in _subsets(chords))


_TERMS = 8  # h^0 .. h^7


def _times_series(p: list, q: list) -> list:
    """p q, truncated after h^7."""
    return [sum(p[i] * q[n - i] for i in range(n + 1) if p[i] and q[n - i]) for n in range(_TERMS)]


def _exp(a) -> list:
    """e^(a h)."""
    return [Fraction(a) ** n / factorial(n) for n in range(_TERMS)]


def _inverse_series(p: list) -> list:
    """1 / p, for p with a nonzero constant term."""
    out = [1 / Fraction(p[0])]
    for n in range(1, _TERMS):
        out.append(-sum(p[i] * out[n - i] for i in range(1, n + 1)) * out[0])
    return out


def _burau(word: list[int], strands: int) -> list[list[list]]:
    """The reduced Burau matrix of the word at t = e^h, (strands - 1)
    square.  sigma_i differs from the identity only in row i - 1, which
    has (t, -t, 1) at columns (i - 2, i - 1, i); sigma_i^-1 has (1, -1/t,
    1/t) there.  Multiplying by a letter on the right changes only those
    three columns, by one series product per row."""
    m = strands - 1
    matrix = [[_exp(0) if i == j else [Fraction(0)] * _TERMS for j in range(m)] for i in range(m)]
    t, over_t = _exp(1), _exp(-1)
    for e in word:
        r = abs(e) - 1
        for row in matrix:
            pivot = row[r]
            scaled = _times_series(pivot, t if e > 0 else over_t)
            left, right = (scaled, pivot) if e > 0 else (pivot, scaled)
            if r > 0:
                row[r - 1] = [a + b for a, b in zip(row[r - 1], left)]
            if r + 1 < m:
                row[r + 1] = [a + b for a, b in zip(row[r + 1], right)]
            row[r] = [-x for x in scaled]
    return matrix


def _determinant(matrix: list[list[list]]) -> list:
    """The determinant of a square matrix of series, by elimination on
    pivots with a nonzero constant term; raises ValueError when a column
    has none, as when the matrix is singular at h = 0."""
    m = [row[:] for row in matrix]
    det = _exp(0)
    for k in range(len(m)):
        p = next((r for r in range(k, len(m)) if m[r][k][0]), None)
        if p is None:
            raise ValueError("no pivot with a nonzero constant term")
        if p != k:
            m[k], m[p], det = m[p], m[k], [-x for x in det]
        det = _times_series(det, m[k][k])
        inverse = _inverse_series(m[k][k])
        for r in range(k + 1, len(m)):
            factor = _times_series(m[r][k], inverse)
            for c in range(k + 1, len(m)):
                m[r][c] = [a - b for a, b in zip(m[r][c], _times_series(factor, m[k][c]))]
    return det


def burau_conway(word: list[int], strands: int) -> list[int]:
    """[c0, c2, c4, c6], the coefficients of z^0 .. z^6 in the Conway
    polynomial of the closure of a braid word on ``strands`` strands
    (letters as in ``_braids``), which must be a knot.

    f(h) = det(I - psi(beta)) / (1 + t + ... + t^(strands - 1)) is
    +-e^(a h) Delta(e^h), and Delta(e^h) is even in h; a = f'(0) / f(0).
    Dividing out f(0) e^(a h) leaves Delta(e^h), read off in powers of
    z^2 = t + 1/t - 2, which starts at h^2, one power at a time."""
    minus = [[[-x for x in s] for s in row] for row in _burau(word, strands)]
    for i in range(strands - 1):
        minus[i][i][0] += 1  # the identity is 1 at h^0 only
    denominator = [sum(c) for c in zip(*(_exp(j) for j in range(strands)))]
    f = _times_series(_determinant(minus), _inverse_series(denominator))
    delta = [x / f[0] for x in _times_series(f, _exp(-f[1] / f[0]))]
    z2 = [x + y for x, y in zip(_exp(1), _exp(-1))]
    z2[0] -= 2
    coeffs, power = [], _exp(0)
    for j in range(4):
        coeffs.append(delta[2 * j])
        delta = [x - coeffs[-1] * y for x, y in zip(delta, power)]
        power = _times_series(power, z2)
    if any(delta) or any(c.denominator != 1 for c in coeffs):
        raise ValueError(f"{word} on {strands} strands gives no Conway polynomial: {coeffs}, remainder {delta}")
    return [int(c) for c in coeffs]


def _tl_times_e(matching: tuple[int, ...], strands: int, i: int) -> tuple[tuple[int, ...], bool]:
    """The matching times e_i below it, and whether that closed a loop.
    Points 0 .. strands - 1 are the top ends, strands .. 2 strands - 1
    the bottom ones; e_i joins bottom ends i - 1 and i by a cap and puts
    a new cup below them."""
    a, b = strands + i - 1, strands + i
    if matching[a] == b:
        return matching, True
    m = list(matching)
    p, q = m[a], m[b]
    m[p], m[q], m[a], m[b] = q, p, b, a
    return tuple(m), False


def _tl_closure_loops(matching: tuple[int, ...], strands: int) -> int:
    """The loops left when each top end j is joined round to bottom end
    strands + j.  Every loop passes a top end."""
    seen, loops = set(), 0
    for start in range(strands):
        if start not in seen:
            loops += 1
            p = start
            while p not in seen:
                q = matching[p]
                seen.update((p, q))
                p = q - strands if q >= strands else q + strands
    return loops


def tl_jones(word: list[int], strands: int) -> list[Fraction]:
    """The coefficients of h^0 .. h^4 in V(e^h) for the closure of a braid
    word on ``strands`` strands (letters as in ``_braids``).

    sigma_i acts as A + A^-1 e_i with A = e^(-h/4), and sigma_i^-1 as
    A^-1 + A e_i.  A closure with L loops has bracket d^(L - 1), with
    d = -A^2 - A^-2, and V(e^h) = (-1)^w e^(3 w h / 4) <closure>, w the
    sum of the letter signs."""
    a, over_a = _exp(Fraction(-1, 4)), _exp(Fraction(1, 4))
    d = [-x - y for x, y in zip(_exp(Fraction(-1, 2)), _exp(Fraction(1, 2)))]
    identity = tuple(range(strands, 2 * strands)) + tuple(range(strands))
    state = {identity: _exp(0)}
    for e in word:
        keep, join = (a, over_a) if e > 0 else (over_a, a)
        after: dict = {}
        for matching, series in state.items():
            joined, closed = _tl_times_e(matching, strands, abs(e))
            for m, factor in ((matching, keep), (joined, _times_series(join, d) if closed else join)):
                term = _times_series(series, factor)
                after[m] = [x + y for x, y in zip(after[m], term)] if m in after else term
        state = after
    bracket = [Fraction(0)] * _TERMS
    for matching, series in state.items():
        for _ in range(_tl_closure_loops(matching, strands) - 1):
            series = _times_series(series, d)
        bracket = [x + y for x, y in zip(bracket, series)]
    w = sum(1 if e > 0 else -1 for e in word)
    return [-x if w % 2 else x for x in _times_series(_exp(Fraction(3 * w, 4)), bracket)[:5]]
