"""v2 and v3 against the Jones polynomial, an oracle that shares no sign,
weight or pattern convention with the package."""

import random

from vassiliev import mirror, v2, v3

from _braids import BRAID_WORDS, braid_closure, is_knot
from _oracles import jones, jones_moments


def seeded_closures(count=20):
    """Distinct knotted braid closures of 4 to 10 crossings on 3 or 4
    strands, from a fixed seed."""
    rng = random.Random(17)
    words = set()
    while len(words) < count:
        strands = rng.choice((3, 4))
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(4, 10)))
        if max(map(abs, word)) == strands - 1 and is_knot(list(word)):
            words.add(word)
    return [braid_closure(list(word)) for word in sorted(words)]


def test_right_trefoil_jones_polynomial(trefoil):
    assert jones(trefoil) == {1: 1, 3: 1, 4: -1}  # t + t^3 - t^4


def test_jones_moments_are_v2_and_v3(corpus):
    codes = [r.code for r in corpus]
    codes += [braid_closure(word) for word in BRAID_WORDS.values()]
    codes += seeded_closures()
    for code in codes:
        h = jones_moments(code)
        assert h[:2] == [1, 0], code
        assert (h[2], h[3]) == (-3 * v2(code), -6 * v3(code)), code


def test_mirror_flips_the_cubic_moment(corpus):
    for code in [r.code for r in corpus] + seeded_closures(count=5):
        h, flipped = jones_moments(code), jones_moments(mirror(code))
        assert flipped[2] == h[2] and flipped[3] == -h[3], code
