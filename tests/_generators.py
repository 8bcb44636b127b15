"""Pattern words generated from chord diagrams, for the tests to count
against the Conway polynomial.

Chmutov, Khoury and Rossi (arXiv:0810.3146) count the coefficient of z^m
in the Conway polynomial with the based m-arrow diagrams that have one
component and are ascending.  Walk from the basepoint along the circle
to the next endpoint, jump along its arrow to the partner endpoint, go
on along the circle, and so on until the walk is back at the basepoint.
The diagram has one component when the walk covers all 2m + 1 segments
of the circle, and is ascending when it meets every arrow first at its
head.  Meeting every arrow first at its tail (descending) gives the same
coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from vassiliev import enumerate_chord_diagrams, parse_pattern_file
from vassiliev.diagrams import ChordDiagram, Pattern, PatternExpression


def one_component_words(diagram: ChordDiagram, first: str = "h") -> list[str]:
    """Words of the one-component directions of the diagram's chords whose
    walk meets every arrow first at its ``first`` end, "h" or "t"."""
    words = []
    for flips in product((False, True), repeat=diagram.degree):
        pattern = Pattern(tuple((b, a) if flip else (a, b) for (a, b), flip in zip(diagram.chords, flips)))
        partner = {p: q for t, h in pattern.arrows for p, q in ((t, h), (h, t))}
        end = {p: kind for t, h in pattern.arrows for p, kind in ((t, "t"), (h, "h"))}
        met, segment = set(), 0  # endpoints the walk arrived at; segment k ends at endpoint k
        while segment < 2 * diagram.degree and (partner[segment] in met or end[segment] == first):
            met.add(segment)
            segment = partner[segment] + 1
        if len(met) == 2 * diagram.degree:  # all 2m + 1 segments walked
            words.append(pattern.word())
    return words


def conway_words(m: int, first: str = "h") -> list[str]:
    """The sorted words of every m-arrow diagram ``one_component_words`` keeps."""
    return sorted(w for d in enumerate_chord_diagrams(m) for w in one_component_words(d, first))


@lru_cache(maxsize=None)
def conway_file(m: int, first: str = "h") -> PatternExpression:
    """The pattern file of ``conway_words(m, first)``, each word with
    weight 1, parsed once per process so its kernel compiles once."""
    return parse_pattern_file("".join(f"1 0 {w}\n" for w in conway_words(m, first)))
