"""Seeded knot tables for the compute workloads.

Every knot is the closure of a random braid word, built with
``braid_closure`` from ``tests/_braids.py``.  A closure is a knot only
when the word's permutation is a single cycle: a 3-cycle is even, so
3-strand words need an even length, and a 4-cycle is odd, so 4-strand
words need an odd length.  Drawing any other length would never close,
so only those lengths are drawn (a k-cycle has the parity of k - 1).

The length schedule is fixed and only the letters come from the seed.
Word length equals crossing count, and the evaluators' cost grows with
crossing count, so a fixed schedule keeps the work per table steady from
seed to seed while the knots themselves change.  No Gauss code is drawn
twice, so a cache keyed by code gets no hits a real table would not give;
the shortest lengths close to only a few distinct codes (8 at length 3,
80 at length 4), so fewer knots are drawn there.  Each workload's knots
are dealt round-robin, in length order, into several tables that each
span the whole length range; each table is one CLI call, so that a pass
is made of many short timed calls.
"""

from __future__ import annotations

import json
import random
import statistics

from vassiliev import format_code, parse_gauss_code

from _braids import braid_closure, is_knot

# Lengths that can close to a knot, per strand count (see module docstring),
# each with the number of knots drawn at it: at most half of the distinct
# codes at that length, so that distinct draws end quickly.
SMALL_LENGTHS = {
    3: {4: 40, 6: 96, 8: 96, 10: 96, 12: 96, 14: 96},
    4: {3: 4, 5: 96, 7: 96, 9: 96, 11: 96, 13: 96},
}  # 1004 knots
SMALL_CHUNKS = 12
LARGE_LENGTHS = {
    3: dict.fromkeys((20, 22, 26, 28, 32, 34, 38, 40, 44, 46, 48, 50), 1),
    4: dict.fromkeys((21, 23, 25, 29, 31, 35, 37, 41, 43, 45, 47, 49), 1),
}
LARGE_CHUNKS = 6
MAX_TRIES = 10_000


def random_knot_word(strands: int, length: int, rng: random.Random) -> list[int]:
    """A braid word on exactly ``strands`` strands whose closure is a knot."""
    if length % 2 != (strands - 1) % 2:
        raise ValueError(f"a {length}-letter word on {strands} strands never closes")
    gens = range(1, strands)
    for _ in range(MAX_TRIES):
        word = [rng.choice(gens) * rng.choice((1, -1)) for _ in range(length)]
        # a word that never uses the last generator closes on fewer strands
        if max(map(abs, word)) == strands - 1 and is_knot(word):
            return word
    raise RuntimeError(f"no knot among {MAX_TRIES} words of length {length}")


def knot_tables(lengths: dict[int, dict[int, int]], chunks: int, seed: int, tag: str,
                exclude=()) -> list[list[dict]]:
    """The drawn knots, no Gauss code twice nor one of the codes in
    ``exclude``, dealt round-robin into ``chunks`` tables, each in a
    seed-determined order."""
    rng = random.Random(f"{tag}:{seed}")
    tables: list[list[dict]] = [[] for _ in range(chunks)]
    seen = {format_code(parse_gauss_code(text)) for text in exclude}
    drawn = 0
    for strands, counts in sorted(lengths.items()):
        for length, count in sorted(counts.items()):
            for _ in range(count):
                for _ in range(MAX_TRIES):
                    gauss = format_code(braid_closure(random_knot_word(strands, length, rng)))
                    if gauss not in seen:
                        break
                else:
                    raise RuntimeError(f"no new code among {MAX_TRIES} of length {length}")
                seen.add(gauss)
                tables[drawn % chunks].append(
                    {"name": f"b{strands}_{drawn}", "strands": strands, "crossings": length,
                     "gauss": gauss}
                )
                drawn += 1
    for table in tables:
        rng.shuffle(table)
    return tables


def small_tables(seed: int, exclude=()) -> list[list[dict]]:
    return knot_tables(SMALL_LENGTHS, SMALL_CHUNKS, seed, "small", exclude)


def large_tables(seed: int) -> list[list[dict]]:
    return knot_tables(LARGE_LENGTHS, LARGE_CHUNKS, seed, "large")


def write_table(records: list[dict], path) -> None:
    """Write the records as a knot table the CLI reads with --table."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"name": r["name"], "gauss": r["gauss"]}) + "\n")


def describe(crossings: list[int], strands: dict[str, int]) -> dict:
    """Crossing-count min/median/max and strand mix of a table."""
    return {
        "knots": len(crossings),
        "crossings": {
            "min": min(crossings),
            "median": statistics.median(crossings),
            "max": max(crossings),
        },
        "strands": strands,
    }
