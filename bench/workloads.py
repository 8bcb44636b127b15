"""The four benchmark workloads: their inputs, CLI calls and output checks.

A pass is the list of ``vassiliev`` command lines a workload times.
``generate`` writes a workload's seeded inputs and runs in the parent
process; ``plan`` reads them back in the worker process that times the
passes.  Output checks are written against the CLI's documented output,
not against the package's own functions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

VERIFY_PERTURBATIONS = 1000
VERIFY_SUITES = ("calibration", "relations", "weights", "4t", "expansion", "invariance", "realization")
WEIGHT_DEGREES = (4, 3)

COMPUTE_LAYERS = (
    "cli.main", "codes.parse", "codes.positions", "coordinates",
    "diagrams.arrow_diagram", "diagrams.chord_subdiagram", "diagrams.count_matches",
    "invariants.v2_lannes", "invariants.v3_lannes", "invariants.v2_pv",
    "invariants.v3_pv", "invariants.v3_thm", "weights.w3",
)
WEIGHTS_LAYERS = (
    "cli.main", "codes.is_realizable", "diagrams.arrow_diagram", "diagrams.count_matches",
    "invariants.v3_thm", "weights.realize", "weights.resolve", "weights.enumerate",
    "weights.check_relations", "weights.weight_from_invariant",
)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    # throughput per second under the name it has for this workload's
    # items; a name ending in _s instead of _per_s is the pass time
    alias: str
    layers: tuple[str, ...]  # layers the traced run must reach; () means all


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-table", "knots_per_s", COMPUTE_LAYERS),
        Workload("large-braids", "knots_per_s", COMPUTE_LAYERS),
        Workload("weights-derive", "diagrams_per_s", WEIGHTS_LAYERS),
        Workload("verify", "verify_s", ()),
    )
}


@dataclass
class Plan:
    """One pass of CLI calls, one output check per call, and the warm-up.

    A check maps (exit code, stdout) to (items attempted, items failed,
    notes).  The warm-up runs once, untimed, before the first pass.
    """

    calls: list[list[str]]
    checks: list[Callable[[int, str], tuple[int, int, list[str]]]]
    warmup: list[list[str]]


def _bundled_table(root: Path) -> list[dict]:
    text = (root / "src" / "vassiliev" / "fixtures" / "knots.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def generate(name: str, seed: int, workdir: Path, root: Path) -> dict:
    """Write the workload's inputs; return a description of them."""
    if name == "weights-derive":
        return {"degrees": list(WEIGHT_DEGREES), "invariant": "v3", "seeded": False}
    import corpus

    bundled = _bundled_table(root)
    bundled_crossings = [len(r["gauss"].split()) // 2 for r in bundled]
    if name == "verify":
        return {"perturbations": VERIFY_PERTURBATIONS, "program_seed": seed,
                **corpus.describe(bundled_crossings, {"bundled": len(bundled)})}
    if name == "small-table":
        tables = corpus.small_tables(seed, exclude=[r["gauss"] for r in bundled])
    else:
        tables = corpus.large_tables(seed)
    paths = []
    for i, records in enumerate(tables):
        paths.append(str(workdir / f"{name}-{seed}-{i}.jsonl"))
        corpus.write_table(records, paths[-1])
    records = [r for table in tables for r in table]
    crossings = [r["crossings"] for r in records]
    mix = {f"{k}-strand": sum(r["strands"] == k for r in records) for k in (3, 4)}
    if name == "small-table":
        crossings += bundled_crossings
        mix["bundled"] = len(bundled)
    return {"tables": paths, **corpus.describe(crossings, mix)}


def plan(name: str, seed: int, inputs: dict, root: Path) -> Plan:
    """The timed calls, their output checks and the warm-up calls of one workload."""
    bundled = _bundled_table(root)
    bundled_call = ["compute", "--format", "json"]
    if name in ("small-table", "large-braids"):
        calls, checks = [], []
        for path in inputs["tables"]:
            with open(path, encoding="utf-8") as fh:
                names = [json.loads(line)["name"] for line in fh if line.strip()]
            calls.append(["compute", "--table", path, "--format", "json"])
            checks.append(partial(_check_compute, names=names, expected={}))
        if name == "small-table":
            calls.append(bundled_call)
            checks.append(partial(
                _check_compute,
                names=[r["name"] for r in bundled],
                expected={r["name"]: r.get("expected", {}) for r in bundled},
            ))
        return Plan(calls, checks, [bundled_call])
    if name == "weights-derive":
        calls = [["weights", "--degree", str(n), "--invariant", "v3", "--format", "json"]
                 for n in WEIGHT_DEGREES]
        checks = [partial(_check_weights, degree=n) for n in WEIGHT_DEGREES]
        return Plan(calls, checks, [calls[-1]])
    call = ["verify", "--perturbations", str(VERIFY_PERTURBATIONS), "--seed", str(seed)]
    warmup = ["verify", "--perturbations", "20", "--seed", str(seed)]
    return Plan([call], [partial(_check_verify, seed=seed)], [warmup])


def _check_compute(rc: int, out: str, names: list[str], expected: dict) -> tuple[int, int, list[str]]:
    """Every row consistent, one row per input in input order, and the
    bundled rows equal to their expected values."""
    notes = [] if rc == 0 else [f"compute exited {rc}"]
    try:
        rows = json.loads(out)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return len(names), len(names), notes + [f"unreadable compute output: {exc}"]
    failed = max(0, len(names) - len(rows))
    if len(rows) != len(names):
        notes.append(f"{len(rows)} rows for {len(names)} knots")
    for want, row in zip(names, rows):
        bad = row.get("name") != want or row.get("consistent") != "yes"
        for inv, value in expected.get(want, {}).items():
            columns = [c for c in row if c.startswith(inv + "_")]
            bad = bad or not columns or any(Fraction(row[c]) != Fraction(value) for c in columns)
        if bad:
            failed += 1
            if len(notes) < 5:
                notes.append(f"bad row {row}")
    if rc != 0 and not failed:
        failed = len(names)
    return len(names), failed, notes


def _double_factorial(n: int) -> int:
    return 1 if n <= 1 else n * _double_factorial(n - 2)


def w3_reference(word: str) -> int:
    """w3 from its definition: 2 when all three chords pairwise cross,
    1 when exactly two pairs cross, else 0."""
    ends: dict[str, list[int]] = {}
    for pos, chord in enumerate(word.split()):
        ends.setdefault(chord, []).append(pos)
    spans = list(ends.values())
    crossing = sum(
        (a1 < b1 < a2) != (a1 < b2 < a2)
        for (a1, a2), (b1, b2) in combinations(spans, 2)
    )
    return {3: 2, 2: 1}.get(crossing, 0)


def _check_weights(rc: int, out: str, degree: int) -> tuple[int, int, list[str]]:
    """All (2n-1)!! diagrams present; degree 3 equals w3, degree 4 is 0;
    both relation checks hold."""
    total = _double_factorial(2 * degree - 1)
    notes = [] if rc == 0 else [f"weights --degree {degree} exited {rc}"]
    try:
        doc = json.loads(out)
        rows = doc["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return total, total, notes + [f"unreadable weights output: {exc}"]
    if not (doc.get("one_term_ok") is True and doc.get("four_term_ok") is True):
        return total, total, notes + [f"degree {degree} relations failed: {doc.get('violations')}"]
    failed = max(0, total - len(rows))
    if len(rows) != total:
        notes.append(f"{len(rows)} diagrams at degree {degree}, want {total}")
    for row in rows:
        want = w3_reference(row["diagram"]) if degree == 3 else 0
        if Fraction(row["value"]) != want:
            failed += 1
            if len(notes) < 5:
                notes.append(f"degree {degree} {row['diagram']}: {row['value']}, want {want}")
    if rc != 0 and not failed:
        failed = total
    return total, failed, notes


_SUITE_LINE = re.compile(r"(PASS|FAIL) (\S+): (.*)\Z")


def _check_verify(rc: int, out: str, seed: int) -> tuple[int, int, list[str]]:
    """Exit code 0 and a PASS line for every suite, the invariance line
    naming the requested perturbations and seed."""
    notes = [] if rc == 0 else [f"verify exited {rc}"]
    status = {}
    for line in out.splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            status[m.group(2)] = (m.group(1), m.group(3))
    failed = 0
    for suite in VERIFY_SUITES:
        verdict, detail = status.get(suite, ("missing", ""))
        ok = verdict == "PASS"
        if suite == "invariance":
            ok = ok and f"{VERIFY_PERTURBATIONS} perturbations, seed {seed}" in detail
        if not ok:
            failed += 1
            notes.append(f"{suite}: {verdict} {detail}")
    if rc != 0 and not failed:
        failed = len(VERIFY_SUITES)
    return len(VERIFY_SUITES), failed, notes
