"""Command line front end: batch invariant computation, verification
suites, and coordinate / weight / expansion reports.

Output is byte-deterministic for a fixed argument list: orderings are
taken from the input, JSON keys are sorted, and randomness is seeded.
Rationals print as "p/q" strings, integers as plain "n".

Exit codes: 0 success / all consistent, 1 a check or consistency
comparison failed, 2 malformed input or usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from functools import lru_cache

from .codes import (
    KnotRecord,
    bundled_knot_table,
    is_realizable,
    load_knot_table,
    parse_gauss_code,
    random_perturbations,
    rotate_basepoint,
)
from .coordinates import CrossingCoordinates, coordinate_table
from .errors import NonPlanarCode, TooLarge, VassilievError, WrongDegree
from .expansion import ResidualRow, bundled_expansion, check_expansion, load_expansion, solve_basis_values
from .invariants import INVARIANTS, PATTERN_FILES, canonical, family, invariant_report, methods
from .weights import (
    MAX_ENUM_DEGREE,
    check_relations,
    chord_word,
    enumerate_chord_diagrams,
    four_term_quadruples,
    realize_chord_diagram,
    weight_from_invariant,
    weight_system_from_function,
    weight_systems,
)


def _fields(record) -> dict:
    """A named tuple's fields as a row, each value printed with str."""
    return {f: str(v) for f, v in record._asdict().items()}


def _print_rows(fmt: str, columns: list[str], rows: list[dict], out) -> None:
    """One row dict per record; values already strings."""
    if fmt == "json":
        print(json.dumps({"rows": rows}, sort_keys=True), file=out)
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
    else:
        for row in rows:
            print("  ".join(f"{c}={row[c]}" for c in columns if c in row), file=out)


def _corpus(args) -> list[KnotRecord]:
    """The knots from --code, --table or the bundled table, in input order.

    Every code must be the code of a plane knot diagram; the methods are
    only known to agree, and to be invariants, on those.
    """
    if args.code is not None and args.table:
        raise VassilievError("give either --code or --table, not both")
    if args.code is not None:
        records = [KnotRecord("-", parse_gauss_code(args.code))]
    elif args.table:
        records = load_knot_table(args.table)
    else:
        records = bundled_knot_table()
    for record in records:
        if not is_realizable(record.code):
            raise NonPlanarCode(f"knot {record.name!r} is not a plane knot diagram")
    return records


def _probe_names(registry, degree: int) -> list[str]:
    """The canonical invariants an expansion of this degree can be
    checked on."""
    return [name for name, (d, _) in registry.items() if not family(name) and d <= degree]


def cmd_compute(args, registry) -> int:
    # each family has at most one route per invariant, so --method F's report is consistent
    routes = {name: entry for name, entry in registry.items() if family(name) and args.method in ("all", family(name))}
    rows = []
    for record in _corpus(args):
        report = invariant_report(record.code, routes)
        row = {"name": record.name, **{c: str(value) for c, value in report.values.items()}}
        if args.method == "all":
            row["consistent"] = "yes" if report.consistent else "no"
        rows.append(row)
    _print_rows(args.format, ["name", *routes] + (["consistent"] if args.method == "all" else []), rows, sys.stdout)
    return 0 if all(row.get("consistent") != "no" for row in rows) else 1


def cmd_coords(args, registry) -> int:
    rows = [{"name": record.name, **_fields(entry)} for record in _corpus(args) for entry in coordinate_table(record.code)]
    _print_rows(args.format, ["name", *CrossingCoordinates._fields], rows, sys.stdout)
    return 0


def _weight_system(args, registry):
    if args.invariant:
        degree, fn = registry[args.invariant]
        # below its degree an invariant's alternating sum depends on the
        # realization, not on the chord diagram
        if args.degree < degree:
            raise WrongDegree(f"{args.invariant} has degree {degree}; it induces no weight system at degree {args.degree}")
        return weight_from_invariant({args.invariant: fn}, args.degree)[args.invariant]
    for name, ws in weight_systems().items():  # the registry's first reference of this degree
        if name in registry and ws.degree == args.degree:
            return ws
    raise VassilievError(f"no bundled weight system of degree {args.degree}; use --invariant")


def cmd_weights(args, registry) -> int:
    ws = _weight_system(args, registry)
    rows = [{"diagram": chord_word(d), "value": str(value)} for d, value in ws.table.items()]
    report = check_relations(ws)
    if args.format == "json":
        print(json.dumps({"rows": rows, **report._asdict()}, sort_keys=True))
    else:
        _print_rows(args.format, ["diagram", "value"], rows, sys.stdout)
        verdict = sys.stderr if args.format == "csv" else sys.stdout  # csv keeps stdout one table
        print(f"one_term_ok={report.one_term_ok}  four_term_ok={report.four_term_ok}", file=verdict)
        for v in report.violations:
            print(f"violation: {v}", file=verdict)
    return 0 if report.one_term_ok and report.four_term_ok else 1


def cmd_expansion(args, registry) -> int:
    if args.file:
        expansion = load_expansion(args.file)
    else:
        expansion = bundled_expansion(args.degree)
    corpus = _corpus(args)
    names = _probe_names(registry, expansion.degree)
    if args.action == "check":
        report = check_expansion(expansion, names, corpus, registry)
        _print_rows(args.format, list(ResidualRow._fields), [_fields(r) for r in report.rows], sys.stdout)
        return 0 if report.all_zero else 1
    report = solve_basis_values(expansion, names, corpus, registry)
    rows = []
    for solved in report.probes:
        if not solved.consistent:
            rows.append(
                {"probe": solved.probe, "knot": "-", "value": "-",
                 "certificate": solved.certificate}
            )
            continue
        for knot in sorted(solved.values):
            rows.append(
                {"probe": solved.probe, "knot": knot,
                 "value": str(solved.values[knot]), "certificate": ""}
            )
    _print_rows(args.format, ["probe", "knot", "value", "certificate"], rows, sys.stdout)
    return 0 if report.consistent else 1


def _suite_calibration(args, registry, references, relations):
    # each column must give the bundled expected value of its invariant
    knots = {record.name: record for record in bundled_knot_table()}
    checks = 0
    for name in ("unknot", "3_1"):
        for column, value in invariant_report(knots[name].code, registry).values.items():
            want = knots[name].expected.get(canonical(column))
            if value != want:
                return False, f"{column} on {name} gave {value}, want {want}"
            checks += 1
    return True, f"{checks} values"


def _suite_relations(args, registry, references, relations):
    for name, ws in references.items():
        report = relations(name)
        if not (report.one_term_ok and report.four_term_ok):
            return False, f"{ws.name}: {report.violations[0]}"
    const = weight_system_from_function(lambda d: 1, 2, "const1")
    report = check_relations(const)
    if report.one_term_ok:
        return False, "constant system passed the isolated-chord check"
    return True, f"{', '.join(ws.name for ws in references.values())} pass; constant-1 control fails as it should"


def _suite_weights(args, registry, references, relations):
    # each canonical invariant induces its reference weight system at its
    # own degree and vanishes at every higher degree that has a reference;
    # each degree's diagrams are realized once for all invariants due there
    degrees = {name: degree for name, (degree, _) in registry.items() if not family(name)}
    for name, degree in degrees.items():
        if name not in references:
            return False, f"{name} has no reference weight system at degree {degree}"
    checks = 0
    for n in range(min(degrees.values()), max(ws.degree for ws in references.values()) + 1):
        due = {name: registry[name][1] for name, degree in degrees.items() if degree <= n}
        for name, derived in weight_from_invariant(due, n).items():
            for d, got in derived.table.items():
                want = references[name].evaluate(d) if degrees[name] == n else 0
                if got != want:
                    return False, f"{name} weight at degree {n} is {got} on {chord_word(d)}, want {want}"
                checks += 1
    return True, f"{checks} diagrams"


def _suite_4t(args, registry, references, relations):
    for name in (name for name, ws in references.items() if ws.degree == args.degree):
        report = relations(name)
        if not report.four_term_ok:
            return False, next(v for v in report.violations if v.startswith("4T:"))
    return True, f"{len(four_term_quadruples(args.degree))} quadruples at degree {args.degree}"


def _suite_expansion(args, registry, references, relations):
    corpus = _corpus(args)
    for degree in (2, 3):
        expansion = bundled_expansion(degree)
        report = check_expansion(expansion, _probe_names(registry, degree), corpus, registry)
        if not report.all_zero:
            bad = next(r for r in report.rows if r.residual != 0)
            return False, f"n={degree} residual {bad.residual} at ({bad.probe}, {bad.knot})"
    solved = solve_basis_values(expansion, _probe_names(registry, 3), corpus, registry)  # the n=3 expansion
    values = {p.probe: dict(p.values) for p in solved.probes}
    if not solved.consistent:
        return False, "basis solve reported inconsistency"
    # each solved basis value must be the bundled table's expected value
    expected = {record.name: record.expected for record in bundled_knot_table()}
    if any(value != expected[knot].get(probe) for probe, known in values.items() for knot, value in known.items()):
        return False, f"basis solve gave {values}"
    at_second = ", ".join(f"{probe}={known[expansion.terms[1].knot]}" for probe, known in values.items())
    return True, f"n=2 and n=3 residuals zero; solved {at_second} on the second basis knot"


def _suite_invariance(args, registry, references, relations):
    corpus = _corpus(args)
    if not corpus:
        raise VassilievError("the invariance suite needs at least one knot")
    baseline = []  # by position: names need not be unique
    checks = 0

    def changed(code, want):
        """The first method whose value on code differs from want."""
        got = invariant_report(code, registry).values
        return next((column for column in want if got[column] != want[column]), None)

    for record in corpus:
        report = invariant_report(record.code, registry)
        for key, agree in report.agreement.items():
            if not agree:
                return False, f"{record.name}: {key} methods disagree"
        values = report.values
        baseline.append(values)
        for k in range(1, len(record.code.passages)):
            column = changed(rotate_basepoint(record.code, k), values)
            if column:
                return False, f"{record.name}: {column} changed at rotation {k}"
            checks += len(values)
    rng = random.Random(args.seed)
    for i in range(args.perturbations):
        record, values = corpus[i % len(corpus)], baseline[i % len(corpus)]
        perturbed = random_perturbations(record.code, 1, rng)[0]
        column = changed(perturbed, values)
        if column:
            return False, f"{record.name}: {column} changed under perturbation {i}"
        checks += len(values)
    return True, f"{checks} comparisons, {args.perturbations} perturbations, seed {args.seed}"


def _suite_realization(args, registry, references, relations):
    diagrams = [d for degree in range(args.degree + 1) for d in enumerate_chord_diagrams(degree)]
    for d in diagrams:
        realize_chord_diagram(d)  # raises unless d's double points trace back to d
    return True, f"{len(diagrams)} diagrams through degree {args.degree}"


_SUITES = {
    "calibration": _suite_calibration,
    "relations": _suite_relations,
    "weights": _suite_weights,
    "4t": _suite_4t,
    "expansion": _suite_expansion,
    "invariance": _suite_invariance,
    "realization": _suite_realization,
}


def cmd_verify(args, registry) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    # one table of the registry's references for every suite of this run
    references = {name: ws for name, ws in weight_systems().items() if name in registry}
    relations = lru_cache(maxsize=None)(lambda name: check_relations(references[name]))  # each checked once
    # a --degree that a selected suite cannot take is refused before any suite runs
    degrees = sorted({ws.degree for ws in references.values()})
    if "4t" in names and args.degree not in degrees:
        raise VassilievError(f"the 4t suite needs --degree {' or '.join(map(str, degrees))}")
    if "realization" in names and args.degree > MAX_ENUM_DEGREE:
        raise TooLarge(f"the realization suite enumerates at most degree {MAX_ENUM_DEGREE}, got --degree {args.degree}")
    results = []
    for name in names:
        ok, detail = _SUITES[name](args, registry, references, relations)
        results.append({"suite": name, "passed": ok, "detail": detail})
    if args.format == "json":
        print(json.dumps({"suites": results}, sort_keys=True))
    elif args.format == "csv":
        _print_rows("csv", ["suite", "passed", "detail"], results, sys.stdout)
    else:
        for r in results:
            print(f"{'PASS' if r['passed'] else 'FAIL'} {r['suite']}: {r['detail']}")
    return 0 if all(r["passed"] for r in results) else 1


def _non_negative(text: str) -> int:
    """--perturbations and every --degree but expansion's: an integer, at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@lru_cache(maxsize=None)  # built once per process: a parser is a reference cycle
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vassiliev",
        description="Knot invariants v2 and v3 from Gauss codes, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, code_input=True):
        if code_input:
            p.add_argument("--code", help="inline Gauss code, e.g. 'O1+ U2+ O3+ U1+ O2+ U3+'")
        p.add_argument("--table", help="JSON-lines knot table path (default: bundled)")
        p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")

    def add_patterns(p):
        files = ", ".join(PATTERN_FILES[:-1]) + " and " + PATTERN_FILES[-1]
        p.add_argument("--patterns-dir", help=f"directory holding {files} to count instead of the bundled ones")

    p = sub.add_parser("compute", help="evaluate the invariants on knots")
    add_io(p)
    add_patterns(p)
    p.add_argument("--method", choices=sorted({"all", *filter(None, map(family, INVARIANTS))}), default="all")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run verification suites")
    add_io(p, code_input=False)
    add_patterns(p)
    p.add_argument("--suite", choices=["all", *sorted(_SUITES)], default="all")
    p.add_argument("--perturbations", type=_non_negative, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=_non_negative, default=3)
    p.set_defaults(func=cmd_verify, code=None)

    p = sub.add_parser("coords", help="per-crossing first-passage and sign table")
    add_io(p)
    p.set_defaults(func=cmd_coords, patterns_dir=None)

    p = sub.add_parser("weights", help="weight system values on all diagrams of a degree")
    p.add_argument("--degree", type=_non_negative, default=3)
    p.add_argument("--invariant", choices=list(INVARIANTS), help="derive the weight system from this invariant")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    add_patterns(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("expansion", help="check or solve a basis expansion")
    p.add_argument("action", choices=("check", "solve"))
    p.add_argument("--file", help="expansion JSON path (default: bundled for --degree)")
    p.add_argument("--degree", type=int, default=3, choices=(2, 3))
    add_io(p, code_input=False)
    add_patterns(p)
    p.set_defaults(func=cmd_expansion, code=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.func(args, methods(args.patterns_dir))
        sys.stdout.flush()  # so a closed pipe shows up here, not at exit
        return status
    except VassilievError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early: stop quietly with the shell's
        # SIGPIPE status, and let the interpreter's final flush go nowhere
        sys.stdout = open(os.devnull, "w")
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
