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
from fractions import Fraction

from .codes import (
    KnotRecord,
    bundled_knot_table,
    is_realizable,
    load_knot_table,
    parse_gauss_code,
    random_perturbations,
    rotate_basepoint,
)
from .coordinates import coordinate_table
from .diagrams import double_point_diagram
from .errors import NonPlanarCode, VassilievError, WrongDegree
from .expansion import bundled_expansion, check_expansion, load_expansion, solve_basis_values
from .invariants import (
    CANONICAL,
    INVARIANTS,
    REPORT_COLUMNS,
    family,
    invariant_report,
    methods,
)
from .weights import (
    MAX_ENUM_DEGREE,
    check_relations,
    chord_word,
    enumerate_chord_diagrams,
    four_term_quadruples,
    realize_chord_diagram,
    w2,
    w3,
    weight_from_invariant,
    weight_system_from_function,
)

_TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"


def _rat(value) -> str:
    return str(Fraction(value))


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
    return [name for name in CANONICAL if registry[name][0] <= degree]


def cmd_compute(args, registry) -> int:
    columns = [c for c in REPORT_COLUMNS if args.method in ("all", family(c))]
    rows = []
    all_consistent = True
    for record in _corpus(args):
        row = {"name": record.name}
        if args.method == "all":
            report = invariant_report(record.code, registry)
            row.update((c, _rat(value)) for c, value in report.values.items())
            row["consistent"] = "yes" if report.consistent else "no"
            all_consistent = all_consistent and report.consistent
        else:
            row.update((c, _rat(registry[c][1](record.code))) for c in columns)
        rows.append(row)
    _print_rows(args.format, ["name", *columns] + (["consistent"] if args.method == "all" else []), rows, sys.stdout)
    return 0 if all_consistent else 1


def cmd_coords(args, registry) -> int:
    rows = []
    for record in _corpus(args):
        for entry in coordinate_table(record.code):
            rows.append(
                {
                    "name": record.name,
                    "label": entry.label,
                    "delta": str(entry.delta),
                    "epsilon": str(entry.epsilon),
                }
            )
    _print_rows(args.format, ["name", "label", "delta", "epsilon"], rows, sys.stdout)
    return 0


def _weight_system(args, registry):
    if args.invariant:
        degree, fn = registry[args.invariant]
        # below its degree an invariant's alternating sum depends on the
        # realization, not on the chord diagram
        if args.degree < degree:
            raise WrongDegree(f"{args.invariant} has degree {degree}; it induces no weight system at degree {args.degree}")
        return weight_from_invariant(fn, args.degree, args.invariant)
    if args.degree == 2:
        return weight_system_from_function(w2, 2, "w2")
    if args.degree == 3:
        return weight_system_from_function(w3, 3, "w3")
    raise VassilievError(f"no bundled weight system of degree {args.degree}; use --invariant")


def cmd_weights(args, registry) -> int:
    ws = _weight_system(args, registry)
    rows = [
        {"diagram": chord_word(d), "value": _rat(ws.evaluate(d))}
        for d in enumerate_chord_diagrams(args.degree)
    ]
    report = check_relations(ws)
    if args.format == "json":
        doc = {
            "rows": rows,
            "one_term_ok": report.one_term_ok,
            "four_term_ok": report.four_term_ok,
            "violations": list(report.violations),
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        _print_rows(args.format, ["diagram", "value"], rows, sys.stdout)
        print(f"one_term_ok={report.one_term_ok}  four_term_ok={report.four_term_ok}")
        for v in report.violations:
            print(f"violation: {v}")
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
        rows = [
            {"probe": r.probe, "knot": r.knot, "residual": _rat(r.residual)}
            for r in report.rows
        ]
        _print_rows(args.format, ["probe", "knot", "residual"], rows, sys.stdout)
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
                 "value": _rat(solved.values[knot]), "certificate": ""}
            )
    _print_rows(args.format, ["probe", "knot", "value", "certificate"], rows, sys.stdout)
    return 0 if report.consistent else 1


def _suite_calibration(args, registry):
    checks = 0
    for word, want in (("", 0), (_TREFOIL, 1)):
        report = invariant_report(parse_gauss_code(word), registry)
        for column, value in report.values.items():
            if value != want:
                return False, f"{column} on {word!r} gave {value}, want {want}"
            checks += 1
    return True, f"{checks} values"


def _suite_relations(args, registry):
    for ws in (weight_system_from_function(w2, 2, "w2"),
               weight_system_from_function(w3, 3, "w3")):
        report = check_relations(ws)
        if not (report.one_term_ok and report.four_term_ok):
            return False, f"{ws.name}: {report.violations[0]}"
    const = weight_system_from_function(lambda d: 1, 2, "const1")
    report = check_relations(const)
    if report.one_term_ok:
        return False, "constant system passed the isolated-chord check"
    return True, "w2, w3 pass; constant-1 control fails as it should"


def _suite_weights(args, registry):
    # each canonical invariant induces w2 or w3 at its own degree and
    # vanishes at every higher one
    references = {2: w2, 3: w3}
    checks = 0
    for name in CANONICAL:
        degree, fn = registry[name]
        for n in range(degree, max(references) + 1):
            derived = weight_from_invariant(fn, n, f"{name}@{n}")
            for d in enumerate_chord_diagrams(n):
                got, want = derived.evaluate(d), references[n](d) if n == degree else 0
                if got != want:
                    return False, f"{name} weight at degree {n} is {got} on {chord_word(d)}, want {want}"
                checks += 1
    return True, f"{checks} diagrams"


def _suite_4t(args, registry):
    degree = args.degree
    if degree not in (2, 3):
        raise VassilievError("the 4t suite needs --degree 2 or 3")
    report = check_relations(weight_system_from_function(w2 if degree == 2 else w3, degree, f"w{degree}"))
    if not report.four_term_ok:
        return False, next(v for v in report.violations if v.startswith("4T:"))
    return True, f"{len(four_term_quadruples(degree))} quadruples at degree {degree}"


def _suite_expansion(args, registry):
    corpus = _corpus(args)
    for degree in (2, 3):
        expansion = bundled_expansion(degree)
        report = check_expansion(expansion, _probe_names(registry, degree), corpus, registry)
        if not report.all_zero:
            bad = next(r for r in report.rows if r.residual != 0)
            return False, f"n={degree} residual {bad.residual} at ({bad.probe}, {bad.knot})"
    solved = solve_basis_values(bundled_expansion(3), _probe_names(registry, 3), corpus, registry)
    values = {p.probe: dict(p.values) for p in solved.probes}
    if not solved.consistent:
        return False, "basis solve reported inconsistency"
    if values["v2"].get("4_1") != Fraction(-1) or values["v3"].get("4_1") != Fraction(0):
        return False, f"basis solve gave {values}"
    return True, "n=2 and n=3 residuals zero; solved v2=-1, v3=0 on the second basis knot"


def _suite_invariance(args, registry):
    corpus = _corpus(args)
    baseline = {}
    checks = 0

    def changed(code, want):
        """The first method whose value on code differs from want."""
        got = invariant_report(code, registry).values
        return next((column for column in want if got[column] != want[column]), None)

    for record in corpus:
        report = invariant_report(record.code, registry)
        if not report.v2_consistent:
            return False, f"{record.name}: v2 methods disagree"
        if not report.v3_consistent:
            return False, f"{record.name}: v3 methods disagree"
        values = baseline[record.name] = report.values
        for k in range(1, len(record.code.passages)):
            column = changed(rotate_basepoint(record.code, k), values)
            if column:
                return False, f"{record.name}: {column} changed at rotation {k}"
            checks += len(values)
    rng = random.Random(args.seed)
    for i in range(args.perturbations):
        record = corpus[i % len(corpus)]
        perturbed = random_perturbations(record.code, 1, rng)[0]
        values = baseline[record.name]
        column = changed(perturbed, values)
        if column:
            return False, f"{record.name}: {column} changed under perturbation {i}"
        checks += len(values)
    return True, f"{checks} comparisons, {args.perturbations} perturbations, seed {args.seed}"


def _suite_realization(args, registry):
    top = min(args.degree, MAX_ENUM_DEGREE)
    count = 0
    for degree in range(top + 1):
        for d in enumerate_chord_diagrams(degree):
            code = realize_chord_diagram(d)
            if double_point_diagram(code) != d:
                return False, f"round trip failed on {chord_word(d)}"
            count += 1
    return True, f"{count} diagrams through degree {top}"


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
    failed = False
    results = []
    for name in names:
        ok, detail = _SUITES[name](args, registry)
        results.append({"suite": name, "passed": ok, "detail": detail})
        failed = failed or not ok
    if args.format == "json":
        print(json.dumps({"suites": results}, sort_keys=True))
    else:
        for r in results:
            print(f"{'PASS' if r['passed'] else 'FAIL'} {r['suite']}: {r['detail']}")
    return 1 if failed else 0


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
        p.add_argument(
            "--patterns-dir",
            help="directory holding v2.pat, v3_pv.pat and v3_theorem.pat to count instead of the bundled ones",
        )

    p = sub.add_parser("compute", help="evaluate the invariants on knots")
    add_io(p)
    add_patterns(p)
    p.add_argument("--method", choices=sorted({"all", *map(family, REPORT_COLUMNS)}), default="all")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run verification suites")
    add_io(p, code_input=False)
    add_patterns(p)
    p.add_argument("--suite", choices=["all", *sorted(_SUITES)], default="all")
    p.add_argument("--perturbations", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=cmd_verify, code=None)

    p = sub.add_parser("coords", help="per-crossing first-passage and sign table")
    add_io(p)
    p.set_defaults(func=cmd_coords, patterns_dir=None)

    p = sub.add_parser("weights", help="weight system values on all diagrams of a degree")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--invariant", choices=list(INVARIANTS), help="derive the weight system from this invariant")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    add_patterns(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("expansion", help="check or solve a basis expansion")
    p.add_argument("action", choices=("check", "solve"))
    p.add_argument("--file", help="expansion JSON path (default: bundled for --degree)")
    p.add_argument("--degree", type=int, default=3, choices=(2, 3))
    p.add_argument("--table", help="JSON-lines knot table path (default: bundled)")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
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
