"""Child process of run.py: times one workload inside one interpreter.

    worker.py setup --root DIR
        Prints the seconds that ``import vassiliev`` and the first
        evaluation of all five methods on the trefoil take in this fresh
        interpreter, the same time in units of the reference timed
        around it, and the five values, which must all be 1.

    worker.py run --root DIR --workload NAME --seed N --seconds S
                  --trace 0|1 --inputs JSON
        Runs one untimed warm-up, then timed passes of the workload's CLI
        calls through ``vassiliev.cli.main`` until the next pass would
        overrun S seconds (at least two passes).  With --trace 1 every
        pass is an untraced pass followed by a traced one, and one such
        pair is enough.  Prints one JSON object with the time of every
        call of every pass and of the reference work around it, the
        output check, the stdout digest, the peak RSS and, when traced,
        the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

MODULES = ("cli", "codes", "coordinates", "diagrams", "invariants", "weights", "expansion")
TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
# seconds between reference samples inside a call; a shared host's speed
# can change within a second, and the samples must follow it
SAMPLE_EVERY = 0.2


def measure_setup(root: Path) -> dict:
    """Set-up seconds, and set-up in units of the reference timed just
    before and just after it (see ``reference``)."""
    sys.path.insert(0, str(root / "src"))
    reference()  # the interpreter's first run of it is slower; not timed
    before = time_reference()
    start = perf_counter()
    import vassiliev

    code = vassiliev.parse_gauss_code(TREFOIL)
    values = vassiliev.invariant_report(code).values
    elapsed = perf_counter() - start
    after = time_reference()
    return {"setup_s": elapsed, "setup_ref": elapsed / statistics.fmean([before, after]),
            "trefoil": values}


class _Passage:
    __slots__ = ("label", "role")

    def __init__(self, label: str, role: str):
        self.label = label
        self.role = role


def reference() -> int:
    """A fixed piece of interpreted work that uses nothing from the package.

    Its time, taken around and during every CLI call, is the unit the
    throughput is reported in.  On a shared host the speed at which this
    process runs Python can change twofold for minutes at a time; a call's
    time divided by the reference time taken around and during it cancels
    most of that.  It mixes the operations the package spends its time
    on: integer and tuple arithmetic, dict updates, scans over small
    objects by attribute, sorting and comprehensions, and, in about half
    its time, a recursive backtracking search, because the package's
    pattern matcher and triple sums are heavy in Python function calls.
    On a shared 2-vCPU host, a reference with the recursion followed the
    package's changes of speed more closely than the loops alone.
    Changing it changes the unit.
    """
    table: dict = {}
    total = 0
    for i in range(7500):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        total += len(str(i)) + max(key)
    items = [_Passage(str(i % 40), "O" if i % 2 else "U") for i in range(80)]
    for rep in range(120):
        hits = [i for i, p in enumerate(items) if p.label == str(rep % 40)]
        ranks = {v: i for i, v in enumerate(sorted(range(rep, rep + 30), key=lambda x: x * 7 % 31))}
        total += hits[0] + ranks[rep] + sum(a.role != b.role for a, b in zip(items, items[1:]))
    for _ in range(3):
        total += _queens(8)
    return total


def _queens(n: int, row: int = 0, cols: int = 0, up: int = 0, down: int = 0) -> int:
    """Placements of n non-attacking queens, by backtracking (92 for n = 8)."""
    if row == n:
        return 1
    count = 0
    for c in range(n):
        if not (cols >> c & 1 or up >> (row + c) & 1 or down >> (row - c + n) & 1):
            count += _queens(n, row + 1, cols | 1 << c, up | 1 << (row + c),
                             down | 1 << (row - c + n))
    return count


def time_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def run_pass(cli, calls, sample: bool = True):
    """One pass: (seconds per call, reference seconds for each call,
    [(exit code, stdout)], stderr).

    A call's reference time is the mean of the reference timed just
    before it, just after it and, when ``sample`` is set, every
    SAMPLE_EVERY seconds while it runs, from a timer signal; the time
    those in-call samples take is not counted in the call's seconds.
    """
    seconds = []
    refs = []
    outputs = []
    errors = []
    in_call: list[float] = []
    signal.signal(signal.SIGALRM, lambda *_: in_call.append(time_reference()))
    before = time_reference()
    for argv in calls:
        in_call.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
            try:
                rc = cli.main(list(argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds.append(perf_counter() - start - sum(in_call))
        after = time_reference()
        refs.append(statistics.fmean([before, after, *in_call]))
        before = after
        outputs.append((rc, out.getvalue()))
        errors.append(err.getvalue())
    return seconds, refs, outputs, "".join(errors)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for _, out in outputs:
        h.update(out.encode("utf-8"))
    return h.hexdigest()


def run_workload(args) -> dict:
    sys.path.insert(0, str(args.root / "src"))
    for name in MODULES:
        importlib.import_module(f"vassiliev.{name}")
    # every loaded module of the package, keyed by its name inside it
    modules = {
        name.partition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "vassiliev" or name.startswith("vassiliev.")
    }
    cli = modules["cli"]
    plan = workloads.plan(args.workload, args.seed, json.loads(args.inputs), args.root)
    expected_layers = workloads.WORKLOADS[args.workload].layers or {n for _, _, n in spans.WRAPPED}

    attempted = failed = 0
    notes: list[str] = []
    digests: set[str] = set()

    def checked(outputs, stderr):
        nonlocal attempted, failed
        for (rc, out), check in zip(outputs, plan.checks):
            a, f, n = check(rc, out)
            attempted, failed = attempted + a, failed + f
            if n and len(notes) < 10:
                notes.extend(n[:5])
                if stderr:
                    notes.append(stderr[-500:])
        digests.add(digest(outputs))

    run_pass(cli, plan.warmup)  # its outputs are checked in the timed passes

    tracer = spans.Tracer() if args.trace else None
    passes, refs, traced_passes, layer_runs = [], [], [], []
    reached: set[str] = set()
    begin = perf_counter()
    while True:
        seconds, ref_s, outputs, stderr = run_pass(cli, plan.calls)
        checked(outputs, stderr)
        passes.append(seconds)
        refs.append(ref_s)
        if tracer:
            tracer.reset()
            tracer.install(modules)
            try:
                seconds, _, outputs, stderr = run_pass(cli, plan.calls, sample=False)
            finally:
                tracer.uninstall()
            checked(outputs, stderr)
            traced_passes.append(seconds)
            layer_runs.append(tracer.metrics())
            reached |= tracer.reached()
        elapsed = perf_counter() - begin
        # two untraced passes at least, so that every call has a median
        if len(passes) >= (1 if tracer else 2) and elapsed + elapsed / len(passes) > args.seconds:
            break

    if len(digests) != 1:
        failed += 1
        notes.append(f"stdout differs between passes{' (traced vs untraced)' if tracer else ''}")
    result = {
        "passes": passes,
        "refs": refs,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "sha256": sorted(digests)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        missing = sorted(set(expected_layers) - reached)
        if missing:
            result["failed"] += 1
            result["notes"].append(f"layers with no spans: {missing}")
        result["traced_passes"] = traced_passes
        result["layers"] = {
            key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]
        }
        result["layers"]["trace.overhead_ratio"] = statistics.median(
            sum(t) / sum(u) - 1 for t, u in zip(traced_passes, passes)
        )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", default="{}")
    args = parser.parse_args()
    if args.mode == "setup":
        print(json.dumps(measure_setup(args.root)))
    else:
        print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
