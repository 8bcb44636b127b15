"""Benchmark of the vassiliev command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N [--seconds S]

Run from the root of a source checkout; only the standard library is
needed.  One run generates the workload's inputs from the seed, measures
set-up time in fresh interpreters, then times the workload in a single
child process (a closed loop with one client: each CLI call starts when
the previous one has returned).  Throughput is reported per unit of a
fixed reference computation timed around every call, because this
process's speed on a shared host changes too much from minute to minute
for seconds to compare across runs; the record line also gives it per
second.  Set-up time is scaled the same way (see REFERENCE_S).  The last
line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it records the
environment, the inputs and the stdout digest.  ``--workload all`` runs
every workload with --trace 0 and prints, for each, its record line and
each end-to-end metric by name, unit and workload.

Exit status: 0 when every output checked correct, 1 when a check
failed, 2 when the checkout is incomplete or a child process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = BENCH / ".work"
SETUP_SAMPLES = 15
RUN_LIMIT = 170  # seconds for all child processes of one run, which must end within 180
# setup_s is in seconds of a host on which worker.reference() takes this
# long: each set-up sample in reference units, times REFERENCE_S.  Like
# items_per_ref, it then follows the host's changes of speed much less
# than raw seconds do.
REFERENCE_S = 0.025


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child(args: list[str], deadline: float) -> dict:
    """Run a worker.py child to completion and parse its JSON line.

    Children cache bytecode under the work directory, whatever the
    environment says, so that set-up time is that of an installed
    package: loading cached bytecode, not compiling the sources.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    command = [sys.executable, "-X", f"pycache_prefix={WORKDIR / 'pycache'}",
               str(BENCH / "worker.py"), *args, "--root", str(ROOT)]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} ran past the {RUN_LIMIT} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _check_checkout() -> None:
    for needed in (ROOT / "src" / "vassiliev" / "cli.py", ROOT / "tests" / "_braids.py"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(record, result) of one run of one workload."""
    deadline = time.monotonic() + RUN_LIMIT
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        inputs = workloads.generate(workload, seed, Path(tmp), ROOT)
        setup = []
        if not trace:
            _child(["setup"], deadline)  # fills the bytecode cache; not timed
            setup = [_child(["setup"], deadline) for _ in range(SETUP_SAMPLES)]
        out = _child(
            ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--inputs", json.dumps(inputs)],
            deadline,
        )

    # Each call's median over the passes, summed: a pass time that one
    # call slowed by a burst of load on the host does not move.  pass_ref
    # does the same with each call's time over the reference time around
    # it (see worker.reference), which cancels the host's changes of speed.
    pass_s = sum(statistics.median(calls) for calls in zip(*out["passes"]))
    pass_ref = sum(
        statistics.median(t / r for t, r in zip(times, refs))
        for times, refs in zip(zip(*out["passes"]), zip(*out["refs"]))
    )
    items = out["attempted"] / (len(out["passes"]) * (1 + trace))
    for probe in setup:
        out["attempted"] += 1
        if set(probe["trefoil"].values()) != {1}:
            out["failed"] += 1
            out["notes"].append(f"set-up probe: trefoil evaluated to {probe['trefoil']}")
    if trace:
        metrics = out["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_ref"] for p in setup) * REFERENCE_S,
            "items_per_ref": items / pass_ref,
            "peak_rss_mb": out["peak_rss_mb"],
        }
    alias = workloads.WORKLOADS[workload].alias
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "inputs": {k: v for k, v in inputs.items() if k != "tables"},
        "items_per_pass": items,
        "call_s": out["passes"],
        "reference_s": out["refs"],
        "traced_pass_s": out.get("traced_passes"),
        "setup_samples_s": [p["setup_s"] for p in setup],
        "setup_samples_ref": [p["setup_ref"] for p in setup],
        alias: items / pass_s if alias.endswith("_per_s") else pass_s,
        "fail_ratio": out["failed"] / out["attempted"],
        "stdout_sha256": out["sha256"],
        "notes": out["notes"],
    }
    units = _declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    return record, result


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in _contract()[kind]}


def run_all(seed: int, seconds: float) -> int:
    """Every workload with --trace 0: its record line, then each end-to-end
    metric, its raw throughput or time and its fail ratio, one per row."""
    correct = True
    attempted = failed = 0
    metrics = {}
    for name, workload in workloads.WORKLOADS.items():
        record, result = run_one(name, seed, seconds, 0)
        print(json.dumps({"record": record}, sort_keys=True))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        rows += [(workload.alias, record[workload.alias],
                  "1/s" if workload.alias.endswith("_per_s") else "s"),
                 ("fail_ratio", record["fail_ratio"], "ratio")]
        for metric, value, unit in rows:
            print(f"{name:<16} {metric:<16} {value:>14.6g}  {unit}")
        metrics.update({f"{name}:{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _check_checkout()
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        record, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
