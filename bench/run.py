#!/usr/bin/env python3
"""Run one benchmark workload in this (fresh, single-threaded) process.

    python3 bench/run.py --workload <name> --seed <int>
                         [--seconds <int>] [--trace [0|1]] [--json <path>] [--smoke]

Prints every metric by name with its unit, verifies the library's outputs,
and ends its standard output with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` runs the
separate traced protocol and reports the per-layer metrics instead of the
end-to-end ones.  Nothing is written unless ``--json`` names a file.

Exit codes: 0 ok, 1 a check failed, 2 invalid request (unknown workload, bad
seed), 3 the ``repro`` sources are not in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SCHEMA = "repro-bench/1"
DEFAULT_SECONDS = 10

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

EXIT_OK, EXIT_FAILED_CHECKS, EXIT_INVALID, EXIT_NO_LIBRARY = 0, 1, 2, 3


def guard_environment() -> None:
    """Fix everything ambient that could fork the trajectory.

    Must run before numpy is imported: the BLAS thread pools read their
    variables at load time.  Every ``REPRO_*`` knob is dropped and the kernel
    backend pinned to numpy, so an installed numba or a CI setting cannot
    change what is measured.
    """
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_KERNELS"] = "numpy"


def parse_arguments(argv):
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="time box of the timed passes (default %(default)s)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="1 = the traced protocol (per-layer metrics)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full versioned document here")
    parser.add_argument("--smoke", action="store_true",
                        help="64 ranks, one pass: schema checks only")
    return parser.parse_args(argv)


def invalid(message: str) -> int:
    print(f"bench/run.py: invalid request: {message}", file=sys.stderr)
    return EXIT_INVALID


def print_report(document: dict, section: str) -> None:
    from measure import format_rows

    rows = [("metric", "value", "unit", "p10", "p50", "p90", "n")]
    for name, entry in document[section].items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        rows.append((name, shown, entry["unit"],
                     *(f"{entry[key]:.6g}" if key in entry else ""
                       for key in ("p10", "p50", "p90")),
                     str(entry.get("n", ""))))
    checks = document["checks"]
    print(f"# {document['workload']}  seed={document['seed']}  "
          f"{'traced' if document['trace'] else 'end to end'}"
          f"{'  SMOKE' if document['smoke'] else ''}")
    print(f"# protocol: {json.dumps(document['protocol'])}")
    print(format_rows(rows))
    print(f"# checks: {checks['attempted']} attempted, {checks['failed']} failed "
          f"(failed_frac {checks['failed_frac']:.3g})")
    for failure in checks["failures"]:
        print(f"# FAILED: {failure}")
    proc = document["proc"]
    print(f"# warm-up pass: sys {proc['first_pass_sys_s']:.2f} s, "
          f"{proc['first_pass_minflt']} minor faults, "
          f"rss {proc['rss_after_first_pass_mb']:.0f} MB "
          f"(at exit {proc['rss_at_exit_mb']:.0f} MB)")


def stop_child_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    The procs runtime joins its workers on ``close()``, but it also starts
    multiprocessing's resource tracker, which otherwise outlives this process
    by a moment (it only exits once our end of its pipe closes at interpreter
    shutdown, unreaped).  Called on every path out of ``run.py``.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    descriptor, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if descriptor is None:
        return
    # Closing the "alive" descriptor ends the tracker's main loop.
    os.close(descriptor)
    tracker._fd = None
    if pid is not None:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        tracker._pid = None


def main(argv=None) -> int:
    arguments = parse_arguments(sys.argv[1:] if argv is None else argv)
    guard_environment()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: src/repro not found next to bench/; run from a "
              "full checkout", file=sys.stderr)
        return EXIT_NO_LIBRARY
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)

    import metrics

    try:
        seed = int(arguments.seed)
    except ValueError:
        return invalid(f"--seed must be an integer, got {arguments.seed!r}")
    if seed < 0:
        return invalid(f"--seed must be non-negative, got {seed}")
    if arguments.seconds < 0:
        return invalid(f"--seconds must be non-negative, got {arguments.seconds}")
    if arguments.workload not in metrics.WORKLOADS:
        return invalid(f"unknown workload {arguments.workload!r}; choose from "
                       f"{', '.join(metrics.WORKLOADS)}")

    import measure
    pin = measure.CpuPin()
    heap_kept = measure.keep_the_heap()

    import workloads
    workload = workloads.make_workloads()[arguments.workload]

    from repro.collectives import active_backend

    machine = measure.machine_fingerprint(
        ROOT, kernel_backend=active_backend().name, pinned_cpu=pin.cpu)
    workload.prepare(seed, arguments.smoke)     # inputs, before any clock
    if arguments.trace:
        import tracing
        parts = tracing.measure(workload, machine, pin, ROOT)
        section, units = "layers", metrics.PER_LAYER_UNITS
    else:
        import endtoend
        parts = endtoend.measure(workload, float(arguments.seconds))
        section, units = "metrics", metrics.END_TO_END_UNITS
    machine["loadavg_end"] = measure.loadavg()
    machine["heap_kept"] = heap_kept

    checks = parts["checks"]
    document = {
        "schema": SCHEMA,
        "status": "ok" if checks.failed == 0 else "failed_checks",
        "workload": workload.name,
        "seed": seed,
        "trace": bool(arguments.trace),
        "smoke": arguments.smoke,
        "inputs": workload.describe(),
        "protocol": parts["protocol"],
        section: parts[section],
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failed_frac": checks.failed / checks.attempted,
                   "failures": checks.failures},
        "proc": parts["proc"],
        "machine": machine,
    }
    for extra in ("passes", "solution", "spans", "notes"):
        if extra in parts:
            document[extra] = parts[extra]
    missing = sorted(set(units) - set(document[section]))
    if missing:
        raise RuntimeError(f"run produced no value for {missing}")

    print_report(document, section)
    if arguments.json:
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": document[section][name]["value"],
                           "unit": unit} for name, unit in units.items()},
    }))
    return EXIT_OK if checks.failed == 0 else EXIT_FAILED_CHECKS


if __name__ == "__main__":
    try:
        exit_code = main()
    finally:
        stop_child_processes()
    sys.exit(exit_code)
