"""qident benchmark: verdict throughput, latency, set-up time and memory.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; qident is imported from its src/.  A run
draws its inputs from --seed and repeats whole rounds of operations until
another round would pass --seconds (at least one round).  Times are scaled
to a nominal machine speed measured by a yardstick kernel run between
operations (see CALIB_NOMINAL_S); the unscaled figures are printed too.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics; --trace 1 runs a fixed number of
rounds with every qident layer wrapped in spans, reports the per-layer
metrics and writes the spans to perfbench/out/.  --workload all (the
default) runs the four workloads one after another, each in a fresh process.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("exact_sweep", "exact_coefficients", "certified_values", "contour_integrals")
SETUP_PROBES = 11

# The machine-speed yardstick.  On a shared machine the same work runs 10-40%
# faster or slower from one minute to the next; a fixed pure-Python kernel
# (rational, integer and 276-bit mpmath arithmetic, as in qident's layers)
# slows down with it.  After each CALIB_EVERY_S or more of qident time the
# run times the kernel (once per CALIB_EVERY_S) and scales those operations
# by CALIB_NOMINAL_S / (kernel time around them), i.e. to the speed at which
# the kernel takes CALIB_NOMINAL_S (about its median on the reference
# machine).
CALIB_VALUES = [Fraction(k, k + 3) for k in range(1, 50)]
CALIB_NOMINAL_S = 0.09
CALIB_EVERY_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_p50_s": "s", "peak_rss_mib": "MiB"}


def use_checkout_source() -> None:
    """Import qident from this checkout's src/ and nowhere else."""
    if not (SRC / "qident" / "__init__.py").is_file():
        sys.exit(f"error: no qident sources under {SRC}; run from a qident checkout")
    sys.path.insert(0, str(SRC))
    import qident

    if Path(qident.__file__).resolve().parent != (SRC / "qident").resolve():
        sys.exit(f"error: imported qident from {qident.__file__}, not from {SRC}")


def setup_probe() -> None:
    """What a workload process does before its first verdict."""
    use_checkout_source()
    from qident import askey_wilson, cli, identities, integrals, powerseries, products  # noqa: F401

    identities.list_ids()
    print("ready", flush=True)


def calibrate() -> float:
    """Seconds the machine takes now for the fixed yardstick kernel."""
    gc.disable()  # the kernel's time must not depend on the size of the heap
    try:
        start = time.perf_counter()
        for k in range(4000):
            a, b = CALIB_VALUES[k % 49], CALIB_VALUES[7 * k % 49]
            (a * b + a / b) - b
        x = 1
        for k in range(60000):
            x = (x * 48271 + k) % 2147483647
        with mpmath.workprec(276):
            u, v = mpmath.mpc(1, 2) / 3, mpmath.mpc(0.5, 0.25)
            for _ in range(1500):
                v = 1 - u * v
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure_setup(probes: int) -> tuple:
    """Seconds from starting a fresh interpreter until it is ready, and the
    yardstick kernel's times, one run before the probes and one after each."""
    times, kernel = [], [calibrate()]
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            sys.exit("error: the set-up probe did not start")
        times.append(elapsed)
        kernel.append(calibrate())
    return times, kernel


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    setup, setup_kernel = measure_setup(1 if small else SETUP_PROBES)
    use_checkout_source()
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    check_rng = random.Random(f"check:{name}:{seed}")
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()

    samples = []  # scaled seconds per verdict, one entry per verdict
    attempted = failed = rounds = 0
    busy = scaled_busy = 0.0
    problems = []
    segment = []  # (seconds, verdicts) of the operations since the last kernel run
    kernel_before = calibrate()

    def close_segment():
        """Run the kernel once per CALIB_EVERY_S of the segment and scale the
        segment by the mean of the kernel times just before and just after it."""
        nonlocal kernel_before, scaled_busy
        seconds_in = sum(dt for dt, _ in segment)
        kernel_after = statistics.mean(calibrate() for _ in range(max(1, int(seconds_in / CALIB_EVERY_S))))
        scale = 2 * CALIB_NOMINAL_S / (kernel_before + kernel_after)
        for dt, k in segment:
            scaled_busy += dt * scale
            samples.extend([dt * scale / k] * k)
        segment.clear()
        kernel_before = kernel_after

    start = time.perf_counter()
    while True:
        for i, op in enumerate(workloads.ROUNDS[name](rng, OUT, small)):
            if tracer:
                tracer.op = f"{rounds}.{i}"
            t0 = time.perf_counter()
            try:
                result = op.call()
                ok = True
            except Exception:  # one failed operation; the run goes on
                traceback.print_exc()
                ok = False
            dt = time.perf_counter() - t0
            if tracer:
                tracer.op = None
            busy += dt
            attempted += op.verdicts
            segment.append((dt, op.verdicts))
            if sum(d for d, _ in segment) >= CALIB_EVERY_S:
                close_segment()
            if not ok:
                print(f"failed: {op.label}", file=sys.stderr)
                failed += op.verdicts
                continue
            f, found = op.check(result, check_rng)
            failed += f
            problems += [f"{op.label}: {p}" for p in found]
        rounds += 1
        elapsed = time.perf_counter() - start
        if small or (trace and rounds >= workloads.TRACE_ROUNDS[name]):
            break
        if not trace and elapsed * (rounds + 1) / rounds > seconds:
            break
    if segment:
        close_segment()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for p in problems[:20]:
        print(f"WRONG: {p}", file=sys.stderr)
    print(f"{name}: seed {seed}, {rounds} rounds, {attempted} verdicts, {failed} failed, "
          f"{busy:.3f} s timed, {time.perf_counter() - start:.3f} s wall")
    setup_scale = CALIB_NOMINAL_S / statistics.mean(setup_kernel)
    print(f"unscaled: {attempted / busy:.6g} verdicts/s, setup {statistics.median(setup):.6g} s; "
          f"kernel time / nominal {busy / scaled_busy:.4f} (set-up {1 / setup_scale:.4f})")
    if tracer:
        path = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(str(path))
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        metrics = tracer.metrics()
    else:
        values = {
            "setup_s": statistics.median(setup) * setup_scale,
            "verdicts_per_s": attempted / scaled_busy,
            "verdict_p50_s": statistics.median(samples),
            "peak_rss_mib": peak_rss,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"setup_s is the median of {len(setup)} fresh processes; "
              f"verdict_p50_s is the median of {len(samples)} verdicts; times scaled to the speed "
              f"at which the yardstick kernel takes {CALIB_NOMINAL_S} s")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> None:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.size == "small":
            argv += ["--size", "small"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: one short round per workload, for selfcheck.py")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe()
        return
    if args.workload == "all":
        run_all(args)
        return
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "small")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
