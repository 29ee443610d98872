"""Benchmark of the killingtensor library and CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload check-cli --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``):

* ``check-cli``: in-process ``killingtensor check FILE --json`` over 279
  generated files at N = 3, 4, 5;
* ``oracle-cli``: in-process ``killingtensor oracle FILE --points 3 --json``
  over the same kind of files;
* ``dense-residuals``: ``condition3_residual``, ``verify_identity_suite``
  and ``check()`` in the S-operand form pairs and on entry-bound-9 inputs.

Each is a closed loop: one client in one process, next operation after
the previous one returns.  With ``--trace 0`` the run reports the
end-to-end metrics.  Set-up is timed from process start through import,
input generation, file writing and warm-up, in this process and in
fresh child processes, and reported as the median of ``SETUP_SAMPLES``.
Operations run in whole rounds for ``--seconds`` in total, split into
``SETUP_SAMPLES`` stretches between the set-up samples so that the
timing spans the whole run, until at least ``MIN_OPS`` have run, so
``op_p90_ms`` has ten samples beyond it, and until the workload's
``min_rounds`` have run.  Every result is checked and a wrong or failed
one counts as failed.  Operation and set-up times are scaled to a
reference host speed, sampled between operations (see ``pace.py``); the
wall-clock figures are printed too.

With ``--trace 1`` the run reports per-layer metrics instead: a child
process runs set-up and a fixed number of rounds untraced, then this
process runs the same traced (see ``tracer.py``); the difference of the
two wall times is ``trace.overhead_s``.  Spans are written to
``.bench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Generated files
live in ``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pace

LOADED = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 3
MIN_OPS = 100
CHILD_TIMEOUT_S = 150
# Rounds of a traced run: every check-cli file once, a fixed oracle sample,
# one round of every dense stratum.
TRACE_ROUNDS = {"check-cli": 10, "oracle-cli": 4, "dense-residuals": 1}


def import_library():
    """Import killingtensor from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import killingtensor
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import killingtensor from {SRC}: {exc}")
    location = Path(killingtensor.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"bench: killingtensor was imported from {location}, not from {SRC}")
    import workloads

    return workloads


# -- timed operation loop ----------------------------------------------------


class Loop:
    """Runs rounds of a workload and checks each outcome.

    With a ``pace``, the host speed is sampled between operations.
    """

    def __init__(self, workload, tracer=None, pace=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.pace = pace
        self.latencies_ms: list[float] = []
        self.labels: list[str] = []
        self.midpoints: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.rounds = 0

    def run_round(self) -> None:
        for op in self.workload.round(self.rounds):
            if self.tracer is not None:
                self.tracer.start_op(op.label)
            if self.pace is not None:
                self.pace.tick()
            error = None
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # noqa: BLE001 - any raise is a failed operation
                error = traceback.format_exc(limit=3)
            end = time.perf_counter()
            elapsed_ms = (end - start) * 1000
            if error is None:
                try:
                    got = op.outcome(result)
                except Exception:  # noqa: BLE001 - an unreadable result is a failure
                    got = traceback.format_exc(limit=3)
                if got != op.expected:
                    error = f"expected {op.expected!r}, got {got!r}"
            # Free the result here, not inside the next operation's clock.
            result = None
            if error is not None:
                self.failures.append(f"{op.label}: {error}")
            self.latencies_ms.append(elapsed_ms)
            self.labels.append(op.label)
            self.midpoints.append((start + end) / 2)
            self.by_label.setdefault(op.label, []).append(elapsed_ms)
        self.rounds += 1

    def run_for(self, seconds: float, min_ops: int = 0, min_rounds: int = 0) -> float:
        """Whole rounds until ``seconds`` have passed, ``min_ops`` operations
        and ``min_rounds`` rounds ran in all.

        Returns the wall time of these rounds.
        """
        start = time.perf_counter()
        while True:
            self.run_round()
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(self.latencies_ms) >= min_ops
                    and self.rounds >= min_rounds):
                if self.pace is not None:
                    self.pace.sample()
                return elapsed

    def run_rounds(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()


# -- child processes -----------------------------------------------------------


def child_command(args, mode: str, workdir: Path) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--dims", args.dims,
        mode, str(workdir),
    ]


def process_age() -> float:
    """Seconds since this process started, from ``/proc`` where it exists."""
    try:
        with open("/proc/self/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - LOADED


def child_setup(args, workdir: Path) -> tuple[float, float]:
    """Set-up time of a fresh process, as it reports it: (scaled, wall)."""
    done = subprocess.run(
        child_command(args, "--setup-only", workdir),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: set-up child exited with status {done.returncode}")
    scaled, wall = done.stdout.strip().splitlines()[-1].split()
    return float(scaled), float(wall)


def untraced_wall(args, workdir: Path) -> float:
    """Wall time of set-up plus the traced run's rounds, in an untraced child."""
    done = subprocess.run(
        child_command(args, "--untraced-pass", workdir),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: untraced child exited with status {done.returncode}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["wall_s"])


# -- modes -----------------------------------------------------------------------


def timed_setup(workloads, args, workdir: Path):
    """Build the workload; returns it, its set-up time scaled to the
    reference host speed, and the wall time (both from process start)."""
    host = pace.Pace()
    host.sample()
    workload = workloads.build(args.workload, args.seed, workdir, dims(args), host.tick)
    host.sample()
    wall = process_age()
    return workload, (wall - host.spent_s) * host.overall(), wall


def setup_only(workloads, args) -> None:
    _, scaled, wall = timed_setup(workloads, args, Path(args.setup_only))
    print(scaled, wall, flush=True)


def untraced_pass(workloads, args) -> None:
    start = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, Path(args.untraced_pass), dims(args))
    setup = time.perf_counter() - start
    workload.resolve_references()
    loop = Loop(workload)
    start = time.perf_counter()
    loop.run_rounds(TRACE_ROUNDS[args.workload])
    print(json.dumps({"wall_s": setup + time.perf_counter() - start}), flush=True)


def latency_metrics(latencies_ms: list[float], labels: list[str]) -> dict:
    by_label: dict[str, list[float]] = {}
    for label, ms in zip(labels, latencies_ms):
        by_label.setdefault(label, []).append(ms)
    # A round runs one operation of each kind; at each kind's median latency
    # it takes ``round_ms``.  Only timed library work counts, not the
    # harness's result checks, and one stalled operation moves nothing.
    round_ms = sum(statistics.median(values) for values in by_label.values())
    return {
        "ops_per_s": {"value": 1000 * len(by_label) / round_ms, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(latencies_ms, n=10)[8], "unit": "ms"},
    }


def measure(workloads, args, workdir: Path) -> tuple[Loop, dict]:
    workload, scaled, wall = timed_setup(workloads, args, workdir / "main")
    setups, setup_walls = [scaled], [wall]
    workload.resolve_references()
    host = pace.Pace()
    loop = Loop(workload, pace=host)
    stretch = args.seconds / SETUP_SAMPLES
    wall = loop.run_for(stretch)
    for i in range(1, SETUP_SAMPLES):
        scaled, setup_wall = child_setup(args, workdir / f"setup-{i}")
        setups.append(scaled)
        setup_walls.append(setup_wall)
        last = i == SETUP_SAMPLES - 1
        wall += loop.run_for(stretch, MIN_OPS if last else 0, workload.min_rounds if last else 0)
    scaled_ms = [ms * host.scale(at, workload.host_exponent)
                 for ms, at in zip(loop.latencies_ms, loop.midpoints)]
    metrics = latency_metrics(scaled_ms, loop.labels)
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MiB",
    }
    kernel = host.kernel_ms
    print(f"workload {args.workload}, seed {args.seed}: {len(scaled_ms)} ops in {wall:.2f} s, "
          f"{workload.files} input files; set-up samples (s, scaled): "
          + ", ".join(f"{s:.3f}" for s in setups))
    print(f"host speed: {len(kernel)} reference kernel samples, median "
          f"{statistics.median(kernel):.3f} ms (reference {pace.REFERENCE_MS} ms), "
          f"range {min(kernel):.3f}-{max(kernel):.3f} ms")
    print("wall clock, not scaled: " + ", ".join(
        f"{name} = {metric['value']:.6g} {metric['unit']}"
        for name, metric in latency_metrics(loop.latencies_ms, loop.labels).items())
        + f", setup_s = {statistics.median(setup_walls):.6g} s")
    return loop, metrics


def trace(workloads, args, workdir: Path) -> tuple[Loop, dict]:
    import tracer as tracing

    baseline = untraced_wall(args, workdir / "untraced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, workdir / "main", dims(args))
        setup = time.perf_counter() - start
        tracer.active = False
        workload.resolve_references()
        loop = Loop(workload, tracer)
        tracer.active = True
        start = time.perf_counter()
        loop.run_rounds(TRACE_ROUNDS[args.workload])
        wall = setup + time.perf_counter() - start
        tracer.active = False
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.ops"] = {"value": len(loop.latencies_ms), "unit": "count"}
    metrics["trace.overhead_s"] = {"value": wall - baseline, "unit": "s"}
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans)
    print(f"workload {args.workload}, seed {args.seed}: traced {len(loop.latencies_ms)} ops, "
          f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}; "
          f"wall {wall:.2f} s traced, {baseline:.2f} s untraced")
    if tracer.missing:
        print("not traced (absent): " + ", ".join(tracer.missing))
    print_stage_table(tracer, loop)
    return loop, metrics


# -- reporting -----------------------------------------------------------------


def print_stage_table(tracer, loop: Loop) -> None:
    """Self time in ms per operation kind and layer, plus promotions."""
    table = tracer.by_label()
    layers = sorted({layer for row in table.values() for layer in row})
    print("self ms per operation, by kind (columns: " + ", ".join(layers) + ", promotions)")
    for label, row in table.items():
        n = len(loop.by_label.get(label, [None]))
        cells = " ".join(f"{1000 * row.get(layer, 0.0) / n:8.2f}" for layer in layers)
        promoted = tracer.promotions_by_label.get(label, 0) / n
        print(f"  {label:<44} x{n:<4} {cells} {promoted:6.2f}")


def print_latency_table(loop: Loop) -> None:
    print("median ms per operation kind:")
    for label, values in loop.by_label.items():
        print(f"  {label:<44} x{len(values):<4} {statistics.median(values):10.2f}")


def dims(args) -> tuple[int, ...]:
    return tuple(int(n) for n in args.dims.split(","))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=TRACE_ROUNDS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller sizes for the smoke test, and the modes of child processes.
    parser.add_argument("--dims", default="3,4,5", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-pass", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: a running child is killed and waited for, and
    # the generated files are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workloads = import_library()
    if args.setup_only:
        setup_only(workloads, args)
        return 0
    if args.untraced_pass:
        untraced_pass(workloads, args)
        return 0

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        loop, metrics = (trace if args.trace else measure)(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed = len(loop.latencies_ms), len(loop.failures)
    for failure in loop.failures[:10]:
        print(f"FAILED {failure}")
    print_latency_table(loop)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ratio (failed {failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
