"""The ROADMAP baseline figures, measured with the benchmark's inputs and tracer.

    python3 bench/baseline.py

Inputs are ``INPUTS`` Benenti tensors at entry bound 3 on the Euclidean
sphere, drawn with the benchmark's generators from seed ``SEED``.  Each
figure is the median over inputs of the median over ``REPEATS`` calls.  Stage tables give traced self time
per layer for one input, and count int64 -> object promotions.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import killingtensor as kt  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 0
INPUTS = 5
REPEATS = 3


def seconds(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stages(call) -> tuple[dict[str, float], int]:
    """Self seconds per layer and promotions of one traced call."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.start_op("call")
        call()
    finally:
        tracer.active = False
        tracer.uninstall()
    return dict(tracer.self_s), tracer.promotions


def print_stages(title: str, call) -> None:
    self_s, promotions = stages(call)
    cells = ", ".join(f"{layer} {1000 * s:.1f}" for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]))
    print(f"  {title}: {promotions} promotions; self ms: {cells}")


def machine() -> str:
    model = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{model}, {os.cpu_count()} CPUs; Python {platform.python_version()}, "
            f"numpy {np.__version__}")


def main() -> None:
    print(machine())

    def benenti(n: int) -> list:
        rng = wl.stream(SEED, "baseline", n)
        model = wl.model_space("sphere", n)
        return [wl.generate("benenti", model, rng, wl.CLI_BOUND) for _ in range(INPUTS)]

    inputs = {n: benenti(n) for n in (3, 4, 5)}
    models = {n: wl.model_space("sphere", n) for n in (3, 4, 5)}
    kt.check(inputs[3][0], models[3])  # first numpy calls

    for n in (3, 4, 5):
        ms = [1000 * seconds(lambda K=K: kt.check(K, models[n]), REPEATS) for K in inputs[n]]
        print(f"check() default forms, N={n}: {statistics.median(ms):.1f} ms "
              f"(inputs: {', '.join(f'{v:.1f}' for v in ms)})")

    print("check() at N=5, default vs young-a + ks2-hook-yin, per input (ms, promotions):")
    gaps = []
    for i, K in enumerate(inputs[5]):
        default = 1000 * seconds(lambda: kt.check(K, models[5]), REPEATS)
        pair = 1000 * seconds(lambda: kt.check(K, models[5], "young-a", "ks2-hook-yin"), REPEATS)
        promoted = stages(lambda: kt.check(K, models[5], "young-a", "ks2-hook-yin"))[1]
        print(f"  input {i}: {default:.1f} vs {pair:.1f}, {promoted} promotions")
        gaps.append((pair / default, i))
    worst = inputs[5][max(gaps)[1]]
    print_stages("default forms on the widest-gap input", lambda: kt.check(worst, models[5]))
    print_stages("young-a + ks2-hook-yin on it",
                 lambda: kt.check(worst, models[5], "young-a", "ks2-hook-yin"))

    K = inputs[4][0]
    print(f"condition3_residual, N=4: {seconds(lambda: kt.condition3_residual(K, models[4]), 1):.2f} s")
    print_stages("condition3_residual, N=4", lambda: kt.condition3_residual(K, models[4]))

    for n in (3, 4, 5):
        ms = [1000 * seconds(lambda K=K: kt.integrable_oracle(K, models[n], 10), 1) for K in inputs[n]]
        print(f"integrable_oracle, 10 points, N={n}: {statistics.median(ms):.1f} ms")


if __name__ == "__main__":
    main()
