"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table or figure of the paper and asserts
its qualitative claims, so ``pytest benchmarks/ --benchmark-only`` doubles
as the reproduction run.  Heavy experiments are benchmarked pedantically
(one round) — the numbers of interest are the experiment outputs, not
micro-timings.

Telemetry is switched on for the whole benchmark session, so benchmarks
can read solver and cache counters (``test_bench_sweep.py`` does).  The
measured performance ledger is ``perfbench/`` (see its README), not this
suite.
"""


def pytest_configure(config):
    from repro import telemetry

    telemetry.reset()
    telemetry.enable()


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a heavy experiment with a single round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
