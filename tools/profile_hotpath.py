"""Profile the event-engine hot path of an open-system stream.

The optimisation loop behind ``docs/PERFORMANCE.md`` is: run this
harness, read the ranked hot-function table, make the change, re-run
the A/B bench against the reference oracle.  It drives the small-kernel
leg of ``benchmarks/legs.py`` — the bursty multi-tenant stream
``benchmarks/bench_engine.py`` and ``benchmarks/bench_scale.py`` run —
through cProfile and prints the top functions by own-time (``tottime``) —
the number that tells you where the interpreter actually spends its
per-event budget, as opposed to cumulative time, which every caller
up the stack inherits.

Usage:

    python tools/profile_hotpath.py                   # 10^4 requests
    python tools/profile_hotpath.py --count 50000 --top 40
    python tools/profile_hotpath.py --fleet           # fleet leg
    python tools/profile_hotpath.py --scheme baseline # firmware dispatch
    python tools/profile_hotpath.py --spec spec.json  # any ExperimentSpec
    python tools/profile_hotpath.py --sort cumtime    # callers' view
    python tools/profile_hotpath.py --output prof.out # pstats dump

Warm-up (2000 requests, untraced) fills the interpreter-lifetime
caches first, so the profile shows the steady-state engine, not
first-touch kernel-profile loads.

``--scheme`` picks the scheme the built-in legs stream through
(default ``accelos``): ``baseline`` profiles the firmware dispatch path
(FIFO on the K20m legs), ``ek`` the Elastic Kernels session.

``--spec PATH`` profiles ``repro.api.run`` on an ``ExperimentSpec``
JSON file instead (one process, no result cache), after an untraced
``warm_caches(spec)``.  The ``--fleet`` leg is least-loaded placement
without stealing, where the allocation memo mostly hits; a spec reaches
any other regime, e.g. an overloaded work-stealing fleet where the
memo mostly misses.  ``--count`` does not apply: the spec sets it.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from legs import (PLACEMENT, SCHEME, WARMUP_COUNT,  # noqa: E402
                  arrival_iter, build_fleet)

DEFAULT_COUNT = 10_000
SCHEMES = ("baseline", "ek", "accelos")


def build_runner(fleet, scheme=SCHEME):
    """``(make, run)`` thunk pair for the chosen leg and scheme."""
    if fleet:
        from repro.harness import FleetOpenSystemExperiment

        def make():
            return FleetOpenSystemExperiment(build_fleet())

        def run(experiment, count):
            return experiment.run_stream(arrival_iter(count), scheme,
                                         PLACEMENT)
    else:
        from repro.cl import nvidia_k20m
        from repro.harness import OpenSystemExperiment

        def make():
            return OpenSystemExperiment(nvidia_k20m())

        def run(experiment, count):
            return experiment.run_stream(arrival_iter(count), scheme)
    return make, run


def profile_stream(count, fleet=False, scheme=SCHEME, sort="tottime",
                   top=25, output=None):
    """Profile one streaming run; returns the report text."""
    make, run = build_runner(fleet, scheme)
    run(make(), WARMUP_COUNT)          # untraced cache warm-up
    experiment = make()
    profiler = cProfile.Profile()
    profiler.enable()
    run(experiment, count)
    profiler.disable()
    events = experiment.events_processed
    header = "{} leg, {}, {} requests, {} engine events".format(
        "fleet" if fleet else "single-device", scheme, count, events)
    return _report(profiler, header, sort, top, output)


def profile_spec(path, sort="tottime", top=25, output=None):
    """Profile ``run(spec)`` on the spec JSON at ``path``; returns the
    report text."""
    from repro.api import ExperimentSpec, run, warm_caches
    spec = ExperimentSpec.from_json(Path(path).read_text())
    warm_caches(spec)                  # untraced calibration warm-up
    profiler = cProfile.Profile()
    profiler.enable()
    results = run(spec, cache=False)
    profiler.disable()
    header = "spec leg {}, {} cells".format(path, len(results))
    return _report(profiler, header, sort, top, output)


def _report(profiler, header, sort, top, output):
    """The ranked table under ``header``; raw pstats to ``output``."""
    if output:
        profiler.dump_stats(output)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    return header + "\n" + buffer.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cProfile the open-system event-engine hot path")
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT,
                        help="requests in the profiled stream "
                             "(default {})".format(DEFAULT_COUNT))
    leg = parser.add_mutually_exclusive_group()
    leg.add_argument("--fleet", action="store_true",
                     help="profile the fleet leg (placement + "
                          "per-device engines) instead of one device")
    leg.add_argument("--spec", metavar="PATH",
                     help="profile repro.api.run on this ExperimentSpec "
                          "JSON instead of a built-in leg")
    parser.add_argument("--scheme", choices=SCHEMES,
                        help="scheme of the built-in legs (default "
                             "{})".format(SCHEME))
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumtime", "ncalls"],
                        help="pstats sort column (default tottime)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows in the ranked table (default 25)")
    parser.add_argument("--output", metavar="PATH",
                        help="also dump raw pstats here (for snakeviz "
                             "or pstats.Stats)")
    args = parser.parse_args(argv)
    if args.spec and args.scheme:
        parser.error("--scheme applies to the built-in legs; a spec "
                     "names its own schemes")
    if args.spec:
        print(profile_spec(args.spec, sort=args.sort, top=args.top,
                           output=args.output))
    else:
        print(profile_stream(args.count, fleet=args.fleet,
                             scheme=args.scheme or SCHEME, sort=args.sort,
                             top=args.top, output=args.output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
