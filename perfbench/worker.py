"""One benchmark interpreter: set up a workload, then measure it.

Started by ``run.py`` (never by hand: the launcher fixes the
environment that makes runs comparable).  Prints one JSON object as
its last line of standard output.  Times are reported at reference
speed (``metrics.REF_NOMINAL_S``) with the raw wall times beside them;
set-up runs from ``--spawned-at`` to the end of the workload's set-up,
just before the first timed call.

``--setup-only`` stops after set-up and reports only the set-up time;
``--trace 1`` installs the per-layer hooks and reports per-layer
metrics next to the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

#: Reference-loop samples that set the speed factor for set-up times.
SETUP_REF_SAMPLES = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans to this prefix")
    args = parser.parse_args(argv)

    from perfbench import workloads
    from perfbench.harness import measure
    from perfbench.metrics import REF_NOMINAL_S, median, reference_seconds

    t0 = time.perf_counter()
    module = workloads.load(args.workload)
    import_s = time.perf_counter() - t0

    from repro.caching import clear_caches

    tracer = None
    if args.trace:
        from perfbench.trace import HookMissing, Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except HookMissing as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3

    workload = module.Workload()
    workload.setup(args.seed, Path(args.workdir))
    setup_raw_s = time.monotonic() - args.spawned_at
    # Host speed right after set-up, as the calls' speed is taken.
    setup_factor = REF_NOMINAL_S / median(
        [reference_seconds() for _ in range(SETUP_REF_SAMPLES)]
    )
    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * setup_factor,
           "import_raw_s": import_s, "import_s": import_s * setup_factor}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    if tracer is not None:
        from repro import telemetry

        with telemetry.session(tracer.sink):
            run = measure(workload, args.seconds, clear_caches, tracer)
    else:
        run = measure(workload, args.seconds, clear_caches)

    doc.update(
        passes=run.passes,
        calls=len(run.call_seconds),
        items=run.items,
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures,
        digest=run.digest,
        call_digests=run.call_digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        call_seconds=run.call_seconds,
        ref_seconds=run.ref_seconds,
        metrics=run.metrics(),
        raw_metrics=run.raw_metrics(),
        speed_factor=run.speed_factor,
    )
    if tracer is not None:
        per_layer = tracer.per_layer(run.passes)
        for name in per_layer:
            if name.endswith(".ms"):
                per_layer[name] *= run.speed_factor
        per_layer["import.repro_s"] = doc["import_s"]
        doc["per_layer"] = per_layer
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
