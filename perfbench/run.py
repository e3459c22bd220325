"""Host-time benchmark of the simulator (see NOTES.md).

    python3 perfbench/run.py --workload compile --seed 0 --seconds 18 --trace 0

Run from the repository root.  Each measurement is a fresh,
single-threaded interpreter (``perfbench/worker.py``) with a fixed
``PYTHONHASHSEED`` and one BLAS thread; this launcher never imports the
simulator.  With ``--trace 0`` it runs a few set-up-only
interpreters and one measuring interpreter, and prints every
end-to-end metric.  With ``--trace 1`` it runs an untraced and a traced
interpreter over the same inputs and prints every per-layer metric;
the two runs' output digests must agree.

The last line of standard output is the JSON result.  The full result,
with digests, is also written to ``.perfbench/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    WORKLOADS,
    as_metrics,
    failed_frac,
    median,
)

#: Set-up-only interpreters per untraced run: at least MIN, then more
#: while their set-ups total under PROBE_S seconds, at most MAX.
#: ``setup_s`` is the median of these and the measuring interpreter's
#: own set-up, so a short set-up gets more samples.
MIN_SETUP_PROBES, MAX_SETUP_PROBES, SETUP_PROBE_S = 1, 4, 3.0
#: Per-interpreter wall-clock limit (seconds beyond the measured time).
CHILD_SLACK_S = 120
#: Fixed hash salt: dict/set iteration order must not vary by process.
HASH_SEED = "0"
OUT_DIR = ".perfbench"


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED=HASH_SEED,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        # Keep every file the simulator writes inside the checkout.
        TMPDIR=str(workdir),
        REPRO_ZOO_CACHE=str(workdir / "zoo-cache"),
    )
    return env


def run_child(args, workdir: Path, trace: int, setup_only: bool = False,
              spans: Optional[str] = None) -> dict:
    """One worker interpreter; returns its JSON result."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(time.monotonic())],
            cwd=ROOT, env=child_env(workdir), stdout=subprocess.PIPE,
            timeout=args.seconds + CHILD_SLACK_S, text=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"perfbench: worker exited with {proc.returncode} "
            f"({' '.join(cmd[2:])})"
        )
    return json.loads(lines[-1])


def precompile() -> None:
    """Write bytecode once so every interpreter imports alike."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )


def untraced(args, scratch: Path) -> Tuple[dict, dict]:
    probes = []
    while len(probes) < MAX_SETUP_PROBES and (
        len(probes) < MIN_SETUP_PROBES
        or sum(p["setup_s"] for p in probes) < SETUP_PROBE_S
    ):
        probes.append(run_child(args, scratch / "setup", 0, setup_only=True))
    run = run_child(args, scratch / "measure", 0)
    probes.append(run)
    run["setup_samples"] = [p["setup_s"] for p in probes]
    run["raw_metrics"]["setup_s"] = median(p["setup_raw_s"] for p in probes)
    metrics = dict(run["metrics"])
    metrics["setup_s"] = median(run["setup_samples"])
    metrics["peak_rss_mb"] = run["peak_rss_mb"]
    return run, metrics


def traced(args, scratch: Path, out_dir: Path) -> Tuple[dict, dict]:
    base = run_child(args, scratch / "untraced", 0)
    spans = out_dir / f"{args.workload}-seed{args.seed}-spans"
    run = run_child(args, scratch / "traced", 1, spans=str(spans))
    metrics = dict(run["per_layer"])
    metrics["trace.overhead_frac"] = (
        1.0 - run["metrics"]["items_per_s"] / base["metrics"]["items_per_s"]
    )
    mismatched = [
        label
        for (label, a), (_, b) in zip(base["call_digests"],
                                      run["call_digests"])
        if a != b
    ]
    run["attempted"] += base["attempted"]
    run["failed"] += base["failed"] + len(mismatched)
    run["failures"] += base["failures"] + [
        f"{label}: traced run's output differs from the untraced run's"
        for label in mismatched
    ]
    run["untraced_digest"] = base["digest"]
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / OUT_DIR
    scratch = out_dir / f"tmp-{os.getpid()}"
    try:
        precompile()
        if args.trace:
            run, metrics = traced(args, scratch, out_dir)
        else:
            run, metrics = untraced(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    run["failed_frac"] = failed_frac(run["attempted"], run["failed"])
    run["reported"] = metrics
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    result_path.write_text(json.dumps(run, indent=1, sort_keys=True))

    for name, entry in as_metrics(metrics).items():
        print(f"{args.workload}: {name} = {entry['value']:.6g} "
              f"{entry['unit']}")
    print(f"{args.workload}: wall-time figures before scaling by the host "
          f"speed factor {run['speed_factor']:.4g}: "
          + ", ".join(f"{k} = {v:.6g}"
                      for k, v in sorted(run["raw_metrics"].items())))
    print(f"{args.workload}: {run['calls']} calls in {run['passes']} "
          f"passes; failed_frac = {run['failed_frac']:.6g} "
          f"({run['failed']}/{run['attempted']}); digest {run['digest']}")
    for message in run["failures"]:
        print(f"{args.workload}: FAILED {message}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": as_metrics(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
