"""pqpan benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Each run is a fresh, single-threaded worker process
(``bench/worker.py``) driving a closed loop with one client.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
``setup_s`` is the median, over several fresh workers, of the time from
process start to the first timed op. With ``--trace 1`` it reports the
per-layer metrics instead: span statistics per op from a traced half of the
run, import times parsed from ``python -X importtime``, and the tracing
overhead against the untraced half.

Stdout carries one JSON line of provenance and per-workload detail, then
the result line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh set-up-only workers per run; the measured worker adds one more sample.
SETUP_PROBES = 4
IMPORT_SAMPLES = 3
IMPORT_PROBE = "import pqpan; import scipy.optimize"
IMPORT_METRICS = {"pqpan": "import.pqpan_ms", "numpy": "import.numpy_ms",
                  "scipy.optimize": "import.scipy_optimize_ms"}
#: Headroom over --seconds for set-up, the last op and the exit of a worker.
WORKER_GRACE_S = 60
#: Figures of an untraced run printed beside the end-to-end metrics on the
#: provenance line, each only where the workload has it.
EXTRA_UNITS = {"failed_frac": "frac", "frames_per_s": "1/s", "cli.estimate_ms": "ms",
               "cli.sweep_ms": "ms", "cli.fit_ms": "ms", "cli.simulate_ms": "ms"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Keep every process single-threaded: numpy's BLAS pool would otherwise
    # start a thread per core at import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(args, mode: str) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds from spawn to READY, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode} before finishing")
    return setup_s, json.loads(rest.splitlines()[-1]) if mode != "setup" else None


def import_times() -> dict:
    """Cumulative import times (ms) from ``-X importtime``, median of a few children."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_METRICS.values()}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=WORKER_GRACE_S)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr[-500:]}")
        seen = set()
        for line in proc.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in IMPORT_METRICS and name not in seen:
                seen.add(name)
                samples[IMPORT_METRICS[name]].append(int(parts[1]) / 1000.0)
    return {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}


def provenance(args, why: str) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": sha,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "cryptography": version("cryptography"),
        "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(whys))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pqpan" / "__init__.py").is_file():
        print(f"bench: no pqpan sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        if args.trace:
            values = import_times()
            _, result = spawn_worker(args, "trace")
            values.update(result["layers"])
            declared = spec["per_layer"]
            detail = {"layers": values}
        else:
            setups = [spawn_worker(args, "setup")[0] for _ in range(SETUP_PROBES)]
            run_setup, result = spawn_worker(args, "run")
            values = dict(result, setup_s=statistics.median([*setups, run_setup]),
                          failed_frac=result["failed"] / result["attempted"])
            declared = spec["end_to_end"]
            units = {m["name"]: m["unit"] for m in declared} | EXTRA_UNITS
            detail = {"metrics": {k: {"value": values[k], "unit": unit}
                                  for k, unit in units.items() if k in values},
                      "samples": {k: v for k, v in values.items()
                                  if k == "attempted" or k.endswith("_samples")}}
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    # A per-layer name whose span never opened (the layer was not called by
    # this workload) reads 0; an end-to-end metric must always be measured.
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not args.trace:
        print(f"bench: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"provenance": provenance(args, whys[args.workload]), **detail}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
