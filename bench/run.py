"""diskdyn benchmark: one workload, one seed, metrics as a JSON last line.

    python3 bench/run.py --workload harness|planar|cli_export --seed N \
        --seconds S --trace 0|1

Run from a checkout of the repository; the benchmark imports ``diskdyn``
from ``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics (see bench/README.md).  The workload runs
in a child process with the BLAS/OpenMP thread counts pinned to 1; set-up
time is the median over that child and SETUP_PROBES more that only set up.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOADS = ("harness", "planar", "cli_export")
SETUP_PROBES = 4
# every run must end within 180 s; the worker gets what is left of this
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline); its last line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {DEADLINE_S:.0f} s") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_record(worker: dict) -> dict:
    """What the numbers were measured on."""
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        caches.append({k: _read(os.path.join(d, k))
                       for k in ("level", "type", "size", "shared_cpu_list")})
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "diskdyn", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_cpu0": caches,
        "python": worker.get("python"),
        "numpy": worker.get("numpy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _rounded(values) -> list:
    return [round(v, 4) for v in values]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "diskdyn", "__init__.py")):
        print(f"error: no diskdyn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # a traced run reports no set-up time
        setups = [run_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        res = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                         env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setups.append(res["setup_s"])

    print(json.dumps({"machine": machine_record(res)}))
    walls = res["walls"]
    print(f"passes: {len(walls)}, walls at the reference speed (s): {_rounded(walls)}, "
          f"raw walls (s): {_rounded(res['raw_walls'])}", file=sys.stderr)
    if not args.trace:
        print(f"set-ups at the reference speed (s): {_rounded(setups)}", file=sys.stderr)
    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        metrics = res["metrics"]
        for family, sp in res["family_spreads"].items():
            print(f"{family}: spread (max - min) / median of eval_us {sp['eval_spread']:.3f}, "
                  f"of us_per_step {sp['step_spread']:.3f}", file=sys.stderr)
        print(f"trace written to {res['trace_file']}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "passed_share": {"value": 1.0 - res["failed"] / res["attempted"], "unit": "share"},
            "relerr_max": {"value": res["relerr_max"], "unit": "ratio"},
        }
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
