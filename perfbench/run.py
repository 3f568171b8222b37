"""psetdisc benchmark: run one workload in fresh child processes and report.

    python3 perfbench/run.py --workload exact-disc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed several times (child
processes that stop once ready), then one child runs the workload's jobs in a
closed loop for --seconds and checks every output.  With --trace 0 the
end-to-end metrics are reported, with --trace 1 the per-layer ones from a
traced run.  Every metric is printed by name with its unit; the last line of
stdout is one JSON object.  Workloads and metrics are described in NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4      # set-up-only children; set-up is the median of these + the run's own
TIME_LIMIT_S = 170.0  # every run must end within 180 s
# one thread per child: the children are single clients in a closed loop
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in _THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(["src"] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PSET_DISC_MAX_OPS", None)  # the recorded outputs assume the default caps
    # glibc's adaptive mmap threshold makes peak RSS depend on the order of
    # earlier jobs; fixed, arrays of 16 MB and more are always mapped and
    # returned, so the peak follows the largest job, not the job order
    env["MALLOC_MMAP_THRESHOLD_"] = str(16 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(32 << 20)
    return env


def run_child(args: argparse.Namespace, deadline: float, setup_only: bool):
    """Start a child; returns (set-up seconds at reference speed, final JSON or None)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {args.workload} child exceeded the time limit")
    lines = out.splitlines()
    ready = lines[0].split() if lines else []
    if proc.returncode != 0 or len(ready) != 3 or ready[0] != "ready":
        raise SystemExit(f"error: {args.workload} child failed (exit {proc.returncode})")
    setup_s = float(ready[1]) * float(ready[2])
    return setup_s, None if setup_only else json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for path in ("src/psetdisc/cli.py", "tests/oracles.py"):
        if not os.path.isfile(path):
            print(f"error: {path} not found; run from the root of a psetdisc checkout",
                  file=sys.stderr)
            return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    setups = [run_child(args, deadline, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    setup_s, res = run_child(args, deadline, setup_only=False)
    setups.append(setup_s)

    metrics = {k: tuple(v) for k, v in res["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["ok_frac"] = ((res["attempted"] - res["failed"]) / res["attempted"], "ratio")
    info = res["info"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items() if not isinstance(v, list))
          + f" setup_samples={len(setups)}")
    for key in ("pass_cpu_s", "pass_wall_s", "speed"):
        print(f"# {key}=" + ",".join(f"{v:.4g}" for v in info[key]))
    print("# setup_s=" + ",".join(f"{v:.4g}" for v in setups))
    for name, why in sorted(res["failures"].items()):
        print(f"# FAILED {name}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
