"""The kkstab benchmark: three workloads, each checked against its own
reference values.

    python3 kkbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a kkstab checkout (the package is imported from
./src).  Workloads: kg-hyperboloid, quasilinear-identity, cli-pipeline
(see README.md).  Each round of a workload is one fresh Python process
(worker.py) that does a fixed amount of work; one round runs at a time,
with the numerical thread pools capped at one thread.

--trace 0 starts rounds until S seconds have passed (at least one), plus
set-up probes up to SETUP_SAMPLES processes, and reports the medians of
the end-to-end metrics setup_s, wall_s and peak_rss_mb.  --trace 1 runs
one untraced and one traced round and reports the per-layer metrics of
the traced one, with the tracing overhead; the spans are written to
.bench_out/trace-NAME-seedN.json.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("kg-hyperboloid", "quasilinear-identity", "cli-pipeline")
SETUP_SAMPLES = 7
ROUND_TIMEOUT_S = 120
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RoundError(RuntimeError):
    """A worker process failed or timed out."""


def _env() -> dict:
    # KKSTAB_* variables would override the CLI options of cli-pipeline
    env = {k: v for k, v in os.environ.items() if not k.startswith("KKSTAB_")}
    env.update({name: "1" for name in THREAD_CAPS})
    return env


def run_round(root: Path, workload: str, seed: int, tag: str,
              trace: Path | None = None, setup_only: bool = False) -> dict:
    workdir = root / ".bench_out" / f"work-{workload}-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_env(), stdout=subprocess.PIPE,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round {tag} timed out") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RoundError(f"{workload} round {tag} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(rounds: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every check of every round."""
    checks = [c for r in rounds for c in r["checks"]]
    failed = sum(not c["ok"] for c in checks if c["known_fault"])
    correct = all(c["ok"] for c in checks if not c["known_fault"])
    return correct, len(checks), failed


def report_round(i: int, r: dict) -> None:
    ok = sum(c["ok"] for c in r["checks"])
    amp = "" if r["amplitude"] is None else f", amplitude {r['amplitude']:.6g}"
    print(f"round {i}: wall_s {r['wall_s']:.4f} s, setup_s {r['setup_s']:.4f} s, "
          f"peak_rss_mb {r['peak_rss_mb']:.1f} MiB, checks {ok}/"
          f"{len(r['checks'])} ok{amp}")
    for c in r["checks"]:
        if not c["ok"]:
            kind = "known fault" if c["known_fault"] else "WRONG"
            print(f"  {kind}: {c['name']}: {c['detail']}")


def measure(root: Path, workload: str, seed: int, seconds: float):
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run_round(root, workload, seed, str(len(rounds))))
        report_round(len(rounds), rounds[-1])
    setups = [r["setup_s"] for r in rounds]
    for i in range(SETUP_SAMPLES - len(rounds)):
        setups.append(run_round(root, workload, seed, f"probe{i}",
                                setup_only=True)["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
    }
    print(f"{len(rounds)} rounds, {len(setups)} set-ups (medians)")
    return rounds, metrics


def measure_traced(root: Path, workload: str, seed: int):
    plain = run_round(root, workload, seed, "plain")
    report_round(1, plain)
    path = root / ".bench_out" / f"trace-{workload}-seed{seed}.json"
    traced = run_round(root, workload, seed, "traced", trace=path)
    report_round(2, traced)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    print(f"traced round 2, untraced round 1; spans in {path}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kkstab" / "__init__.py").is_file():
        print("kkbench: run from the root of a kkstab checkout "
              "(src/kkstab not found)", file=sys.stderr)
        return 2
    (root / ".bench_out").mkdir(exist_ok=True)
    try:
        if args.trace:
            rounds, metrics = measure_traced(root, args.workload, args.seed)
        else:
            rounds, metrics = measure(root, args.workload, args.seed,
                                      args.seconds)
    except RoundError as exc:
        print(f"kkbench: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct, attempted, failed = tally(rounds)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
